"""Command-line interface: validate, eval, convert, order, gtgen.

Documents travel as newline-delimited JSON: one document object per line,
UTF-8, lines separated by "\\n" only. Results go to stdout, diagnostics to
stderr. Exit codes: 0 success, 1 bad input (validation/parse failures,
non-finite numbers), 2 usage errors. Per-document work runs on up to
``--jobs`` threads, with output order always matching input order.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Sequence

from . import convert, gtgen, metrics, readorder
from .model import (
    Category,
    Document,
    _require_dict,
    _require_list,
    _require_page_size,
    _require_str,
    bbox_from_value,
    bbox_to_list,
    document_from_dict,
    document_to_dict,
    validate_document,
)
from .seqformat import parse as parse_tokens
from .seqformat import scan_tokens

#: One decoded input line: its "path:line" location and its JSON value.
Item = tuple[str, Any]


def _round_floats(value: Any) -> Any:
    """Fix every float in a JSON-ready payload at 4 decimals for stable diffs."""
    if isinstance(value, float):
        return round(value, 4)
    if isinstance(value, list):
        return [_round_floats(v) for v in value]
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    return value


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _reject_constant(name: str) -> float:
    raise ValueError(f"{name} is not a JSON number")


def _load_objects(path: str) -> list[Item]:
    """Decode a newline-delimited JSON file into ("path:line", value) pairs.

    Lines end at "\\n" only: JSON strings may hold a raw U+2028 or U+0085,
    which ``str.splitlines`` would take for a line end. The non-standard
    literals NaN, Infinity and -Infinity are rejected.
    """
    out = []
    for lineno, line in enumerate(_read_text(path).split("\n"), 1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            out.append((where, json.loads(line, parse_constant=_reject_constant)))
        except ValueError as exc:
            raise ValueError(f"{where}: invalid JSON: {exc}") from exc
    return out


def _emit(payloads: Iterable[Any], path: str | None = None) -> None:
    """Write each payload as one line of JSON, floats rounded by ``_round_floats``.

    Every line is encoded before the first is written, so a payload holding
    NaN or an infinity raises ValueError and leaves no partial output.
    """
    lines = [json.dumps(_round_floats(p), allow_nan=False) + "\n" for p in payloads]
    if path in (None, "-"):
        sys.stdout.writelines(lines)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)


def _pmap(fn: Callable, items: Sequence, jobs: int) -> list:
    """``[fn(item) for item in items]`` on up to ``jobs`` threads, in input order."""
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(items) < 2:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _cmd_validate(args: argparse.Namespace) -> int:
    problems: list[str] = []
    count = 0
    if args.format == "tokens":
        text = _read_text(args.input)
        doc = parse_tokens(
            scan_tokens(text, bins=args.bins), args.page_width, args.page_height
        )
        count = 1
        problems.extend(f"{args.input}: {v}" for v in validate_document(doc))
    else:
        for where, obj in _load_objects(args.input):
            doc = document_from_dict(obj, where=where)
            count += 1
            problems.extend(f"{where}: {v}" for v in validate_document(doc))
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1
    _emit([{"documents": count, "valid": True}])
    return 0


def _load_corpus(path: str, key: str | None = None) -> tuple[list[Document], list[Any]]:
    docs: list[Document] = []
    ids: list[Any] = []
    for where, obj in _load_objects(path):
        docs.append(document_from_dict(obj, where=where))
        if key is not None:
            if key not in obj:
                raise ValueError(f"{where}: missing alignment key {key!r}")
            ids.append(obj[key])
    return docs, ids


def _align_by_key(gt_ids: list, pred: list[Document], pred_ids: list, key: str) -> list[Document]:
    pred_by_id: dict[Any, Document] = {}
    for pid, doc in zip(pred_ids, pred):
        if pid in pred_by_id:
            raise ValueError(f"duplicate {key!r} value {pid!r} in predicted corpus")
        pred_by_id[pid] = doc
    aligned = []
    for gid in gt_ids:
        if gid not in pred_by_id:
            raise ValueError(f"no predicted document with {key!r} == {gid!r}")
        aligned.append(pred_by_id[gid])
    return aligned


def _cmd_eval(args: argparse.Namespace) -> int:
    gt_docs, gt_ids = _load_corpus(args.gt, args.key)
    pred_docs, pred_ids = _load_corpus(args.pred, args.key)
    if args.key is not None:
        pred_docs = _align_by_key(gt_ids, pred_docs, pred_ids, args.key)
    report = metrics.evaluate(
        gt_docs,
        pred_docs,
        compute_dsm=args.metric in ("dsm", "both"),
        compute_ned=args.metric in ("ned", "both"),
        map=functools.partial(_pmap, jobs=args.jobs),
    )
    _emit([report.to_dict()])
    return 0


# --- per-document commands: one output line per input line -------------------

#: ``convert --target`` name -> per-document payload. The lambdas look the
#: converters up in ``convert`` at call time, so a patched module is honoured.
_TARGETS: dict[str, Callable[[Document], Any]] = {
    "markdown": lambda doc: convert.to_markdown(doc),
    "layout": lambda doc: [
        convert.layout_record_to_dict(r) for r in convert.to_layout_records(doc)
    ],
    "text": lambda doc: convert.to_plain_text(doc),
    "tables": lambda doc: convert.extract_tables(doc),
    "formulas": lambda doc: convert.extract_formulas(doc),
}


def _convert(args: argparse.Namespace, item: Item) -> Any:
    where, obj = item
    return _TARGETS[args.target](document_from_dict(obj, where=where))


def _order(args: argparse.Namespace, item: Item) -> dict:
    where, obj = item
    cfg = readorder.OrderConfig(min_gap=args.min_gap, y_tolerance=args.y_tolerance)
    doc = document_from_dict(obj, where=where)
    order = readorder.xy_cut_order([el.bbox for el in doc.elements], cfg)
    reordered = Document(doc.page_width, doc.page_height, tuple(doc.elements[i] for i in order))
    # Extra top-level keys (an alignment id, say) pass through unchanged.
    return {**obj, **document_to_dict(reordered)}


def _parse_gtgen_input(obj: Any, where: str) -> tuple[list, list, float, float]:
    obj = _require_dict(obj, where)
    width, height = _require_page_size(obj, where)
    elements = []
    for i, item in enumerate(_require_list(obj.get("elements", []), f"{where}.elements")):
        sub = f"{where}.elements[{i}]"
        item = _require_dict(item, sub)
        category = Category.from_name(_require_str(item.get("category"), f"{sub}.category"))
        elements.append((category, bbox_from_value(item.get("bbox"), f"{sub}.bbox")))
    lines = []
    for i, item in enumerate(_require_list(obj.get("lines", []), f"{where}.lines")):
        sub = f"{where}.lines[{i}]"
        item = _require_dict(item, sub)
        lines.append(
            gtgen.RawLine(
                bbox=bbox_from_value(item.get("bbox"), f"{sub}.bbox"),
                text=_require_str(item.get("text", ""), f"{sub}.text"),
            )
        )
    return elements, lines, width, height


def _gtgen(args: argparse.Namespace, item: Item) -> dict:
    where, obj = item
    order_cfg = readorder.OrderConfig(min_gap=args.min_gap, y_tolerance=args.y_tolerance)
    assoc_cfg = gtgen.AssocConfig(iou_threshold=args.iou_threshold)
    elements, lines, width, height = _parse_gtgen_input(obj, where)
    result = gtgen.assemble_ground_truth(
        elements, lines, width, height, order_cfg=order_cfg, assoc_cfg=assoc_cfg
    )
    out = document_to_dict(result.document)
    out["unassigned"] = [
        {"index": i, "bbox": bbox_to_list(lines[i].bbox), "text": lines[i].text}
        for i in result.unassigned
    ]
    return out


def _per_document(step: Callable[[argparse.Namespace, Item], Any], args: argparse.Namespace) -> int:
    """Load ``args.input``, map ``step`` over its lines, write one line each."""
    items = _load_objects(args.input)
    _emit(_pmap(functools.partial(step, args), items, args.jobs), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docrec",
        description="Document reconstruction toolkit: validate, evaluate, convert.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check documents against the model invariants")
    p_validate.add_argument("input", help="document JSONL path, or - for stdin")
    p_validate.add_argument("--format", choices=("json", "tokens"), default="json")
    p_validate.add_argument("--bins", type=int, default=1000, help="coordinate grid size (tokens format)")
    p_validate.add_argument("--page-width", type=float, default=1024.0)
    p_validate.add_argument("--page-height", type=float, default=1024.0)
    p_validate.set_defaults(func=_cmd_validate)

    p_eval = sub.add_parser("eval", help="score a predicted corpus against ground truth")
    p_eval.add_argument("--gt", required=True, help="ground-truth document JSONL")
    p_eval.add_argument("--pred", required=True, help="predicted document JSONL")
    p_eval.add_argument("--metric", choices=("dsm", "ned", "both"), default="both")
    p_eval.add_argument("--key", help="align corpora by this top-level field instead of line order")
    p_eval.add_argument("--jobs", type=int, default=1)
    p_eval.set_defaults(func=_cmd_eval)

    p_convert = sub.add_parser("convert", help="export documents to a per-task format")
    p_convert.add_argument("input", help="document JSONL path, or - for stdin")
    p_convert.add_argument("--target", choices=_TARGETS, required=True)
    p_convert.add_argument("--output", "-o", default=None, help="output path (default stdout)")
    p_convert.add_argument("--jobs", type=int, default=1)
    p_convert.set_defaults(func=functools.partial(_per_document, _convert))

    p_order = sub.add_parser("order", help="rewrite documents with elements in reading order")
    p_order.add_argument("input", help="document JSONL path, or - for stdin")
    p_order.add_argument("--output", "-o", default=None)
    p_order.add_argument("--min-gap", type=float, default=5.0)
    p_order.add_argument("--y-tolerance", type=float, default=10.0)
    p_order.add_argument("--jobs", type=int, default=1)
    p_order.set_defaults(func=functools.partial(_per_document, _order))

    p_gtgen = sub.add_parser(
        "gtgen", help="assemble documents from layout elements plus raw text lines"
    )
    p_gtgen.add_argument("input", help="JSONL of {page_width, page_height, elements, lines}")
    p_gtgen.add_argument("--output", "-o", default=None)
    p_gtgen.add_argument("--min-gap", type=float, default=5.0)
    p_gtgen.add_argument("--y-tolerance", type=float, default=10.0)
    p_gtgen.add_argument("--iou-threshold", type=float, default=0.5)
    p_gtgen.add_argument("--jobs", type=int, default=1)
    p_gtgen.set_defaults(func=functools.partial(_per_document, _gtgen))

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # malformed input must never crash the process
        print(f"error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
