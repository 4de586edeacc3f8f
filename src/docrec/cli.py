"""Command-line interface: validate, eval, convert, order, gtgen.

Documents travel as newline-delimited JSON (one document object per line,
UTF-8). Results go to stdout, diagnostics to stderr. Exit codes: 0 success,
1 bad input (validation/parse failures), 2 usage errors. Per-document work
runs on up to ``--jobs`` threads (default from DOCREC_JOBS), with output
order always matching input order.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Sequence, TextIO

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


def _load_objects(path: str) -> list[tuple[int, Any]]:
    """Parse a newline-delimited JSON file into (line number, object) pairs."""
    out = []
    for lineno, line in enumerate(_read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        try:
            out.append((lineno, json.loads(line)))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
    return out


def _load_corpus(path: str, key: str | None = None) -> tuple[list[Document], list[Any]]:
    docs: list[Document] = []
    ids: list[Any] = []
    for lineno, obj in _load_objects(path):
        docs.append(document_from_dict(obj, where=f"{path}:{lineno}"))
        if key is not None:
            if not isinstance(obj, dict) or key not in obj:
                raise ValueError(f"{path}:{lineno}: missing alignment key {key!r}")
            ids.append(obj[key])
    return docs, ids


def _emit_lines(lines: Iterable[str], path: str | None) -> None:
    stream: TextIO = sys.stdout if path in (None, "-") else open(path, "w", encoding="utf-8")
    try:
        for line in lines:
            stream.write(line)
            stream.write("\n")
    finally:
        if stream is not sys.stdout:
            stream.close()


def _job_count(args: argparse.Namespace) -> int:
    if args.jobs is not None:
        jobs = args.jobs
    else:
        raw = os.environ.get("DOCREC_JOBS", "1")
        try:
            jobs = int(raw)
        except ValueError as exc:
            raise ValueError(f"DOCREC_JOBS must be an integer, got {raw!r}") from exc
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    return jobs


def _pmap(fn: Callable, items: Sequence, jobs: int) -> list:
    if jobs <= 1 or len(items) < 2:
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
        for lineno, obj in _load_objects(args.input):
            doc = document_from_dict(obj, where=f"{args.input}:{lineno}")
            count += 1
            problems.extend(f"{args.input}:{lineno}: {v}" for v in validate_document(doc))
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1
    print(json.dumps({"documents": count, "valid": True}))
    return 0


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
        map=functools.partial(_pmap, jobs=_job_count(args)),
    )
    print(json.dumps(_round_floats(report.to_dict())))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    docs, _ = _load_corpus(args.input)
    jobs = _job_count(args)
    target = args.target

    def run(doc: Document) -> str:
        if target == "markdown":
            payload: Any = convert.to_markdown(doc)
        elif target == "layout":
            payload = [convert.layout_record_to_dict(r) for r in convert.to_layout_records(doc)]
        elif target == "text":
            payload = convert.to_plain_text(doc)
        elif target == "tables":
            payload = convert.extract_tables(doc)
        else:
            payload = convert.extract_formulas(doc)
        return json.dumps(_round_floats(payload))

    _emit_lines(_pmap(run, docs, jobs), args.output)
    return 0


def _cmd_order(args: argparse.Namespace) -> int:
    cfg = readorder.OrderConfig(min_gap=args.min_gap, y_tolerance=args.y_tolerance)
    rows = _load_objects(args.input)
    jobs = _job_count(args)

    def run(item: tuple[int, Any]) -> str:
        lineno, obj = item
        doc = document_from_dict(obj, where=f"{args.input}:{lineno}")
        order = readorder.xy_cut_order([el.bbox for el in doc.elements], cfg)
        reordered = Document(
            page_width=doc.page_width,
            page_height=doc.page_height,
            elements=tuple(doc.elements[i] for i in order),
        )
        out = dict(obj) if isinstance(obj, dict) else {}
        out.update(document_to_dict(reordered))
        return json.dumps(_round_floats(out))

    _emit_lines(_pmap(run, rows, jobs), args.output)
    return 0


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


def _cmd_gtgen(args: argparse.Namespace) -> int:
    order_cfg = readorder.OrderConfig(min_gap=args.min_gap, y_tolerance=args.y_tolerance)
    assoc_cfg = gtgen.AssocConfig(iou_threshold=args.iou_threshold)
    rows = _load_objects(args.input)
    jobs = _job_count(args)

    def run(item: tuple[int, Any]) -> str:
        lineno, obj = item
        elements, lines, width, height = _parse_gtgen_input(obj, f"{args.input}:{lineno}")
        result = gtgen.assemble_ground_truth(
            elements, lines, width, height, order_cfg=order_cfg, assoc_cfg=assoc_cfg
        )
        out = document_to_dict(result.document)
        out["unassigned"] = [
            {"index": i, "bbox": bbox_to_list(lines[i].bbox), "text": lines[i].text}
            for i in result.unassigned
        ]
        return json.dumps(_round_floats(out))

    _emit_lines(_pmap(run, rows, jobs), args.output)
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
    p_eval.add_argument("--jobs", type=int, default=None)
    p_eval.set_defaults(func=_cmd_eval)

    p_convert = sub.add_parser("convert", help="export documents to a per-task format")
    p_convert.add_argument("input", help="document JSONL path, or - for stdin")
    p_convert.add_argument(
        "--target",
        choices=("markdown", "layout", "text", "tables", "formulas"),
        required=True,
    )
    p_convert.add_argument("--output", "-o", default=None, help="output path (default stdout)")
    p_convert.add_argument("--jobs", type=int, default=None)
    p_convert.set_defaults(func=_cmd_convert)

    p_order = sub.add_parser("order", help="rewrite documents with elements in reading order")
    p_order.add_argument("input", help="document JSONL path, or - for stdin")
    p_order.add_argument("--output", "-o", default=None)
    p_order.add_argument("--min-gap", type=float, default=5.0)
    p_order.add_argument("--y-tolerance", type=float, default=10.0)
    p_order.add_argument("--jobs", type=int, default=None)
    p_order.set_defaults(func=_cmd_order)

    p_gtgen = sub.add_parser(
        "gtgen", help="assemble documents from layout elements plus raw text lines"
    )
    p_gtgen.add_argument("input", help="JSONL of {page_width, page_height, elements, lines}")
    p_gtgen.add_argument("--output", "-o", default=None)
    p_gtgen.add_argument("--min-gap", type=float, default=5.0)
    p_gtgen.add_argument("--y-tolerance", type=float, default=10.0)
    p_gtgen.add_argument("--iou-threshold", type=float, default=0.5)
    p_gtgen.add_argument("--jobs", type=int, default=None)
    p_gtgen.set_defaults(func=_cmd_gtgen)

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
