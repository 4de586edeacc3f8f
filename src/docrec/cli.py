"""Command-line interface: validate, eval, convert, order, gtgen.

Documents travel as newline-delimited JSON: one document object per line,
UTF-8, lines separated by "\\n" only. Results go to stdout, diagnostics to
stderr. Exit codes: 0 success, 1 bad input (validation/parse failures,
non-finite numbers), 2 usage errors (flag values are checked before any
input is read), 3 a fault in docrec (its traceback goes to stderr).
Per-document work runs on one thread, in input order: each line is decoded,
run and encoded before the next is decoded, so the first line that cannot be
decoded or run is the one reported, and nothing is written unless all can.
``--jobs N`` is checked and has no effect: it stays so that existing command
lines keep working.
Each subcommand imports the library modules it runs, when it runs, so a call
loads only what it needs. ``eval`` reads each corpus into one dict of
id -> ("path:line", document), the id being the ``--key`` field or else the
document's position, and passes ``--metric`` to ``metrics.evaluate`` as given.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any, Callable, Iterable, Iterator, Sequence

from .model import (
    Document,
    check_page,
    document_from_dict,
    document_to_dict,
    text_lines_from_value,
    to_json_value,
    validate_document,
)
from .seqformat import DEFAULT_BINS, check_grid, scan_tokens
from .seqformat import parse as parse_tokens

def _round_floats(value: Any) -> Any:
    """Fix every float in a JSON-ready payload at 4 decimals for stable diffs."""
    kind = type(value)  # payloads hold no subclasses (json.loads, to_json_value); a bool stays
    if kind is float:  # an integral float, as pixel coordinates often are, is its own rounding
        return value if value.is_integer() else round(value, 4)
    if kind is list:
        return [_round_floats(v) for v in value]
    if kind is dict:
        return {k: _round_floats(v) for k, v in value.items()}
    return value


def _read_text(path: str) -> str:
    """The bytes of ``path``, or of stdin for "-", decoded as strict UTF-8 and nothing else."""
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as handle:
                data = handle.read()
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _reject_constant(name: str) -> float:
    raise ValueError(f"{name} is not a JSON number")


def _load_documents(path: str) -> Iterator[tuple[str, Any, Document]]:
    """Yield ("path:line", value, document) for each line of a newline-delimited JSON file.

    Each line is decoded, and its value built into a document by
    ``document_from_dict``, only when the one before it has been taken. The
    value is yielded too, for the top-level keys a document does not hold.
    The whole file is read and checked as UTF-8 first. Lines end at "\\n"
    only: JSON strings may hold a raw U+2028 or U+0085, which
    ``str.splitlines`` would take for a line end. A line of JSON whitespace is
    skipped. The non-standard literals NaN, Infinity and -Infinity are
    rejected, and so is nesting too deep to decode.
    """
    for lineno, line in enumerate(_read_text(path).split("\n"), 1):
        if not line.strip(" \t\r"):
            continue
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(line, parse_constant=_reject_constant)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{where}: invalid JSON: {exc}") from exc
        yield where, obj, document_from_dict(obj, where=where)


def _emit(results: Iterable[tuple[str, Any]], path: str | None = None) -> None:
    """Write one line of JSON per ``(where, payload)`` pair, floats rounded by ``_round_floats``.

    Every line is encoded before the first is written, so a payload holding
    NaN or an infinity, or nested too deep to encode, raises ValueError
    prefixed with its ``where`` and leaves no partial output.
    """
    lines = []
    for where, payload in results:
        try:
            lines.append(json.dumps(_round_floats(payload), allow_nan=False) + "\n")
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{where}: {exc}") from exc
    if path in (None, "-"):
        sys.stdout.writelines(lines)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.format == "tokens":
        tokens = scan_tokens(_read_text(args.input), bins=args.bins)
        docs = [(args.input, parse_tokens(tokens, args.page_width, args.page_height))]
    else:
        docs = ((where, doc) for where, _, doc in _load_documents(args.input))
    count, problems = 0, []
    for count, (where, doc) in enumerate(docs, 1):
        problems.extend(f"{where}: {v}" for v in validate_document(doc))
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1
    _emit([(args.input, {"documents": count, "valid": True})])
    return 0


def _load_corpus(path: str, key: str | None = None) -> dict[Any, tuple[str, Document]]:
    """Decode a corpus into ``{id: ("path:line", document)}``, in file order.

    Without ``key`` the id is the document's position. With it, the id is
    that top-level field: a string or an integer (not a bool, which would
    equal 1 or 0), unique within its corpus.
    """
    corpus: dict[Any, tuple[str, Document]] = {}
    for where, obj, doc in _load_documents(path):
        value: Any = len(corpus)
        if key is not None:
            if key not in obj:
                raise ValueError(f"{where}: missing alignment key {key!r}")
            value = obj[key]
            if isinstance(value, bool) or not isinstance(value, (str, int)):
                raise ValueError(
                    f"{where}: alignment key {key!r} must be a string or an integer, got {value!r}"
                )
            if value in corpus:
                raise ValueError(f"{where}: duplicate {key!r} value {value!r}, first at {corpus[value][0]}")
        corpus[value] = (where, doc)
    return corpus


def _cmd_eval(args: argparse.Namespace) -> int:
    from . import metrics

    gt = _load_corpus(args.gt, args.key)
    pred = _load_corpus(args.pred, args.key)
    if args.key is not None:
        # Every gt id is matched before any pred id, each in file order.
        for ids, other, side in ((gt, pred, "predicted"), (pred, gt, "ground-truth")):
            for value, (where, _) in ids.items():
                if value not in other:
                    raise ValueError(f"{where}: no {side} document with {args.key!r} == {value!r}")
        pred = {value: pred[value] for value in gt}
    report = metrics.evaluate([doc for _, doc in gt.values()], [doc for _, doc in pred.values()], args.metric)
    _emit([(f"{args.gt} vs {args.pred}", to_json_value(report))])
    return 0


# --- per-document commands: one output line per input line -------------------

#: Each ``convert --target`` and the name of the ``convert`` function that makes it.
_TARGETS = {"markdown": "to_markdown", "layout": "to_layout_records", "text": "to_plain_text",
            "tables": "extract_tables", "formulas": "extract_formulas"}


def _convert(args: argparse.Namespace, where: str, obj: Any, doc: Document) -> Any:
    from . import convert

    return to_json_value(getattr(convert, _TARGETS[args.target])(doc))


def _order(args: argparse.Namespace, where: str, obj: Any, doc: Document) -> dict:
    from . import readorder

    order = readorder.xy_cut_order([el.bbox for el in doc.elements], args.order_cfg)
    reordered = Document(doc.page_width, doc.page_height, tuple(doc.elements[i] for i in order))
    # Extra top-level keys (an alignment id, say) are kept, ahead of the document's
    # own; ``_emit`` rounds their floats to 4 decimals, as it does every float.
    return {**obj, **document_to_dict(reordered)}


def _gtgen(args: argparse.Namespace, where: str, obj: Any, page: Document) -> dict:
    from . import gtgen

    lines = text_lines_from_value(obj.get("lines", []), f"{where}.lines")
    result = gtgen.assemble_ground_truth(
        [(el.category, el.bbox) for el in page.elements],
        lines,
        page.page_width,
        page.page_height,
        order_cfg=args.order_cfg,
        assoc_cfg=args.assoc_cfg,
    )
    out = document_to_dict(result.document)
    out["unassigned"] = [{"index": i, **to_json_value(lines[i])} for i in result.unassigned]
    return out


def _per_document(step: Callable[[argparse.Namespace, str, Any, Document], Any], args: argparse.Namespace) -> int:
    """Run ``step`` on each line of ``args.input`` in order, each encoded before the next is read."""
    _emit(((where, step(args, where, obj, doc)) for where, obj, doc in _load_documents(args.input)), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docrec",
        description="Document reconstruction toolkit: validate, evaluate, convert.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Kept so that existing command lines still parse; see the module docstring.
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument(
        "--jobs", type=int, default=1,
        help="accepted and checked (>= 1) but has no effect: the work runs on one thread",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", "-o", default=None, help="output path (default stdout)")
    ordering = argparse.ArgumentParser(add_help=False)
    ordering.add_argument("--min-gap", type=float, default=5.0)
    ordering.add_argument("--y-tolerance", type=float, default=10.0)

    p_validate = sub.add_parser("validate", help="check documents against the model invariants")
    p_validate.add_argument("input", help="document JSONL path, or - for stdin")
    p_validate.add_argument("--format", choices=("json", "tokens"), default="json")
    p_validate.add_argument("--bins", type=int, help=f"coordinate grid size (tokens format; default {DEFAULT_BINS})")
    p_validate.add_argument("--page-width", type=float, help="tokens format; default 1024")
    p_validate.add_argument("--page-height", type=float, help="tokens format; default 1024")
    p_validate.set_defaults(func=_cmd_validate)

    p_eval = sub.add_parser("eval", parents=[jobs], help="score a predicted corpus against ground truth")
    p_eval.add_argument("--gt", required=True, help="ground-truth document JSONL")
    p_eval.add_argument("--pred", required=True, help="predicted document JSONL")
    p_eval.add_argument("--metric", choices=("dsm", "ned", "both"), default="both")
    p_eval.add_argument("--key", help="align corpora by this top-level field instead of line order")
    p_eval.set_defaults(func=_cmd_eval)

    p_convert = sub.add_parser("convert", parents=[jobs, output], help="export documents to a per-task format")
    p_convert.add_argument("input", help="document JSONL path, or - for stdin")
    p_convert.add_argument("--target", choices=_TARGETS, required=True)
    p_convert.set_defaults(func=functools.partial(_per_document, _convert))

    p_order = sub.add_parser("order", parents=[jobs, output, ordering],
                             help="rewrite documents with elements in reading order")
    p_order.add_argument("input", help="document JSONL path, or - for stdin")
    p_order.set_defaults(func=functools.partial(_per_document, _order))

    p_gtgen = sub.add_parser("gtgen", parents=[jobs, output, ordering],
                             help="assemble documents from layout elements plus raw text lines")
    p_gtgen.add_argument("input", help="JSONL of {page_width, page_height, elements, lines}")
    p_gtgen.add_argument("--iou-threshold", type=float, default=0.5,
                         help="least score for an element to claim a line; the score is the share "
                         "of the line's area the element covers, in (0, 1]")
    p_gtgen.set_defaults(func=functools.partial(_per_document, _gtgen))

    return parser


#: ``validate`` flags that only token text reads, with their defaults.
_TOKEN_FLAGS = {"bins": DEFAULT_BINS, "page_width": 1024.0, "page_height": 1024.0}


def _build_options(args: argparse.Namespace) -> None:
    """Check the numeric flags and build the option objects once, before any input is read.

    A bad value raises ValueError, which ``main`` reports as a usage error.
    """
    for flag, default in _TOKEN_FLAGS.items():
        if flag not in args:
            continue
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif args.format != "tokens":
            raise ValueError(f"--{flag.replace('_', '-')} applies only to --format tokens")
    if "jobs" in args and args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if "bins" in args:
        check_grid(args.bins)
    if "page_width" in args:
        check_page(args.page_width, args.page_height)
    if "min_gap" in args:
        from .readorder import OrderConfig

        args.order_cfg = OrderConfig(min_gap=args.min_gap, y_tolerance=args.y_tolerance)
    if "iou_threshold" in args:
        from .gtgen import AssocConfig

        args.assoc_cfg = AssocConfig(iou_threshold=args.iou_threshold)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _build_options(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # bad input raises ValueError; anything else is a fault in docrec
        import traceback

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
