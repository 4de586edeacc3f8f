"""Spans around calls into docrec's layers, recorded from the benchmark.

``Tracer.installed()`` replaces each layer's public functions at the module
attribute where their caller looks them up (``metrics.edit_distance`` for the
alignment and ``ned``, ``metrics.element_text`` as bound by
``from .convert import``, ``gtgen.xy_cut_order``, ``losses.linear_sum_assignment``
and so on) with a wrapper that records a span, and puts the originals back on
exit. Spans stay in a list in memory; ``write`` stores them at the end of a
run. A span's self time is its duration minus the durations of its child
spans, which run one after another inside it (traced runs use one thread).
"""

from __future__ import annotations

import contextlib
import json
import time
import types
from collections import defaultdict
from typing import Any, Callable

Measure = Callable[[tuple, Any], dict[str, float]]


class Tracer:
    def __init__(self) -> None:
        # [name, parent index or -1, start ns, end ns, counters or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, args: tuple = (), kwargs: dict | None = None,
             measure: Measure | None = None):
        """Call ``fn`` inside a span; ``measure(args, result)`` gives its counters."""
        span = [name, self._stack[-1] if self._stack else -1, 0, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span[3] = time.perf_counter_ns()
            self._stack.pop()
        if measure is not None:
            span[4] = measure(args, result)
        return result

    def replace(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owner: object, attr: str, name: str, measure: Measure | None = None) -> None:
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, measure)

        self.replace(owner, attr, traced)

    @contextlib.contextmanager
    def installed(self):
        try:
            _install(self)
            yield self
        finally:
            for owner, attr, original in reversed(self._patched):
                setattr(owner, attr, original)
            self._patched.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, ns, self_ns and the sum of each counter."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, parent, start, end, counters) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["ns"] += end - start
            row["self_ns"] += end - start - child_ns[i]
            if parent < 0:
                out["<root>"]["ns"] += end - start
            for key, value in (counters or {}).items():
                row[key] += value
        return out

    def write(self, path) -> None:
        request = []
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, parent, start, end, counters) in enumerate(self.spans):
                request.append(i if parent < 0 else request[parent])
                handle.write(json.dumps({
                    "name": name, "request": request[i], "parent": parent,
                    "start_ns": start, "end_ns": end, "counters": counters,
                }) + "\n")


def _install(tracer: Tracer) -> None:
    import corpus
    from docrec import cli, convert, gtgen, losses, metrics, readorder

    def count(key: str, fn: Callable[[tuple, Any], float]) -> Measure:
        return lambda args, result: {key: fn(args, result)}

    def cells(args, result):
        a, b = args
        return 0 if a == b else len(a) * len(b)

    decode = json.loads
    tracer.replace(cli, "json", types.SimpleNamespace(
        loads=lambda text, **kw: tracer.call("cli.json_decode", decode, (text,), kw,
                                             count("kb", lambda a, r: len(a[0]) / 1024)),
        dumps=json.dumps,
        JSONDecodeError=json.JSONDecodeError,
    ))
    wrap = tracer.wrap
    elements_in = count("elements", lambda a, r: len(a[0].elements))
    tokens_in = count("tokens", lambda a, r: len(a[0]))
    tokens_out = count("tokens", lambda a, r: len(r))
    boxes = count("boxes", lambda a, r: len(a[0]))
    wrap(cli, "document_from_dict", "model.document_from_dict", count("elements", lambda a, r: len(r.elements)))
    wrap(cli, "document_to_dict", "model.document_to_dict", elements_in)
    wrap(cli, "validate_document", "model.validate_document", elements_in)
    wrap(cli, "scan_tokens", "seqformat.scan_tokens", tokens_out)
    wrap(cli, "parse_tokens", "seqformat.parse", tokens_in)
    wrap(corpus, "serialize", "seqformat.serialize", tokens_out)
    wrap(corpus, "render_tokens", "seqformat.render_tokens", tokens_in)
    wrap(metrics, "document_distance", "metrics.document_distance",
         count("cells", lambda a, r: len(a[0].elements) * len(a[1].elements)))
    wrap(metrics, "edit_distance", "metrics.edit_distance", count("cells", cells))
    wrap(gtgen, "edit_distance", "metrics.edit_distance", count("cells", cells))
    wrap(metrics, "element_text", "convert.element_text")
    wrap(convert, "element_text", "convert.element_text")
    wrap(convert, "to_markdown", "convert.to_markdown")
    wrap(readorder, "xy_cut_order", "readorder.xy_cut_order", boxes)
    wrap(gtgen, "xy_cut_order", "readorder.xy_cut_order", boxes)
    wrap(readorder, "fallback_sort", "readorder.fallback_sort")
    wrap(gtgen, "associate_lines", "gtgen.associate_lines", lambda a, r: {
        "pairs": len(a[0]) * len(a[1]), "lines": len(a[1]), "unassigned": r.count(None)})
    wrap(losses, "linear_sum_assignment", "losses.linear_sum_assignment")
    for fn in ("hungarian_assign", "matching_cost", "element_discrimination_loss",
               "element_transcription_loss", "sequence_reconstruction_loss", "total_loss"):
        wrap(losses, fn, f"losses.{fn}")


#: The loss terms that total_loss adds up; losses.total_loss.ms covers all four.
LOSS_TERMS = ("losses.element_discrimination_loss", "losses.element_transcription_loss",
              "losses.sequence_reconstruction_loss", "losses.total_loss")


def layer_metrics(totals: dict[str, dict[str, float]], overhead: float) -> dict[str, float]:
    """Per-layer metrics from span totals; 0 where the workload never calls the layer."""

    def per(name: str, key: str, scale: float) -> float:
        row = totals.get(name, {})
        units = row.get(key, 0)
        return row.get("ns", 0) / units * scale if units else 0.0

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    lines = get("gtgen.associate_lines", "lines")
    batches = get("losses.hungarian_assign", "calls")
    loss_ns = sum(get(name, "ns") for name in LOSS_TERMS)
    root_ns = get("<root>", "ns")
    return {
        "metrics.edit_distance.ns_per_cell": per("metrics.edit_distance", "cells", 1.0),
        "metrics.edit_distance.share": get("metrics.edit_distance", "ns") / root_ns if root_ns else 0.0,
        "metrics.edit_distance.calls": get("metrics.edit_distance", "calls"),
        "metrics.edit_distance.cells": get("metrics.edit_distance", "cells"),
        "metrics.alignment.cells": get("metrics.document_distance", "cells"),
        "convert.element_text.calls": get("convert.element_text", "calls"),
        "metrics.document_distance.self_s": get("metrics.document_distance", "self_ns") / 1e9,
        "convert.to_markdown.us_per_doc": per("convert.to_markdown", "calls", 1e-3),
        "cli.json_decode.us_per_kb": per("cli.json_decode", "kb", 1e-3),
        "model.document_from_dict.us_per_element": per("model.document_from_dict", "elements", 1e-3),
        "model.document_to_dict.us_per_element": per("model.document_to_dict", "elements", 1e-3),
        "model.validate_document.us_per_element": per("model.validate_document", "elements", 1e-3),
        "seqformat.serialize.us_per_token": per("seqformat.serialize", "tokens", 1e-3),
        "seqformat.render_tokens.us_per_token": per("seqformat.render_tokens", "tokens", 1e-3),
        "seqformat.scan_tokens.us_per_token": per("seqformat.scan_tokens", "tokens", 1e-3),
        "seqformat.parse.us_per_token": per("seqformat.parse", "tokens", 1e-3),
        "readorder.xy_cut_order.us_per_box": per("readorder.xy_cut_order", "boxes", 1e-3),
        "readorder.fallback_sort.calls": get("readorder.fallback_sort", "calls"),
        "gtgen.associate_lines.us_per_pair": per("gtgen.associate_lines", "pairs", 1e-3),
        "gtgen.unassigned_ratio": get("gtgen.associate_lines", "unassigned") / lines if lines else 0.0,
        "losses.hungarian_assign.ms": per("losses.hungarian_assign", "calls", 1e-6),
        "losses.linear_sum_assignment.calls": get("losses.linear_sum_assignment", "calls"),
        "losses.total_loss.ms": loss_ns / batches * 1e-6 if batches else 0.0,
        "cli.self_s": get("cli", "self_ns") / 1e9,
        "tracing.overhead": overhead,
    }
