"""Similarity metrics for document reconstruction.

Per-element costs combine a location term (category + box overlap) with a
transcription term (normalized edit distance over canonical strings); a
document-level distance accumulates element costs along a monotone
alignment, and the corpus similarity is one minus the mean normalized
distance. A markdown-level normalized-edit-distance similarity is provided
alongside for text-only comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .convert import element_text, to_markdown
from .model import BoundingBox, Document, Element


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union; 0.0 when the union has zero area."""
    inter = a.intersection_area(b)
    union = a.area + b.area - inter
    if not math.isfinite(union):
        # The areas overflowed. IoU does not change when an axis is scaled, so
        # scale each axis by the power of two that brings its largest magnitude
        # into [0.5, 1); that is exact for every coordinate that stays normal.
        sx = -math.frexp(max(abs(a.x_min), abs(a.x_max), abs(b.x_min), abs(b.x_max)))[1]
        sy = -math.frexp(max(abs(a.y_min), abs(a.y_max), abs(b.y_min), abs(b.y_max)))[1]
        a, b = (
            BoundingBox(
                math.ldexp(box.x_min, sx),
                math.ldexp(box.y_min, sy),
                math.ldexp(box.x_max, sx),
                math.ldexp(box.y_max, sy),
            )
            for box in (a, b)
        )
        inter = a.intersection_area(b)
        union = a.area + b.area - inter
    if union <= 0:
        return 0.0
    return inter / union


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance with unit costs over Unicode codepoints."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    xs = np.frombuffer(a.encode("utf-32-le"), dtype=np.uint32)
    ys = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    offsets = np.arange(ys.size + 1)
    prev = offsets.copy()
    cur = np.empty_like(prev)
    for i in range(xs.size):
        cur[0] = i + 1
        np.minimum(prev[:-1] + (ys != xs[i]), prev[1:] + 1, out=cur[1:])
        # Propagate the left-to-right insertion chain in one vector pass:
        # min over k<=j of cur[k] + (j-k) == j + running-min of (cur - j).
        shifted = cur - offsets
        np.minimum.accumulate(shifted, out=shifted)
        np.add(shifted, offsets, out=cur)
        prev, cur = cur, prev
    return int(prev[-1])


def location_cost(gt: Element, pred: Element) -> float:
    """Category mismatch and box non-overlap, averaged; in [0, 1]."""
    mismatch = 1.0 if gt.category is not pred.category else 0.0
    return (mismatch + (1.0 - iou(gt.bbox, pred.bbox))) / 2.0


def transcription_cost(gt: Element, pred: Element) -> float:
    """Normalized edit distance between canonical transcription strings.

    Defined as 0 when both strings are empty (two figures match perfectly).
    """
    a = element_text(gt)
    b = element_text(pred)
    if not a and not b:
        return 0.0
    return edit_distance(a, b) / max(len(a), len(b))


@dataclass(frozen=True)
class ElementCostBreakdown:
    location_cost: float
    transcription_cost: float
    total: float


def element_cost(gt: Element, pred: Element) -> ElementCostBreakdown:
    loc = location_cost(gt, pred)
    tran = transcription_cost(gt, pred)
    return ElementCostBreakdown(loc, tran, (loc + tran) / 2.0)


class EmptyDocumentError(ValueError):
    """Raised by document_distance when either document has no elements."""


def document_distance(gt: Document, pred: Document) -> float:
    """Minimum accumulated element cost over a monotone alignment.

    The recurrence charges the cell cost on every move, including skips
    (DTW-style), with first row/column accumulating along the edge.
    """
    k = len(gt.elements)
    kt = len(pred.elements)
    if k == 0 or kt == 0:
        raise EmptyDocumentError("document_distance requires non-empty documents")
    cost = [
        [element_cost(g, p).total for p in pred.elements] for g in gt.elements
    ]
    dist = [[0.0] * kt for _ in range(k)]
    dist[0][0] = cost[0][0]
    for i in range(1, k):
        dist[i][0] = dist[i - 1][0] + cost[i][0]
    for j in range(1, kt):
        dist[0][j] = dist[0][j - 1] + cost[0][j]
    for i in range(1, k):
        for j in range(1, kt):
            dist[i][j] = (
                min(dist[i - 1][j], dist[i][j - 1], dist[i - 1][j - 1]) + cost[i][j]
            )
    return dist[k - 1][kt - 1]


@dataclass(frozen=True)
class DocumentScore:
    distance: float
    max_len: int
    normalized: float


@dataclass(frozen=True)
class EvalReport:
    """Corpus evaluation result; ``dsm``/``ned`` are None when not computed."""

    per_document: tuple[DocumentScore, ...]
    dsm: float | None
    ned: float | None
    corpus_size: int

    def to_dict(self) -> dict:
        return {
            "per_document": [
                {
                    "distance": s.distance,
                    "max_len": s.max_len,
                    "normalized": s.normalized,
                }
                for s in self.per_document
            ],
            "dsm": self.dsm,
            "ned": self.ned,
            "corpus_size": self.corpus_size,
        }


def document_score(gt: Document, pred: Document) -> DocumentScore:
    """Distance and normalized distance for one aligned pair.

    Empty-vs-empty scores 0; empty-vs-nonempty charges full cost for every
    element of the nonempty side (normalized term 1), keeping the corpus
    metric bounded and monotone.
    """
    k = len(gt.elements)
    kt = len(pred.elements)
    if k == 0 and kt == 0:
        return DocumentScore(0.0, 0, 0.0)
    if k == 0 or kt == 0:
        n = max(k, kt)
        return DocumentScore(float(n), n, 1.0)
    d = document_distance(gt, pred)
    n = max(k, kt)
    return DocumentScore(d, n, d / n)


def dsm(gt_corpus: Sequence[Document], pred_corpus: Sequence[Document]) -> EvalReport:
    """Document similarity over index-aligned corpora, in [0, 1]; 1 is identity."""
    return evaluate(gt_corpus, pred_corpus, compute_ned=False)


def ned_similarity(gt_markdown: str, pred_markdown: str) -> float:
    """1 - edit distance / max length; 1.0 when both strings are empty."""
    if not gt_markdown and not pred_markdown:
        return 1.0
    dist = edit_distance(gt_markdown, pred_markdown)
    return 1.0 - dist / max(len(gt_markdown), len(pred_markdown))


def corpus_ned(gt_corpus: Sequence[Document], pred_corpus: Sequence[Document]) -> float:
    """Mean markdown-level similarity over index-aligned corpora (higher is better)."""
    return evaluate(gt_corpus, pred_corpus, compute_dsm=False).ned


def evaluate(
    gt_corpus: Sequence[Document],
    pred_corpus: Sequence[Document],
    compute_dsm: bool = True,
    compute_ned: bool = True,
    map: Callable[[Callable, Sequence], Iterable] = map,
) -> EvalReport:
    """Corpus evaluation combining both metrics as requested.

    ``map(fn, pairs)`` applies a per-pair scorer to the list of (gt, pred)
    pairs and must yield results in input order; pass an order-preserving
    parallel map to spread the per-document work.
    """
    if len(gt_corpus) != len(pred_corpus):
        raise ValueError(
            f"corpus length mismatch: {len(gt_corpus)} ground-truth vs "
            f"{len(pred_corpus)} predicted documents"
        )
    if len(gt_corpus) == 0:
        raise ValueError("corpora must contain at least one document")
    pairs = list(zip(gt_corpus, pred_corpus))
    scores: tuple[DocumentScore, ...] = ()
    dsm_value = None
    ned_value = None
    if compute_dsm:
        scores = tuple(map(lambda gp: document_score(*gp), pairs))
        dsm_value = 1.0 - sum(s.normalized for s in scores) / len(scores)
    if compute_ned:
        values = list(
            map(lambda gp: ned_similarity(to_markdown(gp[0]), to_markdown(gp[1])), pairs)
        )
        ned_value = sum(values) / len(values)
    return EvalReport(scores, dsm=dsm_value, ned=ned_value, corpus_size=len(pairs))
