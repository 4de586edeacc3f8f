"""Similarity metrics for document reconstruction.

The cost of pairing two elements averages a location term (category + box
overlap) and a transcription term (normalized edit distance over canonical
strings); ``document_distance`` sums these costs along a monotone alignment,
and ``dsm`` is one minus the corpus mean of normalized distances. ``ned``, a
markdown-level normalized-edit-distance similarity, serves text-only
comparison; ``evaluate`` computes either or both.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from . import convert
from .convert import element_text  # by name, as perfbench/spans.py wraps metrics.element_text
from .model import BoundingBox, Document, Element, exact_boxes, value


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union. A zero union (only boxes of zero area have one)
    is 1.0 for equal boxes and 0.0 otherwise, so a box's IoU with itself is 1.
    A union floats cannot hold is measured on ``exact_boxes`` copies: the true
    ratio, rounded once. A NaN or infinite coordinate raises ValueError naming
    its box, whatever the union."""
    _require_finite((a, b))
    try:
        inter = a.intersection_area(b)
        union = a.area + b.area - inter
        if math.isfinite(union):
            return inter / union if union > 0 else float(a == b)
    except OverflowError:  # an int beyond the float range
        pass
    a, b = exact_boxes((a, b))
    inter = a.intersection_area(b)
    union = a.area + b.area - inter
    return float(inter / union) if union > 0 else float(a == b)


def _require_finite(boxes: Sequence[BoundingBox]) -> None:
    """Raise ``exact_boxes``'s ValueError for the first box with a NaN or infinite coordinate."""
    for box in boxes:
        try:  # 0.0 * v is 0.0 for a finite v and NaN for an infinity or a NaN
            if 0.0 * box.x_min + 0.0 * box.y_min + 0.0 * box.x_max + 0.0 * box.y_max == 0.0:
                continue
        except OverflowError:  # an int beyond the float range, which is finite
            pass
        exact_boxes((box,))


#: Half-width of the first diagonal band ``edit_distance`` fills.
_BAND = 256
#: Columns per step of the band's window.
_CHUNK = 128


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance with unit costs over Unicode code points.

    A shared prefix and suffix are trimmed first: the distance of p + x + s
    and p + y + s is that of x and y. Then Myers' bit-vector algorithm (1999)
    in Hyyrö's form runs over a diagonal band only (Ukkonen 1985; Hyyrö
    2003). With the longer string's m characters down the rows, the shorter
    one's along the columns and δ their length difference, the band is every
    cell (i, j) with -k <= i - j <= k + δ. A path that leaves it needs at
    least k + 1 insertions or deletions to get out and k + δ + 1 to come
    back, so it costs at least 2k + δ + 2. A pass returns the cost d of some
    path, at most that of the cheapest path inside the band; so if d <=
    2k + δ + 1, the cheapest path of all lies in the band, and d is the
    distance. The first pass takes k = ``_BAND``. If it does not certify its
    d, a second pass with k = (d - δ) // 2 always does, since then
    2k + δ + 2 > d, which is at least the distance. A first band that would
    be half the column or more (2k + δ + ``_CHUNK`` >= m // 2) would save
    little and risk a second pass, so it is the whole column (k = m) at once.
    The second band stays a band however wide it is: it is never more work
    than the whole column.
    """
    if a == b:
        return 0
    n = min(len(a), len(b))
    lo = 0
    while lo < n and a[lo] == b[lo]:
        lo += 1
    hi = 0
    while hi < n - lo and a[-1 - hi] == b[-1 - hi]:
        hi += 1
    a, b = a[lo:len(a) - hi], b[lo:len(b) - hi]
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    bit = 1
    for ch in a:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    m, delta = len(a), len(a) - len(b)
    k = _BAND
    if 2 * k + delta + _CHUNK >= m // 2:
        return _band_pass(peq, b, m, m, delta)
    d = _band_pass(peq, b, m, k, delta)
    if d <= 2 * k + delta + 1:
        return d
    return _band_pass(peq, b, m, (d - delta) // 2, delta)


def _band_pass(peq: dict[str, int], b: str, m: int, k: int, delta: int) -> int:
    """The cost of a path from (0, 0) to (m, len(b)), at most that of the
    cheapest one inside ``edit_distance``'s band of half-width ``k``.

    ``peq[ch]`` has bit i set where row i of the longer string holds ch. The
    columns go in chunks of ``_CHUNK``; each chunk fills a fixed window of DP
    rows lo to hi that covers the band on the chunk's columns and on the
    column before them. Bit t of ``vp``/``vn`` says that the DP column grows
    or shrinks between rows lo + t and lo + t + 1, and row lo grows by 1 on
    each column, as if the cells above it were out of reach. When the window
    slides down, the rows that leave at the top add their steps to ``base``,
    the value at row lo, and the rows that enter at the bottom start with a
    step of +1. Every value so filled is the cost of a real path, and on a
    band cell it is at most the cost of the cheapest path to it inside the
    band, whose cells all lie in the window. Bits above the window hold junk:
    carries and shifts only move upward, so it never reaches the bits that
    count, and it is cleared once per chunk.
    """
    chunk = _CHUNK
    lo = hi = mask = vp = vn = 0
    base = len(b)  # row lo grows by 1 on each column
    window: dict[str, int] = {}
    for j in range(0, len(b), chunk):
        vp &= mask
        vn &= mask
        top, bottom = max(0, j - k), min(m, j + chunk + k + delta)
        if top != lo or bottom != hi:
            gone = (1 << (top - lo)) - 1
            base += (vp & gone).bit_count() - (vn & gone).bit_count()
            vp >>= top - lo
            vn >>= top - lo
            kept = (1 << (hi - top)) - 1
            lo, hi = top, bottom
            mask = (1 << (hi - lo)) - 1
            vp |= mask ^ kept
            window = peq if hi - lo == m else {}  # the whole column needs no slicing
        cols = b[j:j + chunk]
        for ch in set(cols).difference(window):
            window[ch] = (peq.get(ch, 0) >> lo) & mask
        for eq in map(window.__getitem__, cols):
            d0 = (((eq & vp) + vp) ^ vp) | eq | vn
            hp = vn | (mask ^ (d0 | vp))
            x = (hp << 1) | 1
            vn = x & d0
            vp = ((vp & d0) << 1) | (mask ^ (x | d0))
    return base + (vp & mask).bit_count() - (vn & mask).bit_count()


def location_cost(gt: Element, pred: Element) -> float:
    """Category mismatch and box non-overlap, averaged; in [0, 1]."""
    mismatch = 1.0 if gt.category is not pred.category else 0.0
    return (mismatch + (1.0 - iou(gt.bbox, pred.bbox))) / 2.0


def _normalized_edit_distance(a: str, b: str) -> float:
    """Edit distance over the longer length; 0.0 when both strings are empty."""
    if not a and not b:
        return 0.0
    return edit_distance(a, b) / max(len(a), len(b))


def _accumulate(cost: list[list[float]]) -> list[list[float]]:
    """Cheapest monotone path sums from the top-left cell to every cell.

    Each cell adds its own cost to the cheapest of its upper, left and
    upper-left neighbours (DTW-style); the first row and column accumulate
    along the edge.
    """
    k = len(cost)
    kt = len(cost[0])
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
    return dist


def _backtrack(dist: list[list[float]]) -> list[tuple[int, int]]:
    """One cheapest path through ``_accumulate``'s sums, from the last cell back to the first.

    Each step goes to a neighbour that holds the minimum the recurrence took
    there; ties prefer the diagonal, then up, then left.
    """
    i, j = len(dist) - 1, len(dist[0]) - 1
    path = [(i, j)]
    while i or j:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag, up, left = dist[i - 1][j - 1], dist[i - 1][j], dist[i][j - 1]
            best = min(diag, up, left)
            if diag == best:
                i, j = i - 1, j - 1
            elif up == best:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    return path


def document_distance(gt: Document, pred: Document) -> float:
    """Minimum accumulated element cost over a monotone alignment.

    The cost of the cell for gt element g and predicted element p is the mean
    of two terms in [0, 1]: ``location_cost(g, p)``, and the transcription
    cost, which is the edit distance between their ``element_text`` strings
    over the longer one's length, or 0 when both are empty. The recurrence
    charges the cell cost on every move, including skips (DTW-style), with
    first row/column accumulating along the edge. Against an empty page each
    element costs 1, so the distance is the other page's element count.

    The result is that of the DP over every cell's exact cost, bit for bit,
    but most cells never run an edit distance (lazy path evaluation, after
    Dellin & Srinivasa, ICAPS 2016). Every cell starts at a lower bound on
    its cost, with the length difference standing in for the edit distance.
    Then the DP runs, one cheapest path is walked back from the corner, and
    that path's cells get their exact costs; this repeats until the path
    holds only exact costs, or, once the rounds' DP cells pass 16 per inexact
    cell, all cells are made exact. That DP's value is exact: lowering a
    cost never raises a rounded DP value, because ``min`` and ``fl(x + c)``
    are monotone, so it is at most the full DP's; and it is the rounded sum
    of exact costs along one path, which the full DP cannot undercut.

    A pair of boxes that share no area has IoU 0, unless they are one
    zero-area box twice (IoU 1), so its location cost is priced without
    ``iou``. Each box is checked once instead, and a NaN or infinite
    coordinate raises ``iou``'s ValueError wherever its box is.
    """
    k = len(gt.elements)
    kt = len(pred.elements)
    if k == 0 or kt == 0:
        return float(max(k, kt))
    gt_texts = [element_text(g) for g in gt.elements]
    pred_texts = [element_text(p) for p in pred.elements]
    _require_finite([e.bbox for e in gt.elements] + [e.bbox for e in pred.elements])
    loc = []
    for g in gt.elements:
        a = g.bbox
        row = []
        for p in pred.elements:
            b = p.bbox
            if (a.x_min < b.x_max and b.x_min < a.x_max and a.y_min < b.y_max and b.y_min < a.y_max
                    or a.x_min == b.x_min and a == b):
                row.append(location_cost(g, p))
            else:  # no common area, and not one zero-area box twice: IoU 0
                row.append(0.5 if g.category is p.category else 1.0)
        loc.append(row)
    cost = [
        [
            (loc[i][j] + (abs(len(a) - len(b)) / max(len(a), len(b)) if a or b else 0.0)) / 2.0
            for j, b in enumerate(pred_texts)
        ]
        for i, a in enumerate(gt_texts)
    ]
    exact: set[tuple[int, int]] = set()
    for rounds in itertools.count(1):
        dist = _accumulate(cost)
        bound = [cell for cell in _backtrack(dist) if cell not in exact]
        if not bound:
            return dist[k - 1][kt - 1]
        if rounds * k * kt > 16 * (k * kt - len(exact)):
            # About k rounds when every bound is 0: go to the full DP instead.
            bound = [(i, j) for i in range(k) for j in range(kt) if (i, j) not in exact]
        for i, j in bound:
            tran = _normalized_edit_distance(gt_texts[i], pred_texts[j])
            cost[i][j] = (loc[i][j] + tran) / 2.0
        exact.update(bound)


@value
class DocumentScore:
    distance: float
    max_len: int
    normalized: float


@value
class EvalReport:
    """Corpus evaluation result; ``dsm``/``ned`` are None when not computed."""

    per_document: tuple[DocumentScore, ...]
    dsm: float | None
    ned: float | None
    corpus_size: int


def document_score(gt: Document, pred: Document) -> DocumentScore:
    """Distance and normalized distance for one aligned pair.

    The distance is ``document_distance`` over the larger element count, so
    an empty page scores 1 against a non-empty one, and two empty pages 0.
    """
    d = document_distance(gt, pred)
    n = max(len(gt.elements), len(pred.elements))
    return DocumentScore(d, n, d / n if n else 0.0)


def dsm(gt_corpus: Sequence[Document], pred_corpus: Sequence[Document]) -> EvalReport:
    """Document similarity over index-aligned corpora, in [0, 1]; 1 is identity."""
    return evaluate(gt_corpus, pred_corpus, "dsm")


def ned_similarity(gt_markdown: str, pred_markdown: str) -> float:
    """1 - edit distance / max length; 1.0 when both strings are empty."""
    return 1.0 - _normalized_edit_distance(gt_markdown, pred_markdown)


def evaluate(
    gt_corpus: Sequence[Document], pred_corpus: Sequence[Document], metric: str = "both"
) -> EvalReport:
    """Corpus evaluation by ``metric``: "dsm", "ned" or "both"; a metric not asked for is None."""
    if metric not in ("dsm", "ned", "both"):
        raise ValueError(f"metric must be 'dsm', 'ned' or 'both', got {metric!r}")
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
    if metric != "ned":
        scores = tuple(document_score(gt, pred) for gt, pred in pairs)
        dsm_value = 1.0 - sum(s.normalized for s in scores) / len(scores)
    if metric != "dsm":
        values = [ned_similarity(convert.to_markdown(gt), convert.to_markdown(pred)) for gt, pred in pairs]
        ned_value = sum(values) / len(values)
    return EvalReport(scores, dsm=dsm_value, ned=ned_value, corpus_size=len(pairs))
