"""Reading-order detection by recursive whitespace cuts.

Regions are split along horizontal whitespace bands first (top/bottom),
then vertical ones (left/right); regions that cannot be cut fall back to a
row-band sort. The result is a deterministic function of the box geometry
alone, independent of input order.
"""

from __future__ import annotations

from typing import Sequence

from .model import BoundingBox, value


@value
class OrderConfig:
    """min_gap: whitespace width that constitutes a cut, in pixels.
    y_tolerance: boxes whose tops differ by at most this much count as one row."""

    min_gap: float = 5.0
    y_tolerance: float = 10.0

    def __post_init__(self) -> None:
        # Written so that NaN, which fails every comparison, is rejected.
        if not self.min_gap > 0:
            raise ValueError(f"min_gap must be positive, got {self.min_gap}")
        if not self.y_tolerance >= 0:
            raise ValueError(f"y_tolerance must be >= 0, got {self.y_tolerance}")


def row_bands(boxes: Sequence[BoundingBox], y_tolerance: float) -> list[list[int]]:
    """Group box indices into rows, top to bottom, each row left to right.

    Taken in (y_min, x_min, x_max, y_max) order, a box joins the current band
    when its y_min lies within ``y_tolerance`` of the band's anchor (the
    band's first, topmost y_min), and starts a new band otherwise.
    """
    by_top = sorted(
        range(len(boxes)),
        key=lambda i: (boxes[i].y_min, boxes[i].x_min, boxes[i].x_max, boxes[i].y_max),
    )
    bands: list[list[int]] = []
    anchor = None
    for i in by_top:
        y = boxes[i].y_min
        if anchor is None or y - anchor > y_tolerance:
            bands.append([])
            anchor = y
        bands[-1].append(i)
    return [
        sorted(
            band,
            key=lambda i: (boxes[i].x_min, boxes[i].y_min, boxes[i].x_max, boxes[i].y_max),
        )
        for band in bands
    ]


def fallback_sort(boxes: Sequence[BoundingBox], y_tolerance: float) -> list[int]:
    """Row-band sort: the indices of ``row_bands`` read band after band."""
    return [i for band in row_bands(boxes, y_tolerance) for i in band]


def _split_groups(
    spans: Sequence[tuple[float, float]], idxs: list[int], min_gap: float
) -> list[list[int]] | None:
    """Partition ``idxs`` at projection gaps >= min_gap along one axis.

    ``spans[i]`` is box i's (low, high) projection on the axis. Projections
    are closed intervals, so touching boxes never split. Returns None when
    the projection has no qualifying gap. Each group is a maximal gap-free
    run of the sorted order, so splitting a group again on this axis fails.
    The reach covers each span's start as well as its end, so equal spans
    share a group even when their corners are out of order (high < low),
    and the groups do not depend on input order.
    """
    order = sorted(idxs, key=spans.__getitem__)
    cuts = [0]
    reach = max(spans[order[0]])
    for k in range(1, len(order)):
        start, end = spans[order[k]]
        if start - reach >= min_gap:
            cuts.append(k)
        if end > reach:
            reach = end
        if start > reach:
            reach = start
    if len(cuts) == 1:
        return None
    cuts.append(len(order))
    return [order[a:b] for a, b in zip(cuts, cuts[1:])]


def xy_cut_order(boxes: Sequence[BoundingBox], cfg: OrderConfig | None = None) -> list[int]:
    """Reading-order permutation of the input indices.

    Recursively splits the box set at whitespace gaps of at least
    ``cfg.min_gap`` (horizontal bands first, then vertical), concatenating
    sub-region orders top-to-bottom / left-to-right; uncuttable regions use
    ``fallback_sort``. The recursion runs on an explicit stack, so nesting
    as deep as the number of boxes is fine.
    """
    cfg = cfg or OrderConfig()
    rows = [(b.y_min, b.y_max) for b in boxes]
    cols = [(b.x_min, b.x_max) for b in boxes]
    out: list[int] = []
    # Regions still to order, each with the spans of the axis that cut it out,
    # the next one on top; pushing a region's groups in reverse emits them first
    # to last. A region never tries the axis that cut it: it has no gap there.
    stack: list[tuple[list[int], list[tuple[float, float]] | None]] = [(list(range(len(boxes))), None)]
    while stack:
        idxs, cut = stack.pop()
        if len(idxs) <= 1:
            out.extend(idxs)
            continue
        for spans in (rows, cols):
            if spans is not cut and (groups := _split_groups(spans, idxs, cfg.min_gap)):
                stack.extend((group, spans) for group in reversed(groups))
                break
        else:
            local = fallback_sort([boxes[i] for i in idxs], cfg.y_tolerance)
            out.extend(idxs[k] for k in local)
    return out
