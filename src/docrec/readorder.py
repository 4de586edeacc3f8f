"""Reading-order detection by recursive whitespace cuts.

Regions are split along horizontal whitespace bands first (top/bottom),
then vertical ones (left/right); regions that cannot be cut fall back to a
row-band sort. The result is a deterministic function of the box geometry
alone, independent of input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import BoundingBox


@dataclass(frozen=True)
class OrderConfig:
    """min_gap: whitespace width that constitutes a cut, in pixels.
    y_tolerance: boxes whose tops differ by at most this much count as one row."""

    min_gap: float = 5.0
    y_tolerance: float = 10.0

    def __post_init__(self) -> None:
        if self.min_gap <= 0:
            raise ValueError(f"min_gap must be positive, got {self.min_gap}")
        if self.y_tolerance < 0:
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
    the projection has no qualifying gap.
    """
    order = sorted(idxs, key=spans.__getitem__)
    groups: list[list[int]] = []
    current = [order[0]]
    reach = spans[order[0]][1]
    for i in order[1:]:
        start, end = spans[i]
        if start - reach >= min_gap:
            groups.append(current)
            current = [i]
        else:
            current.append(i)
        reach = max(reach, end)
    groups.append(current)
    return groups if len(groups) > 1 else None


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
    # Regions still to order, the next one on top; pushing a region's groups
    # in reverse emits them first to last.
    stack = [list(range(len(boxes)))]
    while stack:
        idxs = stack.pop()
        if len(idxs) <= 1:
            out.extend(idxs)
            continue
        groups = _split_groups(rows, idxs, cfg.min_gap)
        if groups is None:
            groups = _split_groups(cols, idxs, cfg.min_gap)
        if groups is None:
            local = fallback_sort([boxes[i] for i in idxs], cfg.y_tolerance)
            out.extend(idxs[k] for k in local)
        else:
            stack.extend(reversed(groups))
    return out
