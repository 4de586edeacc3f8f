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
    boxes: Sequence[BoundingBox],
    idxs: list[int],
    lo: str,
    hi: str,
    min_gap: float,
) -> list[list[int]] | None:
    """Partition ``idxs`` at projection gaps >= min_gap along one axis.

    Projections are closed intervals, so touching boxes never split. Returns
    None when the projection has no qualifying gap.
    """
    order = sorted(
        idxs, key=lambda i: (getattr(boxes[i], lo), getattr(boxes[i], hi))
    )
    groups: list[list[int]] = []
    current = [order[0]]
    reach = getattr(boxes[order[0]], hi)
    for i in order[1:]:
        start = getattr(boxes[i], lo)
        if start - reach >= min_gap:
            groups.append(current)
            current = [i]
        else:
            current.append(i)
        reach = max(reach, getattr(boxes[i], hi))
    groups.append(current)
    return groups if len(groups) > 1 else None


def _order_region(boxes: Sequence[BoundingBox], idxs: list[int], cfg: OrderConfig) -> list[int]:
    if len(idxs) <= 1:
        return list(idxs)
    groups = _split_groups(boxes, idxs, "y_min", "y_max", cfg.min_gap)
    if groups is None:
        groups = _split_groups(boxes, idxs, "x_min", "x_max", cfg.min_gap)
    if groups is None:
        local = fallback_sort([boxes[i] for i in idxs], cfg.y_tolerance)
        return [idxs[k] for k in local]
    out: list[int] = []
    for group in groups:
        out.extend(_order_region(boxes, group, cfg))
    return out


def xy_cut_order(boxes: Sequence[BoundingBox], cfg: OrderConfig | None = None) -> list[int]:
    """Reading-order permutation of the input indices.

    Recursively splits the box set at whitespace gaps of at least
    ``cfg.min_gap`` (horizontal bands first, then vertical), concatenating
    sub-region orders top-to-bottom / left-to-right; uncuttable regions use
    ``fallback_sort``.
    """
    cfg = cfg or OrderConfig()
    return _order_region(boxes, list(range(len(boxes))), cfg)
