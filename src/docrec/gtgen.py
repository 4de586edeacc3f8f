"""Ground-truth assembly: attach raw text lines to layout elements.

Pipeline: order the elements geometrically, assign each raw line to the
element covering it best, consolidate split line fragments, and emit a
valid document. Lines nothing claims are reported, never dropped.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Collection, Sequence

from .metrics import edit_distance
from .model import (
    CONTENT_TYPES,
    BoundingBox,
    Category,
    Document,
    Element,
    ParagraphContent,
    TextLine,
    exact_boxes,
    value,
)
from .readorder import OrderConfig, row_bands, xy_cut_order


@value
class AssocConfig:
    iou_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.iou_threshold <= 1:
            raise ValueError(f"iou_threshold must be in (0, 1], got {self.iou_threshold}")


def _as_is(box: BoundingBox, kind: type) -> bool:
    """Whether ``box`` measures as given: every coordinate a ``kind``; for floats, each and the area finite."""
    coords = (box.x_min, box.y_min, box.x_max, box.y_max)
    same = type(box.x_min) is type(box.y_min) is type(box.x_max) is type(box.y_max) is kind
    return same and (kind is int or (all(map(math.isfinite, coords)) and math.isfinite(box.area)))


def _y_candidates(boxes: list[BoundingBox], line_boxes: list[BoundingBox]) -> list[Collection[int]]:
    """For each line box, the indices of ``boxes`` filed in a y-bucket its ``[y_min, y_max]`` spans. Up to
    64 of the boxes' ``y_min`` values bound the buckets, found by comparison alone; a y in both ranges lies
    in a bucket of each, so every box that meets the line is offered."""
    bounds = sorted({box.y_min for box in boxes})
    bounds = bounds[:: len(bounds) // 64 + 1]
    buckets: list[list[int]] = [[] for _ in range(len(bounds) + 1)]
    for idx, box in enumerate(boxes):
        for k in range(bisect_right(bounds, box.y_min), bisect_right(bounds, box.y_max) + 1):
            buckets[k].append(idx)
    spans = [(bisect_right(bounds, box.y_min), bisect_right(bounds, box.y_max)) for box in line_boxes]
    return [buckets[lo] if lo == hi else set().union(*buckets[lo:hi + 1]) for lo, hi in spans]


def associate_lines(
    elements: Sequence[tuple[Category, BoundingBox]],
    lines: Sequence[TextLine],
    cfg: AssocConfig | None = None,
) -> list[int | None]:
    """Assign each line to the element covering the largest share of its area.

    The score is intersection area over line area (a small line fully inside
    a large element scores 1.0). Lines below ``iou_threshold`` everywhere
    stay unassigned (None); ties prefer the smaller element, then the lower
    index.

    All-int boxes, and all-float boxes with finite coordinates and areas,
    measure as given.
    Any other call measures on ``exact_boxes`` copies of every box, which
    also names a box with a NaN or infinite coordinate.

    A line is measured only against the elements ``_y_candidates`` offers that it overlaps with
    positive width and height. Skipping the rest is exact: their intersection is 0 (for ints and
    finite floats ``a < b`` exactly when ``b - a > 0``), the threshold is positive and the key ends
    in the unique index, so the order of the tests cannot matter.
    """
    cfg = cfg or AssocConfig()
    boxes = [box for _, box in elements]
    line_boxes = [line.bbox for line in lines]
    every = boxes + line_boxes
    if not (all(_as_is(box, int) for box in every) or all(_as_is(box, float) for box in every)):
        boxes, line_boxes = exact_boxes(boxes), exact_boxes(line_boxes)
    result: list[int | None] = []
    for line_box, candidates in zip(line_boxes, _y_candidates(boxes, line_boxes)):
        line_area = line_box.area
        best: int | None = None
        best_key: tuple[float, float, int] | None = None
        if line_area > 0:
            x0, y0, x1, y1 = line_box.x_min, line_box.y_min, line_box.x_max, line_box.y_max
            for idx in candidates:
                box = boxes[idx]
                if not (box.x_min < x1 and x0 < box.x_max and box.y_min < y1 and y0 < box.y_max):
                    continue
                ratio = line_box.intersection_area(box) / line_area
                if ratio < cfg.iou_threshold:
                    continue
                key = (-ratio, box.area, idx)
                if best_key is None or key < best_key:
                    best_key = key
                    best = idx
        result.append(best)
    return result


def merge_boxes(boxes: Sequence[BoundingBox]) -> BoundingBox:
    """Tight axis-aligned union of one or more boxes."""
    if not boxes:
        raise ValueError("merge_boxes requires at least one box")
    return BoundingBox(
        min(b.x_min for b in boxes),
        min(b.y_min for b in boxes),
        max(b.x_max for b in boxes),
        max(b.y_max for b in boxes),
    )


def _normalize_for_match(s: str) -> str:
    return " ".join(s.split()).lower()


def fuzzy_match(a: str, b: str) -> float:
    """Similarity in [0, 1] after lowercasing and collapsing whitespace runs."""
    na = _normalize_for_match(a)
    nb = _normalize_for_match(b)
    if not na and not nb:
        return 1.0
    return 1.0 - edit_distance(na, nb) / max(len(na), len(nb))


@value
class AssemblyResult:
    """Assembled document plus the fate of every input line.

    ``assignments[i]`` is the index (in document order) of the element that
    claimed line i, or None; ``unassigned`` lists the None positions.
    """

    document: Document
    assignments: tuple[int | None, ...]
    unassigned: tuple[int, ...]


def _consolidate_lines(owned: list[TextLine], y_tolerance: float) -> tuple[TextLine, ...]:
    """Turn the raw lines a paragraph owns into its content lines, top to bottom.

    Fragments whose tops fall in the same y-band are pieces of one visual
    line: their boxes merge and their texts join left to right.
    """
    return tuple(
        TextLine(
            bbox=merge_boxes([owned[i].bbox for i in band]),
            text=" ".join(owned[i].text for i in band),
        )
        for band in row_bands([line.bbox for line in owned], y_tolerance)
    )


def assemble_ground_truth(
    elements: Sequence[tuple[Category, BoundingBox]],
    lines: Sequence[TextLine],
    page_width: float,
    page_height: float,
    order_cfg: OrderConfig | None = None,
    assoc_cfg: AssocConfig | None = None,
) -> AssemblyResult:
    """Order elements, attach lines, and build a document.

    Lines assigned to paragraphs become their TextLines; lines landing on
    table/formula/figure elements stay recorded in ``assignments`` but the
    content is left for external recognizers. Every input line ends up
    either assigned or listed in ``unassigned``.
    """
    order_cfg = order_cfg or OrderConfig()
    assoc_cfg = assoc_cfg or AssocConfig()
    order = xy_cut_order([box for _, box in elements], order_cfg)
    position = {orig: new for new, orig in enumerate(order)}
    raw_assignments = associate_lines(elements, lines, assoc_cfg)
    assignments = tuple(
        position[a] if a is not None else None for a in raw_assignments
    )
    owned: dict[int, list[TextLine]] = {}
    for line_idx, target in enumerate(assignments):
        if target is not None:
            owned.setdefault(target, []).append(lines[line_idx])
    built = []
    for new_idx, orig in enumerate(order):
        category, box = elements[orig]
        if category is Category.PARAGRAPH:
            content = ParagraphContent(
                _consolidate_lines(owned.get(new_idx, []), order_cfg.y_tolerance)
            )
        else:
            content = CONTENT_TYPES[category]()
        built.append(Element(category=category, bbox=box, content=content))
    document = Document(
        page_width=page_width, page_height=page_height, elements=tuple(built)
    )
    unassigned = tuple(i for i, a in enumerate(assignments) if a is None)
    return AssemblyResult(document=document, assignments=assignments, unassigned=unassigned)
