"""Domain types for reconstructed documents: boxes, elements, contents.

Values are plain immutable dataclasses. Constructors deliberately do NOT
enforce the geometric/semantic invariants; ``validate_document`` reports
violations instead, so invalid inputs can be loaded, inspected and
diagnosed rather than rejected at construction time.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass
from enum import Enum
from typing import Any

#: Default number of coordinate quantization bins per axis. Coordinates are
#: normalized by the page dimension, so the grid is resolution-independent.
DEFAULT_BINS = 1000


class Category(Enum):
    """Layout element category. Exactly four kinds; anything else is an error."""

    PARAGRAPH = "Paragraph"
    TABLE = "Table"
    FORMULA = "Formula"
    FIGURE = "Figure"

    @classmethod
    def from_name(cls, name: str) -> "Category":
        for cat in cls:
            if cat.value == name:
                return cat
        raise ValueError(f"unknown category {name!r}")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in page pixel coordinates, origin top-left."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        # Degenerate/inverted boxes count as zero area.
        return max(self.width, 0.0) * max(self.height, 0.0)

    def intersection_area(self, other: "BoundingBox") -> float:
        w = min(self.x_max, other.x_max) - max(self.x_min, other.x_min)
        h = min(self.y_max, other.y_max) - max(self.y_min, other.y_min)
        if w <= 0 or h <= 0:
            return 0.0
        return w * h


@dataclass(frozen=True)
class TextLine:
    """One line of unformatted paragraph text with its own box."""

    bbox: BoundingBox
    text: str


@dataclass(frozen=True)
class TableCell:
    bbox: BoundingBox
    rowspan: int = 1
    colspan: int = 1
    text: str = ""


@dataclass(frozen=True)
class ParagraphContent:
    lines: tuple[TextLine, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "lines", tuple(self.lines))


@dataclass(frozen=True)
class TableContent:
    rows: tuple[tuple[TableCell, ...], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(tuple(row) for row in self.rows))


@dataclass(frozen=True)
class FormulaContent:
    latex: str = ""


@dataclass(frozen=True)
class FigureContent:
    """Figures carry no transcription."""


Transcription = ParagraphContent | TableContent | FormulaContent | FigureContent

#: Content variant each category must carry.
CONTENT_TYPES: dict[Category, type] = {
    Category.PARAGRAPH: ParagraphContent,
    Category.TABLE: TableContent,
    Category.FORMULA: FormulaContent,
    Category.FIGURE: FigureContent,
}


@dataclass(frozen=True)
class Element:
    """One layout element: category, box, and category-specific content."""

    category: Category
    bbox: BoundingBox
    content: Transcription


@dataclass(frozen=True)
class Document:
    """Ordered elements on one page; the list index is the reading order."""

    page_width: float
    page_height: float
    elements: tuple[Element, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))


class DocumentValidationError(ValueError):
    """Raised where an operation requires a valid document and got violations."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid document: " + "; ".join(violations))
        self.violations = list(violations)


def quantize_coord(v: float, extent: float, bins: int = DEFAULT_BINS) -> int:
    """Map a real coordinate in [0, extent] to a bin index in [0, bins-1].

    The top edge (v == extent) clamps into the last bin.
    """
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    if extent <= 0 or math.isnan(extent):
        raise ValueError(f"extent must be positive, got {extent}")
    if math.isnan(v) or v < 0 or v > extent:
        raise ValueError(f"coordinate {v} outside [0, {extent}]")
    return min(math.floor(v / extent * bins), bins - 1)


def dequantize_coord(bin_index: int, extent: float, bins: int = DEFAULT_BINS) -> float:
    """Map a bin index back to its bin-center coordinate."""
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    if extent <= 0 or math.isnan(extent):
        raise ValueError(f"extent must be positive, got {extent}")
    if not 0 <= bin_index < bins:
        raise ValueError(f"bin {bin_index} outside [0, {bins})")
    return (bin_index + 0.5) / bins * extent


# Substrings that would collide with the serialized token text format.
_FORBIDDEN_IN_LINE_TEXT = ("<Sep>", "<\\n>")


def _check_box(bbox: BoundingBox, where: str, width: float, height: float, out: list[str]) -> None:
    # Written so that a NaN coordinate, which fails every comparison, is reported.
    if not (bbox.x_min <= bbox.x_max and bbox.y_min <= bbox.y_max):
        out.append(f"{where}: box corners out of order {bbox}")
    if not (0 <= bbox.x_min and 0 <= bbox.y_min and bbox.x_max <= width and bbox.y_max <= height):
        out.append(f"{where}: box {bbox} outside page 0,0,{width},{height}")


def _check_text(text: str, where: str, out: list[str]) -> None:
    for ch in text:
        if unicodedata.category(ch) == "Cc" and ch not in "\t\n\r":
            out.append(f"{where}: text contains control character {ch!r}")
            break
    for token in _FORBIDDEN_IN_LINE_TEXT:
        if token in text:
            out.append(f"{where}: text contains reserved token {token!r}")


def validate_document(doc: Document) -> list[str]:
    """Return every invariant violation in ``doc``; empty list means valid."""
    problems: list[str] = []
    if not (0 < doc.page_width < math.inf and 0 < doc.page_height < math.inf):
        problems.append(
            f"page dimensions must be positive and finite, got {doc.page_width}x{doc.page_height}"
        )
    w, h = doc.page_width, doc.page_height
    for i, el in enumerate(doc.elements):
        where = f"element {i}"
        if not isinstance(el.category, Category):
            problems.append(f"{where}: category {el.category!r} is not a Category")
            continue
        _check_box(el.bbox, where, w, h, problems)
        expected = CONTENT_TYPES[el.category]
        if not isinstance(el.content, expected):
            problems.append(
                f"{where}: {el.category.value} element carries "
                f"{type(el.content).__name__}"
            )
        if isinstance(el.content, ParagraphContent):
            for j, line in enumerate(el.content.lines):
                sub = f"{where} line {j}"
                _check_box(line.bbox, sub, w, h, problems)
                _check_text(line.text, sub, problems)
        elif isinstance(el.content, TableContent):
            for r, row in enumerate(el.content.rows):
                for c, cell in enumerate(row):
                    sub = f"{where} cell {r},{c}"
                    _check_box(cell.bbox, sub, w, h, problems)
                    if cell.rowspan < 1:
                        problems.append(f"{sub}: rowspan {cell.rowspan} < 1")
                    if cell.colspan < 1:
                        problems.append(f"{sub}: colspan {cell.colspan} < 1")
    return problems


# --- canonical JSON representation ---------------------------------------
#
# One object per document:
#   {"page_width": W, "page_height": H,
#    "elements": [{"category": ..., "bbox": [x0,y0,x1,y1], "content": {...}}]}
# content per category:
#   Paragraph {"lines": [{"bbox": [...], "text": ...}]}
#   Table     {"rows": [[{"bbox": [...], "rowspan": n, "colspan": n, "text": ...}]]}
#   Formula   {"latex": ...}
#   Figure    {}
# Corpus files are newline-delimited JSON, UTF-8.


def _require_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    # JSON has no NaN or infinities, but json.loads reads 1e999 as inf.
    if not math.isfinite(number):
        raise ValueError(f"{where}: expected a finite number, got {value!r}")
    return number


def _require_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: expected an integer, got {value!r}")
    return value


def _require_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{where}: expected a string, got {value!r}")
    return value


def _require_list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{where}: expected a list, got {value!r}")
    return value


def _require_dict(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{where}: expected an object, got {value!r}")
    return value


def bbox_to_list(bbox: BoundingBox) -> list[float]:
    return [bbox.x_min, bbox.y_min, bbox.x_max, bbox.y_max]


def bbox_from_value(value: Any, where: str = "bbox") -> BoundingBox:
    items = _require_list(value, where)
    if len(items) != 4:
        raise ValueError(f"{where}: expected 4 coordinates, got {len(items)}")
    coords = [_require_number(v, f"{where}[{i}]") for i, v in enumerate(items)]
    return BoundingBox(*coords)


def _require_page_size(data: dict, where: str) -> tuple[float, float]:
    """The required ``page_width``/``page_height`` fields of a page object."""
    if "page_width" not in data or "page_height" not in data:
        raise ValueError(f"{where}: missing page_width/page_height")
    width = _require_number(data["page_width"], f"{where}.page_width")
    height = _require_number(data["page_height"], f"{where}.page_height")
    return width, height


def _content_to_dict(content: Transcription) -> dict:
    if isinstance(content, ParagraphContent):
        return {
            "lines": [
                {"bbox": bbox_to_list(line.bbox), "text": line.text}
                for line in content.lines
            ]
        }
    if isinstance(content, TableContent):
        return {
            "rows": [
                [
                    {
                        "bbox": bbox_to_list(cell.bbox),
                        "rowspan": cell.rowspan,
                        "colspan": cell.colspan,
                        "text": cell.text,
                    }
                    for cell in row
                ]
                for row in content.rows
            ]
        }
    if isinstance(content, FormulaContent):
        return {"latex": content.latex}
    if isinstance(content, FigureContent):
        return {}
    raise TypeError(f"unknown content type {type(content).__name__}")


def _content_from_dict(category: Category, data: Any, where: str) -> Transcription:
    data = _require_dict(data, where)
    if category is Category.PARAGRAPH:
        lines = []
        for j, item in enumerate(_require_list(data.get("lines", []), f"{where}.lines")):
            item = _require_dict(item, f"{where}.lines[{j}]")
            lines.append(
                TextLine(
                    bbox=bbox_from_value(item.get("bbox"), f"{where}.lines[{j}].bbox"),
                    text=_require_str(item.get("text", ""), f"{where}.lines[{j}].text"),
                )
            )
        return ParagraphContent(tuple(lines))
    if category is Category.TABLE:
        rows = []
        for r, row in enumerate(_require_list(data.get("rows", []), f"{where}.rows")):
            cells = []
            for c, item in enumerate(_require_list(row, f"{where}.rows[{r}]")):
                item = _require_dict(item, f"{where}.rows[{r}][{c}]")
                sub = f"{where}.rows[{r}][{c}]"
                cells.append(
                    TableCell(
                        bbox=bbox_from_value(item.get("bbox"), f"{sub}.bbox"),
                        rowspan=_require_int(item.get("rowspan", 1), f"{sub}.rowspan"),
                        colspan=_require_int(item.get("colspan", 1), f"{sub}.colspan"),
                        text=_require_str(item.get("text", ""), f"{sub}.text"),
                    )
                )
            rows.append(tuple(cells))
        return TableContent(tuple(rows))
    if category is Category.FORMULA:
        return FormulaContent(latex=_require_str(data.get("latex", ""), f"{where}.latex"))
    return FigureContent()


def document_to_dict(doc: Document) -> dict:
    return {
        "page_width": doc.page_width,
        "page_height": doc.page_height,
        "elements": [
            {
                "category": el.category.value,
                "bbox": bbox_to_list(el.bbox),
                "content": _content_to_dict(el.content),
            }
            for el in doc.elements
        ],
    }


def document_from_dict(data: Any, where: str = "document") -> Document:
    """Build a Document from its canonical JSON object.

    Raises ValueError with a field path on any structural problem; unknown
    top-level keys (e.g. an alignment ``id``) are ignored.
    """
    data = _require_dict(data, where)
    width, height = _require_page_size(data, where)
    elements = []
    for i, item in enumerate(_require_list(data.get("elements", []), f"{where}.elements")):
        item = _require_dict(item, f"{where}.elements[{i}]")
        sub = f"{where}.elements[{i}]"
        category = Category.from_name(_require_str(item.get("category"), f"{sub}.category"))
        bbox = bbox_from_value(item.get("bbox"), f"{sub}.bbox")
        content = _content_from_dict(category, item.get("content", {}), f"{sub}.content")
        elements.append(Element(category=category, bbox=bbox, content=content))
    return Document(page_width=width, page_height=height, elements=tuple(elements))
