"""Domain types for reconstructed documents: boxes, elements, contents.

Values are immutable value classes (``value``). Constructors deliberately do NOT
enforce the geometric/semantic invariants; ``validate_document`` reports
violations instead, so invalid inputs can be loaded, inspected and
diagnosed rather than rejected at construction time. ``check_page`` is the one
page-size rule, which ``validate_document`` reports and ``seqformat.parse`` and
the CLI raise. The coordinate grid, ``DEFAULT_BINS`` included, is ``seqformat``'s.
"""

from __future__ import annotations

import math
import re
import sys
from enum import Enum
from typing import Any, Callable, Sequence

#: Most digits ``int`` and ``str`` convert between (4,300 by default); 0 for no limit.
MAX_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
#: Least non-negative int with more digits than ``str`` may write; ``math.inf`` with no limit.
INT_STR_LIMIT = 10**MAX_INT_DIGITS if MAX_INT_DIGITS else math.inf


def _frozen(self: Any, name: str, *assigned: Any) -> None:
    raise AttributeError(f"cannot {'assign to' if assigned else 'delete'} field {name!r}")


def value(cls: type) -> type:
    """``cls`` remade as an immutable value over its annotated fields, as ``@dataclass(frozen=True,
    slots=True)`` makes it, without ``dataclasses``, which is slow to import and to apply:
    ``__init__`` takes the fields by position or keyword, a class attribute being a field's default,
    then runs any ``__post_init__``; ``repr`` is the dataclass form; ``==`` (same class only) and
    ``hash`` read the tuple of fields; setting or deleting an attribute raises AttributeError.
    ``_fields`` names the fields in order."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    body = {name: attr for name, attr in vars(cls).items() if name not in (*names, "__dict__", "__weakref__")}
    exec(f"def __init__(self{''.join(f', {n}' for n in names)}):\n"
         + "".join(f" _set(self, {n!r}, {n})\n" for n in names)
         + (" self.__post_init__()\n" if hasattr(cls, "__post_init__") else " pass\n")
         + f"def _values(self): return ({''.join(f'self.{n}, ' for n in names)})\n",
         {"_set": object.__setattr__}, body)
    body["__init__"].__defaults__ = tuple(cls.__dict__[n] for n in names if n in cls.__dict__)
    body.update(
        __slots__=names, __qualname__=cls.__qualname__, _fields=names, __setattr__=_frozen, __delattr__=_frozen,
        __repr__=lambda self: f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})",
        __eq__=lambda self, other: self._values() == other._values() if other.__class__ is self.__class__
        else NotImplemented,
        __hash__=lambda self: hash(self._values()), __reduce__=lambda self: (type(self), self._values()))
    return type(cls.__name__, cls.__bases__, body)


class Category(Enum):
    """Layout element category. Exactly four kinds; anything else is an error."""

    PARAGRAPH = "Paragraph"
    TABLE = "Table"
    FORMULA = "Formula"
    FIGURE = "Figure"


@value
class BoundingBox:
    """Axis-aligned box in page pixel coordinates, origin top-left."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    @property
    def area(self) -> float:
        # Degenerate/inverted boxes count as zero area; an int zero keeps int
        # boxes exact at any size, here and in intersection_area.
        return max(self.x_max - self.x_min, 0) * max(self.y_max - self.y_min, 0)

    def intersection_area(self, other: "BoundingBox") -> float:
        w = min(self.x_max, other.x_max) - max(self.x_min, other.x_min)
        h = min(self.y_max, other.y_max) - max(self.y_min, other.y_min)
        if w <= 0 or h <= 0:
            return 0
        return w * h


def exact_boxes(boxes: Sequence[BoundingBox]) -> list[BoundingBox]:
    """The boxes with every coordinate a ``Fraction``, which holds ints and finite floats exactly.

    Callers measure on these where floats cannot: an area or a union that
    overflows, or ints beyond the float range next to floats. ValueError names
    the first box with a NaN or infinite coordinate.
    """
    from fractions import Fraction  # only this rare path pays the import

    out = []
    for b in boxes:
        try:
            out.append(BoundingBox(*map(Fraction, (b.x_min, b.y_min, b.x_max, b.y_max))))
        except (ValueError, OverflowError):  # Fraction takes no NaN or infinity
            raise ValueError(f"box {b} has a non-finite coordinate") from None
    return out


@value
class TextLine:
    """One line of unformatted paragraph text with its own box."""

    bbox: BoundingBox
    text: str


@value
class TableCell:
    bbox: BoundingBox
    rowspan: int = 1
    colspan: int = 1
    text: str = ""


@value
class ParagraphContent:
    lines: tuple[TextLine, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "lines", tuple(self.lines))


@value
class TableContent:
    rows: tuple[tuple[TableCell, ...], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(tuple(row) for row in self.rows))


@value
class FormulaContent:
    latex: str = ""


@value
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


@value
class Element:
    """One layout element: category, box, and category-specific content."""

    category: Category
    bbox: BoundingBox
    content: Transcription


@value
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


# Substrings that would collide with the serialized token text format.
_FORBIDDEN_IN_LINE_TEXT = ("<Sep>", "<\\n>")
#: Unicode's control characters (category Cc) but tab, newline and carriage return.
_CONTROL_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x9f]")


def _check_box(bbox: BoundingBox, where: str, width: float, height: float, out: list[str]) -> None:
    # Written so that a NaN coordinate, which fails every comparison, is reported.
    if not (bbox.x_min <= bbox.x_max and bbox.y_min <= bbox.y_max):
        out.append(f"{where}: box corners out of order {bbox}")
    if not (0 <= bbox.x_min and 0 <= bbox.y_min and bbox.x_max <= width and bbox.y_max <= height):
        out.append(f"{where}: box {bbox} outside page 0,0,{width},{height}")


def _check_text(text: str, where: str, out: list[str]) -> None:
    control = _CONTROL_RE.search(text)
    if control:
        out.append(f"{where}: text contains control character {control.group()!r}")
    for token in _FORBIDDEN_IN_LINE_TEXT:
        if token in text:
            out.append(f"{where}: text contains reserved token {token!r}")


def check_page(width: float, height: float) -> None:
    """The one rule for a page's size: ValueError unless both sides are positive and finite."""
    if not (0 < width < math.inf and 0 < height < math.inf):
        raise ValueError(f"page dimensions must be positive and finite, got {width}x{height}")


def validate_document(doc: Document) -> list[str]:
    """Return every invariant violation in ``doc``; empty list means valid."""
    problems: list[str] = []
    try:
        check_page(doc.page_width, doc.page_height)
    except ValueError as exc:
        problems.append(str(exc))
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
                    for name, span in (("rowspan", cell.rowspan), ("colspan", cell.colspan)):
                        if span < 1:
                            problems.append(f"{sub}: {name} {span} < 1")
                        elif span >= INT_STR_LIMIT:
                            problems.append(f"{sub}: {name} has more than {MAX_INT_DIGITS} digits")
    return problems


# --- canonical JSON representation ---------------------------------------
#
# Every value docrec writes is encoded by ``to_json_value``: a value class is an
# object of its fields in declaration order, a box is [x0, y0, x1, y1] and a
# category is its name. So one document is
#   {"page_width": W, "page_height": H,
#    "elements": [{"category": ..., "bbox": [x0,y0,x1,y1], "content": {...}}]}
# content per category:
#   Paragraph {"lines": [{"bbox": [...], "text": ...}]}
#   Table     {"rows": [[{"bbox": [...], "rowspan": n, "colspan": n, "text": ...}]]}
#   Formula   {"latex": ...}
#   Figure    {}
# Corpus files are newline-delimited JSON, UTF-8. The decoders below stay
# explicit: their defaults and path-naming errors are not in the value classes.
# Each field is checked on one path, and its path is built only when a fault is
# raised: ``_Fault`` carries it up, each enclosing list adds its ``[i]``.


def to_json_value(value: Any) -> Any:
    """The JSON form of a docrec value.

    A value class (``value``) becomes an object of its fields in declaration
    order, a BoundingBox ``[x_min, y_min, x_max, y_max]``, a Category its name
    and a tuple or list a list; any other value is returned unchanged.
    """
    kind = type(value)
    if kind is float or kind is str or kind is int or kind is dict:  # the usual leaves, by exact type
        return value
    if kind is BoundingBox or isinstance(value, BoundingBox):
        return [value.x_min, value.y_min, value.x_max, value.y_max]
    if kind is tuple or kind is list or isinstance(value, (tuple, list)):
        return [to_json_value(item) for item in value]
    if isinstance(value, Category):
        return value.value
    if hasattr(kind, "_fields"):
        return {name: to_json_value(getattr(value, name)) for name in kind._fields}
    return value


def document_to_dict(doc: Document) -> dict:
    return to_json_value(doc)


#: Each category by its name.
_CATEGORY_NAMES = {category.value: category for category in Category}
#: The noun each plain JSON type goes by in a decoding error.
_NOUNS = {list: "a list", dict: "an object", str: "a string", int: "an integer"}


class _Fault(Exception):
    """A decoding fault: ``at`` is the failing part's path below the entry point's ``where``."""

    def __init__(self, at: str, message: str):
        self.at, self.message = at, message


def _decoded(where: str, decode: Callable[..., Any], *args: Any) -> Any:
    """``decode(*args)``; a fault becomes ValueError ``where + path: message``, the one place a path is formatted."""
    try:
        return decode(*args)
    except _Fault as fault:
        raise ValueError(f"{where}{fault.at}: {fault.message}") from None


def _require(value: Any, kind: type, at: str = "") -> Any:
    """``value`` if it is a ``kind`` (a bool is no integer), tested by exact type first."""
    if type(value) is kind or isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise _Fault(at, f"expected {_NOUNS[kind]}, got {value!r}")


def _each(value: Any, at: str, decode: Callable[[Any], Any]) -> tuple:
    """``decode`` of each item of the list ``value`` at ``at``; a fault gains the item's ``[i]``."""
    out = []
    for item in _require(value, list, at):
        try:
            out.append(decode(item))
        except _Fault as fault:
            fault.at = f"{at}[{len(out)}]{fault.at}"
            raise
    return tuple(out)


def _number(value: Any, at: str = "") -> float:
    """``value`` as a finite float, tested by exact type first; a bool is no number."""
    number = value
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _Fault(at, f"expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
    # JSON has no NaN or infinities, but json.loads reads 1e999 as inf; 0.0 * v is 0.0 only for a finite v.
    if 0.0 * number == 0.0:
        return number
    raise _Fault(at, f"expected a finite number, got {value!r}")


def _box(item: dict) -> BoundingBox:
    """``item``'s ``bbox``: a list of 4 finite numbers."""
    items = _require(item.get("bbox"), list, ".bbox")
    if len(items) != 4:
        raise _Fault(".bbox", f"expected 4 coordinates, got {len(items)}")
    a, b, c, d = items
    return BoundingBox(_number(a, ".bbox[0]"), _number(b, ".bbox[1]"), _number(c, ".bbox[2]"), _number(d, ".bbox[3]"))


def _line(item: Any) -> TextLine:
    item = _require(item, dict)
    return TextLine(_box(item), _require(item.get("text", ""), str, ".text"))


def _cell(item: Any) -> TableCell:
    item = _require(item, dict)
    return TableCell(_box(item), _require(item.get("rowspan", 1), int, ".rowspan"),
                     _require(item.get("colspan", 1), int, ".colspan"), _require(item.get("text", ""), str, ".text"))


def _element(item: Any) -> Element:
    item = _require(item, dict)
    name = _require(item.get("category"), str, ".category")
    category = _CATEGORY_NAMES.get(name)
    if category is None:
        raise _Fault(".category", f"unknown category {name!r}")
    bbox = _box(item)
    data = _require(item.get("content", {}), dict, ".content")
    if category is Category.PARAGRAPH:
        content = ParagraphContent(_each(data.get("lines", []), ".content.lines", _line))
    elif category is Category.TABLE:
        content = TableContent(_each(data.get("rows", []), ".content.rows", lambda row: _each(row, "", _cell)))
    elif category is Category.FORMULA:
        content = FormulaContent(_require(data.get("latex", ""), str, ".content.latex"))
    else:
        content = FigureContent()
    return Element(category, bbox, content)


def _document(data: Any) -> Document:
    data = _require(data, dict)
    if "page_width" not in data or "page_height" not in data:
        raise _Fault("", "missing page_width/page_height")
    return Document(_number(data["page_width"], ".page_width"), _number(data["page_height"], ".page_height"),
                    _each(data.get("elements", []), ".elements", _element))


def text_lines_from_value(value: Any, where: str = "lines") -> tuple[TextLine, ...]:
    """Decode a JSON list of ``{bbox, text}`` line objects; ``text`` defaults to "".
    ValueError names the failing part's path below ``where``, built only when a fault is raised."""
    return _decoded(where, _each, value, "", _line)


def document_from_dict(data: Any, where: str = "document") -> Document:
    """Build a Document from its canonical JSON object.

    Raises ValueError naming the failing part's path below ``where`` on any
    structural problem; the path is built only when a fault is raised. Unknown
    top-level keys (e.g. an alignment ``id``) are ignored.
    """
    return _decoded(where, _document, data)
