"""Flat token sequences for documents: serializer, parser, text rendering.

Grammar, per element in reading order:

    <Category> <x0> <y0> <x1> <y1> CONTENT <Sep>

where CONTENT depends on the category:
  Paragraph  per line: four coordinate tokens then its characters, with a
             line-separator token between consecutive lines;
  Table      <tr> ... </tr> rows of <td [rowspan/colspan]> cells, each cell
             opening tag followed by four coordinate tokens then the cell
             characters and </td>;
  Formula    the LaTeX source characters;
  Figure     nothing.

A token is a plain value:
  an ``int``         a coordinate bin on a ``bins``-wide grid normalized by
                     the page dimensions; its axis is its place in the quartet;
  a 1-character str  one text character (text is one codepoint per token);
  any other str      a tag, held as its canonical text: "<Paragraph>",
                     "<Table>", "<Formula>", "<Figure>", "<Sep>", "<\\n>" (the
                     line separator), "<tr>", "</tr>", "</td>", and "<td>" with
                     optional spans, as in '<td rowspan="2" colspan="3">'.

The grid has ``DEFAULT_BINS`` bins per axis unless a call names another;
``check_grid`` is its one rule. ``parse`` checks the page size with
``model.check_page`` before it reads a token.
"""

from __future__ import annotations

import math
import re
import sys
from enum import Enum

from .model import (
    INT_STR_LIMIT,
    MAX_INT_DIGITS,
    BoundingBox,
    Category,
    Document,
    DocumentValidationError,
    Element,
    FigureContent,
    FormulaContent,
    ParagraphContent,
    TableCell,
    TableContent,
    TextLine,
    check_page,
    validate_document,
    value,
)

#: Default number of coordinate bins per axis of the grid. Coordinates are
#: normalized by the page dimension, so the grid is resolution-independent.
DEFAULT_BINS = 1000

#: Quartet order for every bounding box; a coordinate's axis is its place in it.
AXES = ("Xmin", "Ymin", "Xmax", "Ymax")

Token = int | str

#: Category tag text -> category.
_CATEGORIES = {f"<{cat.value}>": cat for cat in Category}
#: Every tag but <td>, which may carry spans (see _TD_TAG_RE).
_FIXED_TAGS = frozenset((*_CATEGORIES, "<Sep>", "<\\n>", "<tr>", "</tr>", "</td>"))

# Canonical decimal: ASCII digits, no leading zero, so each number has one text,
# and at most MAX_INT_DIGITS of them, so that the text converts to an int.
_UINT = rf"(?:0|[1-9][0-9]{{0,{MAX_INT_DIGITS - 1}}})" if MAX_INT_DIGITS else r"(?:0|[1-9][0-9]*)"
_DIGITS_RE = re.compile(_UINT)
#: A <td> tag; its groups are the rowspan and colspan, or None where absent.
_TD_TAG_RE = re.compile(rf'<td(?: rowspan="({_UINT})")?(?: colspan="({_UINT})")?>')


def td_tag(rowspan: int, colspan: int) -> str:
    """The opening tag of a table cell, a span written only where it is above 1. A span
    too long for ``str`` raises ValueError, in ``validate_document``'s words."""
    tag = "<td"
    for name, span in (("rowspan", rowspan), ("colspan", colspan)):
        if span > 1:
            if span >= INT_STR_LIMIT:
                raise ValueError(f"{name} has more than {MAX_INT_DIGITS} digits")
            tag += f' {name}="{span}"'
    return tag + ">"


@value
class TokenSequence:
    tokens: tuple[Token, ...]
    bins: int = DEFAULT_BINS

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))

    def __len__(self) -> int:
        return len(self.tokens)


class ParseErrorKind(Enum):
    MISSING_CATEGORY = "MissingCategory"
    TRUNCATED_COORD_QUARTET = "TruncatedCoordQuartet"
    UNTERMINATED_ELEMENT = "UnterminatedElement"
    MALFORMED_TABLE_TAGS = "MalformedTableTags"
    COORD_OUT_OF_RANGE = "CoordOutOfRange"
    UNEXPECTED_TOKEN = "UnexpectedToken"


class ParseError(ValueError):
    """Structured parse failure at a token offset."""

    def __init__(self, kind: ParseErrorKind, offset: int, message: str):
        super().__init__(f"{kind.value} at token {offset}: {message}")
        self.kind = kind
        self.offset = offset


class ScanError(ValueError):
    """Malformed token text at a character offset."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"scan error at offset {offset}: {message}")
        self.offset = offset


def check_grid(bins: int) -> None:
    """The one rule for the grid's bins per axis: ValueError unless an exact int >= 2 that a float holds."""
    if type(bins) is not int or not 2 <= bins <= sys.float_info.max:
        raise ValueError(f"bins must be an int >= 2 within the float range, got {bins!r}")


def serialize(doc: Document, bins: int = DEFAULT_BINS) -> TokenSequence:
    """Encode a valid document as a token sequence.

    A coordinate ``v`` on an axis of extent ``e`` becomes bin
    ``min(floor(v / e * bins), bins - 1)``: the top edge clamps into the last
    bin. Raises DocumentValidationError listing violations when the document
    breaks any model invariant (a coordinate outside the page among them),
    and ValueError when ``bins`` fails ``check_grid``, as ``parse`` would.
    """
    violations = validate_document(doc)
    if violations:
        raise DocumentValidationError(violations)
    check_grid(bins)
    w, h = doc.page_width, doc.page_height
    last = bins - 1
    tokens: list[Token] = []

    def emit_quartet(b: BoundingBox) -> None:
        tokens.extend((min(math.floor(b.x_min / w * bins), last), min(math.floor(b.y_min / h * bins), last),
                       min(math.floor(b.x_max / w * bins), last), min(math.floor(b.y_max / h * bins), last)))

    for el in doc.elements:
        tokens.append(f"<{el.category.value}>")
        emit_quartet(el.bbox)
        content = el.content
        if isinstance(content, ParagraphContent):
            for j, line in enumerate(content.lines):
                if j:
                    tokens.append("<\\n>")
                emit_quartet(line.bbox)
                tokens.extend(line.text)
        elif isinstance(content, TableContent):
            for row in content.rows:
                tokens.append("<tr>")
                for cell in row:
                    tokens.append(td_tag(cell.rowspan, cell.colspan))
                    emit_quartet(cell.bbox)
                    tokens.extend(cell.text)
                    tokens.append("</td>")
                tokens.append("</tr>")
        elif isinstance(content, FormulaContent):
            tokens.extend(content.latex)
        tokens.append("<Sep>")
    return TokenSequence(tuple(tokens), bins)


class _Cursor:
    """Token-stream reader shared by the content parsers.

    Each token's exact type is checked before it is compared with a tag, so
    no token's own ``__eq__`` or ``__hash__`` runs; the end of the sequence
    is told by position alone.
    """

    def __init__(self, seq: TokenSequence, page_width: float, page_height: float):
        self.tokens = seq.tokens
        self.bins = seq.bins
        self.extents = (page_width, page_height) * 2  # the extent of each of AXES
        self.pos = 0

    def at_end(self) -> bool:
        return self.pos == len(self.tokens)

    def tag(self) -> str | None:
        """The str token at the cursor; None at the end or at any other value."""
        if self.pos < len(self.tokens):
            tok = self.tokens[self.pos]
            if type(tok) is str:
                return tok
        return None

    def got(self) -> str:
        """The token at the cursor, as an error message shows it."""
        if self.at_end():
            return "end of sequence"
        tok = self.tokens[self.pos]
        try:
            return repr(tok)
        except ValueError:  # an int past sys.get_int_max_str_digits()
            return f"a {tok.bit_length()}-bit int"

    def fail(self, kind: ParseErrorKind, message: str):
        raise ParseError(kind, self.pos, message)

    def close(self, tag: str, kind: ParseErrorKind, unterminated_message: str) -> None:
        """Step past ``tag``; fail as unterminated at the end of the sequence, as ``kind`` on any other token."""
        if self.at_end():
            self.fail(ParseErrorKind.UNTERMINATED_ELEMENT, unterminated_message)
        if self.tag() != tag:
            self.fail(kind, f"expected {tag}, got {self.got()}")
        self.pos += 1

    def read_quartet(self) -> BoundingBox:
        """Four coordinate tokens, read as Xmin, Ymin, Xmax, Ymax in that order, each bin as its centre."""
        tokens, bins = self.tokens, self.bins
        values = []
        for axis, extent in zip(AXES, self.extents):
            if self.at_end() or type(tokens[self.pos]) is not int:
                self.fail(
                    ParseErrorKind.TRUNCATED_COORD_QUARTET,
                    f"expected {axis} coordinate, got {self.got()}",
                )
            if not 0 <= tokens[self.pos] < bins:
                self.fail(
                    ParseErrorKind.COORD_OUT_OF_RANGE,
                    f"bin {self.got()} outside [0, {bins})",
                )
            values.append((tokens[self.pos] + 0.5) / bins * extent)
            self.pos += 1
        return BoundingBox(*values)

    def read_text_run(self) -> str:
        tokens = self.tokens
        start = end = self.pos
        while end < len(tokens) and type(tokens[end]) is str and len(tokens[end]) == 1:
            end += 1
        self.pos = end
        return "".join(tokens[start:end])


def _parse_paragraph(cur: _Cursor) -> ParagraphContent:
    if cur.at_end() or cur.tag() == "<Sep>":
        return ParagraphContent(())
    lines = [TextLine(bbox=cur.read_quartet(), text=cur.read_text_run())]
    while cur.tag() == "<\\n>":
        cur.pos += 1
        lines.append(TextLine(bbox=cur.read_quartet(), text=cur.read_text_run()))
    return ParagraphContent(tuple(lines))


def _parse_table(cur: _Cursor) -> TableContent:
    rows: list[tuple[TableCell, ...]] = []
    while not cur.at_end() and cur.tag() != "<Sep>":
        if cur.tag() != "<tr>":
            cur.fail(
                ParseErrorKind.MALFORMED_TABLE_TAGS,
                f"expected <tr> or <Sep>, got {cur.got()}",
            )
        cur.pos += 1
        cells: list[TableCell] = []
        while True:
            if cur.at_end():
                cur.fail(
                    ParseErrorKind.UNTERMINATED_ELEMENT, "table row never closed"
                )
            tag = cur.tag()
            if tag == "</tr>":
                cur.pos += 1
                break
            td = _TD_TAG_RE.fullmatch(tag) if tag is not None else None
            if td is None:
                cur.fail(
                    ParseErrorKind.MALFORMED_TABLE_TAGS,
                    f"expected <td> or </tr>, got {cur.got()}",
                )
            rowspan, colspan = (int(span) if span else 1 for span in td.groups())
            cur.pos += 1
            bbox = cur.read_quartet()
            text = cur.read_text_run()
            cur.close("</td>", ParseErrorKind.MALFORMED_TABLE_TAGS, "table cell never closed")
            cells.append(TableCell(bbox=bbox, rowspan=rowspan, colspan=colspan, text=text))
        rows.append(tuple(cells))
    return TableContent(tuple(rows))


def parse(seq: TokenSequence, page_width: float, page_height: float) -> Document:
    """Decode a token sequence back into a document.

    A bin ``b`` comes back as its centre, ``(b + 0.5) / bins * extent``.
    Every malformed input raises one ParseError carrying the offset of the
    first violation, a bin outside ``[0, bins)`` among them; grammatically
    valid sequences whose decoded geometry breaks model invariants still
    parse (validate_document reports those). A page size that is not
    positive and finite (``model.check_page``), or a ``seq.bins`` that fails
    ``check_grid``, raises ValueError before any token is read.
    """
    check_page(page_width, page_height)
    check_grid(seq.bins)
    cur = _Cursor(seq, page_width, page_height)
    elements: list[Element] = []
    while not cur.at_end():
        category = _CATEGORIES.get(cur.tag())
        if category is None:
            cur.fail(
                ParseErrorKind.MISSING_CATEGORY,
                f"expected a category token, got {cur.got()}",
            )
        cur.pos += 1
        bbox = cur.read_quartet()
        if category is Category.PARAGRAPH:
            content = _parse_paragraph(cur)
        elif category is Category.TABLE:
            content = _parse_table(cur)
        elif category is Category.FORMULA:
            content = FormulaContent(cur.read_text_run())
        else:
            content = FigureContent()
        cur.close("<Sep>", ParseErrorKind.UNEXPECTED_TOKEN, "element missing <Sep>")
        elements.append(Element(category=category, bbox=bbox, content=content))
    return Document(
        page_width=page_width, page_height=page_height, elements=tuple(elements)
    )


# --- text rendering --------------------------------------------------------
#
# Tags render as themselves and bins as <bin>; text renders raw with three
# escapes: "\\" for a backslash, "\<" for a literal "<", and "\n" (two
# characters) for a newline. A real newline appears only after a <Sep> that
# is not the last token, grouping one element per line.

#: Text character -> its escape.
_ESCAPES = {"\\": "\\\\", "<": "\\<", "\n": "\\n"}
_UNESCAPES = {escape: ch for ch, escape in _ESCAPES.items()}
#: str token -> its text, where that is not the token itself.
_RENDERED = {**_ESCAPES, "<Sep>": "<Sep>\n"}  # render_tokens drops a final "\n"
#: One lexeme of token text; a "<" that no ">" closes matches no group.
_LEXEME_RE = re.compile(
    r"<(?P<tag>[^>]*)>|(?P<escape>\\.?)|(?P<newline>\n)|(?P<text>[^<\\\n]+)|<",
    re.DOTALL,
)


def render_tokens(seq: TokenSequence) -> str:
    """Angle-bracket text form of a token sequence, one element per line.

    A bin with more digits than ``str`` may write raises ValueError naming its index.
    """
    try:
        text = "".join(
            f"<{tok}>" if type(tok) is int else _RENDERED.get(tok, tok) for tok in seq.tokens
        )
    except ValueError as exc:  # only str(int) raises it here
        index = next(i for i, tok in enumerate(seq.tokens) if type(tok) is int and abs(tok) >= INT_STR_LIMIT)
        raise ValueError(f"token {index}: a bin of more than {MAX_INT_DIGITS} digits") from exc
    # Only a <Sep> renders a raw newline: escaped text and tags hold none.
    return text[:-1] if text.endswith("\n") else text


def scan_tokens(text: str, bins: int = DEFAULT_BINS) -> TokenSequence:
    """Inverse of render_tokens: every text that scans renders back to itself.

    A numeric tag becomes an int bin; the parser reads its axis from its
    place in the quartet. A raw newline is taken only where render_tokens
    writes one, after each <Sep> but a final one. Bin range is not checked
    here (the parser reports CoordOutOfRange). A number has at most as many
    digits as ``int`` converts (``sys.get_int_max_str_digits()``, 4,300 by
    default): a longer bin or span makes an unknown tag.
    """
    tokens: list[Token] = []
    sep_end = -1  # where the last <Sep> ended
    for m in _LEXEME_RE.finditer(text):
        kind, start = m.lastgroup, m.start()
        if kind == "newline":
            if start != sep_end or m.end() == len(text):
                raise ScanError(start, "newline not between two elements")
            continue
        if start == sep_end:
            raise ScanError(start, "expected a newline after <Sep>")
        if kind == "text":
            tokens.extend(m.group())
        elif kind == "tag":
            tag, body = m.group(), m.group("tag")
            if _DIGITS_RE.fullmatch(body):
                tokens.append(int(body))
                continue
            if tag not in _FIXED_TAGS and not _TD_TAG_RE.fullmatch(tag):
                raise ScanError(start, f"unknown tag {tag}")
            if tag == "<Sep>":
                sep_end = m.end()
            tokens.append(tag)
        elif kind == "escape":
            escape = m.group()
            if escape not in _UNESCAPES:
                message = f"unknown escape {escape}" if escape[1:] else "dangling escape"
                raise ScanError(start, message)
            tokens.append(_UNESCAPES[escape])
        else:
            raise ScanError(start, "unterminated tag")
    return TokenSequence(tuple(tokens), bins)
