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

Coordinates are quantized onto a ``bins``-wide grid normalized by the page
dimensions. Text is tokenized one codepoint per token at this layer.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum

from .model import (
    DEFAULT_BINS,
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
    dequantize_coord,
    quantize_coord,
    validate_document,
)


#: Quartet order for every bounding box; a coordinate's axis is its place in it.
AXES = ("Xmin", "Ymin", "Xmax", "Ymax")


@dataclass(frozen=True)
class CategoryTok:
    category: Category


@dataclass(frozen=True)
class CoordTok:
    bin: int


@dataclass(frozen=True)
class TextTok:
    text: str


@dataclass(frozen=True)
class LineSepTok:
    """Separator between consecutive paragraph lines."""


@dataclass(frozen=True)
class SepTok:
    """Terminator of one element's token run."""


@dataclass(frozen=True)
class HtmlTagTok:
    name: str  # one of "tr", "/tr", "td", "/td"
    rowspan: int | None = None
    colspan: int | None = None


Token = CategoryTok | CoordTok | TextTok | LineSepTok | SepTok | HtmlTagTok


@dataclass(frozen=True)
class TokenSequence:
    tokens: tuple[Token, ...]
    bins: int = DEFAULT_BINS

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


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


def serialize(doc: Document, bins: int = DEFAULT_BINS) -> TokenSequence:
    """Encode a valid document as a token sequence.

    Raises DocumentValidationError listing violations when the document
    breaks any model invariant.
    """
    violations = validate_document(doc)
    if violations:
        raise DocumentValidationError(violations)
    w, h = doc.page_width, doc.page_height
    tokens: list[Token] = []

    def emit_quartet(bbox: BoundingBox) -> None:
        tokens.append(CoordTok(quantize_coord(bbox.x_min, w, bins)))
        tokens.append(CoordTok(quantize_coord(bbox.y_min, h, bins)))
        tokens.append(CoordTok(quantize_coord(bbox.x_max, w, bins)))
        tokens.append(CoordTok(quantize_coord(bbox.y_max, h, bins)))

    def emit_text(text: str) -> None:
        tokens.extend(TextTok(ch) for ch in text)

    for el in doc.elements:
        tokens.append(CategoryTok(el.category))
        emit_quartet(el.bbox)
        content = el.content
        if isinstance(content, ParagraphContent):
            for j, line in enumerate(content.lines):
                if j:
                    tokens.append(LineSepTok())
                emit_quartet(line.bbox)
                emit_text(line.text)
        elif isinstance(content, TableContent):
            for row in content.rows:
                tokens.append(HtmlTagTok("tr"))
                for cell in row:
                    tokens.append(
                        HtmlTagTok(
                            "td",
                            rowspan=cell.rowspan if cell.rowspan > 1 else None,
                            colspan=cell.colspan if cell.colspan > 1 else None,
                        )
                    )
                    emit_quartet(cell.bbox)
                    emit_text(cell.text)
                    tokens.append(HtmlTagTok("/td"))
                tokens.append(HtmlTagTok("/tr"))
        elif isinstance(content, FormulaContent):
            emit_text(content.latex)
        tokens.append(SepTok())
    return TokenSequence(tuple(tokens), bins)


class _Cursor:
    """Token-stream reader shared by the content parsers."""

    def __init__(self, seq: TokenSequence, page_width: float, page_height: float):
        self.tokens = seq.tokens
        self.bins = seq.bins
        self.w = page_width
        self.h = page_height
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def fail(self, kind: ParseErrorKind, message: str, offset: int | None = None):
        raise ParseError(kind, self.pos if offset is None else offset, message)

    def read_quartet(self) -> BoundingBox:
        """Four coordinate tokens, read as Xmin, Ymin, Xmax, Ymax in that order."""
        values = []
        for axis in AXES:
            tok = self.peek()
            if tok is None or not isinstance(tok, CoordTok):
                self.fail(
                    ParseErrorKind.TRUNCATED_COORD_QUARTET,
                    f"expected {axis} coordinate, got {_describe(tok)}",
                )
            if not 0 <= tok.bin < self.bins:
                self.fail(
                    ParseErrorKind.COORD_OUT_OF_RANGE,
                    f"bin {tok.bin} outside [0, {self.bins})",
                )
            values.append(tok.bin)
            self.pos += 1
        return BoundingBox(
            dequantize_coord(values[0], self.w, self.bins),
            dequantize_coord(values[1], self.h, self.bins),
            dequantize_coord(values[2], self.w, self.bins),
            dequantize_coord(values[3], self.h, self.bins),
        )

    def read_text_run(self) -> str:
        chars = []
        while isinstance(self.peek(), TextTok):
            chars.append(self.tokens[self.pos].text)
            self.pos += 1
        return "".join(chars)


def _describe(tok: Token | None) -> str:
    if tok is None:
        return "end of sequence"
    return type(tok).__name__


def _parse_paragraph(cur: _Cursor) -> ParagraphContent:
    lines: list[TextLine] = []
    if cur.peek() is None or isinstance(cur.peek(), SepTok):
        return ParagraphContent(())
    while True:
        bbox = cur.read_quartet()
        text = cur.read_text_run()
        lines.append(TextLine(bbox=bbox, text=text))
        if isinstance(cur.peek(), LineSepTok):
            cur.pos += 1
            continue
        return ParagraphContent(tuple(lines))


def _parse_table(cur: _Cursor) -> TableContent:
    rows: list[tuple[TableCell, ...]] = []
    while True:
        tok = cur.peek()
        if tok is None or isinstance(tok, SepTok):
            return TableContent(tuple(rows))
        if not (isinstance(tok, HtmlTagTok) and tok.name == "tr"):
            cur.fail(
                ParseErrorKind.MALFORMED_TABLE_TAGS,
                f"expected <tr> or <Sep>, got {_describe(tok)}",
            )
        cur.pos += 1
        cells: list[TableCell] = []
        while True:
            tok = cur.peek()
            if tok is None:
                cur.fail(
                    ParseErrorKind.UNTERMINATED_ELEMENT, "table row never closed"
                )
            if isinstance(tok, HtmlTagTok) and tok.name == "/tr":
                cur.pos += 1
                break
            if not (isinstance(tok, HtmlTagTok) and tok.name == "td"):
                cur.fail(
                    ParseErrorKind.MALFORMED_TABLE_TAGS,
                    f"expected <td> or </tr>, got {_describe(tok)}",
                )
            rowspan = tok.rowspan if tok.rowspan is not None else 1
            colspan = tok.colspan if tok.colspan is not None else 1
            cur.pos += 1
            bbox = cur.read_quartet()
            text = cur.read_text_run()
            tok = cur.peek()
            if tok is None:
                cur.fail(ParseErrorKind.UNTERMINATED_ELEMENT, "table cell never closed")
            if not (isinstance(tok, HtmlTagTok) and tok.name == "/td"):
                cur.fail(
                    ParseErrorKind.MALFORMED_TABLE_TAGS,
                    f"expected </td>, got {_describe(tok)}",
                )
            cur.pos += 1
            cells.append(TableCell(bbox=bbox, rowspan=rowspan, colspan=colspan, text=text))
        rows.append(tuple(cells))


def parse(seq: TokenSequence, page_width: float, page_height: float) -> Document:
    """Decode a token sequence back into a document.

    Coordinates come back as bin centers. Every malformed input raises one
    ParseError carrying the offset of the first violation; grammatically
    valid sequences whose dequantized geometry breaks model invariants still
    parse (validate_document reports those).
    """
    if not (0 < page_width < math.inf and 0 < page_height < math.inf):
        raise ValueError(
            f"page dimensions must be positive and finite, got {page_width}x{page_height}"
        )
    cur = _Cursor(seq, page_width, page_height)
    elements: list[Element] = []
    while cur.pos < len(cur.tokens):
        tok = cur.peek()
        if not isinstance(tok, CategoryTok):
            cur.fail(
                ParseErrorKind.MISSING_CATEGORY,
                f"expected a category token, got {_describe(tok)}",
            )
        category = tok.category
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
        tok = cur.peek()
        if tok is None:
            cur.fail(ParseErrorKind.UNTERMINATED_ELEMENT, "element missing <Sep>")
        if not isinstance(tok, SepTok):
            cur.fail(
                ParseErrorKind.UNEXPECTED_TOKEN,
                f"expected <Sep>, got {_describe(tok)}",
            )
        cur.pos += 1
        elements.append(Element(category=category, bbox=bbox, content=content))
    return Document(
        page_width=page_width, page_height=page_height, elements=tuple(elements)
    )


# --- text rendering --------------------------------------------------------
#
# Tags render as <...>; text renders raw with three escapes: "\\" for a
# backslash, "\<" for a literal "<", and "\n" (two characters) for a
# newline. A real newline appears only after a <Sep> that is not the last
# token, grouping one element per line.

#: Tag body -> token, for every tag without a number in it.
_TAGS: dict[str, Token] = {
    **{cat.value: CategoryTok(cat) for cat in Category},
    "Sep": SepTok(),
    "\\n": LineSepTok(),
    **{name: HtmlTagTok(name) for name in ("tr", "/tr", "td", "/td")},
}
_TAG_TEXT = {tok: f"<{body}>" for body, tok in _TAGS.items()}
_TAG_TEXT[SepTok()] += "\n"  # render_tokens drops it after a final <Sep>

#: Text character -> its escape.
_ESCAPES = {"\\": "\\\\", "<": "\\<", "\n": "\\n"}
_ESCAPE_TABLE = str.maketrans(_ESCAPES)
_UNESCAPES = {escape: ch for ch, escape in _ESCAPES.items()}

# Canonical decimal: ASCII digits, no leading zero, so each number has one text.
_UINT = r"(?:0|[1-9][0-9]*)"
_TD_TAG_RE = re.compile(rf'td(?: rowspan="({_UINT})")?(?: colspan="({_UINT})")?')
_DIGITS_RE = re.compile(_UINT)
#: One lexeme of token text; a "<" that no ">" closes matches no group.
_LEXEME_RE = re.compile(
    r"<(?P<tag>[^>]*)>|(?P<escape>\\.?)|(?P<newline>\n)|(?P<text>[^<\\\n]+)|<",
    re.DOTALL,
)


def _html_tag_text(tok: HtmlTagTok) -> str:
    attrs = ""
    if tok.name == "td":
        if tok.rowspan is not None:
            attrs += f' rowspan="{tok.rowspan}"'
        if tok.colspan is not None:
            attrs += f' colspan="{tok.colspan}"'
    return f"<{tok.name}{attrs}>"


def render_tokens(seq: TokenSequence) -> str:
    """Angle-bracket text form of a token sequence, one element per line."""
    parts: list[str] = []
    for tok in seq.tokens:
        if isinstance(tok, TextTok):
            parts.append(tok.text.translate(_ESCAPE_TABLE))
        elif isinstance(tok, CoordTok):
            parts.append(f"<{tok.bin}>")
        else:
            tag = _TAG_TEXT.get(tok)
            parts.append(tag if tag is not None else _html_tag_text(tok))
    text = "".join(parts)
    if seq.tokens and isinstance(seq.tokens[-1], SepTok):
        return text[:-1]
    return text


def scan_tokens(text: str, bins: int = DEFAULT_BINS) -> TokenSequence:
    """Inverse of render_tokens: every text that scans renders back to itself.

    A numeric tag becomes a coordinate token holding only its bin; the
    parser reads its axis from its place in the quartet. A raw newline is
    taken only where render_tokens writes one, after each <Sep> but a final
    one. Bin range is not checked here (the parser reports CoordOutOfRange).
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
            tokens.extend(map(TextTok, m.group()))
        elif kind == "tag":
            body = m.group("tag")
            tok = _TAGS.get(body)
            if tok is None and _DIGITS_RE.fullmatch(body):
                tok = CoordTok(int(body))
            elif tok is None:
                match = _TD_TAG_RE.fullmatch(body)
                if match is None:
                    raise ScanError(start, f"unknown tag <{body}>")
                tok = HtmlTagTok("td", *(int(span) if span else None for span in match.groups()))
            elif isinstance(tok, SepTok):
                sep_end = m.end()
            tokens.append(tok)
        elif kind == "escape":
            escape = m.group()
            if escape not in _UNESCAPES:
                message = f"unknown escape {escape}" if escape[1:] else "dangling escape"
                raise ScanError(start, message)
            tokens.append(TextTok(_UNESCAPES[escape]))
        else:
            raise ScanError(start, "unterminated tag")
    return TokenSequence(tuple(tokens), bins)
