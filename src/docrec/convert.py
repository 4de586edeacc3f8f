"""Converters from documents to per-task evaluation formats.

Each converter is a pure function of the document. The text renderings here
(`paragraph_text`, `table_html`, `element_text`) are also the canonical
transcription strings used by the similarity metrics, so both sides agree on
one format.
"""

from __future__ import annotations

from .model import (
    BoundingBox,
    Category,
    Document,
    Element,
    FormulaContent,
    ParagraphContent,
    TableContent,
    value,
)
from .seqformat import td_tag


def paragraph_text(content: ParagraphContent) -> str:
    return "\n".join(line.text for line in content.lines)


def table_html(content: TableContent) -> str:
    """Render a table as <tr>/<td> markup, span attributes kept, boxes dropped.

    Cell text is emitted verbatim (the format is a transcription target, not
    browser HTML, so no entity escaping).
    """
    parts: list[str] = []
    for row in content.rows:
        parts.append("<tr>")
        for cell in row:
            parts.append(f"{td_tag(cell.rowspan, cell.colspan)}{cell.text}</td>")
        parts.append("</tr>")
    return "".join(parts)


def element_text(element: Element) -> str:
    """Canonical transcription string of one element.

    Paragraph lines joined by newlines, tables as tag/text markup, formulas
    as their LaTeX source, figures empty. Sub-element coordinates never
    appear here (location is measured separately from transcription).
    """
    content = element.content
    if isinstance(content, ParagraphContent):
        return paragraph_text(content)
    if isinstance(content, TableContent):
        return table_html(content)
    if isinstance(content, FormulaContent):
        return content.latex
    return ""


def to_markdown(doc: Document) -> str:
    """Markdown rendering: element texts joined by blank lines, no coordinates."""
    return "\n\n".join(element_text(el) for el in doc.elements)


@value
class LayoutRecord:
    """Detection-style record: category + box + confidence (1.0 for ground truth)."""

    category: Category
    bbox: BoundingBox
    score: float = 1.0


def to_layout_records(doc: Document) -> list[LayoutRecord]:
    return [LayoutRecord(el.category, el.bbox, 1.0) for el in doc.elements]


def to_plain_text(doc: Document) -> str:
    """Pure text of paragraph and table elements, in reading order.

    Table cells are joined by single spaces, rows by newlines; formulas and
    figures are excluded entirely.
    """
    parts: list[str] = []
    for el in doc.elements:
        if isinstance(el.content, ParagraphContent):
            parts.append(paragraph_text(el.content))
        elif isinstance(el.content, TableContent):
            parts.append(
                "\n".join(" ".join(cell.text for cell in row) for row in el.content.rows)
            )
    return "\n".join(parts)


def extract_tables(doc: Document) -> list[str]:
    """Table markup strings in reading order, cell boxes omitted."""
    return [
        table_html(el.content)
        for el in doc.elements
        if isinstance(el.content, TableContent)
    ]


def extract_formulas(doc: Document) -> list[str]:
    """Formula LaTeX strings in reading order."""
    return [
        el.content.latex
        for el in doc.elements
        if isinstance(el.content, FormulaContent)
    ]
