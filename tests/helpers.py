"""Deterministic random generators shared by the test modules."""

from __future__ import annotations

import random

from docrec.model import (
    BoundingBox,
    Category,
    Document,
    Element,
    FigureContent,
    FormulaContent,
    ParagraphContent,
    TableCell,
    TableContent,
    TextLine,
)

WORDS = [
    "alpha", "beta", "gamma", "delta", "omega", "table", "figure", "result",
    "value", "total", "page", "line", "cell", "sum", "x", "y", "data", "row",
]

# Includes characters the text rendering must escape.
TRICKY_CHARS = "ab<\\\n é中 0"


def random_text(rng: random.Random, max_words: int = 4, tricky: bool = False) -> str:
    if tricky and rng.random() < 0.3:
        return "".join(rng.choice(TRICKY_CHARS) for _ in range(rng.randint(0, 6)))
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, max_words)))


def random_box_within(
    rng: random.Random, x0: float, y0: float, x1: float, y1: float
) -> BoundingBox:
    """Random box with positive extent (zero-area boxes are valid but score
    IoU 0 even against themselves, which no real layout element should)."""
    min_extent = 0.5

    def span(lo: float, hi: float) -> tuple[float, float]:
        if hi - lo <= min_extent:
            return lo, hi
        a = rng.uniform(lo, hi - min_extent)
        b = rng.uniform(a + min_extent, hi)
        return round(a, 2), round(b, 2)

    ax, bx = span(x0, x1)
    ay, by = span(y0, y1)
    return BoundingBox(ax, ay, bx, by)


def random_element(
    rng: random.Random,
    width: float,
    height: float,
    categories: tuple[Category, ...] = tuple(Category),
    tricky_text: bool = False,
) -> Element:
    category = rng.choice(categories)
    bbox = random_box_within(rng, 0, 0, width, height)
    if category is Category.PARAGRAPH:
        lines = tuple(
            TextLine(
                bbox=random_box_within(rng, bbox.x_min, bbox.y_min, bbox.x_max, bbox.y_max),
                text=random_text(rng, tricky=tricky_text),
            )
            for _ in range(rng.randint(0, 3))
        )
        content = ParagraphContent(lines)
    elif category is Category.TABLE:
        rows = tuple(
            tuple(
                TableCell(
                    bbox=random_box_within(
                        rng, bbox.x_min, bbox.y_min, bbox.x_max, bbox.y_max
                    ),
                    rowspan=rng.choice((1, 1, 2)),
                    colspan=rng.choice((1, 1, 2)),
                    text=random_text(rng, max_words=2, tricky=tricky_text),
                )
                for _ in range(rng.randint(1, 3))
            )
            for _ in range(rng.randint(1, 3))
        )
        content = TableContent(rows)
    elif category is Category.FORMULA:
        content = FormulaContent(
            rng.choice(["E = mc^2", "\\frac{a}{b}", "x_{i} + y", "\\sum_k k^2", ""])
        )
    else:
        content = FigureContent()
    return Element(category=category, bbox=bbox, content=content)


def random_document(
    rng: random.Random,
    min_elements: int = 1,
    max_elements: int = 8,
    categories: tuple[Category, ...] = tuple(Category),
    tricky_text: bool = False,
) -> Document:
    width = rng.choice((800.0, 1000.0, 1024.0))
    height = rng.choice((800.0, 1000.0, 1024.0))
    count = rng.randint(min_elements, max_elements)
    elements = tuple(
        random_element(rng, width, height, categories, tricky_text) for _ in range(count)
    )
    return Document(page_width=width, page_height=height, elements=elements)


def random_corpus(
    rng: random.Random,
    size: int,
    min_elements: int = 1,
    max_elements: int = 8,
) -> list[Document]:
    return [random_document(rng, min_elements, max_elements) for _ in range(size)]


def perturb_document(rng: random.Random, doc: Document) -> Document:
    """A plausible 'prediction': jittered boxes, typo'd texts, small edits."""

    def jitter_box(bbox: BoundingBox) -> BoundingBox:
        dx = rng.uniform(-5, 5)
        dy = rng.uniform(-5, 5)
        x0 = min(max(bbox.x_min + dx, 0), doc.page_width)
        y0 = min(max(bbox.y_min + dy, 0), doc.page_height)
        x1 = min(max(bbox.x_max + dx, 0), doc.page_width)
        y1 = min(max(bbox.y_max + dy, 0), doc.page_height)
        return BoundingBox(
            round(min(x0, x1), 2), round(min(y0, y1), 2),
            round(max(x0, x1), 2), round(max(y0, y1), 2),
        )

    def typo(text: str) -> str:
        if not text or rng.random() < 0.5:
            return text
        pos = rng.randrange(len(text))
        return text[:pos] + rng.choice("abcxyz") + text[pos + 1 :]

    elements = []
    for el in doc.elements:
        content = el.content
        if isinstance(content, ParagraphContent):
            content = ParagraphContent(
                tuple(TextLine(jitter_box(l.bbox), typo(l.text)) for l in content.lines)
            )
        elif isinstance(content, TableContent):
            content = TableContent(
                tuple(
                    tuple(
                        TableCell(jitter_box(c.bbox), c.rowspan, c.colspan, typo(c.text))
                        for c in row
                    )
                    for row in content.rows
                )
            )
        elif isinstance(content, FormulaContent):
            content = FormulaContent(typo(content.latex))
        elements.append(Element(el.category, jitter_box(el.bbox), content))
    if len(elements) > 1 and rng.random() < 0.3:
        i = rng.randrange(len(elements) - 1)
        elements[i], elements[i + 1] = elements[i + 1], elements[i]
    return Document(doc.page_width, doc.page_height, tuple(elements))


# --- controlled corpus corruption (degradation tests) ----------------------

#: Absent from every generated text, so garbling shares no characters with
#: any ground-truth string and edit distances can only grow.
GARBLE_CHAR = "¤"


def _garble(text: str) -> str:
    return GARBLE_CHAR * len(text)


def _element_count(corpus: list[Document]) -> int:
    return sum(len(d.elements) for d in corpus)


def corrupt_transcriptions(corpus: list[Document], fraction: float) -> list[Document]:
    """Garble the texts of the first ceil(fraction * total) elements.

    Length-preserving and alphabet-disjoint, so corruption sets nest and
    every pairwise transcription cost is non-decreasing in ``fraction``.
    """
    import math as _math

    cut = _math.ceil(fraction * _element_count(corpus))
    index = 0
    out = []
    for doc in corpus:
        elements = []
        for el in doc.elements:
            if index < cut:
                content = el.content
                if isinstance(content, ParagraphContent):
                    content = ParagraphContent(
                        tuple(TextLine(l.bbox, _garble(l.text)) for l in content.lines)
                    )
                elif isinstance(content, TableContent):
                    content = TableContent(
                        tuple(
                            tuple(
                                TableCell(c.bbox, c.rowspan, c.colspan, _garble(c.text))
                                for c in row
                            )
                            for row in content.rows
                        )
                    )
                elif isinstance(content, FormulaContent):
                    content = FormulaContent(_garble(content.latex))
                el = Element(el.category, el.bbox, content)
            elements.append(el)
            index += 1
        out.append(Document(doc.page_width, doc.page_height, tuple(elements)))
    return out


def corrupt_categories(corpus: list[Document], fraction: float) -> list[Document]:
    """Rewrite the first ceil(fraction * total) elements as Formula elements
    whose LaTeX equals the element's canonical transcription string.

    Keeps transcription costs exactly unchanged while making the category
    mismatch any corpus that contains no Formula elements.
    """
    import math as _math

    from docrec.convert import element_text

    cut = _math.ceil(fraction * _element_count(corpus))
    index = 0
    out = []
    for doc in corpus:
        elements = []
        for el in doc.elements:
            if index < cut:
                el = Element(Category.FORMULA, el.bbox, FormulaContent(element_text(el)))
            elements.append(el)
            index += 1
        out.append(Document(doc.page_width, doc.page_height, tuple(elements)))
    return out


def staircase_boxes(n: int, gap: float = 6.0) -> list[BoundingBox]:
    """Boxes whose XY-cut nests ``n`` regions deep; reading order is 0..n-1.

    Even boxes are bands that reach the right edge, odd boxes strips that
    reach the bottom edge. Each cut peels off exactly one box: a horizontal
    cut below every band, a vertical cut right of every strip.
    """
    end = (n // 2 + 1) * (1 + gap)
    x = y = 0.0
    boxes = []
    for k in range(n):
        if k % 2 == 0:
            boxes.append(BoundingBox(x, y, end, y + 1))
            y += 1 + gap
        else:
            boxes.append(BoundingBox(x, y, x + 1, end))
            x += 1 + gap
    return boxes
