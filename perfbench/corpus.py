"""Seeded input generator for the benchmark.

Everything here is a pure function of its seed: the same seed gives the same
bytes. Pages come in three size classes (``small``, ``page``, ``large``).
Their layouts are multi-column, so ``order`` has cuts to find, and one
element per column overlaps its neighbour, so the row-band fallback runs too.
Each class has a fixed mix of element kinds and fixed text lengths, so the
work per page changes little from seed to seed. Predictions reuse the test
generators (``perturb_document``, ``corrupt_transcriptions``) and add the
structural edits those keep out: dropped, inserted and split elements, so
that ``k != kt`` on some pages.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _sub in ("tests", "src"):
    if str(ROOT / _sub) not in sys.path:
        sys.path.insert(0, str(ROOT / _sub))

import numpy as np  # noqa: E402

from docrec.losses import NUM_CLASSES  # noqa: E402
from docrec.model import (  # noqa: E402
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
    document_to_dict,
)
from docrec.seqformat import TokenSequence, render_tokens, serialize  # noqa: E402
from helpers import WORDS, corrupt_transcriptions, perturb_document  # noqa: E402


@dataclass(frozen=True)
class SizeClass:
    paragraphs: int
    lines: int  # lines per paragraph
    line_chars: int
    tables: int
    rows: int
    cols: int
    cell_chars: int
    figures: int
    formulas: int


SIZES = {
    "small": SizeClass(5, 2, 40, 1, 2, 3, 8, 1, 1),
    "page": SizeClass(20, 3, 60, 4, 3, 4, 10, 3, 3),
    "large": SizeClass(84, 3, 40, 10, 4, 3, 8, 8, 8),
}

FORMULAS = ("E = mc^2", "\\frac{a}{b}", "x_{i} + y", "\\sum_k k^2", "a^2 + b^2 = c^2")
PAGE_WIDTH = 1000.0
MARGIN = 20.0
GAP = 8.0  # vertical gap between stacked elements; above the default min_gap
LINE_H = 12.0


def _text(rng: random.Random, chars: int) -> str:
    words: list[str] = []
    length = -1
    while length < chars:
        word = rng.choice(WORDS)
        words.append(word)
        length += len(word) + 1
    return " ".join(words)[:chars]


def _box(x0: float, y0: float, x1: float, y1: float) -> BoundingBox:
    return BoundingBox(round(x0, 2), round(y0, 2), round(x1, 2), round(y1, 2))


def _element(rng: random.Random, kind: Category, size: SizeClass, x0: float, y0: float, w: float) -> Element:
    if kind is Category.PARAGRAPH:
        lines = tuple(
            TextLine(
                _box(x0 + 2, y0 + 2 + i * LINE_H, x0 + w - 2, y0 + 2 + (i + 1) * LINE_H - 1),
                _text(rng, size.line_chars),
            )
            for i in range(size.lines)
        )
        return Element(kind, _box(x0, y0, x0 + w, y0 + 4 + size.lines * LINE_H), ParagraphContent(lines))
    if kind is Category.TABLE:
        cw = (w - 4) / size.cols
        rows = tuple(
            tuple(
                TableCell(
                    _box(x0 + 2 + c * cw, y0 + 2 + r * LINE_H, x0 + 2 + (c + 1) * cw, y0 + 2 + (r + 1) * LINE_H),
                    1,
                    1,
                    _text(rng, size.cell_chars),
                )
                for c in range(size.cols)
            )
            for r in range(size.rows)
        )
        return Element(kind, _box(x0, y0, x0 + w, y0 + 4 + size.rows * LINE_H), TableContent(rows))
    if kind is Category.FORMULA:
        return Element(kind, _box(x0, y0, x0 + w, y0 + LINE_H + 4), FormulaContent(rng.choice(FORMULAS)))
    return Element(kind, _box(x0, y0, x0 + w, y0 + 40), FigureContent())


def make_page(rng: random.Random, size: SizeClass, columns: int) -> Document:
    """A page in reading order: one full-width title, then ``columns`` columns."""
    kinds = (
        [Category.PARAGRAPH] * (size.paragraphs - 1)
        + [Category.TABLE] * size.tables
        + [Category.FIGURE] * size.figures
        + [Category.FORMULA] * size.formulas
    )
    rng.shuffle(kinds)
    title = SizeClass(1, 1, size.line_chars, 0, 0, 0, 0, 0, 0)
    elements = [_element(rng, Category.PARAGRAPH, title, MARGIN, MARGIN, PAGE_WIDTH - 2 * MARGIN)]
    top = elements[0].bbox.y_max + 2 * GAP
    col_w = (PAGE_WIDTH - 2 * MARGIN - (columns - 1) * 3 * GAP) / columns
    per_col = -(-len(kinds) // columns)
    bottom = top
    for c in range(columns):
        x0 = MARGIN + c * (col_w + 3 * GAP)
        y = top
        chunk = kinds[c * per_col:(c + 1) * per_col]
        overlap_at = rng.randrange(len(chunk) - 1) if len(chunk) > 1 else -1
        for i, kind in enumerate(chunk):
            el = _element(rng, kind, size, x0, y, col_w)
            # Pull the next element up into this one: an uncuttable pair that
            # XY-cut hands to the row-band fallback.
            y = el.bbox.y_max + (-2.0 if i == overlap_at else GAP)
            elements.append(el)
        bottom = max(bottom, y)
    return Document(PAGE_WIDTH, round(bottom + MARGIN, 2), tuple(elements))


def make_pages(seed: int, size_name: str, count: int) -> list[Document]:
    rng = random.Random(f"pages:{size_name}:{seed}")
    return [make_page(rng, SIZES[size_name], 1 + i % 3) for i in range(count)]


# --- predictions ------------------------------------------------------------


def _split(rng: random.Random, el: Element) -> list[Element]:
    """Split a paragraph's lines between two elements (one becomes two)."""
    lines = el.content.lines
    cut = rng.randrange(1, len(lines))
    halves = (lines[:cut], lines[cut:])
    out = []
    for part in halves:
        box = BoundingBox(
            el.bbox.x_min,
            min(line.bbox.y_min for line in part),
            el.bbox.x_max,
            max(line.bbox.y_max for line in part),
        )
        out.append(Element(el.category, box, ParagraphContent(part)))
    return out


def _structural(rng: random.Random, doc: Document, size: SizeClass, drops: int) -> Document:
    """Drop ``drops`` elements, insert one foreign element, split one paragraph."""
    elements = list(doc.elements)
    for _ in range(drops):
        elements.pop(rng.randrange(len(elements)))
    foreign = _element(rng, Category.PARAGRAPH, size, MARGIN, MARGIN, PAGE_WIDTH - 2 * MARGIN)
    elements.insert(rng.randrange(len(elements) + 1), foreign)
    splittable = [i for i, el in enumerate(elements) if el.category is Category.PARAGRAPH and len(el.content.lines) > 1]
    if splittable:
        i = rng.choice(splittable)
        elements[i:i + 1] = _split(rng, elements[i])
    return Document(doc.page_width, doc.page_height, tuple(elements))


#: Degradation applied to page i is DEGRADATIONS[i % 4], so every corpus has
#: the same mix whatever the seed. Structural pages end up one element short
#: (three dropped) or one over (one dropped), so ``k != kt`` on half the pages.
DEGRADATIONS = ("light", "garbled", "structural", "garbled+structural")


def make_prediction(rng: random.Random, doc: Document, size: SizeClass, index: int) -> Document:
    mode = DEGRADATIONS[index % len(DEGRADATIONS)]
    pred = perturb_document(rng, doc)
    if "garbled" in mode:
        pred = corrupt_transcriptions([pred], 0.3)[0]
    if "structural" in mode:
        pred = _structural(rng, pred, size, 1 if "garbled" in mode else 3)
    return pred


def make_eval_pairs(seed: int, size_name: str, count: int) -> tuple[list[Document], list[Document]]:
    gt = make_pages(seed, size_name, count)
    rng = random.Random(f"pred:{size_name}:{seed}")
    return gt, [make_prediction(rng, doc, SIZES[size_name], i) for i, doc in enumerate(gt)]


# --- transform inputs -----------------------------------------------------


def gtgen_input(rng: random.Random, doc: Document) -> dict:
    """Layout elements plus OCR lines: paragraph lines cut into 1-3 fragments,
    table cells as lines, and one stray line outside every element."""
    lines = []
    for el in doc.elements:
        if isinstance(el.content, ParagraphContent):
            for line in el.content.lines:
                pieces = rng.randint(1, 3)
                b = line.bbox
                step = (b.x_max - b.x_min) / pieces
                chars = -(-len(line.text) // pieces)
                for p in range(pieces):
                    lines.append({
                        "bbox": [round(b.x_min + p * step, 2), b.y_min, round(b.x_min + (p + 1) * step, 2), b.y_max],
                        "text": line.text[p * chars:(p + 1) * chars],
                    })
        elif isinstance(el.content, TableContent):
            for row in el.content.rows:
                for cell in row:
                    b = cell.bbox
                    lines.append({"bbox": [b.x_min, b.y_min, b.x_max, b.y_max], "text": cell.text})
    lines.append({"bbox": [1.0, 1.0, 15.0, 9.0], "text": "stray"})
    rng.shuffle(lines)
    return {
        "page_width": doc.page_width,
        "page_height": doc.page_height,
        "elements": [
            {"category": el.category.value, "bbox": [el.bbox.x_min, el.bbox.y_min, el.bbox.x_max, el.bbox.y_max]}
            for el in doc.elements
        ],
        "lines": lines,
    }


def shuffled(rng: random.Random, doc: Document) -> Document:
    elements = list(doc.elements)
    rng.shuffle(elements)
    return Document(doc.page_width, doc.page_height, tuple(elements))


def token_text(docs: list[Document]) -> tuple[str, int]:
    """Rendered token text of all ``docs`` as one token document, and its
    token count. The elements of every page follow one another, so one
    ``validate`` call reads a whole batch."""
    tokens = []
    for doc in docs:
        tokens.extend(serialize(doc).tokens)
    seq = TokenSequence(tuple(tokens))
    return render_tokens(seq), len(seq)


def jsonl(objects) -> str:
    return "".join(json.dumps(obj) + "\n" for obj in objects)


def docs_jsonl(docs: list[Document]) -> str:
    return jsonl(document_to_dict(doc) for doc in docs)


# --- loss batches -----------------------------------------------------------

TARGETS, PREDICTIONS, STEPS, VOCAB = 60, 100, 12, 24


def make_loss_batch(seed: int, index: int) -> dict[str, np.ndarray]:
    """One set-prediction batch as arrays. Odd batches quantize the class
    probabilities and round the boxes coarsely, so many assignment costs tie."""
    rng = np.random.default_rng([seed, index])
    class_probs = rng.dirichlet(np.ones(NUM_CLASSES), PREDICTIONS)
    if index % 2:
        class_probs = np.round(class_probs * 10) + 1
        class_probs /= class_probs.sum(axis=1, keepdims=True)
    token_probs = rng.dirichlet(np.ones(VOCAB), (PREDICTIONS, STEPS))
    xy = rng.uniform(0, 900, (PREDICTIONS + TARGETS, 2))
    wh = rng.uniform(20, 100, (PREDICTIONS + TARGETS, 2))
    boxes = np.round(np.hstack([xy, xy + wh]), 1 if index % 2 else 6)
    lengths = rng.integers(6, STEPS + 1, TARGETS)
    mask = (np.arange(STEPS)[None, :] < lengths[:, None]).astype(float)
    return {
        "class_probs": class_probs,
        "token_probs": token_probs,
        "pred_boxes": boxes[:PREDICTIONS],
        "target_boxes": boxes[PREDICTIONS:],
        "target_classes": rng.integers(0, NUM_CLASSES - 1, TARGETS),
        "target_tokens": rng.integers(0, VOCAB, (TARGETS, STEPS)) * mask.astype(int),
        "target_mask": mask,
    }
