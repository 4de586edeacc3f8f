import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    dequantize_coord,
    document_from_dict,
    document_to_dict,
    quantize_coord,
    validate_document,
)
from helpers import random_document


def test_quantize_boundaries():
    assert quantize_coord(0.0, 1000.0, 1000) == 0
    assert quantize_coord(1000.0, 1000.0, 1000) == 999
    assert quantize_coord(512.3, 1024.0, 1000) == 500


def test_quantize_domain_errors():
    with pytest.raises(ValueError):
        quantize_coord(-1.0, 100.0, 10)
    with pytest.raises(ValueError):
        quantize_coord(101.0, 100.0, 10)
    with pytest.raises(ValueError):
        quantize_coord(5.0, 0.0, 10)
    with pytest.raises(ValueError):
        quantize_coord(5.0, -3.0, 10)
    with pytest.raises(ValueError):
        quantize_coord(5.0, 100.0, 1)


def test_dequantize_bin_centers():
    assert dequantize_coord(0, 1000.0, 1000) == 0.5
    assert dequantize_coord(999, 1000.0, 1000) == 999.5
    assert dequantize_coord(500, 1024.0, 1000) == pytest.approx(512.512, abs=1e-9)


def test_dequantize_domain_errors():
    with pytest.raises(ValueError):
        dequantize_coord(-1, 1000.0, 1000)
    with pytest.raises(ValueError):
        dequantize_coord(1000, 1000.0, 1000)
    with pytest.raises(ValueError):
        dequantize_coord(0, 0.0, 1000)


def test_quantize_matches_exact_arithmetic():
    # Arbitrary-precision oracle over random interior points.
    rng = random.Random(1234)
    for _ in range(2000):
        extent = rng.choice((100.0, 773.0, 1000.0, 1024.0, 2048.5))
        bins = rng.choice((10, 100, 1000, 1024))
        v = round(rng.uniform(0, extent), 3)
        exact = Fraction(v) * bins / Fraction(extent)
        expected = min(math.floor(exact), bins - 1)
        assert quantize_coord(v, extent, bins) == expected, (v, extent, bins)


@given(
    v1=st.floats(min_value=0, max_value=1024, allow_nan=False),
    v2=st.floats(min_value=0, max_value=1024, allow_nan=False),
    bins=st.integers(min_value=2, max_value=5000),
)
def test_quantize_monotone(v1, v2, bins):
    lo, hi = sorted((v1, v2))
    assert quantize_coord(lo, 1024.0, bins) <= quantize_coord(hi, 1024.0, bins)


@given(
    v=st.floats(min_value=0, max_value=2048, allow_nan=False),
    extent=st.floats(min_value=1e-3, max_value=2048, allow_nan=False),
    bins=st.integers(min_value=2, max_value=5000),
)
def test_quantize_round_trip_within_one_bin(v, extent, bins):
    if v > extent:
        v = extent
    back = dequantize_coord(quantize_coord(v, extent, bins), extent, bins)
    assert abs(back - v) <= extent / bins + 1e-9 * extent


def _valid_doc():
    return Document(
        page_width=1000.0,
        page_height=800.0,
        elements=(
            Element(
                Category.PARAGRAPH,
                BoundingBox(10, 10, 500, 100),
                ParagraphContent(
                    (
                        TextLine(BoundingBox(12, 12, 480, 40), "hello world"),
                        TextLine(BoundingBox(12, 45, 490, 90), "second line"),
                    )
                ),
            ),
            Element(
                Category.TABLE,
                BoundingBox(10, 150, 600, 300),
                TableContent(
                    ((TableCell(BoundingBox(12, 152, 300, 200), 1, 2, "x"),),)
                ),
            ),
            Element(Category.FIGURE, BoundingBox(10, 350, 900, 700), FigureContent()),
        ),
    )


def test_validate_accepts_well_formed():
    assert validate_document(_valid_doc()) == []


def test_validate_reports_box_order():
    doc = Document(
        100.0,
        100.0,
        (Element(Category.FIGURE, BoundingBox(50, 10, 20, 40), FigureContent()),),
    )
    problems = validate_document(doc)
    assert len(problems) == 1
    assert "element 0" in problems[0]
    assert "out of order" in problems[0]


def test_validate_reports_category_mismatch():
    doc = Document(
        100.0,
        100.0,
        (
            Element(
                Category.FIGURE,
                BoundingBox(0, 0, 50, 50),
                ParagraphContent((TextLine(BoundingBox(1, 1, 40, 10), "oops"),)),
            ),
        ),
    )
    problems = validate_document(doc)
    assert any("Figure element carries ParagraphContent" in p for p in problems)


def test_validate_reports_out_of_bounds_and_spans_and_text():
    doc = Document(
        100.0,
        100.0,
        (
            Element(Category.FIGURE, BoundingBox(0, 0, 150, 50), FigureContent()),
            Element(
                Category.TABLE,
                BoundingBox(0, 60, 90, 90),
                TableContent(((TableCell(BoundingBox(1, 61, 40, 80), 0, 1, "x"),),)),
            ),
            Element(
                Category.PARAGRAPH,
                BoundingBox(0, 91, 50, 99),
                ParagraphContent(
                    (TextLine(BoundingBox(1, 92, 40, 98), "bad\x00char"),)
                ),
            ),
        ),
    )
    problems = validate_document(doc)
    assert any("outside page" in p for p in problems)
    assert any("rowspan 0 < 1" in p for p in problems)
    assert any("control character" in p for p in problems)


def test_validate_reports_reserved_token_text():
    doc = Document(
        100.0,
        100.0,
        (
            Element(
                Category.PARAGRAPH,
                BoundingBox(0, 0, 50, 50),
                ParagraphContent((TextLine(BoundingBox(1, 1, 40, 10), "a<Sep>b"),)),
            ),
        ),
    )
    assert any("reserved token" in p for p in validate_document(doc))


def test_validate_reports_bad_page_dims():
    doc = Document(0.0, 100.0, ())
    assert any("positive" in p for p in validate_document(doc))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_validate_reports_non_finite_geometry(bad):
    assert any("positive and finite" in p for p in validate_document(Document(bad, 100.0, ())))
    box = BoundingBox(0.0, bad, 5.0, 5.0)
    doc = Document(100.0, 100.0, (Element(Category.FIGURE, box, FigureContent()),))
    assert any("element 0" in p for p in validate_document(doc))


def _mutate(rng, doc):
    """One randomly chosen single-fault mutation; returns (mutant, element index)."""
    idx = rng.randrange(len(doc.elements))
    el = doc.elements[idx]
    kind = rng.choice(("flip_box", "escape_page", "wrong_content"))
    if kind == "flip_box":
        bad = BoundingBox(el.bbox.x_max + 1.0, el.bbox.y_min, el.bbox.x_min, el.bbox.y_max)
        mutant = Element(el.category, bad, el.content)
    elif kind == "escape_page":
        bad = BoundingBox(el.bbox.x_min, el.bbox.y_min, doc.page_width + 5.0, el.bbox.y_max)
        mutant = Element(el.category, bad, el.content)
    else:
        wrong = FigureContent() if not isinstance(el.content, FigureContent) else FormulaContent("x")
        mutant = Element(el.category, el.bbox, wrong)
    elements = list(doc.elements)
    elements[idx] = mutant
    return Document(doc.page_width, doc.page_height, tuple(elements)), idx


def test_validate_random_docs_and_mutants():
    rng = random.Random(99)
    for _ in range(50):
        doc = random_document(rng, 1, 6)
        assert validate_document(doc) == []
        mutant, idx = _mutate(rng, doc)
        problems = validate_document(mutant)
        assert problems, "mutation went undetected"
        assert any(f"element {idx}" in p for p in problems)


def test_json_round_trip():
    rng = random.Random(7)
    for _ in range(30):
        doc = random_document(rng, 1, 6, tricky_text=True)
        again = document_from_dict(json.loads(json.dumps(document_to_dict(doc))))
        assert again == doc


def test_json_exact_shape():
    doc = Document(
        200.0,
        100.0,
        (
            Element(
                Category.FORMULA,
                BoundingBox(1.0, 2.0, 30.0, 40.0),
                FormulaContent("x^2"),
            ),
            Element(Category.FIGURE, BoundingBox(0.0, 50.0, 60.0, 90.0), FigureContent()),
        ),
    )
    assert document_to_dict(doc) == {
        "page_width": 200.0,
        "page_height": 100.0,
        "elements": [
            {
                "category": "Formula",
                "bbox": [1.0, 2.0, 30.0, 40.0],
                "content": {"latex": "x^2"},
            },
            {
                "category": "Figure",
                "bbox": [0.0, 50.0, 60.0, 90.0],
                "content": {},
            },
        ],
    }


@pytest.mark.parametrize(
    "payload",
    [
        42,
        {},
        {"page_width": 10},
        {"page_width": "ten", "page_height": 10},
        {"page_width": True, "page_height": 10},
        {"page_width": 10, "page_height": 10, "elements": {}},
        {"page_width": 10, "page_height": 10, "elements": [{"category": "Chart", "bbox": [0, 0, 1, 1], "content": {}}]},
        {"page_width": 10, "page_height": 10, "elements": [{"category": "Figure", "bbox": [0, 0, 1], "content": {}}]},
        {"page_width": 10, "page_height": 10, "elements": [{"category": "Figure", "bbox": [0, 0, 1, "x"], "content": {}}]},
        {"page_width": 10, "page_height": 10, "elements": [{"category": "Paragraph", "bbox": [0, 0, 1, 1], "content": {"lines": [{"text": "no box"}]}}]},
        {"page_width": 10, "page_height": 10, "elements": [{"category": "Table", "bbox": [0, 0, 1, 1], "content": {"rows": [[{"bbox": [0, 0, 1, 1], "rowspan": 1.5}]]}}]},
    ],
)
def test_from_dict_rejects_malformed(payload):
    with pytest.raises(ValueError):
        document_from_dict(payload)


def test_from_dict_ignores_extra_keys():
    doc = document_from_dict(
        {"id": "a", "page_width": 10, "page_height": 10, "elements": []}
    )
    assert doc == Document(10.0, 10.0, ())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
def test_from_dict_rejects_non_finite(bad):
    figure = {"category": "Figure", "bbox": [0, bad, 1, 1], "content": {}}
    with pytest.raises(ValueError, match=r"elements\[0\]\.bbox\[1\]: expected a finite number"):
        document_from_dict({"page_width": 10, "page_height": 10, "elements": [figure]})
    with pytest.raises(ValueError, match=r"page_width: expected a finite number"):
        document_from_dict({"page_width": bad, "page_height": 10})
