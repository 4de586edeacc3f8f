import random

from docrec.convert import (
    extract_formulas,
    extract_tables,
    layout_record_to_dict,
    to_layout_records,
    to_markdown,
    to_plain_text,
)
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
from docrec.seqformat import parse, serialize
from helpers import random_document


def _para(texts, y=0.0):
    lines = tuple(
        TextLine(BoundingBox(0, y + i * 10, 100, y + i * 10 + 8), t)
        for i, t in enumerate(texts)
    )
    return Element(
        Category.PARAGRAPH,
        BoundingBox(0, y, 100, y + len(texts) * 10),
        ParagraphContent(lines),
    )


def _formula(latex, y=0.0):
    return Element(Category.FORMULA, BoundingBox(0, y, 100, y + 20), FormulaContent(latex))


def _figure(y=0.0):
    return Element(Category.FIGURE, BoundingBox(0, y, 100, y + 20), FigureContent())


def _table(rows, y=0.0, spans=None):
    cells = []
    for r, row in enumerate(rows):
        built = []
        for c, text in enumerate(row):
            rowspan, colspan = (spans or {}).get((r, c), (1, 1))
            built.append(
                TableCell(
                    BoundingBox(c * 30, y + r * 15, c * 30 + 25, y + r * 15 + 12),
                    rowspan,
                    colspan,
                    text,
                )
            )
        cells.append(tuple(built))
    return Element(
        Category.TABLE,
        BoundingBox(0, y, 200, y + 15 * len(rows)),
        TableContent(tuple(cells)),
    )


def _doc(*elements):
    return Document(1000.0, 1000.0, tuple(elements))


def test_markdown_single_paragraph():
    assert to_markdown(_doc(_para(["Hello", "world"]))) == "Hello\nworld"


def test_markdown_paragraph_then_formula():
    doc = _doc(_para(["Hello", "world"]), _formula("E=mc^2", y=50))
    assert to_markdown(doc) == "Hello\nworld\n\nE=mc^2"


def test_markdown_single_figure_empty():
    assert to_markdown(_doc(_figure())) == ""


def test_markdown_table_keeps_html():
    doc = _doc(_table([["a", "b"]]))
    assert to_markdown(doc) == "<tr><td>a</td><td>b</td></tr>"


def test_markdown_has_no_coordinate_digits():
    # Digit-free texts and span-1 cells: any digit in the markdown would
    # have leaked from a coordinate field.
    doc = _doc(
        _para(["alpha beta", "gamma"]),
        _table([["left", "right"], ["up", "down"]], y=300),
        _formula("x + y", y=600),
        _figure(y=800),
    )
    assert not any(ch.isdigit() for ch in to_markdown(doc))


def test_layout_records():
    doc = _doc(_para(["x"]), _table([["y"]], y=100), _figure(y=200))
    records = to_layout_records(doc)
    assert [r.category for r in records] == [
        Category.PARAGRAPH,
        Category.TABLE,
        Category.FIGURE,
    ]
    assert all(r.score == 1.0 for r in records)
    assert [r.bbox for r in records] == [el.bbox for el in doc.elements]
    assert to_layout_records(_doc()) == []


def test_layout_record_json_round_trip():
    doc = _doc(_para(["x"]), _figure(y=100))
    assert [layout_record_to_dict(r) for r in to_layout_records(doc)] == [
        {"category": "Paragraph", "bbox": [0, 0, 100, 10], "score": 1.0},
        {"category": "Figure", "bbox": [0, 100, 100, 120], "score": 1.0},
    ]


def test_plain_text_paragraph_and_table():
    doc = _doc(_para(["a b"]), _table([["x", "y"]], y=50))
    assert to_plain_text(doc) == "a b\nx y"


def test_plain_text_excludes_formulas_and_figures():
    assert to_plain_text(_doc(_formula("E=mc^2"))) == ""
    assert to_plain_text(_doc(_figure())) == ""


def test_plain_text_follows_element_order_not_geometry():
    lower = _para(["below"], y=500)
    upper = _para(["above"], y=0)
    assert to_plain_text(_doc(lower, upper)) == "below\nabove"


def test_plain_text_multirow_table():
    doc = _doc(_table([["a", "b"], ["c", "d"]]))
    assert to_plain_text(doc) == "a b\nc d"


def test_extract_tables():
    assert extract_tables(_doc(_para(["x"]))) == []
    assert extract_tables(_doc(_table([["x"]]))) == ["<tr><td>x</td></tr>"]
    html = extract_tables(_doc(_table([["a", "b"], ["c", "d"]], spans={(0, 0): (1, 2)})))[0]
    assert html.count('colspan="2"') == 1
    assert "rowspan" not in html


def test_extract_formulas():
    assert extract_formulas(_doc(_para(["x"]))) == []
    assert extract_formulas(_doc(_formula("E=mc^2"))) == ["E=mc^2"]
    doc = _doc(_formula("a", y=0), _formula("b", y=50), _formula("c", y=100))
    assert extract_formulas(doc) == ["a", "b", "c"]


def test_converters_commute_with_serialization_round_trip():
    rng = random.Random(44)
    for _ in range(20):
        doc = random_document(rng, 0, 5)
        again = parse(serialize(doc), doc.page_width, doc.page_height)
        assert to_markdown(again) == to_markdown(doc)
        assert to_plain_text(again) == to_plain_text(doc)
        assert extract_tables(again) == extract_tables(doc)
        assert extract_formulas(again) == extract_formulas(doc)
        bins = 1000
        for a, b in zip(to_layout_records(again), to_layout_records(doc)):
            assert a.category is b.category
            assert abs(a.bbox.x_min - b.bbox.x_min) <= doc.page_width / bins
            assert abs(a.bbox.y_max - b.bbox.y_max) <= doc.page_height / bins
