import collections
import copy
import dataclasses
import json
import math
import pickle
import random
import sys
import unicodedata
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrec import model
from docrec.model import (
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
    document_from_dict,
    document_to_dict,
    text_lines_from_value,
    validate_document,
)
from docrec.seqformat import ParseError, ParseErrorKind, TokenSequence, check_grid, parse, serialize
from helpers import random_document
from oracles import oracle_document_from_dict, oracle_text_lines_from_value


# --- the coordinate grid, through seqformat's serialize and parse of one-box pages ---


def _bins_of(box, width, height, bins):
    """The four bins ``serialize`` writes for ``box`` on a one-box page."""
    page = Document(width, height, (Element(Category.FIGURE, box, FigureContent()),))
    return serialize(page, bins=bins).tokens[1:5]


def _centres(bins_, width, height, grid):
    """The box ``parse`` reads back from four bins on a one-box page."""
    return parse(TokenSequence(("<Figure>", *bins_, "<Sep>"), grid), width, height).elements[0].bbox


def test_quantize_boundaries():
    # The top edge clamps into the last bin.
    assert _bins_of(BoundingBox(0.0, 0.0, 1000.0, 1000.0), 1000.0, 1000.0, 1000) == (0, 0, 999, 999)
    assert _bins_of(BoundingBox(512.3, 0.0, 1024.0, 512.3), 1024.0, 1024.0, 1000) == (500, 0, 999, 500)


def test_quantize_domain_errors():
    # serialize validates the page first, so no bin is made off the page or on a bad page.
    for box in [(-1.0, 0.0, 5.0, 5.0), (0.0, 0.0, 101.0, 5.0), (0.0, math.nan, 5.0, 5.0)]:
        with pytest.raises(DocumentValidationError, match="outside page"):
            _bins_of(BoundingBox(*box), 100.0, 100.0, 10)
    for extent in (0.0, -3.0, math.inf, math.nan):
        with pytest.raises(DocumentValidationError, match="positive and finite"):
            _bins_of(BoundingBox(0.0, 0.0, 5.0, 5.0), extent, 100.0, 10)
    with pytest.raises(ValueError, match="bins must be an int >= 2"):
        _bins_of(BoundingBox(0.0, 0.0, 5.0, 5.0), 100.0, 100.0, 1)


@pytest.mark.parametrize("bins", [2.5, 1000.0, np.int64(10), True])
def test_grid_size_must_be_an_exact_int(bins):
    # One rule, applied where bins are made and, before any token is read, where
    # they are read back: the None token would fail parse otherwise.
    for call in (
        lambda: check_grid(bins),
        lambda: _bins_of(BoundingBox(0.0, 0.0, 50.0, 50.0), 100.0, 100.0, bins),
        lambda: parse(TokenSequence((None,), bins), 100.0, 100.0),
    ):
        with pytest.raises(ValueError, match="bins must be an int >= 2"):
            call()


def test_dequantize_bin_centers():
    assert _centres((0, 0, 999, 999), 1000.0, 1000.0, 1000) == BoundingBox(0.5, 0.5, 999.5, 999.5)
    assert _centres((500, 0, 500, 1), 1024.0, 1000.0, 1000).x_min == pytest.approx(512.512, abs=1e-9)


def test_dequantize_domain_errors():
    for bins_, offset in [((-1, 0, 1, 1), 1), ((0, 0, 1000, 1), 3)]:
        with pytest.raises(ParseError) as err:
            _centres(bins_, 1000.0, 1000.0, 1000)
        assert (err.value.kind, err.value.offset) == (ParseErrorKind.COORD_OUT_OF_RANGE, offset)
    for extent in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            _centres((3, 3, 3, 3), extent, 1000.0, 1000)


def test_quantize_matches_exact_arithmetic():
    # Arbitrary-precision oracle over random interior points.
    rng = random.Random(1234)
    for _ in range(2000):
        extent = rng.choice((100.0, 773.0, 1000.0, 1024.0, 2048.5))
        bins = rng.choice((10, 100, 1000, 1024))
        v = round(rng.uniform(0, extent), 3)
        exact = Fraction(v) * bins / Fraction(extent)
        expected = min(math.floor(exact), bins - 1)
        assert _bins_of(BoundingBox(v, v, v, v), extent, extent, bins) == (expected,) * 4, (v, extent, bins)


@given(
    v1=st.floats(min_value=0, max_value=1024, allow_nan=False),
    v2=st.floats(min_value=0, max_value=1024, allow_nan=False),
    bins=st.integers(min_value=2, max_value=5000),
)
def test_quantize_monotone(v1, v2, bins):
    lo, hi = sorted((v1, v2))
    x0, y0, x1, y1 = _bins_of(BoundingBox(lo, lo, hi, hi), 1024.0, 1024.0, bins)
    assert x0 == y0 <= x1 == y1


@given(
    v=st.floats(min_value=0, max_value=2048, allow_nan=False),
    extent=st.floats(min_value=1e-3, max_value=2048, allow_nan=False),
    bins=st.integers(min_value=2, max_value=5000),
)
def test_quantize_round_trip_within_one_bin(v, extent, bins):
    if v > extent:
        v = extent
    back = _centres(_bins_of(BoundingBox(v, v, v, v), extent, extent, bins), extent, extent, bins)
    for coord in (back.x_min, back.y_min, back.x_max, back.y_max):
        assert abs(coord - v) <= extent / bins + 1e-9 * extent


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
                TableContent(
                    (
                        (
                            TableCell(BoundingBox(1, 61, 40, 80), 0, 1, "x"),
                            TableCell(BoundingBox(41, 61, 80, 80), 1, 0, "y"),
                        ),
                    )
                ),
            ),
            Element(
                Category.PARAGRAPH,
                BoundingBox(0, 91, 50, 99),
                ParagraphContent(
                    (TextLine(BoundingBox(1, 92, 40, 98), "bad\x00char"),)
                ),
            ),
            Element("Figure", BoundingBox(60, 91, 70, 99), FigureContent()),
        ),
    )
    problems = validate_document(doc)
    assert any("outside page" in p for p in problems)
    assert any("rowspan 0 < 1" in p for p in problems)
    assert "element 1 cell 0,1: colspan 0 < 1" in problems
    assert "element 2 line 0: text contains control character '\\x00'" in problems
    assert "element 3: category 'Figure' is not a Category" in problems


def test_control_characters_are_unicode_cc_but_tab_newline_and_return():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    cc = {ch for ch in every if unicodedata.category(ch) == "Cc"}
    assert len(cc) == 65
    assert set(model._CONTROL_RE.findall(every)) == cc - set("\t\n\r")


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


def _page_with(element=None, **top):
    """A one-element page with ``element``'s keys (or the page's ``top`` keys) replaced."""
    el = {"category": "Figure", "bbox": [0, 0, 1, 1], "content": {}, **(element or {})}
    return {"page_width": 10, "page_height": 10, "elements": [el], **top}


def _para(**line):
    return {"category": "Paragraph", "content": {"lines": [{"bbox": [0, 0, 1, 1], "text": "", **line}]}}


def _cell(**cell):
    return {"category": "Table", "content": {"rows": [[{"bbox": [0, 0, 1, 1], **cell}]]}}


_E = "p:1.elements[0]"


@pytest.mark.parametrize(
    "payload, message",
    [
        (42, "p:1: expected an object, got 42"),
        ({"page_width": 10}, "p:1: missing page_width/page_height"),
        (_page_with(page_width="10"), "p:1.page_width: expected a number, got '10'"),
        (_page_with(page_height=True), "p:1.page_height: expected a number, got True"),
        (_page_with(elements={}), "p:1.elements: expected a list, got {}"),
        (_page_with(elements=[5]), f"{_E}: expected an object, got 5"),
        (_page_with({"category": 7}), f"{_E}.category: expected a string, got 7"),
        (_page_with({"category": None}), f"{_E}.category: expected a string, got None"),
        (_page_with({"category": "Chart"}), f"{_E}.category: unknown category 'Chart'"),
        (_page_with({"bbox": "x"}), f"{_E}.bbox: expected a list, got 'x'"),
        (_page_with({"bbox": [0, 0, 1]}), f"{_E}.bbox: expected 4 coordinates, got 3"),
        (_page_with({"bbox": [0, 0, 1, "x"]}), f"{_E}.bbox[3]: expected a number, got 'x'"),
        (_page_with({"content": []}), f"{_E}.content: expected an object, got []"),
        (_page_with({"category": "Paragraph", "content": {"lines": 5}}),
         f"{_E}.content.lines: expected a list, got 5"),
        (_page_with({"category": "Paragraph", "content": {"lines": ["x"]}}),
         f"{_E}.content.lines[0]: expected an object, got 'x'"),
        (_page_with(_para(bbox=None)), f"{_E}.content.lines[0].bbox: expected a list, got None"),
        (_page_with(_para(text=7)), f"{_E}.content.lines[0].text: expected a string, got 7"),
        (_page_with({"category": "Table", "content": {"rows": {}}}),
         f"{_E}.content.rows: expected a list, got {{}}"),
        (_page_with({"category": "Table", "content": {"rows": [{}]}}),
         f"{_E}.content.rows[0]: expected a list, got {{}}"),
        (_page_with({"category": "Table", "content": {"rows": [[[]]]}}),
         f"{_E}.content.rows[0][0]: expected an object, got []"),
        (_page_with(_cell(rowspan=True)), f"{_E}.content.rows[0][0].rowspan: expected an integer, got True"),
        (_page_with(_cell(colspan=1.5)), f"{_E}.content.rows[0][0].colspan: expected an integer, got 1.5"),
        (_page_with(_cell(text=None)), f"{_E}.content.rows[0][0].text: expected a string, got None"),
        (_page_with({"category": "Formula", "content": {"latex": 3}}),
         f"{_E}.content.latex: expected a string, got 3"),
    ],
)
def test_from_dict_messages_are_pinned(payload, message):
    with pytest.raises(ValueError) as err:
        document_from_dict(payload, where="p:1")
    assert str(err.value) == message


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


# --- value classes against their dataclass twins ------------------------------


def _value_classes() -> list[type]:
    from docrec import convert, gtgen, metrics, readorder, seqformat

    return [cls for module in (model, metrics, gtgen, convert, readorder, seqformat)
            for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__ and "_fields" in vars(cls)]


#: What ``model.value`` adds to a class besides its fields' slots; the twin gets the rest of its body.
_MADE_BY_VALUE = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__", "__reduce__",
                  "__slots__", "_fields", "_values"}


def _dataclass_twin(cls: type) -> type:
    """The class ``cls`` was made from, made by ``dataclasses`` instead."""
    body = {name: attr for name, attr in vars(cls).items() if name not in {*_MADE_BY_VALUE, *cls._fields}}
    defaults = cls.__init__.__defaults__
    body.update(zip(cls._fields[len(cls._fields) - len(defaults):], defaults))
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), body))


def _outcome(make):
    try:
        return make()
    except Exception as exc:  # a __post_init__ may refuse the values, on both sides alike
        return f"{type(exc).__name__}: {exc}"


_FIELD_VALUES = (st.floats() | st.integers() | st.text(max_size=3) | st.none()
                 | st.lists(st.lists(st.floats(allow_nan=False) | st.integers(), max_size=2).map(tuple),
                            max_size=2).map(tuple))


def test_every_value_class_is_checked_against_its_twin():
    assert len(_value_classes()) == 16


@given(st.data())
def test_value_classes_behave_as_frozen_dataclasses(data):
    cls = data.draw(st.sampled_from(_value_classes()))
    twin = _dataclass_twin(cls)
    fields = [f for f in dataclasses.fields(twin)]
    assert cls._fields == tuple(f.name for f in fields)
    values = [data.draw(_FIELD_VALUES) for _ in fields]
    others = [data.draw(_FIELD_VALUES | st.just(v)) for v in values]
    # The first ``split`` fields by position, the rest by keyword; a defaulted one may be left out.
    split = data.draw(st.integers(0, len(fields)))
    kwargs = {f.name: v for f, v in zip(fields[split:], values[split:])
              if f.default is dataclasses.MISSING or data.draw(st.booleans())}
    ours = _outcome(lambda: cls(*values[:split], **kwargs))
    theirs = _outcome(lambda: twin(*values[:split], **kwargs))
    if isinstance(theirs, str):
        assert ours == theirs
        return
    assert repr(ours) == repr(theirs)
    assert hash(ours) == hash(theirs)
    assert ours == ours and ours != theirs and theirs != ours
    ours2, theirs2 = _outcome(lambda: cls(*others)), _outcome(lambda: twin(*others))
    if not isinstance(theirs2, str):
        assert (ours == ours2) == (theirs == theirs2)
        assert (ours != ours2) == (theirs != theirs2)
    for name in [f.name for f in fields] + ["extra"]:
        for act in (lambda obj: setattr(obj, name, 1), lambda obj: delattr(obj, name)):
            messages = []
            for obj in (ours, theirs):
                with pytest.raises(AttributeError) as err:
                    act(obj)
                messages.append(str(err.value))
            assert messages[0] == messages[1]
    assert repr(pickle.loads(pickle.dumps(ours))) == repr(copy.copy(ours)) == repr(ours)


def test_a_box_holding_a_nan_equals_itself_as_a_dataclass_does():
    nan = math.nan
    twin = _dataclass_twin(BoundingBox)
    for make in (BoundingBox, twin):
        box = make(nan, 0.0, 1.0, 1.0)
        assert box == box and box == make(nan, 0.0, 1.0, 1.0)
        assert box != make(float("nan"), 0.0, 1.0, 1.0)
        assert {box: 1}[make(nan, 0.0, 1.0, 1.0)] == 1
    assert repr(BoundingBox(nan, 0, 1.5, -0.0)) == repr(twin(nan, 0, 1.5, -0.0))
    assert BoundingBox(0, 0, 1, 1) != (0, 0, 1, 1)


# --- decoding: the fast path against the slow reference ---------------------


class _ListSub(list):
    pass


#: What a mutation may put in place of any part of a document's JSON.
_REPLACEMENTS = [
    3, 0, True, False, 1e999, -1e999, 10**400, -0.0, 0.5, np.float64(2.5), "x", "Paragraph", None, [], {},
    [1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0, 5.0], (1.0, 2.0, 3.0, 4.0), [1, 2, 3, 4], [0.0, 0.0, 1e999, 1.0],
    [0.0, True, 1.0, 1.0], _ListSub([1.0, 2.0, 3.0, 4.0]), [[]], [[{}]], ["x"],
    collections.OrderedDict(bbox=[0.0, 0.0, 1.0, 1.0], text="t"), {"bbox": [0.0, 0.0, 1.0, 1.0]},
]


def _parts(value, path=()):
    """The path of every part of a JSON value, the value itself first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _parts(item, path + (key,))


def _mutated(value, replacement, data):
    """``value`` with ``replacement`` put in place of one of its parts, and up to two more parts
    replaced or deleted."""
    for n in range(data.draw(st.integers(1, 3))):
        paths = list(_parts(value))[1:]
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = value
        for key in path[:-1]:
            parent = parent[key]
        if n and isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(_REPLACEMENTS)) if n else replacement)
    return value


def _decoded(decode, value, where):
    try:
        return repr(decode(value, where))  # repr tells 5.0 from 5 and -0.0 from 0.0
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("replacement", _REPLACEMENTS, ids=repr)
@settings(max_examples=30)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_decoders_match_the_slow_reference_on_mutated_json(replacement, seed, data):
    """The built value, or the exact message, is the reference decoder's."""
    doc = json.loads(json.dumps(document_to_dict(random_document(random.Random(seed), 1, 5))))
    lines = [line for el in doc["elements"] for line in el["content"].get("lines", [])]
    doc, lines = _mutated(doc, replacement, data), _mutated(lines, replacement, data)
    assert _decoded(document_from_dict, doc, "p:1") == _decoded(oracle_document_from_dict, doc, "p:1")
    assert _decoded(text_lines_from_value, lines, "p:1.lines") == _decoded(
        oracle_text_lines_from_value, lines, "p:1.lines")
