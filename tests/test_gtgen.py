import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from docrec import gtgen
from docrec.gtgen import (
    AssocConfig,
    assemble_ground_truth,
    associate_lines,
    fuzzy_match,
    merge_boxes,
)
from docrec.model import (
    BoundingBox,
    Category,
    ParagraphContent,
    TableContent,
    TextLine,
    validate_document,
)
from docrec.readorder import OrderConfig
from oracles import naive_edit_distance, oracle_associate_lines


def box(x0, y0, x1, y1):
    return BoundingBox(x0, y0, x1, y1)


def test_assoc_config_validation():
    with pytest.raises(ValueError):
        AssocConfig(iou_threshold=0)


def test_associate_line_fully_inside():
    elements = [(Category.PARAGRAPH, box(0, 0, 100, 100))]
    lines = [TextLine(box(10, 10, 90, 20), "hello")]
    assert associate_lines(elements, lines) == [0]


def test_associate_line_overlapping_nothing():
    elements = [(Category.PARAGRAPH, box(0, 0, 100, 100))]
    lines = [TextLine(box(200, 200, 300, 220), "lost")]
    assert associate_lines(elements, lines) == [None]


def test_associate_picks_larger_share():
    # Line area 100: 60 inside A, 40 inside B; threshold 0.5 keeps only A.
    elements = [
        (Category.PARAGRAPH, box(0, 0, 6, 10)),
        (Category.PARAGRAPH, box(6, 0, 10, 10)),
    ]
    lines = [TextLine(box(0, 0, 10, 10), "split")]
    assert associate_lines(elements, lines, AssocConfig(iou_threshold=0.5)) == [0]
    # With a lower threshold the larger share still wins.
    assert associate_lines(elements, lines, AssocConfig(iou_threshold=0.3)) == [0]


def test_associate_tie_prefers_smaller_element_then_lower_index():
    line = TextLine(box(0, 0, 10, 10), "t")
    small = (Category.PARAGRAPH, box(-5, -5, 15, 15))
    large = (Category.PARAGRAPH, box(-50, -50, 60, 60))
    assert associate_lines([large, small], [line]) == [1]
    twin = (Category.PARAGRAPH, box(-5, -5, 15, 15))
    assert associate_lines([small, twin], [line]) == [0]


def test_associate_degenerate_line_unassigned():
    elements = [(Category.PARAGRAPH, box(0, 0, 100, 100))]
    assert associate_lines(elements, [TextLine(box(5, 5, 5, 5), "")]) == [None]


def test_merge_boxes():
    b = box(1, 2, 3, 4)
    assert merge_boxes([b]) == b
    assert merge_boxes([box(0, 0, 10, 10), box(5, 5, 20, 20)]) == box(0, 0, 20, 20)
    nested = [box(0, 0, 100, 100), box(10, 10, 90, 90), box(20, 20, 30, 30)]
    assert merge_boxes(nested) == nested[0]
    with pytest.raises(ValueError):
        merge_boxes([])


def test_merge_boxes_contains_inputs():
    rng = random.Random(17)
    for _ in range(50):
        boxes = []
        for _ in range(rng.randint(1, 6)):
            x0, y0 = rng.uniform(0, 100), rng.uniform(0, 100)
            boxes.append(box(x0, y0, x0 + rng.uniform(0, 50), y0 + rng.uniform(0, 50)))
        merged = merge_boxes(boxes)
        for b in boxes:
            assert merged.x_min <= b.x_min and merged.y_min <= b.y_min
            assert merged.x_max >= b.x_max and merged.y_max >= b.y_max


def test_fuzzy_match_examples():
    assert fuzzy_match("Table 1", "table  1") == 1.0
    assert fuzzy_match("abc", "xyz") == 0.0
    assert fuzzy_match("hello world", "hello wrold") == pytest.approx(1 - 2 / 11)
    assert naive_edit_distance("hello world", "hello wrold") == 2
    assert fuzzy_match("", "   ") == 1.0


def _scaled(b: BoundingBox, power: int) -> BoundingBox:
    return BoundingBox(*(math.ldexp(v, power) for v in (b.x_min, b.y_min, b.x_max, b.y_max)))


# Small integer boxes: scaling them by 2**-400 .. 2**1000 is exact and keeps
# every area normal, or overflows it to inf.
_SMALL_BOX = st.builds(
    lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
    st.integers(0, 20), st.integers(0, 20), st.integers(1, 20), st.integers(1, 20),
)


@example(
    # Areas of 1e200 boxes overflow to inf: the line is inside both elements,
    # so the tie goes to the smaller one.
    elements=[box(0, 0, 1e200, 1e200), box(0, 0, 5e199, 5e199)],
    lines=[box(0, 0, 4e199, 1e199)],
    power=-600,
)
@given(
    st.lists(_SMALL_BOX, max_size=6),
    st.lists(_SMALL_BOX, max_size=6),
    st.integers(-400, 1000),
)
def test_associate_lines_ignores_power_of_two_scale(elements, lines, power):
    def assign(scale):
        return associate_lines(
            [(Category.PARAGRAPH, _scaled(b, scale)) for b in elements],
            [TextLine(_scaled(b, scale), "x") for b in lines],
        )

    assert assign(power) == assign(0)


def test_associate_lines_measures_huge_int_boxes_exactly():
    # The element's area, 10**400, is beyond the float range.
    elements = [(Category.PARAGRAPH, box(0, 0, 10**200, 10**200))]
    lines = [TextLine(box(0, 0, 1, 1), "x"), TextLine(box(-(10**200), 0, 10**200, 1), "y")]
    assert associate_lines(elements, lines) == [0, 0]
    assert associate_lines(elements, lines, AssocConfig(iou_threshold=0.75)) == [0, None]


def test_associate_lines_measures_a_tiny_line_in_a_huge_float_element():
    # The line's area is 1 and the element's overflows; a rescaled copy of
    # the line would have an area of about 1e-400, which underflows to 0.
    elements = [(Category.PARAGRAPH, box(0.0, 0.0, 1e200, 1e200))]
    assert associate_lines(elements, [TextLine(box(0.0, 0.0, 1.0, 1.0), "x")]) == [0]


def test_associate_lines_measures_an_int_beyond_the_float_range_next_to_floats():
    big = 10**400
    elements = [(Category.PARAGRAPH, box(-big, 0.0, big, 1.0)), (Category.PARAGRAPH, box(0.0, 0.0, 3.0, 1.0))]
    lines = [TextLine(box(0.0, 0.0, 1.0, 1.0), "x"), TextLine(box(-big, 0, 0, 1), "y")]
    assert associate_lines(elements, lines) == [1, 0]
    assert associate_lines(elements, lines) == oracle_associate_lines(elements, lines)


_BIG_INT = st.integers(-20, 20) | st.integers(-(10**400), 10**400)
_COORD = _BIG_INT | st.floats() | st.sampled_from([1e308, -1e308])


def _has_nan_or_inf(b):
    return any(v != v or abs(v) == math.inf for v in (b.x_min, b.y_min, b.x_max, b.y_max))


@example(elements=[box(0, 0, 10**200, 10**200)], lines=[box(0.0, 0.0, 1.0, 1.0)])
@example(elements=[box(10**400, 0, 10**400, 1)], lines=[box(0.0, 0.0, 1.0, 1.0)])
# In-range coordinates whose int width times a float height overflows.
@example(elements=[box(-(10**308), 0.0, 10**308, 1.0)], lines=[box(0.0, 0.0, 1.0, 1.0)])
@given(
    st.lists(st.builds(box, _COORD, _COORD, _COORD, _COORD), max_size=4),
    st.lists(st.builds(box, _COORD, _COORD, _COORD, _COORD), min_size=1, max_size=4),
)
def test_associate_lines_assigns_or_names_a_box_on_int_and_float_boxes(elements, lines):
    args = [(Category.PARAGRAPH, b) for b in elements], [TextLine(b, "x") for b in lines]
    try:
        expected = oracle_associate_lines(*args)
    except ValueError as exc:
        assert "non-finite coordinate" in str(exc)
        assert any(map(_has_nan_or_inf, elements + lines))
        with pytest.raises(ValueError) as raised:
            associate_lines(*args)
        assert str(raised.value) == str(exc)
        return
    result = associate_lines(*args)
    assert result == expected
    assert len(result) == len(lines)
    assert all(r is None or 0 <= r < len(elements) for r in result)


@st.composite
def _grid_case(draw):
    """Boxes on a coarse grid, so that edges touch and coordinates tie often."""
    kind = draw(st.sampled_from([int, float]))
    coord = st.sampled_from([0, 1, 2, 3, 5, 8]).map(kind)
    grid_box = st.builds(
        lambda xs, ys: box(min(xs), min(ys), max(xs), max(ys)),
        st.tuples(coord, coord), st.tuples(coord, coord),
    ) | st.builds(box, coord, coord, coord, coord)
    return (
        draw(st.lists(grid_box, max_size=8)),
        draw(st.lists(grid_box, min_size=1, max_size=6)),
        draw(st.sampled_from([0.01, 0.3, 0.5, 1.0])),
    )


# A line on a shared edge, a zero-area line, a line over three elements, and tied y_min.
@example(case=([box(0, 0, 2, 2), box(2, 0, 4, 2)], [box(2, 0, 3, 1), box(1, 1, 1, 3)], 0.5))
@example(case=([box(0.0, 0.0, 2.0, 2.0), box(2.0, 0.0, 5.0, 2.0), box(5.0, 0.0, 8.0, 2.0)],
               [box(1.0, 0.0, 8.0, 1.0)], 0.3))
@example(case=([box(0, 0, 3, 3), box(1, 0, 2, 3)], [box(1, 0, 2, 1)], 1.0))
@given(_grid_case())
def test_associate_lines_matches_all_pairs_on_grid_boxes(case):
    elements, lines, threshold = case
    args = [(Category.PARAGRAPH, b) for b in elements], [TextLine(b, "x") for b in lines]
    cfg = AssocConfig(iou_threshold=threshold)
    assert associate_lines(*args, cfg) == oracle_associate_lines(*args, cfg)


def test_associate_lines_measures_only_overlapping_pairs(monkeypatch):
    # 120 elements on a grid with gaps, and 600 lines of random size and place;
    # all coordinates are multiples of 5, so many lines touch an element's edge.
    elements = [
        (Category.PARAGRAPH, box(70.0 * c, 50.0 * r, 70.0 * c + 60, 50.0 * r + 40))
        for r in range(12) for c in range(10)
    ]
    rng = random.Random(14)
    lines = []
    for _ in range(600):
        x, y = 5.0 * rng.randrange(140), 5.0 * rng.randrange(120)
        lines.append(TextLine(box(x, y, x + 5 * rng.randint(1, 16), y + 5 * rng.randint(1, 3)), "x"))
    overlapping = sum(
        min(a.x_max, b.x_max) > max(a.x_min, b.x_min) and min(a.y_max, b.y_max) > max(a.y_min, b.y_min)
        for a in (line.bbox for line in lines) for _, b in elements
    )
    calls = 0
    measure = BoundingBox.intersection_area

    def counted(self, other):
        nonlocal calls
        calls += 1
        return measure(self, other)

    monkeypatch.setattr(BoundingBox, "intersection_area", counted)
    result = associate_lines(elements, lines)
    monkeypatch.undo()
    assert calls == overlapping < len(lines) * len(elements) // 20
    assert result == oracle_associate_lines(elements, lines)


@st.composite
def _tall_case(draw):
    """Up to 150 elements with many distinct tops, so that the y-index samples its bounds;
    ``mixed`` puts an int among floats, which sends the call to ``exact_boxes``."""
    kind = draw(st.sampled_from(["int", "float", "mixed"]))
    coord = st.integers(0, 400).map(float if kind != "int" else int)

    def some_box(draw_box):
        x0, y0 = draw_box(coord), draw_box(coord)
        return box(x0, y0, x0 + draw_box(st.integers(-2, 60)), y0 + draw_box(st.integers(-2, 60)))

    elements = [some_box(draw) for _ in range(draw(st.integers(0, 150)))]
    lines = [some_box(draw) for _ in range(draw(st.integers(1, 20)))]
    if kind == "mixed":
        lines[0] = box(int(lines[0].x_min), lines[0].y_min, lines[0].x_max, lines[0].y_max)
    return elements, lines, draw(st.sampled_from([0.01, 0.3, 0.5, 1.0]))


@given(_tall_case())
def test_associate_lines_matches_all_pairs_on_tall_pages(case):
    elements, lines, threshold = case
    args = [(Category.PARAGRAPH, b) for b in elements], [TextLine(b, "x") for b in lines]
    cfg = AssocConfig(iou_threshold=threshold)
    assert associate_lines(*args, cfg) == oracle_associate_lines(*args, cfg)


def test_associate_lines_tests_few_pairs_on_a_page(monkeypatch):
    # 110 elements in two columns of 55 rows, each holding 5 or 6 of 630 lines.
    elements = [(Category.PARAGRAPH, box(20.0 + 490 * c, 20.0 + 40 * r, 480.0 + 490 * c, 52.0 + 40 * r))
                for r in range(55) for c in range(2)]
    lines = []
    for i in range(630):
        el = elements[i % 110][1]
        y = el.y_min + 5 * (i // 110)
        lines.append(TextLine(box(el.x_min + 2, y, el.x_max - 2, y + 4), "x"))
    tested = 0
    offer = gtgen._y_candidates

    def counted(boxes, line_boxes):
        nonlocal tested
        candidates = offer(boxes, line_boxes)
        tested += sum(map(len, candidates))
        return candidates

    monkeypatch.setattr(gtgen, "_y_candidates", counted)
    result = associate_lines(elements, lines)
    monkeypatch.undo()
    assert tested < len(elements) * len(lines) // 10
    assert result == oracle_associate_lines(elements, lines) == [i % 110 for i in range(630)]


def test_fuzzy_match_properties():
    rng = random.Random(23)
    words = ["Alpha", "beta  GAMMA", "x y", ""]
    for _ in range(50):
        a, b = rng.choice(words), rng.choice(words)
        assert fuzzy_match(a, a) == 1.0
        assert fuzzy_match(a, b) == fuzzy_match(b, a)


def _assembly_inputs():
    elements = [
        (Category.PARAGRAPH, box(0, 120, 100, 200)),
        (Category.PARAGRAPH, box(0, 0, 100, 100)),
    ]
    lines = [
        TextLine(box(5, 130, 95, 150), "third"),
        TextLine(box(5, 10, 95, 30), "first"),
        TextLine(box(5, 60, 95, 80), "second"),
    ]
    return elements, lines


def test_assemble_orders_elements_and_lines():
    elements, lines = _assembly_inputs()
    result = assemble_ground_truth(elements, lines, 200.0, 300.0)
    doc = result.document
    assert validate_document(doc) == []
    assert [el.category for el in doc.elements] == [Category.PARAGRAPH] * 2
    # The element lower on the page comes second after reordering.
    assert doc.elements[0].bbox == box(0, 0, 100, 100)
    assert [l.text for l in doc.elements[0].content.lines] == ["first", "second"]
    assert [l.text for l in doc.elements[1].content.lines] == ["third"]
    assert result.unassigned == ()
    # Assignments point at positions in the assembled document.
    assert result.assignments == (1, 0, 0)


def test_assemble_consolidates_band_fragments():
    elements = [(Category.PARAGRAPH, box(0, 0, 200, 50))]
    lines = [
        TextLine(box(100, 11, 190, 30), "world"),
        TextLine(box(5, 10, 95, 30), "hello"),
    ]
    result = assemble_ground_truth(elements, lines, 200.0, 100.0)
    para = result.document.elements[0].content
    assert isinstance(para, ParagraphContent)
    assert len(para.lines) == 1
    assert para.lines[0].text == "hello world"
    assert para.lines[0].bbox == box(5, 10, 190, 30)


def test_assemble_empty_elements_reports_all_lines():
    lines = [TextLine(box(0, 0, 10, 10), "a"), TextLine(box(0, 20, 10, 30), "b")]
    result = assemble_ground_truth([], lines, 100.0, 100.0)
    assert result.document.elements == ()
    assert result.unassigned == (0, 1)
    assert result.assignments == (None, None)


def test_assemble_non_paragraph_content_left_empty():
    elements = [(Category.TABLE, box(0, 0, 100, 100)), (Category.FIGURE, box(0, 150, 100, 250))]
    lines = [TextLine(box(10, 10, 90, 30), "cell text")]
    result = assemble_ground_truth(elements, lines, 200.0, 300.0)
    table = result.document.elements[0]
    assert isinstance(table.content, TableContent) and table.content.rows == ()
    assert result.assignments == (0,)
    assert result.unassigned == ()


def test_assemble_every_line_accounted_for():
    rng = random.Random(41)
    for _ in range(30):
        elements = []
        for i in range(rng.randint(0, 5)):
            x0, y0 = rng.uniform(0, 800), rng.uniform(0, 800)
            elements.append(
                (
                    rng.choice(tuple(Category)),
                    box(x0, y0, x0 + rng.uniform(50, 200), y0 + rng.uniform(20, 150)),
                )
            )
        lines = []
        for _ in range(rng.randint(0, 10)):
            x0, y0 = rng.uniform(0, 950), rng.uniform(0, 950)
            lines.append(
                TextLine(box(x0, y0, x0 + rng.uniform(5, 50), y0 + rng.uniform(3, 12)), "t")
            )
        result = assemble_ground_truth(elements, lines, 1000.0, 1000.0)
        assert validate_document(result.document) == []
        assert len(result.assignments) == len(lines)
        for i, target in enumerate(result.assignments):
            assert (target is None) == (i in result.unassigned)
            if target is not None:
                assert 0 <= target < len(elements)


def test_assemble_respects_order_config():
    elements, lines = _assembly_inputs()
    result = assemble_ground_truth(
        elements, lines, 200.0, 300.0, order_cfg=OrderConfig(min_gap=1000.0, y_tolerance=500.0)
    )
    # A huge tolerance keeps both elements in one band; left-to-right tie on
    # x then top-down order still applies deterministically.
    assert len(result.document.elements) == 2


def test_associate_lines_work_grows_at_most_quadratically(monkeypatch):
    """``intersection_area`` calls at n and 2n columns, every line in one y-band, so that the
    y-buckets offer every element to every line."""
    calls = []
    measure = BoundingBox.intersection_area
    monkeypatch.setattr(BoundingBox, "intersection_area", lambda a, b: calls.append(1) or measure(a, b))
    work = []
    for n in (100, 200):
        calls.clear()
        elements = [(Category.PARAGRAPH, box(10.0 * i, 0.0, 10.0 * i + 10, 20.0)) for i in range(n)]
        lines = [TextLine(box(10.0 * i + 1, 5.0, 10.0 * i + 9, 15.0), "x") for i in range(n)]
        assert associate_lines(elements, lines) == list(range(n))
        work.append(len(calls))
    assert work[0] == 100  # only the pairs that overlap are measured: one per line
    assert work[1] <= 4.5 * work[0], work
