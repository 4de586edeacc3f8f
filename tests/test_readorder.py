import random
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from docrec import readorder
from docrec.model import BoundingBox
from docrec.readorder import OrderConfig, fallback_sort, xy_cut_order
from helpers import staircase_boxes
from oracles import oracle_xy_cut_order


def box(x0, y0, x1, y1):
    return BoundingBox(x0, y0, x1, y1)


def test_config_validation():
    with pytest.raises(ValueError):
        OrderConfig(min_gap=0)
    with pytest.raises(ValueError):
        OrderConfig(y_tolerance=-1)


def test_vertical_stack():
    boxes = [box(10, 0, 90, 20), box(10, 40, 90, 60), box(10, 80, 90, 100)]
    assert xy_cut_order(boxes) == [0, 1, 2]
    assert xy_cut_order(list(reversed(boxes))) == [2, 1, 0]


def test_two_column_layout():
    # Staggered columns: no whitespace band spans the full width, so the
    # vertical cut fires first and the left column is read entirely before
    # the right one.
    left = [box(0, 0, 40, 30), box(0, 50, 40, 80), box(0, 100, 40, 130)]
    right = [box(60, 20, 100, 60), box(60, 70, 100, 120)]
    boxes = [right[0], left[0], right[1], left[1], left[2]]
    order = xy_cut_order(boxes)
    expected = [1, 3, 4, 0, 2]  # all left indices first, top to bottom
    assert order == expected


def test_header_then_columns():
    header = box(0, 0, 100, 10)
    left = box(0, 30, 40, 100)
    right = box(60, 30, 100, 100)
    assert xy_cut_order([right, left, header]) == [2, 1, 0]


def test_overlapping_boxes_use_fallback():
    a = box(0, 0, 50, 50)
    b = box(30, 10, 80, 60)  # overlaps a: no empty projection on either axis
    order = xy_cut_order([b, a])
    assert order == fallback_sort([b, a], OrderConfig().y_tolerance)


def test_fallback_same_band_left_to_right():
    boxes = [box(400, 100, 500, 120), box(50, 103, 150, 123)]
    assert fallback_sort(boxes, y_tolerance=5) == [1, 0]
    assert fallback_sort(boxes, y_tolerance=1) == [0, 1]


def test_fallback_grid_row_major():
    boxes = []
    for r in range(2):
        for c in range(5):
            boxes.append(box(c * 50, r * 40 + (c % 3), c * 50 + 30, r * 40 + 20))
    shuffled = list(range(len(boxes)))
    random.Random(5).shuffle(shuffled)
    order = fallback_sort([boxes[i] for i in shuffled], y_tolerance=5)
    assert [shuffled[i] for i in order] == list(range(10))


@pytest.mark.parametrize("rows,cols", [(2, 2), (3, 4), (6, 6)])
def test_grid_row_major(rows, cols):
    boxes = []
    for r in range(rows):
        for c in range(cols):
            boxes.append(box(c * 100, r * 80, c * 100 + 60, r * 80 + 40))
    assert xy_cut_order(boxes) == list(range(rows * cols))


def test_zero_width_gap_does_not_cut():
    # Touching boxes: closed projections, no whitespace between them.
    boxes = [box(0, 0, 50, 50), box(0, 50, 50, 100)]
    order = xy_cut_order(boxes, OrderConfig(min_gap=5, y_tolerance=10))
    assert order == [0, 1]
    # Small gap below min_gap also refuses to cut; fallback still sorts top-down.
    boxes = [box(0, 52, 50, 100), box(0, 0, 50, 50)]
    assert xy_cut_order(boxes, OrderConfig(min_gap=5, y_tolerance=1)) == [1, 0]


def test_empty_and_single():
    assert xy_cut_order([]) == []
    assert xy_cut_order([box(0, 0, 10, 10)]) == [0]


def test_output_is_permutation():
    rng = random.Random(31)
    for _ in range(50):
        boxes = []
        for _ in range(rng.randint(0, 12)):
            x0, y0 = rng.uniform(0, 900), rng.uniform(0, 900)
            boxes.append(box(x0, y0, x0 + rng.uniform(5, 100), y0 + rng.uniform(5, 100)))
        order = xy_cut_order(boxes)
        assert sorted(order) == list(range(len(boxes)))


def test_shuffle_invariance():
    rng = random.Random(63)
    for _ in range(20):
        boxes = []
        for _ in range(rng.randint(2, 10)):
            x0, y0 = round(rng.uniform(0, 900), 1), round(rng.uniform(0, 900), 1)
            boxes.append(
                box(x0, y0, round(x0 + rng.uniform(5, 120), 1), round(y0 + rng.uniform(5, 120), 1))
            )
        reference = [boxes[i] for i in xy_cut_order(boxes)]
        for _ in range(10):
            perm = list(range(len(boxes)))
            rng.shuffle(perm)
            shuffled = [boxes[i] for i in perm]
            assert [shuffled[i] for i in xy_cut_order(shuffled)] == reference


def test_determinism():
    rng = random.Random(71)
    boxes = [
        box(rng.uniform(0, 500), rng.uniform(0, 500), rng.uniform(500, 900), rng.uniform(500, 900))
        for _ in range(8)
    ]
    assert xy_cut_order(boxes) == xy_cut_order(boxes)


def test_deeply_nested_cuts():
    # 1,500 nested regions: deeper than the default recursion limit (1,000).
    boxes = staircase_boxes(1500)
    assert xy_cut_order(boxes) == list(range(len(boxes)))
    perm = list(range(len(boxes)))
    random.Random(5).shuffle(perm)
    assert [perm[i] for i in xy_cut_order([boxes[i] for i in perm])] == list(range(len(boxes)))


# Coordinates on a 5-pixel grid make ties and touching edges common; free
# floats make them rare. Corners may come in either order.
_COORD = st.one_of(st.integers(0, 40).map(lambda v: v * 5.0), st.floats(0, 200, allow_nan=False))
_BOXES = st.lists(st.builds(BoundingBox, _COORD, _COORD, _COORD, _COORD), max_size=24)


@given(_BOXES, st.sampled_from([1, 5, 5.0, 12.5]), st.sampled_from([0, 10]))
def test_xy_cut_order_matches_the_oracle(boxes, min_gap, y_tolerance):
    cfg = OrderConfig(min_gap=min_gap, y_tolerance=y_tolerance)
    assert xy_cut_order(boxes, cfg) == oracle_xy_cut_order(boxes, cfg)


_SIX_FIGURES = [box(60, 10, 20, 0), box(20, 60, 10, 20), box(60, 60, 60, 0), box(10, 60, 20, 20), box(0, 0, 40, 40), box(0, 20, 0, 40)]


@example((_SIX_FIGURES, [4, 3, 5, 2, 0, 1]), 5, 10)
@example(([box(10, 0, 0, 10), box(10, 0, 0, 10), box(30, 0, 50, 10)], [1, 0, 2]), 5, 10)
@given(
    _BOXES.flatmap(lambda boxes: st.tuples(st.just(boxes), st.permutations(range(len(boxes))))),
    st.sampled_from([1, 5, 12.5]),
    st.sampled_from([0, 10]),
)
def test_xy_cut_order_does_not_depend_on_input_order(boxes_and_perm, min_gap, y_tolerance):
    """Also where corners come out of order, so that a span's high end lies below its low one."""
    boxes, perm = boxes_and_perm
    cfg = OrderConfig(min_gap=min_gap, y_tolerance=y_tolerance)
    shuffled = [boxes[i] for i in perm]
    assert [shuffled[i] for i in xy_cut_order(shuffled, cfg)] == [boxes[i] for i in xy_cut_order(boxes, cfg)]


def test_deep_staircase_runs_at_least_twice_as_fast_as_the_oracle():
    boxes = staircase_boxes(4000)
    started = time.perf_counter()
    expected = oracle_xy_cut_order(boxes)
    oracle_s = time.perf_counter() - started
    runs = []
    for _ in range(3):  # the best of 3, so that one slow run on a busy host does not count
        started = time.perf_counter()
        assert xy_cut_order(boxes) == expected
        runs.append(time.perf_counter() - started)
    assert min(runs) * 2 <= oracle_s and min(runs) < 30, (min(runs), oracle_s)


def test_xy_cut_work_grows_at_most_quadratically(monkeypatch):
    """The sizes of the regions ``_split_groups`` sorts, summed, at n and 2n staircase boxes."""
    sizes = []
    split = readorder._split_groups
    monkeypatch.setattr(readorder, "_split_groups", lambda spans, idxs, gap: sizes.append(len(idxs)) or split(spans, idxs, gap))
    work = []
    for n in (500, 1000):
        sizes.clear()
        assert xy_cut_order(staircase_boxes(n)) == list(range(n))
        work.append(sum(sizes))
    # Each nested region is sorted whole: about n * n / 2 today (ROADMAP item 5 aims lower).
    assert work[1] <= 4.5 * work[0], work
