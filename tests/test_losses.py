import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from docrec.losses import (
    CLASS_ORDER,
    NO_OBJECT_INDEX,
    NUM_CLASSES,
    ElementPrediction,
    ElementTarget,
    _candidate_cells,
    class_index,
    element_discrimination_loss,
    element_transcription_loss,
    hungarian_assign,
    matching_cost,
    sequence_reconstruction_loss,
    total_loss,
)
from docrec.model import BoundingBox, Category
from oracles import (
    oracle_descent_assignment,
    oracle_discrimination_loss,
    oracle_lexicographic_assignment,
    oracle_matching_cost,
    oracle_min_assignment_cost,
    oracle_transcription_loss,
)


def test_hungarian_examples():
    assert hungarian_assign([[0.0]]) == [0]
    assert hungarian_assign([[1.0, 2.0], [2.0, 1.0]]) == [0, 1]


def test_hungarian_matches_brute_force():
    rng = random.Random(6)
    for _ in range(100):
        k = rng.randint(1, 5)
        n = rng.randint(k, 7)
        matrix = [[rng.uniform(0, 10) for _ in range(n)] for _ in range(k)]
        assignment = hungarian_assign(matrix)
        assert sorted(set(assignment)) == sorted(assignment)  # injective
        total = 0.0
        for row, col in enumerate(assignment):
            total = total + matrix[row][col]
        assert total == oracle_min_assignment_cost(matrix)


def test_hungarian_lexicographic_ties():
    assert hungarian_assign([[1.0, 1.0], [1.0, 1.0]]) == [0, 1]
    assert hungarian_assign([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]) == [0, 1]
    # Row 0 could take column 1 at the same total; the lexicographically
    # smaller vector picks column 0 for row 0.
    assert hungarian_assign([[2.0, 2.0], [3.0, 3.0]]) == [0, 1]


@st.composite
def _cost_matrices(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 6))
    value = draw(st.sampled_from([st.sampled_from([0.0, 1.0, 2.0]), st.floats(-10, 10)]))
    return [[draw(value) for _ in range(n)] for _ in range(k)]


@given(_cost_matrices())
def test_hungarian_matches_lexicographic_oracle(matrix):
    assert hungarian_assign(matrix) == oracle_lexicographic_assignment(matrix)


def test_hungarian_solver_calls_at_most_rows_plus_one(monkeypatch):
    calls = []

    def counted(matrix):
        calls.append(matrix.shape)
        return linear_sum_assignment(matrix)

    monkeypatch.setattr("docrec.losses.linear_sum_assignment", counted)
    matrix = np.random.default_rng(9).random((60, 100))
    hungarian_assign(matrix)
    assert len(calls) <= 60 + 1


def test_hungarian_rectangular_leaves_columns_unused():
    assignment = hungarian_assign([[5.0, 1.0, 9.0]])
    assert assignment == [1]


def test_hungarian_domain_errors():
    with pytest.raises(ValueError):
        hungarian_assign([[1.0], [2.0]])  # more rows than columns
    with pytest.raises(ValueError):
        hungarian_assign([[math.inf]])
    with pytest.raises(ValueError):
        hungarian_assign(np.zeros((0, 3)))


@st.composite
def _repeating_cost_matrices(draw):
    """Matrices whose rows and columns repeat, so that many assignments tie
    and most candidate columns are settled by a swap witness."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 6))
    value = draw(st.sampled_from([st.sampled_from([0.0, 1.0, 2.0]), st.floats(-10, 10)]))
    distinct = [[draw(value) for _ in range(n)] for _ in range(draw(st.integers(1, k)))]
    row_of = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=k, max_size=k))
    col_of = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return [[distinct[r][c] for c in col_of] for r in row_of]


@given(_repeating_cost_matrices())
def test_hungarian_repeating_rows_and_columns_match_oracle(matrix):
    assert hungarian_assign(matrix) == oracle_lexicographic_assignment(matrix)


@pytest.mark.parametrize(
    "matrix",
    [
        # 0.2 + 0.2 and 0.3 + 0.1 tie only up to rounding: the duals chase
        # that rounding and do not settle.
        [[0.2, 0.7, 0.3], [0.1, 0.7, 0.2]],
        # The duals settle at +-inf, and their reduced costs hold NaN.
        [[0.0, 1e308, -1e308], [0.0, 1.7e308, -1e308], [-1.7e308, 1.7e308, 1.7e308]],
    ],
)
def test_hungarian_without_certificate_matches_oracle(matrix):
    _, cols = linear_sum_assignment(matrix)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _candidate_cells(np.array(matrix), cols, 1e-9).all()  # nothing ruled out
    assert hungarian_assign(matrix) == oracle_lexicographic_assignment(matrix)


def test_hungarian_tolerance_edge_is_not_ruled_out():
    # Column 0 costs 1 + 1e-9 as a float, 8e-17 more than the tolerance
    # above the optimum 1.0, yet best + tol rounds to that same float: the
    # certificate's margin must leave the column to the exact test.
    assert hungarian_assign([[1.0 + 1e-9, 1.0]]) == oracle_lexicographic_assignment([[1.0 + 1e-9, 1.0]]) == [0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "matrix",
    [
        # Every entry is finite, but the optimum 2e308 is not: within its
        # tolerance every assignment would tie.
        [[1e308, 1e308, 1.7e308], [1e308, 1.7e308, 1e308]],
        [[-1e308, -1e308], [-1e308, -1e308]],
    ],
)
def test_hungarian_rejects_an_optimal_total_that_overflows(matrix):
    with pytest.raises(ValueError, match="optimal total"):
        hungarian_assign(matrix)


def _tied_matrix(seed: int) -> np.ndarray:
    """A 60 x 100 cost matrix full of ties: each row is one of 4 row
    vectors of values rounded to 0.1, and 2% of the cells are lowered by a
    rounded amount."""
    rng = np.random.default_rng(seed)
    patterns = np.round(rng.uniform(0, 3, (4, 100)), 1)
    matrix = patterns[rng.integers(0, 4, 60)]
    lowered = rng.random((60, 100)) < 0.02
    return matrix - lowered * np.round(rng.uniform(0.1, 1, (60, 100)), 1)


@pytest.mark.parametrize("seed", range(4))
def test_hungarian_settles_most_ties_without_the_solver(monkeypatch, seed):
    calls = []

    def counted(matrix):
        calls.append(matrix.shape)
        return linear_sum_assignment(matrix)

    matrix = _tied_matrix(seed)
    monkeypatch.setattr("docrec.losses.linear_sum_assignment", counted)
    assignment = hungarian_assign(matrix)
    assert len(calls) <= 30  # a solver call per descent step made 90-97
    monkeypatch.undo()
    assert assignment == oracle_descent_assignment(matrix)


def _one_hot(index, size):
    vec = np.zeros(size)
    vec[index] = 1.0
    return vec


def _perfect_prediction(target: ElementTarget, vocab: int) -> ElementPrediction:
    token_probs = np.full((len(target.tokens), vocab), 0.0)
    for t, tok in enumerate(target.tokens):
        token_probs[t] = _one_hot(int(tok), vocab)
    return ElementPrediction(
        class_probs=_one_hot(class_index(target.category), NUM_CLASSES),
        box=target.box,
        token_probs=token_probs,
    )


def _no_object_prediction(length: int, vocab: int) -> ElementPrediction:
    return ElementPrediction(
        class_probs=_one_hot(NO_OBJECT_INDEX, NUM_CLASSES),
        box=BoundingBox(0, 0, 1, 1),
        token_probs=np.full((length, vocab), 1.0 / vocab),
    )


def _random_targets(rng: random.Random, count: int, length: int, vocab: int):
    targets = []
    for _ in range(count):
        x0, y0 = rng.uniform(0, 500), rng.uniform(0, 500)
        tokens = [rng.randrange(vocab) for _ in range(length)]
        real = rng.randint(1, length)
        mask = [1] * real + [0] * (length - real)
        targets.append(
            ElementTarget(
                category=rng.choice(CLASS_ORDER),
                box=BoundingBox(x0, y0, x0 + rng.uniform(10, 100), y0 + rng.uniform(10, 100)),
                tokens=np.array(tokens),
                mask=np.array(mask),
            )
        )
    return targets


def test_prediction_validation():
    with pytest.raises(ValueError):
        ElementPrediction(
            class_probs=np.array([0.5, 0.5, 0.5, 0.0, 0.0]),
            box=BoundingBox(0, 0, 1, 1),
            token_probs=np.ones((2, 4)) / 4,
        )
    with pytest.raises(ValueError):
        ElementPrediction(
            class_probs=np.array([1.5, -0.5, 0.0, 0.0, 0.0]),
            box=BoundingBox(0, 0, 1, 1),
            token_probs=np.ones((2, 4)) / 4,
        )
    with pytest.raises(ValueError):
        ElementTarget(
            category=Category.FIGURE,
            box=BoundingBox(0, 0, 1, 1),
            tokens=np.array([0, 1]),
            mask=np.array([1, 2]),
        )
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ElementPrediction(
                class_probs=np.array([bad, 0.0, 0.0, 0.0, 0.0]),
                box=BoundingBox(0, 0, 1, 1),
                token_probs=np.ones((2, 4)) / 4,
            )
        with pytest.raises(ValueError):
            ElementPrediction(
                class_probs=_one_hot(0, NUM_CLASSES),
                box=BoundingBox(0, 0, 1, 1),
                token_probs=np.array([[bad, 0.0], [0.5, 0.5]]),
            )
    # The sum may miss 1 by at most 1e-6.
    with pytest.raises(ValueError):
        ElementPrediction(
            class_probs=np.array([1.0 + 2e-6, 0.0, 0.0, 0.0, 0.0]),
            box=BoundingBox(0, 0, 1, 1),
            token_probs=np.ones((2, 4)) / 4,
        )
    ElementPrediction(
        class_probs=np.array([1.0 + 5e-7, 0.0, 0.0, 0.0, 0.0]),
        box=BoundingBox(0, 0, 1, 1),
        token_probs=np.ones((2, 4)) / 4,
    )
    # Wrong shapes, each made of probability vectors that sum to 1.
    with pytest.raises(ValueError, match="class_probs must have shape"):
        ElementPrediction(np.full(4, 0.25), BoundingBox(0, 0, 1, 1), np.ones((2, 4)) / 4)
    for token_probs in (np.ones(4) / 4, np.ones((1, 2, 4)) / 4):
        with pytest.raises(ValueError, match="token_probs must be a"):
            ElementPrediction(_one_hot(0, NUM_CLASSES), BoundingBox(0, 0, 1, 1), token_probs)


@pytest.mark.parametrize(
    "tokens, mask",
    [
        ([1.7, 2], [1, 1]), ([1, 2], [0.5, 1]), ([1, 2], [math.nan, 1]), ([math.inf, 2], [1, 1]),
        ([1, 2], [1]), ([[1, 2]], [[1, 1]]), ([-1, 2], [1, 1]),
    ],
)
def test_target_rejects_fractional_and_non_finite_entries(tokens, mask):
    # The int cast would truncate the first four to valid ids and mask bits;
    # then come rows of the wrong shape and a negative id.
    with pytest.raises(ValueError):
        ElementTarget(Category.FIGURE, BoundingBox(0, 0, 1, 1), np.array(tokens), np.array(mask))


def test_target_accepts_integral_floats():
    target = ElementTarget(
        Category.FIGURE, BoundingBox(0, 0, 1, 1), np.array([3.0, 0.0]), np.array([1.0, 0.0])
    )
    assert target.tokens.tolist() == [3, 0] and target.mask.tolist() == [1, 0]


def test_prediction_and_target_compare_by_identity():
    # Field-wise equality would compare numpy arrays, whose truth value is ambiguous.
    target = ElementTarget(Category.FIGURE, BoundingBox(0, 0, 1, 1), np.array([1, 2]), np.array([1, 1]))
    twin = ElementTarget(target.category, target.box, target.tokens, target.mask)
    pred = _perfect_prediction(target, vocab=4)
    preds = [_perfect_prediction(target, vocab=4), pred]
    assert target == target and target != twin
    assert pred != preds[0] and preds.index(pred) == 1
    preds.remove(pred)
    assert len(preds) == 1 and len({target, twin, pred}) == 3


def test_matching_cost_examples():
    target = ElementTarget(
        category=Category.PARAGRAPH,
        box=BoundingBox(0, 0, 10, 10),
        tokens=np.array([0]),
        mask=np.array([1]),
    )
    perfect = _perfect_prediction(target, vocab=4)
    assert matching_cost([target], [perfect])[0, 0] == 0.0

    disjoint = ElementPrediction(
        class_probs=_one_hot(class_index(Category.PARAGRAPH), NUM_CLASSES),
        box=BoundingBox(50, 50, 60, 60),
        token_probs=np.ones((1, 4)) / 4,
    )
    assert matching_cost([target], [disjoint])[0, 0] == 1.0

    half = ElementPrediction(
        class_probs=np.array([0.5, 0.5, 0.0, 0.0, 0.0]),
        box=BoundingBox(5, 5, 15, 15),  # IoU 1/7 with the target box
        token_probs=np.ones((1, 4)) / 4,
    )
    assert matching_cost([target], [half])[0, 0] == pytest.approx(
        -math.log(0.5) + 6 / 7
    )


_MAX = 1.7976931348623157e308
_COORDS = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, _MAX, -_MAX, math.nan, math.inf, -math.inf]),
    st.floats(1e300, _MAX),
    st.floats(-_MAX, -1e300),
    st.integers(-(2**60), 2**60),
)


@st.composite
def _boxes(draw):
    x0, y0, x1, y1 = (draw(_COORDS) for _ in range(4))
    shape = draw(st.sampled_from(["free", "flat", "upright", "ints"]))
    if shape == "flat":
        x1 = x0  # zero width
    elif shape == "ints":
        # Python ints compute exactly, so products past 2**53 round
        # differently; any two such boxes overlap.
        x0, y0 = draw(st.integers(0, 2**58)), draw(st.integers(0, 2**58))
        x1, y1 = x0 + draw(st.integers(2**58, 2**60)), y0 + draw(st.integers(2**58, 2**60))
    elif shape == "upright":
        x1 = x0 + draw(st.floats(0.5, 100))
        y1 = y0 + draw(st.floats(0.5, 100))
    return BoundingBox(x0, y0, x1, y1)


@st.composite
def _class_probs(draw):
    weights = draw(
        st.lists(st.sampled_from([0.0, 1e-12, 0.25, 1.0]) | st.floats(0, 1), min_size=5, max_size=5)
    )
    if sum(weights) == 0:
        return _one_hot(draw(st.integers(0, NUM_CLASSES - 1)), NUM_CLASSES)
    probs = np.array(weights)
    return probs / probs.sum()


@st.composite
def _matching_problems(draw):
    targets = [
        ElementTarget(draw(st.sampled_from(CLASS_ORDER)), draw(_boxes()), np.array([0]), np.array([1]))
        for _ in range(draw(st.integers(0, 4)))
    ]
    # Some predictions reuse a target's box, so identical boxes meet.
    box = _boxes() | st.sampled_from([t.box for t in targets]) if targets else _boxes()
    preds = [
        ElementPrediction(draw(_class_probs()), draw(box), np.full((1, 2), 0.5))
        for _ in range(draw(st.integers(0, 5)))
    ]
    return targets, preds


@settings(suppress_health_check=[HealthCheck.too_slow])
@given(_matching_problems())
def test_matching_cost_matches_per_pair_oracle(problem):
    targets, preds = problem
    try:
        expected = oracle_matching_cost(targets, preds)
    except ValueError:
        # iou rejects a NaN or infinite coordinate; the array form sends
        # every cell with such a box to iou.
        with pytest.raises(ValueError):
            matching_cost(targets, preds)
        return
    cost = matching_cost(targets, preds)
    assert cost.shape == (len(targets), len(preds))
    # The sign of a NaN is not stable even between two runs of the per-pair
    # loop (CPython's generic and specialised float ops order NaN operands
    # differently), so NaN cells compare as NaN and all others bit for bit.
    nan = np.isnan(expected)
    assert (np.isnan(cost) == nan).all()
    assert cost[~nan].tobytes() == expected[~nan].tobytes()


def test_matching_cost_matches_per_pair_oracle_on_a_seeded_batch():
    # On common builds np.log parts from math.log in the last bit on a few of
    # these 2,000 probabilities, so this pins the class term's log too.
    rng = np.random.default_rng(0)
    probs = rng.random((400, NUM_CLASSES))
    probs /= probs.sum(axis=1, keepdims=True)
    xy = rng.uniform(0, 900, (420, 2))
    boxes = [BoundingBox(*map(float, row)) for row in np.hstack([xy, xy + rng.uniform(20, 100, xy.shape)])]
    targets = [
        ElementTarget(CLASS_ORDER[i % 4], box, np.array([0]), np.array([1]))
        for i, box in enumerate(boxes[:20])
    ]
    preds = [ElementPrediction(p, box, np.full((1, 2), 0.5)) for p, box in zip(probs, boxes[20:])]
    cost = matching_cost(targets, preds)
    assert cost.tobytes() == oracle_matching_cost(targets, preds).tobytes()


def test_matching_cost_matches_per_pair_oracle_on_int_boxes():
    # Python ints compute iou exactly; float math would round past 2**53.
    rng = random.Random(1)

    def box():
        x0, y0 = rng.randint(0, 2**58), rng.randint(0, 2**58)
        return BoundingBox(x0, y0, x0 + rng.randint(2**58, 2**60), y0 + rng.randint(2**58, 2**60))

    # A 10**200 box has an area beyond the float range.
    huge = BoundingBox(0, 0, 10**200, 10**200)
    boxes = [box() for _ in range(20)] + [huge, huge]
    targets = [ElementTarget(CLASS_ORDER[0], b, np.array([0]), np.array([1])) for b in boxes[::2]]
    preds = [ElementPrediction(_one_hot(0, NUM_CLASSES), b, np.full((1, 2), 0.5)) for b in boxes[1::2]]
    cost = matching_cost(targets, preds)
    assert cost.tobytes() == oracle_matching_cost(targets, preds).tobytes()
    assert cost[-1, -1] == 0.0 and cost[-1, 0] == 1.0


def test_matching_cost_empty_sides():
    target = ElementTarget(Category.TABLE, BoundingBox(0, 0, 1, 1), np.array([0]), np.array([1]))
    pred = _no_object_prediction(1, 2)
    assert matching_cost([], [pred]).shape == (0, 1)
    assert matching_cost([target], []).shape == (1, 0)
    assert matching_cost([], []).shape == (0, 0)


def test_losses_zero_under_perfect_predictions():
    rng = random.Random(9)
    vocab = 12
    length = 9
    targets = _random_targets(rng, 3, length, vocab)
    preds = [_perfect_prediction(t, vocab) for t in targets] + [
        _no_object_prediction(length, vocab) for _ in range(2)
    ]
    assignment = hungarian_assign(matching_cost(targets, preds))
    assert assignment == [0, 1, 2]
    assert element_discrimination_loss(targets, preds, assignment) <= 1e-9
    assert element_transcription_loss(targets, preds, assignment) <= 1e-9


def test_discrimination_loss_single_soft_token():
    target = ElementTarget(
        category=Category.TABLE,
        box=BoundingBox(0, 0, 10, 10),
        tokens=np.array([2, 1, 3, 0, 1, 2]),
        mask=np.ones(6, dtype=int),
    )
    pred = _perfect_prediction(target, vocab=5)
    # Soften one coordinate-token step to probability 0.5 on the right id.
    soft = pred.token_probs.copy()
    soft[3] = np.full(5, 0.5 / 4)
    soft[3, target.tokens[3]] = 0.5
    pred = ElementPrediction(pred.class_probs, pred.box, soft)
    loss = element_discrimination_loss([target], [pred], [0])
    assert loss == pytest.approx(math.log(2), abs=1e-9)


def test_discrimination_loss_matches_oracle():
    rng = random.Random(15)
    for _ in range(20):
        vocab = 8
        length = 7
        targets = _random_targets(rng, 3, length, vocab)
        preds = []
        for _ in range(5):
            cp = np.array([rng.uniform(0.05, 1.0) for _ in range(NUM_CLASSES)])
            cp /= cp.sum()
            tp = np.array(
                [[rng.uniform(0.05, 1.0) for _ in range(vocab)] for _ in range(length)]
            )
            tp /= tp.sum(axis=1, keepdims=True)
            x0, y0 = rng.uniform(0, 500), rng.uniform(0, 500)
            preds.append(
                ElementPrediction(
                    class_probs=cp,
                    box=BoundingBox(x0, y0, x0 + 50, y0 + 50),
                    token_probs=tp,
                )
            )
        assignment = hungarian_assign(matching_cost(targets, preds))
        assert element_discrimination_loss(targets, preds, assignment) == pytest.approx(
            oracle_discrimination_loss(targets, preds, assignment), rel=1e-12
        )
        assert element_transcription_loss(targets, preds, assignment) == pytest.approx(
            oracle_transcription_loss(targets, preds, assignment), rel=1e-12
        )


def test_discrimination_loss_invariant_under_prediction_permutation():
    rng = random.Random(33)
    vocab, length = 6, 6
    targets = _random_targets(rng, 3, length, vocab)
    preds = [_perfect_prediction(t, vocab) for t in targets]
    preds.append(_no_object_prediction(length, vocab))
    base_assignment = hungarian_assign(matching_cost(targets, preds))
    base = element_discrimination_loss(targets, preds, base_assignment)
    order = list(range(len(preds)))
    for _ in range(5):
        rng.shuffle(order)
        shuffled = [preds[i] for i in order]
        assignment = hungarian_assign(matching_cost(targets, shuffled))
        loss = element_discrimination_loss(targets, shuffled, assignment)
        assert loss == pytest.approx(base, abs=1e-12)


def test_transcription_loss_masked_suffix_and_uniform():
    vocab = 16
    length = 8
    target = ElementTarget(
        category=Category.FIGURE,
        box=BoundingBox(0, 0, 10, 10),
        tokens=np.array([1, 2, 3, 4, 0, 0, 0, 0]),
        mask=np.array([1, 1, 1, 1, 1, 0, 0, 0]),
    )
    uniform = ElementPrediction(
        class_probs=_one_hot(class_index(Category.FIGURE), NUM_CLASSES),
        box=target.box,
        token_probs=np.full((length, vocab), 1.0 / vocab),
    )
    # All transcription positions masked out -> 0.
    assert element_transcription_loss([target], [uniform], [0]) == 0.0
    # m unmasked transcription tokens under uniform predictions -> m log V.
    target = ElementTarget(
        category=Category.FIGURE,
        box=BoundingBox(0, 0, 10, 10),
        tokens=np.array([1, 2, 3, 4, 0, 7, 9, 11]),
        mask=np.array([1, 1, 1, 1, 1, 1, 1, 1]),
    )
    loss = element_transcription_loss([target], [uniform], [0])
    assert loss == pytest.approx(3 * math.log(16), abs=1e-9)


def test_transcription_loss_rejects_out_of_vocab():
    target = ElementTarget(
        category=Category.FIGURE,
        box=BoundingBox(0, 0, 10, 10),
        tokens=np.array([0, 0, 0, 0, 0, 99]),
        mask=np.ones(6, dtype=int),
    )
    pred = _no_object_prediction(6, vocab=8)
    with pytest.raises(ValueError):
        element_transcription_loss([target], [pred], [0])


_BOX = BoundingBox(0, 0, 1, 1)


@pytest.mark.parametrize("loss", [element_discrimination_loss, element_transcription_loss])
@pytest.mark.parametrize(
    "steps, assignment, message",
    [
        (6, [0, 1, 2], "assignment must map every target"),
        (6, [1, 1], "assignment must be injective"),
        (6, [0, -1], "assignment index outside prediction range"),
        (7, [0, 1], "same padded sequence length, got 7 vs 6"),
    ],
    ids=["too-long", "not-injective", "negative-index", "padded-length"],
)
def test_losses_reject_bad_assignments_and_lengths(loss, steps, assignment, message):
    targets = [
        ElementTarget(Category.FIGURE, _BOX, np.arange(6), np.ones(6, dtype=int)) for _ in range(2)
    ]
    preds = [_no_object_prediction(steps, vocab=8) for _ in range(3)]
    with pytest.raises(ValueError, match=message):
        loss(targets, preds, assignment)


@pytest.mark.parametrize("steps", [0, 3, 5])
def test_targets_of_at_most_five_tokens_have_no_transcription_loss(steps):
    target = ElementTarget(Category.FIGURE, _BOX, np.arange(steps) % 4, np.ones(steps, dtype=int))
    uniform = ElementPrediction(_one_hot(class_index(Category.FIGURE), NUM_CLASSES), _BOX, np.full((steps, 4), 0.25))
    assert element_transcription_loss([target], [uniform], [0]) == 0.0
    # The discrimination loss reads the tokens there are, and no more.
    assert element_discrimination_loss([target], [uniform], [0]) == pytest.approx(steps * math.log(4))


def test_raising_correct_token_probability_never_raises_loss():
    rng = random.Random(27)
    vocab, length = 6, 6
    targets = _random_targets(rng, 1, length, vocab)
    target = targets[0]
    base_probs = np.array(
        [[rng.uniform(0.05, 1.0) for _ in range(vocab)] for _ in range(length)]
    )
    base_probs /= base_probs.sum(axis=1, keepdims=True)

    def loss_with_boost(boost: float) -> float:
        probs = base_probs.copy()
        for t in range(length):
            correct = int(target.tokens[t])
            p = probs[t, correct]
            new_p = p + (1 - p) * boost
            scale = (1 - new_p) / (1 - p)
            probs[t] *= scale
            probs[t, correct] = new_p
        pred = ElementPrediction(
            class_probs=_one_hot(class_index(target.category), NUM_CLASSES),
            box=target.box,
            token_probs=probs,
        )
        return element_discrimination_loss(
            [target], [pred], [0]
        ) + element_transcription_loss([target], [pred], [0])

    losses = [loss_with_boost(b) for b in (0.0, 0.2, 0.5, 0.9)]
    for a, b in zip(losses, losses[1:]):
        assert b <= a + 1e-12


def test_sequence_reconstruction_examples():
    same = np.array([[1, 2, 3]])
    mask = np.ones_like(same)
    assert sequence_reconstruction_loss(same, same, mask) == 0.0
    a = np.array([[1, 0]])
    b = np.array([[0, 1]])
    assert sequence_reconstruction_loss(a, b, np.ones_like(a)) == 1.0
    x = np.array([[1, 2, 3]])
    y = np.array([[3, 2, 1]])
    assert sequence_reconstruction_loss(x, y, np.ones_like(x)) == pytest.approx(1 - 10 / 14)


def test_sequence_reconstruction_zero_conventions_and_mask():
    z = np.zeros((2, 3), dtype=int)
    ones = np.ones_like(z)
    assert sequence_reconstruction_loss(z, z, ones) == 0.0
    nz = np.array([[1, 2, 3], [4, 5, 6]])
    assert sequence_reconstruction_loss(z, nz, ones) == 1.0
    # Mask hides the disagreeing positions.
    a = np.array([[1, 2, 9]])
    b = np.array([[1, 2, 4]])
    mask = np.array([[1, 1, 0]])
    assert sequence_reconstruction_loss(a, b, mask) == 0.0
    with pytest.raises(ValueError):
        sequence_reconstruction_loss(a, b, np.ones((2, 3)))


def test_sequence_reconstruction_rejects_non_finite_and_clamps():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            sequence_reconstruction_loss([[bad, 1.0]], [[1.0, 2.0]], [[1, 1]])
        with pytest.raises(ValueError):
            sequence_reconstruction_loss([[1.0, 1.0]], [[1.0, bad]], [[1, 1]])
    with pytest.raises(ValueError):
        sequence_reconstruction_loss([[1.0, 1.0]], [[1.0, 2.0]], [[1, 0.5]])
    # Rounding put 1 - cos(a, 2a) at -2.2e-16 here.
    a = np.array([[1, 5]])
    assert sequence_reconstruction_loss(a, 2 * a, np.ones_like(a)) == 0.0
    # The norm of (1e200, 1) overflows unless the vector is rescaled.
    loss = sequence_reconstruction_loss([[1e200, 1.0]], [[1.0, 2.0]], [[1, 1]])
    assert loss == pytest.approx(1 - 1 / math.sqrt(5))


@st.composite
def _sequence_inputs(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    values = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False) | st.integers(
        0, 30
    ).map(float)
    pred, target = (
        np.array(draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
        for _ in range(2)
    )
    scale = draw(st.integers(1, 6))
    if draw(st.booleans()) and (np.abs(pred) <= 1e300).all():
        target = scale * pred  # cosine 1 up to rounding
    bits = st.lists(st.sampled_from([0.0, 1.0]), min_size=rows * cols, max_size=rows * cols)
    return pred, target, np.array(draw(bits)).reshape(rows, cols)


@given(_sequence_inputs(), st.data())
def test_sequence_reconstruction_bounded_and_scale_invariant(inputs, data):
    pred, target, mask = inputs
    loss = sequence_reconstruction_loss(pred, target, mask)
    assert 0.0 <= loss <= 2.0
    # Scale by any 2**e that keeps every entry finite and normal.
    exponents = [math.frexp(v)[1] for v in np.concatenate([pred.ravel(), target.ravel()]) if v]
    if exponents:
        e = data.draw(st.integers(-1021 - min(exponents), 1024 - max(exponents)))
        scaled = sequence_reconstruction_loss(np.ldexp(pred, e), np.ldexp(target, e), mask)
        assert scaled == loss


def test_total_loss():
    assert total_loss(0.0, 0.0, 0.0) == 0.0
    assert total_loss(1.0, 2.0, 3.0) == 6.0
