import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from docrec import convert, metrics
from docrec.gtgen import associate_lines
from docrec.losses import NUM_CLASSES, ElementPrediction, ElementTarget, matching_cost
from docrec.metrics import (
    document_distance,
    document_score,
    dsm,
    edit_distance,
    evaluate,
    iou,
    location_cost,
    ned_similarity,
)
from docrec.model import (
    BoundingBox,
    Category,
    Document,
    Element,
    FigureContent,
    FormulaContent,
    ParagraphContent,
    TextLine,
    to_json_value,
)
from helpers import corrupt_transcriptions, random_corpus, random_document, perturb_document
from oracles import (
    naive_edit_distance,
    oracle_document_distance,
    oracle_edit_distance,
    oracle_element_cost,
    oracle_iou,
)


def _para(box, text, page=1000.0):
    line = TextLine(BoundingBox(box.x_min, box.y_min, box.x_max, box.y_max), text)
    return Element(Category.PARAGRAPH, box, ParagraphContent((line,)))


def _fig(box):
    return Element(Category.FIGURE, box, FigureContent())


def _doc(*elements, page=1000.0):
    return Document(page, page, tuple(elements))


def test_iou_examples():
    a = BoundingBox(0, 0, 10, 10)
    assert iou(a, a) == 1.0
    assert iou(a, BoundingBox(20, 20, 30, 30)) == 0.0
    assert iou(a, BoundingBox(5, 5, 15, 15)) == 25 / 175
    assert iou(a, BoundingBox(5, 5, 15, 15)) == pytest.approx(1 / 7)


def test_iou_degenerate():
    point = BoundingBox(5, 5, 5, 5)
    assert iou(point, point) == 1.0
    # Unequal boxes of zero area have a zero union and no overlap.
    assert iou(point, BoundingBox(5, 5, 5, 6)) == 0.0


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_BOXES = st.builds(BoundingBox, _FINITE, _FINITE, _FINITE, _FINITE)


@example(BoundingBox(-1e308, 0, 1e308, 5), BoundingBox(-1e308, 0, 1e308, 5))
@example(BoundingBox(5e-324, -1e308, 1e-143, 1e308), BoundingBox(0, 0, 1, 1))
@given(_BOXES, _BOXES)
def test_iou_bounded_on_finite_boxes(a, b):
    # Areas of finite boxes can overflow to inf, and inf - inf is NaN.
    assert 0 <= iou(a, b) <= 1
    assert iou(a, a) == 1.0


_ANY = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308])
_ANY_BOXES = st.builds(BoundingBox, _ANY, _ANY, _ANY, _ANY)


def _finite(box):
    return all(map(math.isfinite, (box.x_min, box.y_min, box.x_max, box.y_max)))


@example(BoundingBox(0.0, 0.0, 0.0, 1e-6), BoundingBox(0.0, math.nan, 0.0, 3.4288275429960554e302))
@example(BoundingBox(0.0, 0.0, math.inf, 1.0), BoundingBox(0.0, 0.0, 1.0, 1.0))
@given(_ANY_BOXES, _ANY_BOXES)
def test_iou_bounded_or_value_error_on_any_float_boxes(a, b):
    try:
        value = iou(a, b)
    except ValueError as exc:
        assert "non-finite coordinate" in str(exc)
        assert not (_finite(a) and _finite(b))
        return
    assert 0 <= value <= 1


_BIG_INT = st.integers(-20, 20) | st.integers(-(10**400), 10**400)
_INT_BOXES = st.builds(BoundingBox, _BIG_INT, _BIG_INT, _BIG_INT, _BIG_INT)
_MIXED = _BIG_INT | _ANY
_MIXED_BOXES = st.builds(BoundingBox, _MIXED, _MIXED, _MIXED, _MIXED)


def _has_nan_or_inf(box):
    return any(v != v or abs(v) == math.inf for v in (box.x_min, box.y_min, box.x_max, box.y_max))


@example(BoundingBox(0, 0, 10**200, 10**200), BoundingBox(0, 0, 1, 1))
@example(BoundingBox(0, 0, 10**200, 10**200), BoundingBox(0, 0, 10**200, 10**199))
@example(BoundingBox(0, 0, 10**400, 10**400), BoundingBox(2, 2, 1, 1))
@given(_INT_BOXES, _INT_BOXES)
def test_iou_exact_on_int_boxes(a, b):
    value = iou(a, b)
    assert value == oracle_iou(a, b)
    assert 0 <= value <= 1


@example(BoundingBox(0, 0, 10**200, 10**200), BoundingBox(0.0, 0.0, 1.0, 1.0))
@example(BoundingBox(0, 0, 10**400, 10**400), BoundingBox(0.0, 0.0, 1.0, 1.0))
@given(_MIXED_BOXES, _MIXED_BOXES)
def test_iou_bounded_or_value_error_on_int_and_float_boxes(a, b):
    try:
        value = iou(a, b)
    except ValueError as exc:
        assert "non-finite coordinate" in str(exc)
        assert _has_nan_or_inf(a) or _has_nan_or_inf(b)
        return
    assert 0 <= value <= 1


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("axis", range(4))
def test_a_non_finite_box_raises_wherever_it_is_measured(axis, value):
    # Also where the union stays finite, as for (0, 0, -inf, 5): an inverted box has area 0.
    coords = [0.0, 0.0, 5.0, 5.0]
    coords[axis] = value
    bad = BoundingBox(*coords)

    def page(box):
        return Document(10.0, 10.0, (_fig(box),))

    def cost(target_box, pred_box):
        target = ElementTarget(Category.FIGURE, target_box, np.array([0]), np.array([1]))
        return matching_cost([target], [ElementPrediction(np.full(NUM_CLASSES, 0.2), pred_box, np.full((1, 2), 0.5))])

    def assign(element_box, line_box):
        return associate_lines([(Category.PARAGRAPH, element_box)], [TextLine(line_box, "x")])

    # The far box shares no area with the bad one, whatever the bad coordinate is.
    for good in (BoundingBox(0.0, 0.0, 1.0, 1.0), BoundingBox(100.0, 100.0, 101.0, 101.0)):
        for call in (iou, cost, lambda a, b: document_distance(page(a), page(b)), assign):
            for args in ((bad, good), (good, bad)):
                with pytest.raises(ValueError) as err:
                    call(*args)
                assert f"box {bad} has a non-finite coordinate" in str(err.value)


def test_iou_measures_an_int_beyond_the_float_range_next_to_floats():
    big = 10**400
    cases = [
        (BoundingBox(-big, 0, big, 1.0), BoundingBox(0, 0.0, big, 1.0), Fraction(1, 2)),
        (BoundingBox(0, 0, 3 * big, 1.0), BoundingBox(0.0, 0.0, big, 1), Fraction(1, 3)),
        (BoundingBox(0, 0, big, big), BoundingBox(0.0, 0.0, 1e300, 1e300), Fraction(1e300) ** 2 / big**2),
    ]
    for a, b, exact in cases:
        assert iou(a, b) == iou(b, a) == float(exact)
        assert 0 < iou(a, b) <= 1


def test_edit_distance_examples():
    assert edit_distance("abc", "abc") == 0
    assert edit_distance("", "abc") == 3
    assert edit_distance("kitten", "sitting") == 3


def test_edit_distance_matches_naive_oracle():
    rng = random.Random(42)
    alphabet = "abΣ✓"
    for _ in range(1000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        assert edit_distance(a, b) == naive_edit_distance(a, b), (a, b)


# Non-BMP characters, lone surrogates, markup and escapes; strings past 64
# characters span more than one machine word of the bit-vector kernel.
_ED_TEXT = st.lists(
    st.sampled_from(["a", "b", "<", "\\", "\n", " ", "é", "中", "\U0001F600", "\ud800", "\udfff"]),
    max_size=90,
).map("".join)


#: A prefix or suffix both strings share, which ``edit_distance`` trims before its pass.
_AFFIX = st.lists(st.sampled_from(["a", "b", "é", "\U0001F600", "\ud800"]), max_size=40).map("".join)


@example("a\ud800b", "ab", "", "")
@example("ab" * 40 + "\U0001F600", "ba" * 45, "", "")
@example("", "a", "a", "a")  # "aa" against "aaa": the prefix takes all of "aa", leaving no suffix
@example("x", "", "a" * 70, "b" * 70)
@given(_ED_TEXT, _ED_TEXT, _AFFIX, _AFFIX)
def test_edit_distance_matches_naive_oracle_on_tricky_text(a, b, prefix, suffix):
    a, b = prefix + a + suffix, prefix + b + suffix
    assert edit_distance(a, b) == edit_distance(b, a) == naive_edit_distance(a, b)


@st.composite
def _edited(draw, text):
    """``text`` after a few drawn insertions, deletions and substitutions."""
    out = list(text)
    for at, op, ch in draw(st.lists(st.tuples(st.integers(0, 200), st.integers(0, 2), _AFFIX), max_size=6)):
        at %= len(out) + 1
        if op == 0:
            out[at:at] = ch
        elif at < len(out):
            out[at:at + 1] = ch if op == 1 else ""
    return "".join(out)


_ED_PAIR = _ED_TEXT.flatmap(lambda a: st.tuples(st.just(a), _ED_TEXT | _edited(a)))


@example(("ab" * 40 + "\U0001F600", "ba" * 45), "", "", 1, 1)
@example(("a" * 60, "b" * 60), "", "", 5, 5)
@example(("abc" * 30, "abc" * 20), "x", "y", 2, 3)
# Each needs the window's first and last rows: with one row fewer at the top
# or at the bottom, a pass returns too much and still certifies it.
@example(("babbaaaabbaaabaa", "bbbaaaabbbabababaa"), "", "", 1, 1)
@example(("abaaaaabbbabaaaaaaa", "bbbbabaaaaaabbaa"), "", "", 1, 2)
# The first pass returns 2k + δ + 3, one more than the distance.
@example(("aaabababbabaaabbbabaa", "aababaaaaababbabbaba"), "", "", 2, 2)
@settings(max_examples=400)
@given(_ED_PAIR, _AFFIX, _AFFIX, st.integers(1, 5), st.integers(1, 5))
def test_edit_distance_matches_naive_oracle_in_narrow_bands(pair, prefix, suffix, band, chunk):
    """The first band and the window step cut to 1-5, so that short strings
    run the sliding window, the second pass and the full-width switch."""
    a, b = (prefix + text + suffix for text in pair)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_BAND", band)
        patch.setattr(metrics, "_CHUNK", chunk)
        assert edit_distance(a, b) == edit_distance(b, a) == naive_edit_distance(a, b)


def _planted(rng, text, edits, alphabet):
    """``text`` with ``edits`` insertions, deletions and substitutions at random places."""
    out = list(text)
    for _ in range(edits):
        at = rng.randrange(len(out) + 1)
        op = rng.randrange(3)
        if op == 0:
            out.insert(at, rng.choice(alphabet))
        elif at < len(out):
            if op == 1:
                del out[at]
            else:
                out[at] = rng.choice(alphabet)
    return "".join(out)


def _long_pairs():
    """Pairs of 1k-13k characters: near and far, substituted densely, of very unequal length, and with
    nothing in common."""
    rng = random.Random(2003)
    alphabet = "abcdefghij <>|#\n中é\U0001F600"
    words = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 9))) for _ in range(300)]

    def text(n):
        out = ""
        while len(out) < n:
            out += rng.choice(words) + " "
        return out[:n]

    page = text(12900)
    dense = list(page)
    for at in rng.sample(range(len(dense)), 5000):
        dense[at] = "Σ"
    return [
        (page, _planted(rng, page, 200, alphabet)),
        (page, _planted(rng, page, 3000, alphabet)),
        (page, "".join(dense)),
        (page, text(12900)),
        (page, text(3000)),
        (page, page[4000:5000]),
        (page[:1000], _planted(rng, page[:1000], 40, alphabet)),
        (page[:6000], _planted(rng, page[:6000], 20, alphabet) + text(2500)),
        (text(2000) + page[:9000], _planted(rng, page[:9000], 30, alphabet)),
        ("".join(rng.choice("ab") for _ in range(8000)), "".join(rng.choice("ab") for _ in range(7000))),
        (text(3000), "ΣΩ" * 1200),  # no common character: the distance is the longer length
    ]


def test_edit_distance_matches_the_full_width_kernel_on_long_strings():
    for a, b in _long_pairs():
        assert edit_distance(a, b) == edit_distance(b, a) == oracle_edit_distance(a, b), (len(a), len(b))


def test_edit_distance_runs_at_most_two_passes(monkeypatch):
    bands = []
    band_pass = metrics._band_pass

    def counted(peq, b, m, k, delta):
        bands.append(k)
        return band_pass(peq, b, m, k, delta)

    monkeypatch.setattr(metrics, "_band_pass", counted)
    rng = random.Random(1985)
    page = "".join(rng.choice("abcdefgh \n") for _ in range(12900))
    near = _planted(rng, page, 200, "xyz")
    assert edit_distance(page, near) == oracle_edit_distance(page, near)
    assert bands == [metrics._BAND]  # 200 edits fit the first band's certificate
    for a, b in _long_pairs():
        bands.clear()
        edit_distance(a, b)
        assert 1 <= len(bands) <= 2, (len(a), len(b), bands)


@given(st.text(alphabet="abc", max_size=10), st.text(alphabet="abc", max_size=10), st.text(alphabet="abc", max_size=10))
def test_edit_distance_symmetry_and_triangle(a, b, c):
    assert edit_distance(a, b) == edit_distance(b, a)
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


def test_location_cost_examples():
    box = BoundingBox(0, 0, 10, 10)
    assert location_cost(_fig(box), _fig(box)) == 0.0
    far = BoundingBox(500, 500, 600, 600)
    assert location_cost(_fig(box), _para(far, "x")) == 1.0
    overlap = BoundingBox(5, 5, 15, 15)
    assert location_cost(_fig(box), _fig(overlap)) == pytest.approx((0 + 6 / 7) / 2)


def test_transcription_cost_examples():
    # One cell with equal boxes and categories costs half its transcription term.
    box = BoundingBox(0, 0, 10, 10)
    assert document_distance(_doc(_para(box, "same")), _doc(_para(box, "same"))) == 0.0
    assert document_distance(_doc(_fig(box)), _doc(_fig(box))) == 0.0  # both texts empty
    assert document_distance(_doc(_para(box, "ab")), _doc(_para(box, "b"))) == 0.5 / 2


def test_element_cost_breakdown():
    # A cell costs the mean of its location and transcription terms.
    box = BoundingBox(0, 0, 10, 10)
    assert oracle_element_cost(_fig(box), _fig(box)) == 0.0
    gt, pred = _para(box, "ab"), _para(BoundingBox(0, 0, 10, 5), "b")
    assert oracle_element_cost(gt, pred) == (location_cost(gt, pred) + 0.5) / 2
    assert document_distance(_doc(gt), _doc(pred)) == (location_cost(gt, pred) + 0.5) / 2


def test_element_cost_hand_value():
    # Same category, IoU 1/2, texts "ab" vs "b": loc (0 + .5)/2, tran .5.
    gt = _para(BoundingBox(0, 0, 10, 10), "ab")
    pred = _para(BoundingBox(0, 0, 10, 5), "b")
    assert location_cost(gt, pred) == pytest.approx(0.25)
    assert oracle_element_cost(gt, pred) == pytest.approx(0.375)
    assert document_distance(_doc(gt), _doc(pred)) == pytest.approx(0.375)


def test_document_distance_identity_and_single_cell():
    doc = _doc(_para(BoundingBox(0, 0, 10, 10), "ab"), _fig(BoundingBox(0, 20, 10, 30)))
    assert document_distance(doc, doc) == 0.0
    gt = _doc(_para(BoundingBox(0, 0, 10, 10), "ab"))
    pred = _doc(_para(BoundingBox(0, 0, 10, 5), "b"))
    assert document_distance(gt, pred) == oracle_element_cost(gt.elements[0], pred.elements[0])


def test_document_distance_2x2_matches_path_enumeration():
    gt = _doc(
        _para(BoundingBox(0, 0, 100, 100), "alpha"),
        _para(BoundingBox(0, 200, 100, 300), "beta"),
    )
    pred = _doc(
        _para(BoundingBox(10, 10, 100, 100), "alphq"),
        _para(BoundingBox(0, 210, 100, 300), "betaa"),
    )
    assert document_distance(gt, pred) == oracle_document_distance(gt, pred)


def test_document_distance_matches_oracle_random():
    rng = random.Random(314)
    for _ in range(100):
        gt = random_document(rng, 1, 5)
        pred = random_document(rng, 1, 5)
        assert document_distance(gt, pred) == oracle_document_distance(gt, pred)


def _cell_cost(g, p):
    """The mean of the location and the normalized edit distance of the element texts."""
    a, b = convert.element_text(g), convert.element_text(p)
    transcription = edit_distance(a, b) / max(len(a), len(b)) if a or b else 0.0
    return (location_cost(g, p) + transcription) / 2.0


def _unpruned_document_distance(gt, pred):
    """The alignment DP over every cell's exact cost, with no pruning."""
    cost = [[_cell_cost(g, p) for p in pred.elements] for g in gt.elements]
    k, kt = len(cost), len(cost[0])
    dist = [[0.0] * kt for _ in range(k)]
    for i in range(k):
        for j in range(kt):
            before = [dist[a][b] for a, b in ((i - 1, j), (i, j - 1), (i - 1, j - 1)) if a >= 0 and b >= 0]
            dist[i][j] = (min(before) if before else 0.0) + cost[i][j]
    return dist[k - 1][kt - 1]


# A few boxes and short texts, so that equal cells and equal-cost paths are common.
_POOL_BOX = st.sampled_from(
    [BoundingBox(0, 0, 10, 10), BoundingBox(0, 0, 10, 5), BoundingBox(5, 5, 15, 15), BoundingBox(50, 50, 60, 60)]
)
_SHORT_TEXT = st.text(alphabet="ab<\n中", max_size=5)
_ELEMENT = st.one_of(
    st.builds(
        lambda box, texts: Element(
            Category.PARAGRAPH, box, ParagraphContent(tuple(TextLine(box, t) for t in texts))
        ),
        _POOL_BOX,
        st.lists(_SHORT_TEXT, max_size=2),
    ),
    st.builds(lambda box, latex: Element(Category.FORMULA, box, FormulaContent(latex)), _POOL_BOX, _SHORT_TEXT),
    st.builds(_fig, _POOL_BOX),
)
_DOCUMENT = st.lists(_ELEMENT, min_size=1, max_size=9).map(lambda els: _doc(*els, page=100.0))


@settings(max_examples=300)
@given(_DOCUMENT, _DOCUMENT)
def test_document_distance_is_bit_identical_to_unpruned_dp(gt, pred):
    assert document_distance(gt, pred).hex() == _unpruned_document_distance(gt, pred).hex()


def test_document_distance_is_bit_identical_to_unpruned_dp_on_degraded_pages():
    """Degraded, unrelated and shuffled pages, and pages on which every cell's
    bound is 0, so that the refinement runs for many rounds."""
    rng = random.Random(2718)
    pairs = []
    for n in range(150):
        gt = random_document(rng, 1, 12, tricky_text=n % 2 == 0)
        pred = corrupt_transcriptions([perturb_document(rng, gt)], rng.random())[0]
        shuffled = list(pred.elements)
        rng.shuffle(shuffled)
        pairs += [
            (gt, pred),
            (gt, random_document(rng, 1, 12, tricky_text=n % 2 == 0)),
            (gt, Document(pred.page_width, pred.page_height, tuple(shuffled))),
        ]
    box = BoundingBox(0, 0, 10, 10)
    for _ in range(20):
        texts = ["".join(rng.choice("ab<\n中") for _ in range(6)) for _ in range(24)]
        gt, pred = (_doc(*(_para(box, t) for t in half)) for half in (texts[:12], texts[12:]))
        pairs.append((gt, pred))
    for gt, pred in pairs:
        if pred.elements:
            assert document_distance(gt, pred).hex() == _unpruned_document_distance(gt, pred).hex()


def test_document_distance_bounds_its_rounds(monkeypatch):
    # Equal boxes and equal-length distinct texts: every cell's bound is 0, and
    # each round makes about k cells exact, so uncapped it takes about k rounds.
    rng = random.Random(5)
    texts = ["".join(rng.choice("abcdefgh") for _ in range(40)) for _ in range(120)]
    box = BoundingBox(0, 0, 10, 10)
    gt, pred = (_doc(*(_para(box, t) for t in half)) for half in (texts[:60], texts[60:]))
    rounds = []

    def counted(cost):
        rounds.append(None)
        return accumulate(cost)

    accumulate = metrics._accumulate
    monkeypatch.setattr(metrics, "_accumulate", counted)
    assert document_distance(gt, pred).hex() == _unpruned_document_distance(gt, pred).hex()
    assert len(rounds) <= 16


def test_document_distance_never_measures_iou_on_disjoint_boxes(monkeypatch):
    boxes = [
        BoundingBox(0, 0, 10, 10),
        BoundingBox(5, 5, 15, 15),  # overlaps the first
        BoundingBox(10, 0, 20, 10),  # touches the first at x = 10: no common area
        BoundingBox(50, 50, 50, 60),  # zero area: IoU 1 with itself
        BoundingBox(60, 60, 55, 70),  # inverted
        BoundingBox(0.0, 100.0, 10.0, 110.0),
    ]
    gt = _doc(*(_para(b, "ab") for b in boxes))
    pred = _doc(*(_fig(b) for b in reversed(boxes)))
    expected = _unpruned_document_distance(gt, pred)
    calls = []
    measure = metrics.iou
    monkeypatch.setattr(metrics, "iou", lambda a, b: calls.append((a, b)) or measure(a, b))
    assert document_distance(gt, pred).hex() == expected.hex()
    overlapping = [
        (a, b) for a in boxes for b in reversed(boxes)
        if a.x_min < b.x_max and b.x_min < a.x_max and a.y_min < b.y_max and b.y_min < a.y_max or a == b
    ]
    assert calls == overlapping
    # Of 36 pairs: each box with itself, the zero-area and inverted ones too, and
    # the second box with the first and the third, each way.
    assert len(calls) == 6 + 4


def test_document_distance_work_grows_at_most_quadratically(monkeypatch):
    """DP cells and ``edit_distance`` calls at n and 2n elements, on two pages with disjoint boxes and
    texts of one length from disjoint alphabets: every lower bound is below every exact cost."""
    cells, calls = [], []
    accumulate, measure = metrics._accumulate, metrics.edit_distance
    monkeypatch.setattr(metrics, "_accumulate", lambda cost: cells.append(len(cost) * len(cost[0])) or accumulate(cost))
    monkeypatch.setattr(metrics, "edit_distance", lambda a, b: calls.append(1) or measure(a, b))
    rng = random.Random(13)
    work = []
    for n in (64, 128):
        cells.clear()
        calls.clear()
        gt, pred = (
            _doc(*(_para(BoundingBox(x, 10.0 * i, x + 100, 10.0 * i + 8), "".join(rng.choices(alphabet, k=20)))
                   for i in range(n)), page=2000.0)
            for x, alphabet in ((0.0, "abcdefghij"), (500.0, "klmnopqrst"))
        )
        assert document_distance(gt, pred) == 0.75 * n  # the diagonal, each cell (0.5 + 1) / 2
        assert len(calls) <= n * n
        work.append((sum(cells), len(calls)))
    # The rounds grow with n toward their cap (about 17 DP passes), so pages much smaller than 64
    # elements grow faster than 4.5x per doubling while the cap is not yet reached.
    assert work[1][0] <= 4.5 * work[0][0] and work[1][1] <= 4.5 * work[0][1], work


def _page_of(boxes, texts):
    return _doc(*(_para(b, t) if t is not None else _fig(b) for b, t in zip(boxes, texts)), page=100.0)


def _pages(coords, max_size=4):
    """Pages of 1 to ``max_size`` elements whose boxes take their corners, in either order, from ``coords``."""
    boxes = st.builds(BoundingBox, coords, coords, coords, coords)
    page = st.lists(st.tuples(boxes, st.none() | st.sampled_from(["", "ab", "b"])), min_size=1, max_size=max_size)
    return page.map(lambda items: _page_of(*zip(*items)))


# Equal corners make zero-area boxes; 10**20 is an int next to float coordinates.
_SMALL_COORDS = st.sampled_from([0, 1, 5, 10, 0.0, 2.5, 5.0, -3.0, 10**20, 1e150])
# Ints beyond the float range, on pages of ints only: the oracle measures them exactly,
# but cannot subtract a float from one.
_INT_COORDS = st.sampled_from([0, 1, 5, -7, 10**20, 10**400, -(10**400)])


@example(
    (_page_of([BoundingBox(5, 5, 5, 5), BoundingBox(0, 0, 10, 10)], ["ab", None]),
     _page_of([BoundingBox(5.0, 5.0, 5.0, 5.0)], [None]))
)
@settings(max_examples=300)
@given(st.sampled_from([_SMALL_COORDS, _INT_COORDS]).flatmap(lambda coords: st.tuples(_pages(coords), _pages(coords))))
def test_document_distance_is_bit_identical_to_the_oracle_on_odd_boxes(pages):
    gt, pred = pages
    assert document_distance(gt, pred).hex() == oracle_document_distance(gt, pred).hex()


# Areas that overflow the float range, which the oracle cannot measure but ``iou`` can.
_HUGE_COORDS = st.sampled_from([0.0, 1.0, -1e308, 1e308, 5e307])


@settings(max_examples=200)
@given(_pages(_HUGE_COORDS, 6), _pages(_HUGE_COORDS, 6))
def test_document_distance_is_bit_identical_to_unpruned_dp_on_huge_boxes(gt, pred):
    assert document_distance(gt, pred).hex() == _unpruned_document_distance(gt, pred).hex()


def test_document_distance_charges_each_element_against_an_empty_page():
    doc = _doc(_fig(BoundingBox(0, 0, 10, 10)), _fig(BoundingBox(0, 20, 10, 30)))
    assert document_distance(doc, _doc()) == 2.0
    assert document_distance(_doc(), doc) == 2.0
    assert document_distance(_doc(), _doc()) == 0.0


def test_document_score_empty_policy():
    empty = _doc()
    assert document_score(empty, empty) == document_score(empty, empty)
    score = document_score(empty, empty)
    assert (score.distance, score.max_len, score.normalized) == (0.0, 0, 0.0)
    nonempty = _doc(_fig(BoundingBox(0, 0, 10, 10)), _fig(BoundingBox(0, 20, 10, 30)))
    score = document_score(empty, nonempty)
    assert (score.distance, score.max_len, score.normalized) == (2.0, 2, 1.0)


def test_dsm_identity():
    rng = random.Random(1)
    corpus = random_corpus(rng, 5)
    report = dsm(corpus, corpus)
    assert report.dsm == 1.0
    assert report.corpus_size == 5


def test_dsm_hand_value():
    # One pair: first elements identical; second pair same category, IoU 0.5,
    # texts "ab" vs "" -> cost (0.25 + 1.0)/2 = 0.625 on the diagonal, so
    # D = 0.625 and the similarity is 1 - 0.625/2 = 0.6875.
    shared = _para(BoundingBox(0, 0, 100, 100), "same text")
    gt2 = _para(BoundingBox(0, 200, 10, 210), "ab")
    pred2 = _para(BoundingBox(0, 200, 10, 205), "")
    assert oracle_element_cost(gt2, pred2) == pytest.approx(0.625)
    report = dsm([_doc(shared, gt2)], [_doc(shared, pred2)])
    assert report.dsm == pytest.approx(0.6875, abs=1e-12)


def test_dsm_symmetry_and_bounds():
    rng = random.Random(8)
    for _ in range(50):
        a = random_corpus(rng, rng.randint(1, 4), 0, 5)
        b = [perturb_document(rng, doc) if rng.random() < 0.7 else random_document(rng, 0, 5) for doc in a]
        fwd = dsm(a, b)
        rev = dsm(b, a)
        assert abs(fwd.dsm - rev.dsm) <= 1e-12
        assert 0.0 <= fwd.dsm <= 1.0
        for score in fwd.per_document:
            assert 0.0 <= score.normalized <= 1.0


def test_dsm_corpus_mismatch():
    rng = random.Random(3)
    corpus = random_corpus(rng, 3)
    with pytest.raises(ValueError, match="corpus length mismatch"):
        dsm(corpus, corpus[:2])
    with pytest.raises(ValueError):
        dsm([], [])


def test_degradation_never_raises_dsm():
    rng = random.Random(21)
    corpus = random_corpus(rng, 4, 1, 5)
    pred = [perturb_document(rng, doc) for doc in corpus]
    base = dsm(corpus, pred).dsm
    # Fraction small enough to garble exactly one element.
    one = dsm(corpus, corrupt_transcriptions(pred, 1e-9)).dsm
    worse = dsm(corpus, corrupt_transcriptions(pred, 0.5)).dsm
    worst = dsm(corpus, corrupt_transcriptions(pred, 1.0)).dsm
    assert one <= base + 1e-12
    assert worse <= one + 1e-12
    assert worst <= worse + 1e-12


def test_ned_examples():
    assert ned_similarity("same", "same") == 1.0
    assert ned_similarity("", "") == 1.0
    assert ned_similarity("ab", "") == 0.0
    assert ned_similarity("abcd", "abed") == 0.75


def test_corpus_ned_and_evaluate():
    rng = random.Random(12)
    corpus = random_corpus(rng, 4)
    report = evaluate(corpus, corpus)
    assert report.dsm == 1.0
    assert report.ned == 1.0
    dsm_only = evaluate(corpus, corpus, "dsm")
    assert dsm_only.ned is None and dsm_only.dsm == 1.0
    ned_only = evaluate(corpus, corpus, "ned")
    assert ned_only.dsm is None and ned_only.ned == 1.0 and ned_only.per_document == ()


@pytest.mark.parametrize("metric", ["DSM", "", "all", None, True])
def test_evaluate_rejects_an_unknown_metric(metric):
    corpus = random_corpus(random.Random(12), 2)
    with pytest.raises(ValueError, match="metric must be 'dsm', 'ned' or 'both'"):
        evaluate(corpus, corpus, metric)


def test_dsm_is_evaluate_with_the_dsm_metric():
    rng = random.Random(13)
    gt = random_corpus(rng, 4, 0, 5)
    pred = [perturb_document(rng, doc) for doc in gt]
    assert dsm(gt, pred) == evaluate(gt, pred, "dsm")
    assert dsm(gt, pred).ned is None


def test_ned_looks_up_to_markdown_on_its_module(monkeypatch):
    """A wrapper put on ``convert.to_markdown`` sees the calls ``evaluate`` makes."""
    corpus = random_corpus(random.Random(12), 3)
    seen = []
    to_markdown = convert.to_markdown
    monkeypatch.setattr(convert, "to_markdown", lambda doc: seen.append(doc) or to_markdown(doc))
    assert evaluate(corpus, corpus, "ned").ned == 1.0
    assert seen == [doc for doc in corpus for _ in range(2)]


def test_report_dict_shape():
    rng = random.Random(4)
    corpus = random_corpus(rng, 2)
    report = evaluate(corpus, corpus)
    data = to_json_value(report)
    assert set(data) == {"per_document", "dsm", "ned", "corpus_size"}
    assert set(data["per_document"][0]) == {"distance", "max_len", "normalized"}
