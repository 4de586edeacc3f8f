"""Acceptance suite: one test per shipped guarantee, runnable standalone.

Each criterion prints one PASS/FAIL line with its timing; run with
``pytest tests/test_acceptance.py -v -s`` to see them. Expected values are
either frozen from the fixture manifest (computed by the independent
oracles at fixture-generation time) or recomputed here against those same
oracles.
"""

import functools
import io
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from docrec.cli import main
from docrec.losses import (
    NUM_CLASSES,
    CLASS_ORDER,
    ElementPrediction,
    ElementTarget,
    class_index,
    element_discrimination_loss,
    element_transcription_loss,
    hungarian_assign,
    matching_cost,
    sequence_reconstruction_loss,
)
from docrec.metrics import document_distance, dsm, edit_distance, evaluate
from docrec.model import BoundingBox, document_from_dict
from docrec.readorder import xy_cut_order
from docrec.seqformat import parse, serialize
from helpers import (
    corrupt_categories,
    corrupt_transcriptions,
    random_corpus,
    random_document,
)
from oracles import (
    naive_edit_distance,
    oracle_document_distance,
    oracle_min_assignment_cost,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def criterion(number: int, label: str, limit: float | None = None):
    """Time the test body and print one ACCEPTANCE PASS/FAIL line."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - started
                if limit is not None:
                    assert elapsed < limit, (
                        f"criterion {number} took {elapsed:.1f}s (limit {limit}s)"
                    )
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {label}")
                raise
            budget = f" [{elapsed:.1f}s < {limit:.0f}s]" if limit else f" [{elapsed:.1f}s]"
            print(f"ACCEPTANCE {number}: PASS - {label}{budget}")

        return wrapper

    return decorate


def _load_fixture_corpus(name: str):
    docs = []
    with open(FIXTURES / name, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                docs.append(document_from_dict(json.loads(line)))
    return docs


@criterion(1, "DSM(X,X) = 1.0 and NED(X,X) = 1.0 on 100 random corpora", limit=10)
def test_criterion_01_metric_identity():
    rng = random.Random(101)
    for _ in range(100):
        corpus = random_corpus(rng, rng.randint(1, 20), 1, 8)
        assert dsm(corpus, corpus).dsm == 1.0
        assert evaluate(corpus, corpus, "ned").ned == 1.0


@criterion(2, "DSM symmetric within 1e-12 and bounded on 200 corpus pairs", limit=30)
def test_criterion_02_metric_symmetry_and_bounds():
    rng = random.Random(202)
    for _ in range(200):
        size = rng.randint(1, 6)
        a = random_corpus(rng, size, 0, 6)
        b = random_corpus(rng, size, 0, 6)
        fwd = dsm(a, b)
        rev = dsm(b, a)
        assert abs(fwd.dsm - rev.dsm) <= 1e-12
        assert 0.0 <= fwd.dsm <= 1.0
        for score in fwd.per_document:
            assert 0.0 <= score.normalized <= 1.0


@criterion(3, "document distance equals exhaustive path minimum, 500 pairs, exact", limit=30)
def test_criterion_03_dp_matches_exhaustive_paths():
    rng = random.Random(303)
    for _ in range(500):
        gt = random_document(rng, 1, 5)
        pred = random_document(rng, 1, 5)
        assert document_distance(gt, pred) == oracle_document_distance(gt, pred)


@criterion(4, "edit distance equals naive recursion on 1000 string pairs, exact", limit=10)
def test_criterion_04_edit_distance_oracle():
    rng = random.Random(404)
    alphabet = "abcXY-"
    for _ in range(1000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        assert edit_distance(a, b) == naive_edit_distance(a, b)


@criterion(5, "serialize/parse round trips 1000 documents (spans, empty figures)", limit=20)
def test_criterion_05_parser_round_trip():
    rng = random.Random(505)
    saw_span = False
    saw_figure = False
    for _ in range(1000):
        doc = random_document(rng, 0, 6, tricky_text=True)
        bins = 1000
        seq = serialize(doc, bins=bins)
        back = parse(seq, doc.page_width, doc.page_height)
        assert serialize(back, bins=bins) == seq  # token-exact inverse
        assert len(back.elements) == len(doc.elements)
        for orig, parsed in zip(doc.elements, back.elements):
            assert parsed.category is orig.category
            for name in ("x_min", "y_min", "x_max", "y_max"):
                extent = doc.page_width if "x" in name else doc.page_height
                delta = abs(getattr(parsed.bbox, name) - getattr(orig.bbox, name))
                assert delta <= extent / bins
            saw_figure |= parsed.category.value == "Figure"
            if hasattr(orig.content, "rows"):
                saw_span |= any(
                    c.rowspan > 1 or c.colspan > 1 for r in orig.content.rows for c in r
                )
                got = [
                    (c.rowspan, c.colspan, c.text)
                    for r in parsed.content.rows
                    for c in r
                ]
                want = [
                    (c.rowspan, c.colspan, c.text)
                    for r in orig.content.rows
                    for c in r
                ]
                assert got == want
    assert saw_span and saw_figure


@criterion(6, "assignment cost equals brute-force minimum, 200 matrices, exact", limit=10)
def test_criterion_06_hungarian_oracle():
    rng = random.Random(606)
    for _ in range(200):
        k = rng.randint(1, 5)
        n = rng.randint(k, 7)
        matrix = [[rng.uniform(0, 10) for _ in range(n)] for _ in range(k)]
        assignment = hungarian_assign(matrix)
        total = 0.0
        for row, col in enumerate(assignment):
            total = total + matrix[row][col]
        assert total == oracle_min_assignment_cost(matrix)


def _perfect_prediction(target, vocab):
    token_probs = np.zeros((len(target.tokens), vocab))
    for t, tok in enumerate(target.tokens):
        token_probs[t, int(tok)] = 1.0
    class_probs = np.zeros(NUM_CLASSES)
    class_probs[class_index(target.category)] = 1.0
    return ElementPrediction(class_probs=class_probs, box=target.box, token_probs=token_probs)


@criterion(7, "losses vanish at one-hot optimum; uniform loss = m log V")
def test_criterion_07_loss_zero_point_and_uniform_closed_form():
    rng = random.Random(707)
    for _ in range(100):
        vocab = rng.randint(6, 20)
        length = rng.randint(6, 12)
        targets = []
        for _ in range(rng.randint(1, 4)):
            x0, y0 = rng.uniform(0, 500), rng.uniform(0, 500)
            real = rng.randint(1, length)
            targets.append(
                ElementTarget(
                    category=rng.choice(CLASS_ORDER),
                    box=BoundingBox(x0, y0, x0 + 40, y0 + 40),
                    tokens=np.array([rng.randrange(vocab) for _ in range(length)]),
                    mask=np.array([1] * real + [0] * (length - real)),
                )
            )
        preds = [_perfect_prediction(t, vocab) for t in targets]
        assignment = hungarian_assign(matching_cost(targets, preds))
        ed = element_discrimination_loss(targets, preds, assignment)
        et = element_transcription_loss(targets, preds, assignment)
        tokens = np.stack([t.tokens for t in targets])
        mask = np.stack([t.mask for t in targets])
        sr = sequence_reconstruction_loss(tokens, tokens, mask)
        assert ed <= 1e-9 and et <= 1e-9 and sr <= 1e-9
    # Uniform predictions: m unmasked transcription tokens -> m * log(V).
    vocab, length, m = 16, 8, 3
    target = ElementTarget(
        category=CLASS_ORDER[0],
        box=BoundingBox(0, 0, 10, 10),
        tokens=np.arange(length) % vocab,
        mask=np.array([1] * (5 + m)),
    )
    uniform = ElementPrediction(
        class_probs=np.eye(NUM_CLASSES)[class_index(target.category)],
        box=target.box,
        token_probs=np.full((length, vocab), 1.0 / vocab),
    )
    loss = element_transcription_loss([target], [uniform], [0])
    assert abs(loss - m * math.log(vocab)) <= 1e-9


@criterion(8, "row-major grids (to 6x6), column-first two-column, shuffle-stable")
def test_criterion_08_reading_order_grids_and_columns():
    rng = random.Random(808)
    # Row-major on grids up to 6x6.
    for rows in range(1, 7):
        for cols in range(1, 7):
            boxes = [
                BoundingBox(c * 100.0, r * 80.0, c * 100.0 + 60.0, r * 80.0 + 40.0)
                for r in range(rows)
                for c in range(cols)
            ]
            assert xy_cut_order(boxes) == list(range(rows * cols))
            reference = [boxes[i] for i in xy_cut_order(boxes)]
            for _ in range(100):
                perm = list(range(len(boxes)))
                rng.shuffle(perm)
                shuffled = [boxes[i] for i in perm]
                order = xy_cut_order(shuffled)
                assert [shuffled[i] for i in order] == reference
    # Column-first on a staggered two-column page.
    left = [BoundingBox(0, y, 40, y + 30) for y in (0.0, 50.0, 100.0)]
    right = [BoundingBox(60, y, 100, y + 50) for y in (20.0, 80.0)]
    boxes = left + right
    expected = [boxes[i] for i in (0, 1, 2, 3, 4)]
    reference = [boxes[i] for i in xy_cut_order(boxes)]
    assert reference == expected
    for _ in range(100):
        perm = list(range(len(boxes)))
        rng.shuffle(perm)
        shuffled = [boxes[i] for i in perm]
        assert [shuffled[i] for i in xy_cut_order(shuffled)] == reference
        assert xy_cut_order(shuffled) == xy_cut_order(shuffled)


@criterion(9, "DSM non-increasing under transcription and category corruption")
def test_criterion_09_degradation_monotonicity():
    gt = _load_fixture_corpus("gt.jsonl")
    pred = _load_fixture_corpus("pred.jsonl")
    fractions = (0.0, 0.25, 0.5, 1.0)
    for corrupt in (corrupt_transcriptions, corrupt_categories):
        series = [dsm(gt, corrupt(pred, f)).dsm for f in fractions]
        for before, after in zip(series, series[1:]):
            assert after <= before + 1e-12, (corrupt.__name__, series)
        assert series[-1] < series[0], (corrupt.__name__, series)


def _run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@criterion(10, "CLI eval matches the oracle manifest to 4 decimals; fuzz never crashes", limit=60)
def test_criterion_10_cli_end_to_end_and_fuzz(tmp_path):
    gt_path = str(FIXTURES / "gt.jsonl")
    pred_path = str(FIXTURES / "pred.jsonl")
    manifest = json.load(open(FIXTURES / "manifest.json"))
    code, out, _ = _run_cli(["eval", "--gt", gt_path, "--pred", pred_path])
    assert code == 0
    report = json.loads(out)
    assert report["dsm"] == round(manifest["dsm"], 4)
    assert report["ned"] == round(manifest["ned"], 4)

    # Fuzz: 1000 single mutations of the ground-truth file must never crash.
    rng = random.Random(1010)
    source = open(gt_path, encoding="utf-8").read()
    pool = '{}[]",:0123456789.abcXYZ \n'
    mutated_path = tmp_path / "mutated.jsonl"
    failures = 0
    for _ in range(1000):
        text = source
        op = rng.choice(("delete", "insert", "replace", "truncate", "dupline"))
        if op == "delete" and text:
            i = rng.randrange(len(text))
            text = text[:i] + text[i + 1 :]
        elif op == "insert":
            i = rng.randint(0, len(text))
            text = text[:i] + rng.choice(pool) + text[i:]
        elif op == "replace" and text:
            i = rng.randrange(len(text))
            text = text[:i] + rng.choice(pool) + text[i + 1 :]
        elif op == "truncate":
            text = text[: rng.randrange(len(text))]
        else:
            lines = text.splitlines()
            lines.insert(rng.randrange(len(lines)), lines[rng.randrange(len(lines))])
            text = "\n".join(lines) + "\n"
        mutated_path.write_text(text, encoding="utf-8")
        code, _, err = _run_cli(["eval", "--gt", str(mutated_path), "--pred", pred_path])
        assert code in (0, 1)  # structured handling, never a crash
        if code == 1:
            failures += 1
            assert err.strip(), "exit 1 must come with a diagnostic"
    assert failures > 500  # most mutations corrupt the file
