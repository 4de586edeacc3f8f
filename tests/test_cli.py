import copy
import gc
import io
import json
import os
import random
import sys
import tempfile
import types
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from docrec import cli
from docrec.cli import main
from docrec.model import document_from_dict, document_to_dict, validate_document
from helpers import random_corpus, random_document, staircase_boxes
from oracles import oracle_text_lines_from_value
from test_model import _REPLACEMENTS, _mutated  # the mutations the decoders' reference test makes

FIXTURE_GT = "tests/fixtures/gt.jsonl"
FIXTURE_PRED = "tests/fixtures/pred.jsonl"


def _write_corpus(path, docs, ids=False):
    with open(path, "w", encoding="utf-8") as handle:
        for i, doc in enumerate(docs):
            obj = document_to_dict(doc)
            if ids:
                obj = {"id": f"d{i}", **obj}
            handle.write(json.dumps(obj) + "\n")
    return str(path)


@pytest.fixture
def corpus_file(tmp_path):
    rng = random.Random(314)
    docs = random_corpus(rng, 4, 1, 5)
    return _write_corpus(tmp_path / "corpus.jsonl", docs), docs


def test_eval_identity(corpus_file, capsys):
    path, _ = corpus_file
    assert main(["eval", "--gt", path, "--pred", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dsm"] == 1.0
    assert report["ned"] == 1.0
    assert report["corpus_size"] == 4
    assert len(report["per_document"]) == 4


def test_eval_metric_selection(corpus_file, capsys):
    path, _ = corpus_file
    assert main(["eval", "--gt", path, "--pred", path, "--metric", "dsm"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dsm"] == 1.0 and report["ned"] is None
    assert main(["eval", "--gt", path, "--pred", path, "--metric", "ned"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ned"] == 1.0 and report["dsm"] is None
    assert report["per_document"] == []


@pytest.mark.parametrize("metric", ["dsm", "ned", "both"])
def test_eval_passes_its_metric_to_evaluate_unchanged(corpus_file, capsys, monkeypatch, metric):
    from docrec import metrics

    seen = []
    evaluate = metrics.evaluate
    monkeypatch.setattr(metrics, "evaluate", lambda gt, pred, m: seen.append(m) or evaluate(gt, pred, m))
    path, _ = corpus_file
    assert main(["eval", "--gt", path, "--pred", path, "--metric", metric]) == 0
    assert seen == [metric]
    assert json.loads(capsys.readouterr().out)["corpus_size"] == 4


def test_eval_length_mismatch(tmp_path, capsys):
    rng = random.Random(1)
    gt = _write_corpus(tmp_path / "gt.jsonl", random_corpus(rng, 3))
    pred = _write_corpus(tmp_path / "pred.jsonl", random_corpus(rng, 2))
    assert main(["eval", "--gt", gt, "--pred", pred]) == 1
    err = capsys.readouterr().err
    assert "corpus length mismatch" in err


def test_eval_key_alignment(tmp_path, capsys):
    rng = random.Random(9)
    docs = random_corpus(rng, 3, 1, 4)
    gt = _write_corpus(tmp_path / "gt.jsonl", docs, ids=True)
    # Same documents, shuffled on disk; --key realigns them.
    shuffled_ids = [2, 0, 1]
    with open(tmp_path / "pred.jsonl", "w", encoding="utf-8") as handle:
        for i in shuffled_ids:
            handle.write(json.dumps({"id": f"d{i}", **document_to_dict(docs[i])}) + "\n")
    assert main(["eval", "--gt", gt, "--pred", str(tmp_path / "pred.jsonl"), "--key", "id"]) == 0
    assert json.loads(capsys.readouterr().out)["dsm"] == 1.0
    # Without the key, misaligned pairs score below 1.
    assert main(["eval", "--gt", gt, "--pred", str(tmp_path / "pred.jsonl")]) == 0
    assert json.loads(capsys.readouterr().out)["dsm"] < 1.0


def test_eval_key_missing(tmp_path, capsys):
    rng = random.Random(10)
    docs = random_corpus(rng, 2)
    gt = _write_corpus(tmp_path / "gt.jsonl", docs, ids=True)
    pred = _write_corpus(tmp_path / "pred.jsonl", docs)  # no ids
    assert main(["eval", "--gt", gt, "--pred", pred, "--key", "id"]) == 1
    assert "missing alignment key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "gt_ids, pred_ids, bad",
    [
        ([True], [1], "gt.jsonl:1"),  # True == 1 in Python, but not in JSON
        ([["a"]], [["a"]], "gt.jsonl:1"),
        (["a"], [{"a": 1}], "pred.jsonl:1"),
        (["a"], [1.0], "pred.jsonl:1"),
        (["a", "a"], ["a", "b"], "gt.jsonl:2"),
        (["a", "b"], [0, 0], "pred.jsonl:2"),
        (["a", "c"], ["a", "b"], "gt.jsonl:2"),
        (["a"], ["a", "b"], "pred.jsonl:2"),
    ],
    ids=["bool", "list", "object", "float", "gt-duplicate", "pred-duplicate", "unmatched", "pred-unmatched"],
)
def test_eval_key_values_checked(tmp_path, capsys, gt_ids, pred_ids, bad):
    doc = document_to_dict(random_corpus(random.Random(11), 1)[0])
    for name, ids in (("gt.jsonl", gt_ids), ("pred.jsonl", pred_ids)):
        lines = [json.dumps({"id": i, **doc}) + "\n" for i in ids]
        (tmp_path / name).write_text("".join(lines), encoding="utf-8")
    argv = ["eval", "--gt", str(tmp_path / "gt.jsonl"), "--pred", str(tmp_path / "pred.jsonl"), "--key", "id"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{tmp_path / bad}: " in err
    assert "'id'" in err


@pytest.mark.parametrize(
    "argv",
    [["eval", "--gt", "{good}", "--pred", "{bad}"], ["validate", "{bad}", "--format", "tokens"]],
    ids=" ".join,
)
def test_non_utf8_input_names_the_file(tmp_path, capsys, argv):
    good = _write_corpus(tmp_path / "good.jsonl", random_corpus(random.Random(12), 1))
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\xff\xfe{}\n")
    assert main([a.format(good=good, bad=bad) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode")


def test_eval_fixture_matches_manifest(capsys):
    manifest = json.load(open("tests/fixtures/manifest.json"))
    assert main(["eval", "--gt", FIXTURE_GT, "--pred", FIXTURE_PRED]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dsm"] == round(manifest["dsm"], 4)
    assert report["ned"] == round(manifest["ned"], 4)


def test_eval_jobs_output_identical(capsys):
    assert main(["eval", "--gt", FIXTURE_GT, "--pred", FIXTURE_PRED, "--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(["eval", "--gt", FIXTURE_GT, "--pred", FIXTURE_PRED, "--jobs", "4"]) == 0
    assert capsys.readouterr().out == serial
    assert main(["eval", "--gt", FIXTURE_GT, "--pred", FIXTURE_PRED, "--jobs", "0"]) == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err


def test_validate_ok(corpus_file, capsys):
    path, _ = corpus_file
    assert main(["validate", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"documents": 4, "valid": True}


def test_validate_reports_violations(tmp_path, capsys):
    bad = {
        "page_width": 100,
        "page_height": 100,
        "elements": [
            {"category": "Figure", "bbox": [90, 0, 10, 10], "content": {}}
        ],
    }
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(bad) + "\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "element 0" in err


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"page_width": 100,\n', encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_validate_tokens_format(tmp_path, capsys):
    path = tmp_path / "tokens.txt"
    path.write_text("<Figure><0><0><999><999><Sep>", encoding="utf-8")
    assert main(["validate", str(path), "--format", "tokens"]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True
    path.write_text("<Chart><0><0><1><1><Sep>", encoding="utf-8")
    assert main(["validate", str(path), "--format", "tokens"]) == 1
    assert "unknown tag" in capsys.readouterr().err
    path.write_text("<Figure><0><0><999><999>", encoding="utf-8")  # no <Sep>
    assert main(["validate", str(path), "--format", "tokens"]) == 1
    assert "UnterminatedElement" in capsys.readouterr().err


def test_convert_targets(corpus_file, capsys):
    path, docs = corpus_file
    for target in ("markdown", "layout", "text", "tables", "formulas"):
        assert main(["convert", path, "--target", target]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(docs)
        payloads = [json.loads(line) for line in lines]
        if target in ("markdown", "text"):
            assert all(isinstance(p, str) for p in payloads)
        else:
            assert all(isinstance(p, list) for p in payloads)


def test_convert_output_file(corpus_file, tmp_path):
    path, docs = corpus_file
    out = tmp_path / "layout.jsonl"
    assert main(["convert", path, "--target", "layout", "-o", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(docs)
    first = json.loads(lines[0])
    assert all(set(r) == {"category", "bbox", "score"} for r in first)


def test_order_command(tmp_path, capsys):
    # Three stacked elements written bottom-up; order restores top-down.
    obj = {
        "id": "keep-me",
        "page_width": 500.0,
        "page_height": 500.0,
        "elements": [
            {"category": "Figure", "bbox": [10, y0, 60, y0 + 30], "content": {}}
            for y0 in (200.0, 100.0, 0.0)
        ],
    }
    path = tmp_path / "unordered.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    assert main(["order", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    tops = [el["bbox"][1] for el in out["elements"]]
    assert tops == sorted(tops)
    assert out["id"] == "keep-me"
    # The output is itself a readable document.
    reread = document_from_dict(out)
    assert validate_document(reread) == []


def test_gtgen_command(tmp_path, capsys):
    payload = {
        "page_width": 200.0,
        "page_height": 300.0,
        "elements": [
            {"category": "Paragraph", "bbox": [0, 120, 100, 200]},
            {"category": "Paragraph", "bbox": [0, 0, 100, 100]},
        ],
        "lines": [
            {"bbox": [5, 130, 95, 150], "text": "below"},
            {"bbox": [5, 10, 95, 30], "text": "above"},
            {"bbox": [150, 250, 190, 260], "text": "orphan"},
        ],
    }
    path = tmp_path / "raw.jsonl"
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    assert main(["gtgen", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    doc = document_from_dict(out)
    assert validate_document(doc) == []
    assert doc.elements[0].content.lines[0].text == "above"
    assert doc.elements[1].content.lines[0].text == "below"
    assert [u["index"] for u in out["unassigned"]] == [2]
    assert out["unassigned"][0]["text"] == "orphan"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval"])  # missing --gt/--pred
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_input_exits_1(capsys):
    assert main(["validate", "/nonexistent/nope.jsonl"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_stdin_input(corpus_file, capsys, monkeypatch):
    path, _ = corpus_file
    payload = open(path, encoding="utf-8").read()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(payload.encode("utf-8")), encoding="utf-8"))
    assert main(["validate", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


def test_non_utf8_stdin_is_bad_input(capsys, monkeypatch):
    """stdin decodes as strict UTF-8, like a path, whatever the locale's error handler."""
    line = b'{"id": "\xff", "page_width": 10.0, "page_height": 10.0, "elements": []}\n'
    stdin = io.TextIOWrapper(io.BytesIO(line), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["order", "-"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: -: 'utf-8' codec can't decode byte 0xff")


def test_byte_identical_reruns(capsys):
    assert main(["eval", "--gt", FIXTURE_GT, "--pred", FIXTURE_PRED]) == 0
    first = capsys.readouterr().out
    assert main(["eval", "--gt", FIXTURE_GT, "--pred", FIXTURE_PRED]) == 0
    assert capsys.readouterr().out == first


def test_order_round_trips_through_its_own_output(tmp_path, capsys):
    rng = random.Random(55)
    docs = random_corpus(rng, 3, 1, 4)
    src = _write_corpus(tmp_path / "in.jsonl", docs)
    out1 = tmp_path / "out1.jsonl"
    out2 = tmp_path / "out2.jsonl"
    assert main(["order", src, "-o", str(out1)]) == 0
    assert main(["order", str(out1), "-o", str(out2)]) == 0
    assert out1.read_text(encoding="utf-8") == out2.read_text(encoding="utf-8")


_GTGEN_PAGE = {
    "page_width": 100.0,
    "page_height": 100.0,
    "elements": [{"category": "Paragraph", "bbox": [0, 0, 50, 50]}],
    "lines": [{"bbox": [5, 5, 45, 15], "text": "x"}],
}


@pytest.mark.parametrize(
    "change, field",
    [
        (lambda page: [page], "object"),
        (lambda page: {k: v for k, v in page.items() if k != "page_height"}, "page_height"),
        (lambda page: {**page, "page_width": "100"}, "page_width"),
        (lambda page: {**page, "elements": {}}, "elements"),
        (lambda page: {**page, "lines": [{"bbox": [5, 5, 45, 15], "text": 7}]}, "lines[0].text"),
        (
            lambda page: {**page, "elements": [{"category": "Paragraph", "bbox": [0, 0, 50]}]},
            "elements[0].bbox",
        ),
        (
            lambda page: {
                **page,
                "elements": [{"category": "Paragraph", "bbox": [0, 0, 50, 50], "content": {"lines": 5}}],
            },
            "elements[0].content",
        ),
        (
            lambda page: {**page, "elements": [{"category": "Caption", "bbox": [0, 0, 50, 50]}]},
            "elements[0].category: unknown category 'Caption'",
        ),
    ],
)
def test_gtgen_malformed_input(tmp_path, capsys, change, field):
    path = tmp_path / "raw.jsonl"
    path.write_text(json.dumps(change(_GTGEN_PAGE)) + "\n", encoding="utf-8")
    assert main(["gtgen", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}:1" in err
    assert field in err


@pytest.mark.parametrize(
    "lines, message",
    [
        (5, ".lines: expected a list, got 5"),
        (["x"], ".lines[0]: expected an object, got 'x'"),
    ],
)
def test_gtgen_lines_messages_are_pinned(tmp_path, capsys, lines, message):
    path = tmp_path / "raw.jsonl"
    path.write_text(json.dumps({**_GTGEN_PAGE, "lines": lines}) + "\n", encoding="utf-8")
    assert main(["gtgen", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:1{message}\n"


def _is_json(value) -> bool:
    try:
        json.dumps(value, allow_nan=False)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("replacement", [r for r in _REPLACEMENTS if _is_json(r)], ids=repr)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_gtgen_names_a_bad_line_at_the_reference_decoders_path(replacement, seed, data):
    """``cli._gtgen``'s ``where`` and the fault path below it make the reference decoder's message."""
    doc = document_to_dict(random_document(random.Random(seed), 1, 5))
    lines = [line for el in doc["elements"] for line in el["content"].get("lines", [])]
    mutated = _mutated(lines, replacement, data)
    assume(_is_json(mutated))  # NaN and the infinities are not JSON: the loader rejects them first
    lines = json.loads(json.dumps(mutated))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.jsonl"
        path.write_text(json.dumps({**_GTGEN_PAGE, "lines": lines}) + "\n", encoding="utf-8")
        try:
            oracle_text_lines_from_value(lines, f"{path}:1.lines")
        except ValueError as exc:
            expected = (1, f"error: {exc}\n")
        else:
            expected = (0, "")
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            assert (main(["gtgen", str(path)]), err.getvalue()) == expected


_PAGE = json.dumps(
    {
        "page_width": 100.0,
        "page_height": 100.0,
        "elements": [{"category": "Figure", "bbox": [0, 0, 5, 5], "content": {}}],
    }
)
_GTGEN_LINE = json.dumps(_GTGEN_PAGE)


@pytest.mark.parametrize("content", ["", _PAGE + "\n", None], ids=["empty", "page", "missing"])
@pytest.mark.parametrize(
    "argv",
    [
        ["order", "--min-gap", "-1"],
        ["order", "--y-tolerance", "-1"],
        ["order", "--min-gap", "nan"],
        ["order", "--jobs", "0"],
        ["gtgen", "--iou-threshold", "7"],
        ["gtgen", "--min-gap", "0"],
        ["gtgen", "--y-tolerance", "nan"],
        ["gtgen", "--jobs", "0"],
        ["convert", "--target", "text", "--jobs", "0"],
        ["validate", "--format", "tokens", "--bins", "1"],
        ["validate", "--format", "tokens", "--page-width", "0"],
        ["validate", "--format", "tokens", "--page-height", "nan"],
        ["validate", "--page-width", "inf"],
        ["validate", "--bins", "7"],
        ["validate", "--format", "json", "--page-height", "3"],
    ],
    ids=" ".join,
)
def test_bad_flag_values_exit_2_before_reading(tmp_path, capsys, argv, content):
    path = tmp_path / "in.jsonl"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    out = tmp_path / "out.jsonl"
    # validate has no output file; it writes only to stdout.
    output = [] if argv[0] == "validate" else ["-o", str(out)]
    assert main([argv[0], str(path), *output, *argv[1:]]) == 2
    assert not out.exists()
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("bins", ["1", "1" + "0" * 400], ids=["1", "1e400"])
def test_bins_flag_takes_the_grid_rule(tmp_path, capsys, bins):
    # Checked by seqformat.check_grid, before the (missing) input is read; a grid
    # beyond the float range would overflow where bins are computed.
    assert main(["validate", str(tmp_path / "missing"), "--format", "tokens", "--bins", bins]) == 2
    assert capsys.readouterr().err == f"error: bins must be an int >= 2 within the float range, got {bins}\n"


def test_eval_page_with_overflowing_areas(tmp_path, capsys):
    # Finite coordinates whose box areas overflow to inf.
    page = json.loads(_PAGE)
    page.update(page_width=1e200, page_height=1e200)
    page["elements"][0]["bbox"] = [0, 0, 1e200, 1e200]
    path = tmp_path / "page.jsonl"
    path.write_text(json.dumps(page) + "\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["eval", "--gt", str(path), "--pred", str(path), "--metric", "dsm"]) == 0
    assert json.loads(capsys.readouterr().out)["dsm"] == 1.0


def test_eval_zero_area_page_against_itself_scores_1(tmp_path, capsys):
    # A box of zero area is valid; its IoU with itself is 1, as for any box.
    page = {"page_width": 100, "page_height": 100,
            "elements": [{"category": "Figure", "bbox": [10, 10, 10, 20]}]}
    path = tmp_path / "page.jsonl"
    path.write_text(json.dumps(page) + "\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["eval", "--gt", str(path), "--pred", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["dsm"] == 1.0


def test_eval_lone_surrogate_in_text(tmp_path, capsys):
    # JSON may escape a lone surrogate; the metrics compare code points.
    def page(text):
        element = {"category": "Paragraph", "bbox": [0, 0, 50, 10],
                   "content": {"lines": [{"bbox": [0, 0, 50, 10], "text": text}]}}
        return json.dumps({"page_width": 100.0, "page_height": 100.0, "elements": [element]})

    gt = tmp_path / "gt.jsonl"
    pred = tmp_path / "pred.jsonl"
    gt.write_text(page("a\ud800b") + "\n", encoding="utf-8")
    pred.write_text(page("ab") + "\n", encoding="utf-8")
    assert "\\ud800" in gt.read_text(encoding="utf-8")
    assert main(["validate", str(gt)]) == 0
    capsys.readouterr()
    assert main(["eval", "--gt", str(gt), "--pred", str(pred)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0 <= report["dsm"] <= 1
    assert 0 <= report["ned"] <= 1


@pytest.mark.parametrize(
    "command, line, names",
    [
        ("validate", _PAGE.replace("[0, 0, 5, 5]", "[NaN, 0, 5, 5]"), "NaN"),
        ("eval", _PAGE.replace("[0, 0, 5, 5]", "[0, 0, Infinity, 5]"), "Infinity"),
        ("eval", _PAGE.replace('"page_width": 100.0', '"page_width": 1e999'), "page_width"),
        ("validate", _PAGE.replace('"page_height": 100.0', '"page_height": -1e999'), "page_height"),
        ("convert", _PAGE.replace("[0, 0, 5, 5]", "[0, 0, 5, 1e999]"), "elements[0].bbox[3]"),
        ("order", _PAGE.replace("{", '{"id": -Infinity, ', 1), "-Infinity"),
        # A pass-through key: only the writer sees it.
        ("order", _PAGE.replace("{", '{"id": 1e999, ', 1), "Out of range float"),
        ("order", _PAGE.replace('"page_width": 100.0', '"page_width": 1' + "0" * 400), "page_width"),
        ("gtgen", _GTGEN_LINE.replace("[5, 5, 45, 15]", "[1e999, 5, 45, 15]"), "lines[0].bbox[0]"),
    ],
)
def test_non_finite_numbers_rejected(tmp_path, capsys, command, line, names):
    path = tmp_path / "page.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    argv = {
        "eval": ["eval", "--gt", str(path), "--pred", str(path)],
        "convert": ["convert", str(path), "--target", "layout"],
    }.get(command, [command, str(path)])
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{path}:1" in err
    assert names in err


@pytest.mark.parametrize("size", ["inf", "-inf", "nan"])
def test_validate_tokens_rejects_non_finite_page_size(tmp_path, capsys, size):
    path = tmp_path / "tokens.txt"
    path.write_text("<Figure><0><0><999><999><Sep>", encoding="utf-8")
    assert main(["validate", str(path), "--format", "tokens", f"--page-width={size}"]) == 2
    assert capsys.readouterr().err == f"error: page dimensions must be positive and finite, got {float(size)}x1024.0\n"


_COORDS = st.lists(st.floats(), min_size=4, max_size=4)


@settings(max_examples=80, deadline=None)
@given(
    size=st.tuples(st.floats(), st.floats()),
    gt=st.lists(_COORDS, min_size=1, max_size=3),
    pred=st.lists(_COORDS, min_size=1, max_size=3),
)
def test_eval_any_float_coordinates(size, gt, pred):
    """Any float coordinates: exit 1, or strict JSON with scores in [0, 1]."""

    def page(boxes):
        return {
            "page_width": size[0],
            "page_height": size[1],
            "elements": [
                {"category": "Paragraph", "bbox": b, "content": {"lines": [{"bbox": b, "text": "ab"}]}}
                for b in boxes
            ],
        }

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "gt.jsonl", Path(tmp) / "pred.jsonl"]
        for path, boxes in zip(paths, (gt, pred)):
            # json.dumps writes NaN and Infinity as bare literals.
            path.write_text(json.dumps(page(boxes)) + "\n", encoding="utf-8")
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["eval", "--gt", str(paths[0]), "--pred", str(paths[1])])
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        return
    assert code == 0
    report = json.loads(out.getvalue(), parse_constant=lambda name: pytest.fail(f"{name} in output"))
    assert 0 <= report["dsm"] <= 1
    assert 0 <= report["ned"] <= 1


def test_ndjson_lines_end_at_newline_only(tmp_path, capsys):
    # RFC 8259 lets strings hold raw U+2028/U+2029; str.splitlines breaks on them.
    page = json.loads(_PAGE)
    page["elements"] = [
        {
            "category": "Paragraph",
            "bbox": [0, 0, 50, 50],
            "content": {"lines": [{"bbox": [5, 5, 45, 15], "text": "a\u2028b\u2029c"}]},
        }
    ]
    raw = tmp_path / "raw.jsonl"
    raw.write_text(json.dumps(page, ensure_ascii=False) + "\n", encoding="utf-8")
    escaped = tmp_path / "escaped.jsonl"
    escaped.write_text(json.dumps(page) + "\n", encoding="utf-8")
    assert "\u2028" in raw.read_text(encoding="utf-8")
    assert main(["validate", str(raw)]) == 0
    assert json.loads(capsys.readouterr().out) == {"documents": 1, "valid": True}
    assert main(["order", str(raw)]) == 0
    out = capsys.readouterr().out
    assert main(["order", str(escaped)]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize(
    "argv, data",
    [
        # Two documents on one line: a lone "\r" does not end a line.
        (["validate"], (_PAGE + "\r" + _PAGE + "\n").encode("utf-8")),
        # Token text whose paragraph text holds a raw "\r".
        (["validate", "--format", "tokens"], b"<Paragraph><0><0><9><9><1><1><8><8>a\rb<Sep>"),
    ],
    ids=["lone-cr-between-documents", "cr-in-token-text"],
)
def test_path_and_stdin_read_the_same_bytes(tmp_path, capsys, monkeypatch, argv, data):
    path = tmp_path / "input"
    path.write_bytes(data)
    by_path = main([argv[0], str(path), *argv[1:]]), capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert (main([argv[0], "-", *argv[1:]]), capsys.readouterr().out) == by_path


@pytest.mark.parametrize("blank", ["\u2028", "\u0085", "\x1c", "\u00a0"])
def test_only_json_whitespace_makes_a_blank_line(tmp_path, capsys, blank):
    path = tmp_path / "corpus.jsonl"
    path.write_text(f"{_PAGE}\n \t\r\n{_PAGE}\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"documents": 2, "valid": True}
    path.write_text(f"{_PAGE}\n{blank}\n{_PAGE}\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}:2: invalid JSON")


def _assert_fails_at_line_2(capsys, argv, path):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}:2: ")
    assert "maximum recursion depth exceeded" in err


def test_nesting_too_deep_to_decode_names_its_line(tmp_path, capsys):
    path = tmp_path / "page.jsonl"
    path.write_text(_PAGE + "\n" + "[" * 100_000 + "\n", encoding="utf-8")
    _assert_fails_at_line_2(capsys, ["validate", str(path)], path)


def test_nesting_too_deep_to_write_back_names_its_line(tmp_path, capsys):
    # A pass-through key 900 lists deep: it decodes, and validate accepts the page.
    deep = _PAGE.replace("{", '{"id": ' + "[" * 900 + "]" * 900 + ", ", 1)
    path = tmp_path / "page.jsonl"
    path.write_text(_PAGE + "\n" + deep + "\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    _assert_fails_at_line_2(capsys, ["order", str(path)], path)


def test_order_deeply_nested_layout(tmp_path, capsys):
    boxes = staircase_boxes(1500)
    perm = list(range(len(boxes)))
    random.Random(8).shuffle(perm)
    end = boxes[0].x_max
    page = {
        "page_width": end,
        "page_height": end,
        "elements": [
            {"category": "Figure", "bbox": [b.x_min, b.y_min, b.x_max, b.y_max], "content": {}}
            for b in (boxes[i] for i in perm)
        ],
    }
    path = tmp_path / "stairs.jsonl"
    path.write_text(json.dumps(page) + "\n", encoding="utf-8")
    assert main(["order", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [el["bbox"][:2] for el in out["elements"]] == [[b.x_min, b.y_min] for b in boxes]


# One hand-written page with every content kind, elements bottom-up, and two
# extra top-level keys, which ``order`` keeps with their floats rounded.
_GOLDEN_PAGE = {
    "id": "p1",
    "confidence": 0.123456789,
    "page_width": 200,
    "page_height": 200.0,
    "elements": [
        {"category": "Figure", "bbox": [10, 150, 190.5, 190], "content": {}},
        {"category": "Formula", "bbox": [10, 120, 190, 140], "content": {"latex": "x^2 + y_1"}},
        {"category": "Table", "bbox": [10, 50, 190, 110], "content": {"rows": [
            [{"bbox": [10, 50, 100, 110], "rowspan": 2, "colspan": 1, "text": "A"},
             {"bbox": [100, 50, 190, 80], "text": "B"}],
            [{"bbox": [100, 80, 190, 110.333333], "text": "C"}],
        ]}},
        {"category": "Paragraph", "bbox": [10, 10, 190, 40], "content": {"lines": [
            {"bbox": [10, 10, 190, 20], "text": "Hello world"},
            {"bbox": [10, 25, 150.125, 35], "text": "second é line"},
        ]}},
    ],
}
_GOLDEN_PRED = json.loads(json.dumps(_GOLDEN_PAGE))
_GOLDEN_PRED["elements"][3]["content"]["lines"][1]["text"] = "second line"
_GOLDEN_PRED["elements"][0]["bbox"] = [12, 150, 190, 185]
_GOLDEN_GTGEN = {
    "page_width": 200.0,
    "page_height": 200.0,
    "elements": [
        {"category": "Paragraph", "bbox": [10, 60, 190, 90]},
        {"category": "Paragraph", "bbox": [10, 10, 190, 40]},
        {"category": "Figure", "bbox": [10, 150, 190, 190]},
    ],
    "lines": [
        {"bbox": [12, 65, 180, 75], "text": "lower"},
        {"bbox": [12, 12, 180, 22], "text": "upper"},
        {"bbox": [150.5, 195, 199, 199.25], "text": "stray"},
    ],
}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["convert", "page", "--target", "layout"],
            '[{"category": "Figure", "bbox": [10.0, 150.0, 190.5, 190.0], "score": 1.0}, '
            '{"category": "Formula", "bbox": [10.0, 120.0, 190.0, 140.0], "score": 1.0}, '
            '{"category": "Table", "bbox": [10.0, 50.0, 190.0, 110.0], "score": 1.0}, '
            '{"category": "Paragraph", "bbox": [10.0, 10.0, 190.0, 40.0], "score": 1.0}]\n',
        ),
        (
            ["order", "page"],
            '{"id": "p1", "confidence": 0.1235, "page_width": 200.0, "page_height": 200.0, "elements": ['
            '{"category": "Paragraph", "bbox": [10.0, 10.0, 190.0, 40.0], "content": {"lines": ['
            '{"bbox": [10.0, 10.0, 190.0, 20.0], "text": "Hello world"}, '
            '{"bbox": [10.0, 25.0, 150.125, 35.0], "text": "second \\u00e9 line"}]}}, '
            '{"category": "Table", "bbox": [10.0, 50.0, 190.0, 110.0], "content": {"rows": ['
            '[{"bbox": [10.0, 50.0, 100.0, 110.0], "rowspan": 2, "colspan": 1, "text": "A"}, '
            '{"bbox": [100.0, 50.0, 190.0, 80.0], "rowspan": 1, "colspan": 1, "text": "B"}], '
            '[{"bbox": [100.0, 80.0, 190.0, 110.3333], "rowspan": 1, "colspan": 1, "text": "C"}]]}}, '
            '{"category": "Formula", "bbox": [10.0, 120.0, 190.0, 140.0], "content": {"latex": "x^2 + y_1"}}, '
            '{"category": "Figure", "bbox": [10.0, 150.0, 190.5, 190.0], "content": {}}]}\n',
        ),
        (
            ["gtgen", "gtgen"],
            '{"page_width": 200.0, "page_height": 200.0, "elements": ['
            '{"category": "Paragraph", "bbox": [10.0, 10.0, 190.0, 40.0], "content": {"lines": ['
            '{"bbox": [12.0, 12.0, 180.0, 22.0], "text": "upper"}]}}, '
            '{"category": "Paragraph", "bbox": [10.0, 60.0, 190.0, 90.0], "content": {"lines": ['
            '{"bbox": [12.0, 65.0, 180.0, 75.0], "text": "lower"}]}}, '
            '{"category": "Figure", "bbox": [10.0, 150.0, 190.0, 190.0], "content": {}}], '
            '"unassigned": [{"index": 2, "bbox": [150.5, 195.0, 199.0, 199.25], "text": "stray"}]}\n',
        ),
        (
            ["eval", "--gt", "page", "--pred", "pred", "--metric", "both"],
            '{"per_document": [{"distance": 0.0743, "max_len": 4, "normalized": 0.0186}], '
            '"dsm": 0.9814, "ned": 0.98, "corpus_size": 1}\n',
        ),
    ],
    ids=["convert", "order", "gtgen", "eval"],
)
def test_output_bytes_are_pinned(tmp_path, capsys, argv, expected):
    # Key order, float rounding and escaping of every writer, byte for byte.
    paths = {}
    for name, obj in (("page", _GOLDEN_PAGE), ("pred", _GOLDEN_PRED), ("gtgen", _GOLDEN_GTGEN)):
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text(json.dumps(obj) + "\n", encoding="utf-8")
    assert main([argv[0], *(str(paths.get(a, a)) for a in argv[1:])]) == 0
    assert capsys.readouterr().out == expected


# --- one document at a time ---------------------------------------------------

#: The commands that read one input file line by line, and their flags.
_LINE_COMMANDS = {"validate": [], "order": [], "convert": ["--target", "markdown"], "gtgen": []}


class _Decoded(dict):
    """A decoded line that a weak reference can watch."""


@pytest.mark.parametrize("command", list(_LINE_COMMANDS))
def test_each_decoded_line_is_dropped_before_the_next_is_decoded(tmp_path, capsys, monkeypatch, command):
    page = _GOLDEN_GTGEN if command == "gtgen" else _GOLDEN_PAGE
    path = tmp_path / "corpus.jsonl"
    path.write_text((json.dumps(page) + "\n") * 8, encoding="utf-8")
    decoded, alive = [], []

    def loads(text, **kw):
        # Before each decode: how many values decoded from earlier lines are still held.
        alive.append(sum(ref() is not None for ref in decoded))
        value = _Decoded(json.loads(text, **kw))
        decoded.append(weakref.ref(value))
        return value

    monkeypatch.setattr(cli, "json", types.SimpleNamespace(loads=loads, dumps=json.dumps))
    assert main([command, str(path), *_LINE_COMMANDS[command]]) == 0
    assert len(capsys.readouterr().out.splitlines()) == (1 if command == "validate" else 8)
    assert len(alive) == 8
    assert max(alive) <= 1


@pytest.mark.parametrize("command", [*_LINE_COMMANDS, "eval"])
def test_no_document_leaves_a_reference_cycle(tmp_path, capsys, command):
    """The unreachable objects a run leaves behind (argparse's) do not grow with its documents."""
    page = _GOLDEN_GTGEN if command == "gtgen" else _GOLDEN_PAGE
    gt, pred = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
    argv = ["eval", "--gt", str(gt), "--pred", str(pred)] if command == "eval" else [command, str(gt), *_LINE_COMMANDS[command]]
    counts = []
    for n in (1, 1, 8):  # the first run pays the command's imports
        gt.write_text((json.dumps(page) + "\n") * n, encoding="utf-8")
        pred.write_text((json.dumps(_GOLDEN_PRED) + "\n") * n, encoding="utf-8")
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()  # no collection during the run may take a share of the count
        try:
            assert main(argv) == 0
        finally:
            if enabled:
                gc.enable()
        counts.append(gc.collect())
    capsys.readouterr()
    assert counts[1] == counts[2]


@pytest.mark.parametrize("command", [*_LINE_COMMANDS, "eval"])
def test_the_first_failing_line_is_reported_whatever_its_fault(tmp_path, capsys, command):
    # Line 1 lacks the page size; line 2 is not JSON. Line 1 is decoded and run first.
    path = tmp_path / "prec.jsonl"
    path.write_text('{"page_width": 10}\n{bad json\n', encoding="utf-8")
    out_path = tmp_path / "out.jsonl"
    if command == "eval":
        argv = ["eval", "--gt", str(path), "--pred", str(path)]
    else:
        argv = [command, str(path), *_LINE_COMMANDS[command]]
        if command != "validate":
            argv += ["-o", str(out_path)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}:1: missing page_width/page_height\n"
    assert not out_path.exists()


def test_a_fault_in_docrec_exits_3_with_its_traceback(tmp_path, capsys, monkeypatch):
    from docrec import readorder

    def broken(boxes, cfg):
        raise TypeError("unhashable type: 'BoundingBox'")

    monkeypatch.setattr(readorder, "xy_cut_order", broken)
    path = tmp_path / "page.jsonl"
    path.write_text(json.dumps(_GOLDEN_PAGE) + "\n", encoding="utf-8")
    out_path = tmp_path / "out.jsonl"
    assert main(["order", str(path), "-o", str(out_path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("TypeError: unhashable type: 'BoundingBox'\n")
    assert not out_path.exists()


def _slots(value):
    """Every (container, key) pair of a JSON tree, outermost first."""
    for key, item in list(value.items() if isinstance(value, dict) else enumerate(value)):
        yield value, key
        if isinstance(item, (dict, list)):
            yield from _slots(item)


_CONTROL_CHARS = st.sampled_from("\x00\x08\t\n\x0b\x0c\r\x1b\x1f\x7f\x85\x9f\u2028")
_WRONG_VALUES = st.one_of(
    # Copied, as a later mutation may change a drawn list or object in place.
    st.sampled_from([None, True, False, "", "Paragraph", [], {}, [0, 0, 1], [[1, 2, 3, 4]], {"bbox": []}])
    .map(copy.deepcopy),
    st.sampled_from([0, -1, 2**63, 10**400, -(10**400), 1e308, -1e308, 5e-324, 1.5, -0.0]),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(_CONTROL_CHARS, min_size=1, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_documents_are_bad_input_or_valid_output(data):
    """Wrong types, huge numbers, dropped keys and control characters anywhere in a
    valid document: the exit is 0 with JSON on stdout, or 1 naming the file; never 3."""
    command = data.draw(st.sampled_from(["validate", "order", "convert", "gtgen", "eval"]))
    root = [json.loads(json.dumps(_GOLDEN_GTGEN if command == "gtgen" else _GOLDEN_PAGE))]
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        container, key = data.draw(st.sampled_from(list(_slots(root))), label="slot")
        action = data.draw(st.sampled_from(["replace", "drop", "control"]), label="action")
        if action == "drop" and container is not root:
            del container[key]
        elif action == "control" and isinstance(container[key], str):
            at = data.draw(st.integers(0, len(container[key])), label="at")
            container[key] = container[key][:at] + data.draw(_CONTROL_CHARS) + container[key][at:]
        else:
            container[key] = data.draw(_WRONG_VALUES, label="value")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path, good = Path(tmp) / "mutant.jsonl", Path(tmp) / "good.jsonl"
        path.write_text(json.dumps(root[0]) + "\n", encoding="utf-8")
        good.write_text(json.dumps(_GOLDEN_PAGE) + "\n", encoding="utf-8")
        if command == "eval":
            pair = data.draw(st.permutations([str(path), str(good)]), label="gt, pred")
            metric = data.draw(st.sampled_from(["dsm", "ned", "both"]), label="metric")
            argv = ["eval", "--gt", pair[0], "--pred", pair[1], "--metric", metric]
        elif command == "convert":
            argv = ["convert", str(path), "--target", data.draw(st.sampled_from(list(cli._TARGETS)))]
        else:
            argv = [command, str(path)]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1), err.getvalue()
    if code == 0:
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        json.loads(lines[0], parse_constant=lambda name: pytest.fail(f"{name} in output"))
    else:
        assert out.getvalue() == ""
        assert str(path) in err.getvalue()


def _rounded_plainly(value):
    """Every float, never a bool, at 4 decimals; lists and dicts rebuilt."""
    if isinstance(value, float):
        return round(value, 4)
    if isinstance(value, list):
        return [_rounded_plainly(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded_plainly(v) for k, v in value.items()}
    return value


_PAYLOADS = st.recursive(
    st.floats() | st.sampled_from([-0.0, 1e300, 2.0**60, 0.00005, 12.34565])
    | st.integers() | st.booleans() | st.text(max_size=2) | st.none(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=12,
)


@given(_PAYLOADS)
def test_output_rounding_matches_the_plain_rule_bit_for_bit(payload):
    # repr tells -0.0 from 0.0 and round-trips every other float.
    assert repr(cli._round_floats(payload)) == repr(_rounded_plainly(payload))


# --- help and usage, pinned ----------------------------------------------------

#: ``main``'s exit code, stdout and stderr for each of ``_USAGE_ARGVS``, at COLUMNS=80 and on
#: the Python minor named in the file; rewrite it with ``PYTHONPATH=src python tests/test_cli.py``.
_USAGE_GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_usage.json"
_USAGE_ARGVS = [
    ["--help"],
    *([command, "--help"] for command in ("validate", "eval", "convert", "order", "gtgen")),
    # One usage error per checked flag. The input does not exist: none is read.
    ["eval", "--gt", "missing.jsonl", "--pred", "missing.jsonl", "--jobs", "0"],
    ["validate", "missing.jsonl", "--format", "tokens", "--bins", "1"],
    ["validate", "missing.jsonl", "--format", "tokens", "--page-width", "0"],
    ["order", "missing.jsonl", "--min-gap", "0"],
    ["order", "missing.jsonl", "--y-tolerance", "-1"],
    ["gtgen", "missing.jsonl", "--iou-threshold", "0"],
    ["validate", "missing.jsonl", "--page-height", "100"],
]


def _usage(argv):
    """``[exit code, stdout, stderr]`` of ``main(argv)``; help exits by SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


@pytest.mark.parametrize("argv", _USAGE_ARGVS, ids=" ".join)
def test_help_and_usage_errors_are_pinned(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads(_USAGE_GOLDEN.read_text(encoding="utf-8"))
    expected, got = golden["cases"][" ".join(argv)], _usage(argv)
    if golden["python"] != "%d.%d" % sys.version_info[:2]:
        # argparse lays help out differently on another minor: keep the exit code and the error lines.
        expected, got = ([code, [line for line in err.splitlines() if "error:" in line]] for code, _, err in (expected, got))
    assert got == expected


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    cases = {" ".join(argv): _usage(argv) for argv in _USAGE_ARGVS}
    _USAGE_GOLDEN.parent.mkdir(exist_ok=True)
    _USAGE_GOLDEN.write_text(json.dumps({"python": "%d.%d" % sys.version_info[:2], "cases": cases}, indent=1) + "\n",
                             encoding="utf-8")
