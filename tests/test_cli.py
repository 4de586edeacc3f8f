import io
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrec.cli import main
from docrec.model import document_from_dict, document_to_dict, validate_document
from helpers import random_corpus, staircase_boxes

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
    assert main(["eval", "--gt", FIXTURE_GT, "--pred", FIXTURE_PRED, "--jobs", "0"]) == 1
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
    import io

    path, _ = corpus_file
    payload = open(path, encoding="utf-8").read()
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    assert main(["validate", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


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
    ],
)
def test_gtgen_malformed_input(tmp_path, capsys, change, field):
    path = tmp_path / "raw.jsonl"
    path.write_text(json.dumps(change(_GTGEN_PAGE)) + "\n", encoding="utf-8")
    assert main(["gtgen", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}:1" in err
    assert field in err


_PAGE = json.dumps(
    {
        "page_width": 100.0,
        "page_height": 100.0,
        "elements": [{"category": "Figure", "bbox": [0, 0, 5, 5], "content": {}}],
    }
)
_GTGEN_LINE = json.dumps(_GTGEN_PAGE)


@pytest.mark.parametrize(
    "command, line, names",
    [
        ("validate", _PAGE.replace("[0, 0, 5, 5]", "[NaN, 0, 5, 5]"), "NaN"),
        ("eval", _PAGE.replace("[0, 0, 5, 5]", "[0, 0, Infinity, 5]"), "Infinity"),
        ("eval", _PAGE.replace('"page_width": 100.0', '"page_width": 1e999'), "page_width"),
        ("validate", _PAGE.replace('"page_height": 100.0', '"page_height": -1e999'), "page_height"),
        ("convert", _PAGE.replace("[0, 0, 5, 5]", "[0, 0, 5, 1e999]"), "elements[0].bbox[3]"),
        ("order", _PAGE.replace("{", '{"id": -Infinity, ', 1), "-Infinity"),
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
    assert main(["validate", str(path), "--format", "tokens", f"--page-width={size}"]) == 1
    assert "page dimensions must be positive and finite" in capsys.readouterr().err


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
