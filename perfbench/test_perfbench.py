"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import filecmp
import json
import shutil
import subprocess

import pytest

import run

#: Counts the traced run must reproduce exactly for one seed.
COUNTS = (
    "metrics.edit_distance.calls",
    "metrics.edit_distance.cells",
    "metrics.alignment.cells",
    "convert.element_text.calls",
    "losses.linear_sum_assignment.calls",
    "readorder.fallback_sort.calls",
)


def _files(path):
    return sorted(p.name for p in path.iterdir())


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_generator_is_byte_deterministic(name, tmp_path):
    dirs = {key: tmp_path / key for key in ("a", "b", "other")}
    for key, path in dirs.items():
        path.mkdir()
        run.WORKLOADS[name].build(7 if key != "other" else 8, 2, path)
    names = _files(dirs["a"])
    assert names and names == _files(dirs["b"])
    _, mismatch, errors = filecmp.cmpfiles(dirs["a"], dirs["b"], names, shallow=False)
    assert mismatch == errors == []
    _, mismatch, _ = filecmp.cmpfiles(dirs["a"], dirs["other"], names, shallow=False)
    assert mismatch  # the seed reaches the inputs


def _traced_counts(name, path):
    path.mkdir()
    tally = run.Tally()
    values = run.traced_run(run.WORKLOADS[name].gate(path), tally, path / "spans.jsonl")
    assert tally.failed == 0, tally.problems
    assert (path / "spans.jsonl").stat().st_size > 0
    return {key: values[key] for key in COUNTS}


@pytest.mark.parametrize("name, nonzero", [
    ("eval-dsm", ("metrics.edit_distance.calls", "metrics.alignment.cells", "convert.element_text.calls")),
    ("transform", ("readorder.fallback_sort.calls",)),
    ("losses", ("losses.linear_sum_assignment.calls",)),
])
def test_counts_repeat_for_a_seed(name, nonzero, tmp_path):
    first = _traced_counts(name, tmp_path / "first")
    assert first == _traced_counts(name, tmp_path / "second")
    assert all(first[key] > 0 for key in nonzero)


def test_gate_trips_on_one_changed_byte(tmp_path):
    tally = run.Tally()
    outputs = run.gate_outputs("eval-dsm", tally, tmp_path)
    run.check_gate("eval-dsm", outputs, tally)
    assert tally.failed == 0, tally.problems
    text = outputs["eval"]
    i = text.index("0.")
    outputs["eval"] = text[:i] + "1" + text[i + 1:]
    run.check_gate("eval-dsm", outputs, tally)
    assert tally.failed == 1


@pytest.mark.parametrize("text", ['{"dsm": NaN}', '{"dsm": 1.5, "corpus_size": 1, "per_document": [{}]}', "{"])
def test_eval_check_rejects_bad_output(text):
    with pytest.raises(run.CheckError):
        run._eval_check("dsm", 1)(text)


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and perfbench/, the benchmark exits non-zero
    and prints no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "eval-dsm", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
