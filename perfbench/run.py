"""Seeded benchmark for docrec: every CLI path end to end, every layer traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval-dsm --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it generates a corpus from the seed, runs the workload's
``docrec`` commands (``lossjob.py`` for losses) in child processes, one at a
time, at ``--jobs 1`` and ``--jobs 2`` in turn for about ``--seconds``, and
prints the end-to-end metrics. With ``--trace 1`` it runs a fixed slice of
the same corpus in this process, once plainly and once with every layer's
public functions wrapped, and prints the per-layer metrics. Either way it
first runs a fixed gate corpus and compares the sha256 of each command's
stdout with ``reference.json``. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Inputs, results and spans
go to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"

#: Inputs of the output gate: fixed, so their digests can be committed.
GATE_SEED = 0
#: setup_s is the median of this many one-document CLI starts.
SETUP_REPEATS = 7


class CheckError(Exception):
    """A command's output is wrong: bad JSON, out-of-range score, wrong shape."""


def _no_constants(name: str):
    raise CheckError(f"non-finite number {name} in output")


def load_json(text: str):
    """json.loads that rejects NaN and Infinity, as allow_nan=False would."""
    try:
        return json.loads(text, parse_constant=_no_constants)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from exc


def json_lines(text: str, count: int) -> list:
    lines = text.splitlines()
    if len(lines) != count:
        raise CheckError(f"expected {count} output lines, got {len(lines)}")
    return [load_json(line) for line in lines]


# --- workloads ------------------------------------------------------------


@dataclass
class Step:
    """One command: ``program`` is "docrec" or "lossjob"; ``args(jobs)``
    gives its arguments; ``check`` raises CheckError on a wrong stdout."""

    name: str
    program: str
    args: Callable[[int], list[str]]
    check: Callable[[str], None]


@dataclass
class Batch:
    docs: int  # documents (loss batches for losses) one pass of the steps completes
    steps: list[Step]
    tokens: int = 0
    prelude: list[Callable[[], str]] = field(default_factory=list)  # traced in-process work


def check_one_valid(text: str) -> None:
    if load_json(text) != {"documents": 1, "valid": True}:
        raise CheckError(f"document did not validate: {text.strip()}")


def _eval_check(metric: str, docs: int) -> Callable[[str], None]:
    def check(text: str) -> None:
        report = load_json(text)
        if report.get("corpus_size") != docs:
            raise CheckError(f"corpus_size {report.get('corpus_size')} != {docs}")
        value = report.get(metric)
        if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
            raise CheckError(f"{metric} {value!r} outside [0, 1]")
        if len(report["per_document"]) != (docs if metric == "dsm" else 0):
            raise CheckError("per_document has the wrong length")

    return check


def eval_batches(metric: str, size: str, seed: int, batches: int, per_batch: int, work: Path) -> list[Batch]:
    import corpus

    gt, pred = corpus.make_eval_pairs(seed, size, batches * per_batch)
    out = []
    for b in range(batches):
        part = slice(b * per_batch, (b + 1) * per_batch)
        gt_path, pred_path = work / f"gt{b}.jsonl", work / f"pred{b}.jsonl"
        gt_path.write_text(corpus.docs_jsonl(gt[part]), encoding="utf-8")
        pred_path.write_text(corpus.docs_jsonl(pred[part]), encoding="utf-8")
        args = ["eval", "--gt", str(gt_path), "--pred", str(pred_path), "--metric", metric]
        step = Step("eval", "docrec", lambda j, a=args: a + ["--jobs", str(j)], _eval_check(metric, per_batch))
        out.append(Batch(per_batch, [step]))
    return out


def transform_batches(size: str, seed: int, batches: int, per_batch: int, work: Path) -> list[Batch]:
    import random

    import corpus

    docs = corpus.make_pages(seed, size, batches * per_batch)
    rng = random.Random(f"transform:{size}:{seed}")
    out = []
    for b in range(batches):
        part = docs[b * per_batch:(b + 1) * per_batch]
        n = len(part)
        paths = {name: work / f"{name}{b}.{ext}" for name, ext in
                 (("gt", "jsonl"), ("raw", "jsonl"), ("shuffled", "jsonl"), ("tokens", "txt"))}
        raw = [corpus.gtgen_input(rng, d) for d in part]
        paths["gt"].write_text(corpus.docs_jsonl(part), encoding="utf-8")
        paths["raw"].write_text(corpus.jsonl(raw), encoding="utf-8")
        paths["shuffled"].write_text(corpus.docs_jsonl([corpus.shuffled(rng, d) for d in part]), encoding="utf-8")
        text, tokens = corpus.token_text(part)
        paths["tokens"].write_text(text, encoding="utf-8")
        elements = [len(d.elements) for d in part]
        tables = [sum(1 for e in d.elements if e.category.value == "Table") for d in part]

        def check_docs(text: str, elements=elements) -> None:
            for obj, k in zip(json_lines(text, len(elements)), elements):
                if len(obj["elements"]) != k:
                    raise CheckError(f"{len(obj['elements'])} elements out, {k} in")

        def check_gtgen(text: str, elements=elements) -> None:
            check_docs(text, elements)
            if not all(obj["unassigned"] for obj in json_lines(text, len(elements))):
                raise CheckError("the stray OCR line, outside every element, was assigned")

        def check_lengths(expected: list[int]) -> Callable[[str], None]:
            def check(text: str) -> None:
                got = [len(v) for v in json_lines(text, len(expected))]
                if got != expected:
                    raise CheckError(f"output lengths {got} != {expected}")
            return check

        def check_strings(text: str, n=n) -> None:
            if not all(isinstance(v, str) and v for v in json_lines(text, n)):
                raise CheckError("markdown output is not a non-empty string")

        def with_jobs(*args: str) -> Callable[[int], list[str]]:
            return lambda j: [*args, "--jobs", str(j)]

        steps = [
            Step("gtgen", "docrec", with_jobs("gtgen", str(paths["raw"])), check_gtgen),
            Step("order", "docrec", with_jobs("order", str(paths["shuffled"])), check_docs),
            Step("convert-markdown", "docrec", with_jobs("convert", str(paths["gt"]), "--target", "markdown"), check_strings),
            Step("convert-layout", "docrec", with_jobs("convert", str(paths["gt"]), "--target", "layout"), check_lengths(elements)),
            Step("convert-tables", "docrec", with_jobs("convert", str(paths["gt"]), "--target", "tables"), check_lengths(tables)),
            # validate reads one token document and has no --jobs.
            Step("validate-tokens", "docrec",
                 lambda j, p=str(paths["tokens"]): ["validate", p, "--format", "tokens", "--page-width", "1000", "--page-height", "1000"],
                 check_one_valid),
        ]
        out.append(Batch(n, steps, tokens, prelude=[lambda part=part: corpus.token_text(part)[0]]))
    return out


def loss_batches(seed: int, batches: int, per_batch: int, work: Path) -> list[Batch]:
    import corpus
    import lossjob

    out = []
    for b in range(batches):
        path = work / f"losses{b}.npz"
        lossjob.save_batches(path, [corpus.make_loss_batch(seed, b * per_batch + i) for i in range(per_batch)])

        def check(text: str, n=per_batch) -> None:
            for result in json_lines(text, n):
                assignment = result["assignment"]
                if len(set(assignment)) != corpus.TARGETS or float(result["loss"]) < 0:
                    raise CheckError(f"bad loss result {result}")

        step = Step("losses", "lossjob", lambda j, p=str(path): [p, "--jobs", str(j)], check)
        out.append(Batch(per_batch, [step]))
    return out


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, int, Path], list[Batch]]  # (seed, batches, work) -> batches
    gate: Callable[[Path], list[Batch]]
    traced_batches: int  # how many batches the traced run covers


WORKLOADS = {
    "eval-dsm": Workload(
        lambda seed, n, work: eval_batches("dsm", "page", seed, n, 2, work),
        lambda work: eval_batches("dsm", "small", GATE_SEED, 1, 8, work),
        2,
    ),
    "eval-ned": Workload(
        lambda seed, n, work: eval_batches("ned", "large", seed, n, 2, work),
        lambda work: eval_batches("ned", "small", GATE_SEED, 1, 8, work),
        1,
    ),
    "transform": Workload(
        lambda seed, n, work: transform_batches("large", seed, n, 8, work),
        lambda work: transform_batches("small", GATE_SEED, 1, 4, work),
        1,
    ),
    "losses": Workload(
        lambda seed, n, work: loss_batches(seed, n, 8, work),
        lambda work: loss_batches(GATE_SEED, 1, 2, work),
        1,
    ),
}
#: Batches generated for a timed run; runs cycle through them.
TIMED_BATCHES = 6


# --- running commands -------------------------------------------------------


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "DOCREC_JOBS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def command(step: Step, jobs: int) -> list[str]:
    prefix = [sys.executable, "-m", "docrec"] if step.program == "docrec" else [sys.executable, str(HERE / "lossjob.py")]
    return prefix + step.args(jobs)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)
        print(f"FAIL {what}", file=sys.stderr)


def run_step(step: Step, jobs: int, tally: Tally, where: str) -> tuple[float, str | None]:
    """Run one command as a child; return its time and stdout, or None for
    the stdout when it failed. The time is the child's wall time, start-up
    included, except for lossjob, which reports the time of its batches."""
    tally.attempted += 1
    start = time.perf_counter()
    try:
        proc = subprocess.run(command(step, jobs), cwd=ROOT, env=child_env(), capture_output=True, timeout=150)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        tally.fail(f"{where}: no exit within 150 s")
        return time.perf_counter() - start, None
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        tally.fail(f"{where}: exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-500:]}")
        return wall, None
    text = proc.stdout.decode("utf-8")
    try:
        if step.program == "lossjob":
            wall = json.loads(proc.stderr.decode().splitlines()[-1])["batch_seconds"]
        step.check(text)
    except (CheckError, KeyError, TypeError, ValueError, IndexError) as exc:
        tally.fail(f"{where}: {exc!r}")
        return wall, None
    return wall, text


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def gate_outputs(name: str, tally: Tally, work: Path) -> dict[str, str | None]:
    """Stdout of each command of the workload on the fixed gate corpus."""
    gate_dir = work / "gate"
    gate_dir.mkdir(parents=True, exist_ok=True)
    (batch,) = WORKLOADS[name].gate(gate_dir)
    return {step.name: run_step(step, 1, tally, f"gate {step.name}")[1] for step in batch.steps}


def check_gate(name: str, outputs: dict[str, str | None], tally: Tally) -> None:
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[name]
    for step, text in outputs.items():
        if text is not None and sha256(text) != reference.get(step):
            tally.fail(f"gate {step}: stdout sha256 {sha256(text)} != reference {reference.get(step)}")


def measure_setup(work: Path, tally: Tally, samples: dict[str, list[float]]) -> float:
    """Median wall time of the CLI validating a one-document input."""
    import corpus

    path = work / "one.jsonl"
    path.write_text(corpus.docs_jsonl(corpus.make_pages(GATE_SEED, "small", 1)), encoding="utf-8")
    step = Step("setup", "docrec", lambda j: ["validate", str(path)], check_one_valid)
    run_step(step, 1, tally, "setup warm-up")
    samples["setup_s"] = [run_step(step, 1, tally, "setup")[0] for _ in range(SETUP_REPEATS)]
    return statistics.median(samples["setup_s"])


def timed_run(name: str, seed: int, seconds: float, work: Path, tally: Tally,
              samples: dict[str, list[float]]) -> dict[str, float]:
    """Cycle through the batches, each at --jobs 1 and 2 in alternating
    order, until ``seconds`` have passed; report the medians of the
    per-invocation rates, which go to ``samples``."""
    batches = WORKLOADS[name].build(seed, TIMED_BATCHES, work)
    rates = {1: samples.setdefault("docs_per_s", []), 2: samples.setdefault("docs_per_s_jobs2", [])}
    per_unit: dict[str, list[float]] = {}  # seconds per document (per token for validate), at --jobs 1
    digests: dict[tuple[int, str], str] = {}
    start = time.perf_counter()
    i = 0
    # Stop before an iteration that would, at the mean pace, end after ``seconds``.
    while i < 2 or (time.perf_counter() - start) * (i + 1) / i <= seconds:
        b = i % len(batches)
        batch = batches[b]
        for jobs in ((1, 2) if i % 2 == 0 else (2, 1)):
            total = 0.0
            for step in batch.steps:
                wall, text = run_step(step, jobs, tally, f"batch {b} {step.name} --jobs {jobs}")
                total += wall
                if jobs == 1:
                    unit = batch.tokens if step.name == "validate-tokens" else batch.docs
                    per_unit.setdefault(step.name, []).append(wall / unit)
                # Identical for every --jobs value and every repeat.
                if text is not None and digests.setdefault((b, step.name), sha256(text)) != sha256(text):
                    tally.fail(f"batch {b} {step.name} --jobs {jobs}: output differs from an earlier run")
            rates[jobs].append(batch.docs / total)
        i += 1
    metrics = {
        "docs_per_s": statistics.median(rates[1]),
        "docs_per_s_jobs2": statistics.median(rates[2]),
    }
    if name == "transform":
        metrics["gtgen_docs_per_s"] = 1 / statistics.median(per_unit["gtgen"])
        metrics["order_docs_per_s"] = 1 / statistics.median(per_unit["order"])
        # A document is converted once all three targets are done with it.
        convert = zip(*(per_unit[k] for k in per_unit if k.startswith("convert-")))
        metrics["convert_docs_per_s"] = 1 / statistics.median(map(sum, convert))
        metrics["tokens_per_s"] = 1 / statistics.median(per_unit["validate-tokens"])
    if name == "losses":
        metrics["batches_per_s"] = metrics["docs_per_s"]
    return metrics


def traced_run(batches: list[Batch], tally: Tally, spans_path: Path) -> dict[str, float]:
    """Run ``batches`` in this process at --jobs 1, plainly and then traced;
    return the per-layer metrics."""
    import lossjob
    import spans
    from docrec import cli

    mains = {"docrec": cli.main, "lossjob": lossjob.main}
    roots = {"docrec": "cli", "lossjob": "lossjob"}

    def one_pass(call: Callable) -> tuple[float, list[str]]:
        outputs = []
        start = time.perf_counter()
        for b, batch in enumerate(batches):
            for prelude in batch.prelude:
                outputs.append(call("corpus.token_text", prelude, ()))
            for step in batch.steps:
                tally.attempted += 1
                buf = io.StringIO()
                try:
                    with contextlib.redirect_stdout(buf):
                        code = call(roots[step.program], mains[step.program], (step.args(1),))
                    if code != 0:
                        raise CheckError(f"exit {code}")
                    step.check(buf.getvalue())
                except Exception:  # a crash in the program is a failed operation, not the end of the run
                    tally.fail(f"traced batch {b} {step.name}: {traceback.format_exc(limit=-3)}")
                outputs.append(buf.getvalue())
        return time.perf_counter() - start, outputs

    plain_s, plain = one_pass(lambda span, fn, args: fn(*args))
    tracer = spans.Tracer()
    with tracer.installed():
        traced_s, traced = one_pass(tracer.call)
    if plain != traced:
        tally.fail("traced outputs differ from untraced outputs")
    tracer.write(spans_path)
    return spans.layer_metrics(tracer.totals(), traced_s / plain_s)


# --- output -----------------------------------------------------------------


def machine() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30).stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "docrec").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
    }


#: Units of the workload-specific figures printed beside the declared ones.
EXTRA_UNITS = {
    "gtgen_docs_per_s": "docs/s",
    "order_docs_per_s": "docs/s",
    "convert_docs_per_s": "docs/s",
    "tokens_per_s": "tokens/s",
    "batches_per_s": "batches/s",
    "error_rate": "ratio",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="docrec benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference.json from the gate outputs of the current source")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "docrec" / "__init__.py").is_file():
        print(f"error: no docrec source under {ROOT / 'src'}; run from a docrec checkout", file=sys.stderr)
        return 2
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    sys.path.insert(0, str(HERE))
    import corpus  # noqa: F401  (adds src/ and tests/ to sys.path)
    import docrec

    if Path(docrec.__file__).resolve().parent != ROOT / "src" / "docrec":
        print(f"error: imported docrec from {docrec.__file__}, not from this checkout", file=sys.stderr)
        return 2

    if args.write_reference:
        tally = Tally()
        work = WORK / "reference"
        reference = {
            name: {step: text and sha256(text) for step, text in gate_outputs(name, tally, work / name).items()}
            for name in WORKLOADS
        }
        shutil.rmtree(work, ignore_errors=True)
        if tally.failed:
            return 1
        REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return 0

    name = args.workload
    tag = f"{name}-seed{args.seed}-trace{args.trace}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    samples: dict[str, list[float]] = {}
    try:
        check_gate(name, gate_outputs(name, tally, work), tally)
        if args.trace:
            batches = WORKLOADS[name].build(args.seed, WORKLOADS[name].traced_batches, work)
            values = traced_run(batches, tally, WORK / f"spans-{tag}.jsonl")
        else:
            setup = measure_setup(work, tally, samples)
            values = timed_run(name, args.seed, args.seconds, work, tally, samples)
            values["setup_s"] = setup
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    info = {"machine": machine(), "workload": name, "why": why, "seed": args.seed}
    extra = {k: v for k, v in values.items() if k not in units}
    extra["error_rate"] = tally.failed / max(tally.attempted, 1)
    for key, value in metrics.items():
        print(f"{key:48s} {value['value']:14.6g} {value['unit']}")
    for key, value in extra.items():
        print(f"{key:48s} {value:14.6g} {EXTRA_UNITS.get(key, '')}")
    print("info " + json.dumps(info))
    result = {"correct": tally.failed == 0, "attempted": max(tally.attempted, 1), "failed": tally.failed, "metrics": metrics}
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"result-{tag}.json").write_text(json.dumps({**info, "extra": extra, "samples": samples, **result}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
