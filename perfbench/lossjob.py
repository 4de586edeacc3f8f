"""Set-prediction losses on seeded batches, as one process.

No docrec command reaches ``docrec.losses``, so the benchmark runs this file
as its child process: ``python3 perfbench/lossjob.py BATCHES.npz --jobs N``.
It prints one JSON line per batch (the assignment and the total loss, in
input order) and nothing else. With ``--jobs 2`` batches are mapped over a
two-thread pool, the way ``docrec --jobs`` maps documents. A caller of the
library imports it once and then computes batch after batch, so the time
that counts is that of the batches alone: the last line on stderr is
``{"batch_seconds": ...}``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from docrec import losses  # noqa: E402
from docrec.model import BoundingBox  # noqa: E402


def save_batches(path, batches: list[dict[str, np.ndarray]]) -> None:
    np.savez(path, **{f"{i}/{key}": value for i, batch in enumerate(batches) for key, value in batch.items()})


def load_batches(path) -> list[dict[str, np.ndarray]]:
    with np.load(path) as data:
        out: dict[int, dict[str, np.ndarray]] = {}
        for name in data.files:
            index, key = name.split("/")
            out.setdefault(int(index), {})[key] = data[name]
    return [out[i] for i in range(len(out))]


def run_batch(batch: dict[str, np.ndarray]) -> tuple[list[int], float]:
    """Match targets to predictions, then sum the three loss terms."""
    preds = [
        losses.ElementPrediction(cp, BoundingBox(*map(float, box)), tp)
        for cp, box, tp in zip(batch["class_probs"], batch["pred_boxes"], batch["token_probs"])
    ]
    targets = [
        losses.ElementTarget(losses.CLASS_ORDER[c], BoundingBox(*map(float, box)), tokens, mask)
        for c, box, tokens, mask in zip(
            batch["target_classes"], batch["target_boxes"], batch["target_tokens"], batch["target_mask"]
        )
    ]
    assignment = losses.hungarian_assign(losses.matching_cost(targets, preds))
    discrimination = losses.element_discrimination_loss(targets, preds, assignment)
    transcription = losses.element_transcription_loss(targets, preds, assignment)
    predicted_tokens = batch["token_probs"][assignment].argmax(axis=2)
    sequence = losses.sequence_reconstruction_loss(
        predicted_tokens, batch["target_tokens"], batch["target_mask"]
    )
    return assignment, losses.total_loss(discrimination, transcription, sequence)


def format_result(result: tuple[list[int], float]) -> str:
    assignment, loss = result
    return json.dumps({"assignment": assignment, "loss": f"{loss:.9g}"})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("batches", help=".npz file written by save_batches")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    batches = load_batches(args.batches)
    start = time.perf_counter()
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run_batch, batches))
    else:
        results = [run_batch(b) for b in batches]
    elapsed = time.perf_counter() - start
    for result in results:
        print(format_result(result))
    print(json.dumps({"batch_seconds": elapsed}), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
