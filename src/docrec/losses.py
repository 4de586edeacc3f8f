"""Set-prediction training losses as pure numeric functions.

Everything here operates on probability/score arrays so the loss formulas
can be verified at desk scale: an optimal bipartite assignment between
targets and predictions, a discrimination loss over class/coordinate
tokens, a teacher-forced transcription loss, and a cosine loss over whole
masked token sequences. No autodiff, no network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .metrics import iou
from .model import BoundingBox, Category

#: Floor applied to probabilities before taking logs.
LOG_EPS = 1e-9

#: Class-probability column order; the last column scores "no element here".
CLASS_ORDER = (Category.PARAGRAPH, Category.TABLE, Category.FORMULA, Category.FIGURE)
NO_OBJECT_INDEX = len(CLASS_ORDER)
NUM_CLASSES = len(CLASS_ORDER) + 1

_CLASS_INDEX = {cat: i for i, cat in enumerate(CLASS_ORDER)}


def class_index(category: Category) -> int:
    return _CLASS_INDEX[category]


def _check_prob_vector(vec: np.ndarray, where: str) -> None:
    if (vec < 0).any():
        raise ValueError(f"{where}: probabilities must be >= 0")
    sums = vec.sum(axis=-1)
    if not np.allclose(sums, 1.0, rtol=0, atol=1e-6):
        raise ValueError(f"{where}: probability vectors must sum to 1 within 1e-6")


@dataclass
class ElementPrediction:
    """Per-query outputs: class distribution, box, and per-step token distributions."""

    class_probs: np.ndarray  # (NUM_CLASSES,)
    box: BoundingBox
    token_probs: np.ndarray  # (L, V)

    def __post_init__(self) -> None:
        self.class_probs = np.asarray(self.class_probs, dtype=float)
        self.token_probs = np.asarray(self.token_probs, dtype=float)
        if self.class_probs.shape != (NUM_CLASSES,):
            raise ValueError(
                f"class_probs must have shape ({NUM_CLASSES},), got {self.class_probs.shape}"
            )
        if self.token_probs.ndim != 2:
            raise ValueError("token_probs must be a (steps, vocabulary) matrix")
        _check_prob_vector(self.class_probs, "class_probs")
        _check_prob_vector(self.token_probs, "token_probs")


@dataclass
class ElementTarget:
    """Ground-truth element as a padded, masked token row."""

    category: Category
    box: BoundingBox
    tokens: np.ndarray  # (L,) token ids, padded
    mask: np.ndarray  # (L,) 1 on real tokens, 0 on padding

    def __post_init__(self) -> None:
        self.tokens = np.asarray(self.tokens, dtype=int)
        self.mask = np.asarray(self.mask, dtype=int)
        if self.tokens.ndim != 1 or self.tokens.shape != self.mask.shape:
            raise ValueError("tokens and mask must be 1-d arrays of equal length")
        if not np.isin(self.mask, (0, 1)).all():
            raise ValueError("mask entries must be 0 or 1")
        if (self.tokens < 0).any():
            raise ValueError("token ids must be >= 0")


@dataclass(frozen=True)
class LossWeights:
    discrimination: float = 1.0
    transcription: float = 1.0
    sequence: float = 1.0

    def __post_init__(self) -> None:
        weights = (self.discrimination, self.transcription, self.sequence)
        if not all(math.isfinite(w) and w >= 0 for w in weights):
            raise ValueError(f"loss weights must be finite and >= 0, got {weights}")


def hungarian_assign(cost: Sequence[Sequence[float]] | np.ndarray) -> list[int]:
    """Minimum-total-cost injective assignment of rows (targets) to columns.

    Requires rows <= columns and finite entries. Among equally cheap
    assignments, the lexicographically smallest assignment vector wins.
    """
    matrix = np.asarray(cost, dtype=float)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError("cost must be a non-empty 2-d matrix")
    k, n = matrix.shape
    if k > n:
        raise ValueError(f"cost matrix has more rows ({k}) than columns ({n})")
    if not np.isfinite(matrix).all():
        raise ValueError("cost matrix entries must be finite")
    rows, cols = linear_sum_assignment(matrix)
    best = float(matrix[rows, cols].sum())
    tol = 1e-9 * max(1.0, abs(best))
    # Descend row by row with the earlier rows fixed: forbid this row its
    # current column and every larger free one, and take the re-solved
    # assignment while it stays within tol of the optimum. The row keeps the
    # smallest column any such assignment allows, so ties resolve to the
    # lexicographically smallest assignment vector.
    free = np.arange(n)
    fixed = 0.0
    for row in range(k):
        sub = matrix[row:, free]
        while (at := int(np.searchsorted(free, cols[row]))) > 0:
            sub[0, at:] = np.inf
            r, c = linear_sum_assignment(sub)
            if fixed + sub[r, c].sum() > best + tol:
                break
            cols[row:] = free[c]
        fixed += float(matrix[row, cols[row]])
        free = free[free != cols[row]]
    return [int(c) for c in cols]


def matching_cost(
    targets: Sequence[ElementTarget], preds: Sequence[ElementPrediction]
) -> np.ndarray:
    """Pairwise assignment cost: class negative log-likelihood plus box non-overlap."""
    out = np.zeros((len(targets), len(preds)))
    for k, target in enumerate(targets):
        ci = class_index(target.category)
        for n, pred in enumerate(preds):
            p = max(float(pred.class_probs[ci]), LOG_EPS)
            out[k, n] = -math.log(p) + (1.0 - iou(pred.box, target.box))
    return out


def _masked_token_nll(
    pred: ElementPrediction, target: ElementTarget, start: int, stop: int
) -> float:
    """Teacher-forced cross-entropy over token positions [start, stop)."""
    if pred.token_probs.shape[0] != len(target.tokens):
        raise ValueError(
            "prediction and target must use the same padded sequence length, got "
            f"{pred.token_probs.shape[0]} vs {len(target.tokens)}"
        )
    stop = min(stop, len(target.tokens))
    if stop <= start:
        return 0.0
    steps = np.arange(start, stop)
    ids = target.tokens[start:stop]
    mask = target.mask[start:stop]
    vocab = pred.token_probs.shape[1]
    if (ids[mask == 1] >= vocab).any():
        raise ValueError("target token id outside prediction vocabulary")
    probs = pred.token_probs[steps, np.clip(ids, 0, vocab - 1)]
    return float(np.sum(-np.log(np.maximum(probs, LOG_EPS)) * mask))


def _check_assignment(
    targets: Sequence[ElementTarget],
    preds: Sequence[ElementPrediction],
    assignment: Sequence[int],
) -> None:
    if len(assignment) != len(targets):
        raise ValueError("assignment must map every target")
    if len(set(assignment)) != len(assignment):
        raise ValueError("assignment must be injective")
    if assignment and (min(assignment) < 0 or max(assignment) >= len(preds)):
        raise ValueError("assignment index outside prediction range")


def element_discrimination_loss(
    targets: Sequence[ElementTarget],
    preds: Sequence[ElementPrediction],
    assignment: Sequence[int],
    literal_eq6: bool = False,
) -> float:
    """Matching loss over all predictions plus token loss on the leading
    class/coordinate positions of matched elements.

    Matched predictions pay class NLL and a box term; unmatched ones pay the
    NLL of the no-object class. The box term is (1 - IoU) so that better
    overlap lowers the loss; ``literal_eq6=True`` switches it to +IoU.
    """
    _check_assignment(targets, preds, assignment)
    total = 0.0
    matched = set(assignment)
    for k, target in enumerate(targets):
        pred = preds[assignment[k]]
        ci = class_index(target.category)
        total += -math.log(max(float(pred.class_probs[ci]), LOG_EPS))
        overlap = iou(pred.box, target.box)
        total += overlap if literal_eq6 else (1.0 - overlap)
        total += _masked_token_nll(pred, target, 0, 5)
    for n, pred in enumerate(preds):
        if n not in matched:
            total += -math.log(max(float(pred.class_probs[NO_OBJECT_INDEX]), LOG_EPS))
    return total


def element_transcription_loss(
    targets: Sequence[ElementTarget],
    preds: Sequence[ElementPrediction],
    assignment: Sequence[int],
) -> float:
    """Teacher-forced cross-entropy over the transcription positions (from the
    sixth token on) of matched elements."""
    _check_assignment(targets, preds, assignment)
    total = 0.0
    for k, target in enumerate(targets):
        pred = preds[assignment[k]]
        total += _masked_token_nll(pred, target, 5, len(target.tokens))
    return total


def sequence_reconstruction_loss(
    pred_tokens: np.ndarray, target_tokens: np.ndarray, mask: np.ndarray
) -> float:
    """One minus cosine similarity between masked, flattened token-id matrices.

    Token ids are treated as plain numbers. Two all-zero vectors score 0;
    exactly one all-zero vector scores 1.
    """
    pred_tokens = np.asarray(pred_tokens, dtype=float)
    target_tokens = np.asarray(target_tokens, dtype=float)
    mask = np.asarray(mask, dtype=float)
    if not (pred_tokens.shape == target_tokens.shape == mask.shape):
        raise ValueError("pred_tokens, target_tokens and mask must share a shape")
    a = (pred_tokens * mask).ravel()
    b = (target_tokens * mask).ravel()
    if np.array_equal(a, b):
        return 0.0  # exact zero for masked-identical sequences
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 1.0
    return 1.0 - float(np.dot(a, b)) / (na * nb)


def total_loss(
    discrimination: float,
    transcription: float,
    sequence: float,
    weights: LossWeights = LossWeights(),
) -> float:
    """Weighted sum of the three loss components."""
    return (
        weights.discrimination * discrimination
        + weights.transcription * transcription
        + weights.sequence * sequence
    )
