"""Set-prediction training losses as pure numeric functions.

Everything here operates on probability/score arrays so the loss formulas
can be verified at desk scale: an optimal bipartite assignment between
targets and predictions, a discrimination loss over class/coordinate
tokens, a teacher-forced transcription loss, and a cosine loss over whole
masked token sequences. No autodiff, no network. This is the one module that
needs numpy and scipy, the ``losses`` extra (``pip install docrec[losses]``).
"""

from __future__ import annotations

import math
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
    if not (np.abs(sums - 1.0) <= 1e-6).all():
        raise ValueError(f"{where}: probability vectors must sum to 1 within 1e-6")


# Plain mutable classes with identity equality: an __eq__ over the fields would
# compare numpy arrays, and their truth value is ambiguous.
class ElementPrediction:
    """Per-query outputs: class distribution, box, and per-step token distributions."""

    def __init__(self, class_probs: np.ndarray, box: BoundingBox, token_probs: np.ndarray) -> None:
        self.class_probs = np.asarray(class_probs, dtype=float)  # (NUM_CLASSES,)
        self.box = box
        self.token_probs = np.asarray(token_probs, dtype=float)  # (L, V)
        if self.class_probs.shape != (NUM_CLASSES,):
            raise ValueError(
                f"class_probs must have shape ({NUM_CLASSES},), got {self.class_probs.shape}"
            )
        if self.token_probs.ndim != 2:
            raise ValueError("token_probs must be a (steps, vocabulary) matrix")
        _check_prob_vector(self.class_probs, "class_probs")
        _check_prob_vector(self.token_probs, "token_probs")


class ElementTarget:
    """Ground-truth element as a padded, masked token row."""

    def __init__(self, category: Category, box: BoundingBox, tokens: np.ndarray, mask: np.ndarray) -> None:
        self.category = category
        self.box = box
        # Both checks run before the int cast, which would truncate 1.7 to 1.
        tokens = np.asarray(tokens)  # (L,) token ids, padded
        mask = np.asarray(mask)  # (L,) 1 on real tokens, 0 on padding
        if tokens.ndim != 1 or tokens.shape != mask.shape:
            raise ValueError("tokens and mask must be 1-d arrays of equal length")
        if not ((mask == 0) | (mask == 1)).all():
            raise ValueError("mask entries must be 0 or 1")
        if tokens.dtype.kind not in "biu":
            as_float = tokens.astype(float)
            if not (np.isfinite(as_float) & (as_float == np.trunc(as_float))).all():
                raise ValueError("token ids must be finite integers")
        self.tokens = np.asarray(tokens, dtype=int)
        self.mask = np.asarray(mask, dtype=int)
        if (self.tokens < 0).any():
            raise ValueError("token ids must be >= 0")


def _candidate_cells(matrix: np.ndarray, cols: np.ndarray, tol: float) -> np.ndarray:
    """Cells that an assignment within ``tol`` of the optimum may use: every
    cell but those a reduced-cost certificate rules out.

    ``cols`` is an optimal assignment. Dual potentials ``u`` (rows) and
    ``v <= 0`` (columns) come from it by Bellman-Ford: ``u`` prices each row
    at its own cell, ``v`` lowers a column to its cheapest entry net of
    ``u``. Once they settle, every reduced cost ``c - u - v`` is >= 0 and 0
    on the optimum, so any assignment exceeds the optimal total by at least
    the sum of its reduced costs. An assignment that gives row ``i`` the
    column ``j`` of another row ``h`` must move ``h`` too, so it exceeds by
    at least ``r[i, j]`` plus ``h``'s smallest reduced cost off its own
    cell. A cell is ruled out when that bound exceeds ``tol`` plus a margin
    for rounding. Duals that do not settle within ``k + 1`` rounds (float
    near-ties) or are not finite rule out nothing.
    """
    k, n = matrix.shape
    rows = np.arange(k)
    v = np.zeros(n)
    for _ in range(k + 1):
        u = matrix[rows, cols] - v[cols]
        settled = np.minimum(0.0, (matrix - u[:, None]).min(axis=0))
        if np.array_equal(settled, v):
            break
        v = settled
    else:
        return np.ones((k, n), dtype=bool)
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        return np.ones((k, n), dtype=bool)
    reduced = (matrix - u[:, None]) - v
    own = reduced[rows, cols]
    reduced[rows, cols] = np.inf
    displaced = np.zeros(n)
    displaced[cols] = reduced.min(axis=1)
    bound = reduced + displaced
    bound[rows, cols] = own
    # The margin covers the rounding of the duals, of the bound and of any
    # row-by-row total; a negative v on a column the optimum leaves unused
    # would let another assignment gain up to -v there.
    scale = np.abs(matrix).max() + np.abs(u).max() + np.abs(v).max()
    margin = 4.0 * (k + 1) ** 2 * np.finfo(float).eps * scale
    unused = np.ones(n, dtype=bool)
    unused[cols] = False
    # Only a bound that compares greater rules a cell out, never a NaN.
    return ~(bound > tol + margin - v[unused].sum())


def hungarian_assign(cost: Sequence[Sequence[float]] | np.ndarray) -> list[int]:
    """Minimum-total-cost injective assignment of rows (targets) to columns.

    Requires rows <= columns, finite entries and a finite optimal total.
    Among equally cheap assignments, the lexicographically smallest
    assignment vector wins.

    "Equally cheap" means within ``1e-9 * max(1, |optimum|)`` of the
    optimum. One solver call finds an optimum; then each row in turn, with
    the earlier rows fixed, moves down to the smallest column that some
    assignment that cheap gives it. Its candidates are the free columns
    below its current one that the reduced-cost certificate of
    ``_candidate_cells`` does not rule out. A swap witness tries them in
    ascending order: the row takes the candidate and the later row holding
    it, if any, takes the row's old column; the first witness that cheap
    moves the row. Only when none is does the descent step re-run the
    solver with the current column and every larger free one forbidden to
    the row: a re-solved assignment that cheap moves the row, and any other
    ends it. A row ends too when no candidate is left.
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
    # Sums of huge entries may overflow: an overflowed or NaN total never
    # counts as cheap enough, and duals that overflow rule out nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        best = float(matrix[rows, cols].sum())
        if not math.isfinite(best):
            raise ValueError("cost matrix's optimal total is not finite")
        tol = 1e-9 * max(1.0, abs(best))
        limit = best + tol
        allowed = _candidate_cells(matrix, cols, tol)
        taken = np.zeros(n, dtype=bool)
        fixed = 0.0
        for row in range(k):
            usable = allowed[row] & ~taken
            sub = None
            while (candidates := np.flatnonzero(usable[: cols[row]])).size:
                # Row t of ``trials`` is candidate t's swap witness for rows
                # row.. on; the first witness cheap enough wins.
                current = cols[row:]
                trials = np.tile(current, (candidates.size, 1))
                trial, holder = np.nonzero(current == candidates[:, None])
                trials[trial, holder] = current[0]
                trials[:, 0] = candidates
                fits = fixed + matrix[rows[row:], trials].sum(axis=1) <= limit
                if fits.any():
                    cols[row:] = trials[fits.argmax()]
                    continue
                if sub is None:
                    free = np.flatnonzero(~taken)
                    sub = matrix[row:, free]
                sub[0, np.searchsorted(free, cols[row]) :] = np.inf
                r, c = linear_sum_assignment(sub)
                if not fixed + sub[r, c].sum() <= limit:
                    break
                cols[row:] = free[c]
            fixed += float(matrix[row, cols[row]])
            taken[cols[row]] = True
    return [int(c) for c in cols]


_NAN_BOX = (math.nan,) * 4


def _box_array(boxes: Sequence[BoundingBox]) -> np.ndarray:
    """(m, 4) array of x_min, y_min, x_max, y_max. A box with a coordinate
    that is not a finite Python float (an int computes exactly in ``iou``, a
    float32 rounds to float32, and ``iou`` names a NaN or infinity) enters as
    NaN, so its cells take the per-pair path."""
    return np.array(
        [
            coords if all(type(v) is float and math.isfinite(v) for v in coords) else _NAN_BOX
            for coords in ((b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes)
        ],
        dtype=float,
    )


def matching_cost(
    targets: Sequence[ElementTarget], preds: Sequence[ElementPrediction]
) -> np.ndarray:
    """Pairwise assignment cost: class negative log-likelihood plus box non-overlap.

    One (targets, preds) array computation, bit-identical to
    ``-log(max(p, LOG_EPS)) + (1 - iou(pred.box, target.box))`` per pair: the
    IoU takes ``iou``'s operations in ``iou``'s order (a zero union gives 1.0
    where the four coordinates are equal), and every cell whose union is not
    finite (an overflowed area, or a box ``_box_array`` enters as NaN) is
    computed by ``iou`` itself, which measures such boxes exactly and raises
    ValueError on a NaN or infinite coordinate.
    """
    k, n = len(targets), len(preds)
    if k == 0 or n == 0:
        return np.zeros((k, n))
    # Targets run down the rows, predictions along the columns.
    tx0, ty0, tx1, ty1 = _box_array([target.box for target in targets]).T[:, :, None]
    px0, py0, px1, py1 = _box_array([pred.box for pred in preds]).T
    # ``_box_array`` passes only finite floats, so numpy's min/max and ``&``
    # agree with Python's; an area that overflows makes the union inf or NaN,
    # and the cell goes to ``iou`` below.
    with np.errstate(all="ignore"):
        w = np.minimum(px1, tx1) - np.maximum(px0, tx0)
        h = np.minimum(py1, ty1) - np.maximum(py0, ty0)
        inter = np.where((w > 0) & (h > 0), w * h, 0.0)
        pred_area = np.maximum(px1 - px0, 0.0) * np.maximum(py1 - py0, 0.0)
        target_area = np.maximum(tx1 - tx0, 0.0) * np.maximum(ty1 - ty0, 0.0)
        union = pred_area + target_area - inter
        same = (px0 == tx0) & (py0 == ty0) & (px1 == tx1) & (py1 == ty1)
        overlap = np.divide(inter, union, out=same.astype(float), where=union > 0)
    for r, c in zip(*np.nonzero(~np.isfinite(union))):
        overlap[r, c] = iou(preds[c].box, targets[r].box)
    # math.log, not np.log: the two may differ in the last bit.
    probs = np.maximum([pred.class_probs for pred in preds], LOG_EPS)
    nll = -np.array(list(map(math.log, probs.ravel().tolist()))).reshape(probs.shape).T
    rows = [class_index(target.category) for target in targets]
    return nll[rows] + (1.0 - overlap)


def _masked_token_nll(
    pred: ElementPrediction, target: ElementTarget, start: int, stop: int
) -> float:
    """Teacher-forced cross-entropy over token positions [start, stop)."""
    if pred.token_probs.shape[0] != len(target.tokens):
        raise ValueError(
            "prediction and target must use the same padded sequence length, got "
            f"{pred.token_probs.shape[0]} vs {len(target.tokens)}"
        )
    # An empty span, as for a target of at most five tokens, sums to 0.0.
    stop = min(stop, len(target.tokens))
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
) -> float:
    """Matching loss over all predictions plus token loss on the leading
    class/coordinate positions of matched elements.

    Matched predictions pay class NLL and a box term; unmatched ones pay the
    NLL of the no-object class. The paper's Eq. 6 writes the box term as
    +IoU; it is 1 - IoU here so that better overlap lowers the loss.
    """
    _check_assignment(targets, preds, assignment)
    total = 0.0
    matched = set(assignment)
    for k, target in enumerate(targets):
        pred = preds[assignment[k]]
        ci = class_index(target.category)
        total += -math.log(max(float(pred.class_probs[ci]), LOG_EPS))
        total += 1.0 - iou(pred.box, target.box)
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


def _unit_scaled(vec: np.ndarray) -> np.ndarray:
    """``vec`` times the power of two that puts its largest magnitude in
    [0.5, 1); a zero vector stays zero."""
    return np.ldexp(vec, -math.frexp(float(np.abs(vec).max()))[1])


def sequence_reconstruction_loss(
    pred_tokens: np.ndarray, target_tokens: np.ndarray, mask: np.ndarray
) -> float:
    """One minus cosine similarity between masked, flattened token-id matrices.

    Token ids are treated as plain numbers and must be finite; mask entries
    must be 0 or 1. Two all-zero vectors score 0; exactly one all-zero vector
    scores 1. The result lies in [0, 2].
    """
    pred_tokens = np.asarray(pred_tokens, dtype=float)
    target_tokens = np.asarray(target_tokens, dtype=float)
    mask = np.asarray(mask, dtype=float)
    if not (pred_tokens.shape == target_tokens.shape == mask.shape):
        raise ValueError("pred_tokens, target_tokens and mask must share a shape")
    if not (np.isfinite(pred_tokens).all() and np.isfinite(target_tokens).all()):
        raise ValueError("pred_tokens and target_tokens must be finite")
    if not ((mask == 0) | (mask == 1)).all():
        raise ValueError("mask entries must be 0 or 1")
    a = (pred_tokens * mask).ravel()
    b = (target_tokens * mask).ravel()
    if np.array_equal(a, b):
        return 0.0  # exact zero for masked-identical sequences
    # Cosine does not change when a vector is scaled, and a power of two
    # scales exactly. With the largest entry in [0.5, 1), neither norm nor
    # the dot product can overflow, and a non-zero vector keeps a non-zero norm.
    a, b = _unit_scaled(a), _unit_scaled(b)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 1.0
    # Rounding can carry the cosine a few ulps past +-1.
    return min(max(1.0 - float(np.dot(a, b)) / (na * nb), 0.0), 2.0)


def total_loss(discrimination: float, transcription: float, sequence: float) -> float:
    """Sum of the three loss components."""
    return discrimination + transcription + sequence
