"""Detector training on pseudo ground truth.

Label assignment keeps the pseudo-GT box as the only positive exemplar and
turns proposals that barely overlap it (IOU in [0.1, 0.3]) into hard
negatives; box regression trains on the proposals with IOU >= 0.6.  The
classifier is a hinge-loss linear model trained on 32/96 positive/negative
minibatches, the latent update adopts detections to fill or refine
pseudo-GT boxes, and box regression is ridge on the usual center/log-size
targets.

Minibatches come from a counter-based stream (Salmon et al., SC 2011) with
SplitMix64's mixer (Steele, Lea and Flood, OOPSLA 2014) as its hash: draw k
of SGD step s is ``mix(mix(seed) + (s * 128 + k + 1) * GAMMA)`` modulo 2**64,
mapped into its pool of size p as ``((u >> 32) * p) >> 32`` (pools of at
most 2**32 rows; bias at most p / 2**32).  Draws 0-31 index the positive
pool and 32-127 the negative pool, i.i.d. with replacement in both, so a
step costs O(batch) whatever the pool sizes, and any step's draws can be
computed without the ones before it: :func:`minibatch_draws` makes them a
block of :data:`DRAW_BLOCK_STEPS` steps at a time, and the block size does
not change the stream.

Proposals are read as :class:`~boxforge.mining.ImageProposals` corner rows;
box regression makes a :class:`BBox` only for a proposal it pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import EmptyPoolError
from .geometry import BBox, iou, iou_rows
from .mining import ImageProposals
from .voting import PseudoGT

HARD_NEG_LOW = 0.1
HARD_NEG_HIGH = 0.3
REGRESSION_IOU = 0.6
LSVM_LEASH_IOU = 0.5
BATCH_POS = 32  # positives per SGD minibatch
BATCH_NEG = 96  # negatives per SGD minibatch
STEP_DRAWS = BATCH_POS + BATCH_NEG
DRAW_BLOCK_STEPS = 32  # steps per block of draws: 32 KiB of uint64
GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment, 2**64 / golden ratio


@dataclass(frozen=True)
class LinearModel:
    """One-vs-all linear scorer: score = w . f + b."""

    weights: np.ndarray
    bias: float

    def score(self, features: np.ndarray) -> np.ndarray:
        return np.asarray(features, dtype=np.float64) @ self.weights + self.bias


@dataclass(frozen=True)
class BoxRegressor:
    """Ridge regressors for the four box targets (t_x, t_y, t_w, t_h)."""

    weights: np.ndarray  # (4, D)
    biases: np.ndarray  # (4,)

    @classmethod
    def identity(cls, dim: int) -> "BoxRegressor":
        return cls(weights=np.zeros((4, dim)), biases=np.zeros(4))


def hard_negative_mask(coords: np.ndarray, pseudo_gt: BBox) -> np.ndarray:
    """Which proposal rows (N, 4 corners) fall in the 0.1-0.3 IOU hard-negative band."""
    overlap = iou_rows(coords, pseudo_gt)
    return (HARD_NEG_LOW <= overlap) & (overlap <= HARD_NEG_HIGH)


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's mixer on a uint64 array, elementwise, modulo 2**64."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def minibatch_draws(n_pos: int, n_neg: int, seed: int, steps: int) -> Iterator[np.ndarray]:
    """Pool positions of ``steps`` SGD minibatches, as blocks of at most
    :data:`DRAW_BLOCK_STEPS` rows of :data:`STEP_DRAWS` (the module
    docstring gives the draw rule).  Row s of the whole table is step s:
    its first :data:`BATCH_POS` entries index the positive pool of size
    ``n_pos`` and the rest the negative pool of size ``n_neg``.

    Whole uint64 arrays wrap modulo 2**64 silently, where numpy scalars
    would warn, so even the key is a one-element array.
    """
    key = mix64(np.array([seed], dtype=np.uint64))
    sizes = np.repeat(np.array([n_pos, n_neg], dtype=np.uint64), [BATCH_POS, BATCH_NEG])
    for start in range(0, steps, DRAW_BLOCK_STEPS):
        stop = min(start + DRAW_BLOCK_STEPS, steps)
        counters = np.arange(start * STEP_DRAWS + 1, stop * STEP_DRAWS + 1, dtype=np.uint64)
        u = mix64(key + counters.reshape(-1, STEP_DRAWS) * GAMMA)
        yield (((u >> 32) * sizes) >> 32).astype(np.intp)


def hinge_objective(
    weights: np.ndarray, bias: float, features: np.ndarray, labels: np.ndarray, weight_decay: float
) -> float:
    """L2-regularized mean hinge loss over a full dataset."""
    margins = labels * (features @ weights + bias)
    hinge = np.maximum(0.0, 1.0 - margins)
    return float(weight_decay * np.dot(weights, weights) + np.mean(hinge))


def train_linear(
    features: np.ndarray,
    labels: np.ndarray,
    steps: int,
    learning_rate: float,
    weight_decay: float,
    seed: int,
) -> LinearModel:
    """Minibatch subgradient descent on the regularized hinge objective.

    The four SGD settings are :class:`~boxforge.config.PipelineConfig`'s
    ``train_steps``, ``learning_rate``, ``weight_decay`` and ``seed``.
    Starts from the zero model and returns it unchanged when ``steps`` is 0.
    Every call draws the same minibatches for the same ``seed`` and pool
    sizes (:func:`minibatch_draws`).  The final model is guaranteed to score
    no worse (on the full training set objective) than the zero model.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    dim = X.shape[1]
    w = np.zeros(dim)
    b = 0.0
    if steps <= 0:
        return LinearModel(weights=w, bias=b)
    pos_idx = np.flatnonzero(y > 0)
    neg_idx = np.flatnonzero(y < 0)
    if not pos_idx.size or not neg_idx.size:
        raise EmptyPoolError("training needs at least one positive and one negative")
    pools = np.concatenate((pos_idx, neg_idx))
    pool_start = np.repeat([0, pos_idx.size], [BATCH_POS, BATCH_NEG])
    for block in minibatch_draws(pos_idx.size, neg_idx.size, seed, steps):
        for batch in pools[block + pool_start]:
            Xb, yb = X[batch], y[batch]
            margins = yb * (Xb @ w + b)
            viol = margins < 1.0
            m = len(batch)
            grad_w = 2.0 * weight_decay * w - (yb[viol] @ Xb[viol]) / m
            grad_b = -float(np.sum(yb[viol])) / m
            w = w - learning_rate * grad_w
            b = b - learning_rate * grad_b
    # 1.0 is the zero model's objective, exactly: on finite features every
    # margin is a signed zero, so every hinge is 1.0 and so is their mean;
    # a NaN objective, from SGD that overflowed, also gets the zero model
    if not hinge_objective(w, b, X, y, weight_decay) <= 1.0:
        return LinearModel(weights=np.zeros(dim), bias=0.0)
    return LinearModel(weights=w, bias=b)


def lsvm_update(
    detections: Iterable[tuple[str, BBox, float]],
    positives: Iterable[str],
    pseudo_gts: Mapping[str, PseudoGT],
) -> dict[str, PseudoGT]:
    """Latent update of the pseudo-GT set from the current detector's
    detections, ``(image id, box, score)`` rows as ``train`` writes them.

    Each positive image's rows are taken in NMS keep order, score descending
    and then corners ascending, whatever order they come in.  An image
    without a pseudo GT adopts its first detection; an image with one adopts
    its first detection having at least 0.5 IOU with it, keeping the
    original box when no detection qualifies.  A positive image with no
    detection row and no pseudo GT stays without one.  The result never has
    fewer pseudo GTs than the input.
    """
    by_image: dict[str, list[tuple[BBox, float]]] = {}
    for image_id, box, score in detections:
        by_image.setdefault(image_id, []).append((box, score))
    updated: dict[str, PseudoGT] = {}
    for image_id in sorted(positives):
        rows = sorted(by_image.get(image_id, ()), key=lambda row: (-row[1], row[0].as_list()))
        existing = pseudo_gts.get(image_id)
        if existing is None:
            if rows:
                box, score = rows[0]
                updated[image_id] = PseudoGT(image_id, box, vote=score, support=0, updated=True)
            continue
        box = next((b for b, _ in rows if iou(b, existing.box) >= LSVM_LEASH_IOU), existing.box)
        if box != existing.box:
            existing = replace(existing, box=box, updated=True)
        updated[image_id] = existing
    for image_id, gt in pseudo_gts.items():
        updated.setdefault(image_id, gt)
    return updated


def box_regression_targets(proposal: BBox, gt: BBox) -> np.ndarray:
    """Center/log-size regression targets from a proposal toward its GT."""
    px, py = proposal.center
    gx, gy = gt.center
    return np.array(
        [
            (gx - px) / proposal.width,
            (gy - py) / proposal.height,
            math.log(gt.width / proposal.width),
            math.log(gt.height / proposal.height),
        ]
    )


def apply_box_targets(proposal: BBox, targets: np.ndarray) -> BBox:
    """Inverse of :func:`box_regression_targets`."""
    tx, ty, tw, th = (float(t) for t in targets)
    px, py = proposal.center
    cx = px + tx * proposal.width
    cy = py + ty * proposal.height
    w = proposal.width * math.exp(tw)
    h = proposal.height * math.exp(th)
    return BBox(cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)


def regression_pairs(
    images: Mapping[str, ImageProposals], pseudo_gts: Mapping[str, PseudoGT]
) -> list[tuple[np.ndarray, BBox, BBox]]:
    """``(feature, proposal, pseudo GT)`` for every proposal with IOU >= 0.6
    against its image's pseudo GT, image by image in id order."""
    pairs = []
    for image_id in sorted(pseudo_gts):
        image = images.get(image_id)
        if image is None:
            continue
        gt = pseudo_gts[image_id]
        for i in np.flatnonzero(iou_rows(image.coords, gt.box) >= REGRESSION_IOU):
            pairs.append((image.features[i], image.box(i), gt.box))
    return pairs


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``Σ_k a[k] b[k]`` over the leading axis, in numpy's own loop, no BLAS."""
    return np.add.reduce(a * b, axis=0)


def fit_bbox_regressor(
    pairs: Sequence[tuple[np.ndarray, BBox, BBox]],
    l2: float,
) -> BoxRegressor:
    """Ridge regression of box targets on (feature, proposal, gt) pairs, at
    least one.

    Features and targets are centered so the intercept is exact and
    unregularized.  Every sum is a :func:`_dot`, the same on every BLAS
    kernel: row j of ``[A | B] = Xcᵀ [Xc | Tc] + [l2·I | 0]`` sums over the
    pairs in pair order; ``A = L Lᵀ`` is factored column by column with B
    forward-substituted alongside, then back-substituted.  At l2 = 0 a pivot
    at or below ``dim · eps · A[j, j]`` marks feature j as spanned by the
    earlier ones: its weights are 0 and later columns leave it out.  At
    l2 > 0 every pivot is at least l2 before rounding, and only one that
    rounding leaves at or below 0 is left out so.  Non-finite weights fall
    back to the identity regressor.
    """
    X = np.stack([np.asarray(f, dtype=np.float64).reshape(-1) for f, _, _ in pairs])
    T = np.stack([box_regression_targets(p, g) for _, p, g in pairs])
    dim = X.shape[1]
    XT = np.concatenate([X, T], axis=1)
    mean = XT.mean(axis=0)
    XT -= mean
    AB = np.stack([_dot(XT, XT[:, j : j + 1]) for j in range(dim)])
    AB[range(dim), range(dim)] += l2
    U = np.zeros_like(AB)  # [Lᵀ | L⁻¹B]; row j stays 0 for a dependent feature j
    for j in range(dim):
        col = AB[j, j:] - _dot(U[:j, j:], U[:j, j : j + 1])
        tol = dim * np.finfo(np.float64).eps * AB[j, j] if l2 == 0 else 0.0
        if not col[0] <= tol:  # NaN: on to the fallback
            U[j, j:] = col / math.sqrt(col[0])
    W = np.zeros((dim, 4))
    for j in reversed(range(dim)):
        if U[j, j]:
            W[j] = (U[j, dim:] - _dot(U[j, j + 1 : dim, None], W[j + 1 :])) / U[j, j]
    if not np.all(np.isfinite(W)):
        return BoxRegressor.identity(dim)
    biases = mean[dim:] - _dot(mean[:dim, None], W)
    return BoxRegressor(weights=W.T, biases=biases)


def apply_regressor(regressor: BoxRegressor, feature: np.ndarray, box: BBox) -> BBox:
    """Refine a box with the learned targets; exp keeps sizes positive."""
    f = np.asarray(feature, dtype=np.float64).reshape(-1)
    targets = _dot(regressor.weights.T, f[:, None]) + regressor.biases
    return apply_box_targets(box, targets)


def cross_validate_bandwidth(
    b_grid: Sequence[float],
    evaluate: Callable[[float], float],
) -> tuple[float, dict[float, float]]:
    """Evaluate each bandwidth and return (best, all scores); ties -> smaller b."""
    scores = {float(b): float(evaluate(float(b))) for b in b_grid}
    best = sorted(scores, key=lambda b: (-scores[b], b))[0]
    return best, scores
