"""Detector training on pseudo ground truth.

Label assignment keeps the pseudo-GT box as the only positive exemplar and
turns proposals that barely overlap it (IOU in [0.1, 0.3]) into hard
negatives; box regression trains on the proposals with IOU >= 0.6.  The
classifier is a hinge-loss linear model trained on 32/96 positive/negative
minibatches, the latent update re-scores proposals to fill or refine
pseudo-GT boxes, and box regression is ridge on the usual center/log-size
targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError, EmptyPoolError
from .geometry import BBox, iou_rows, nms
from .mining import POSITIVE, ImageProposals
from .voting import PseudoGT

HARD_NEG_LOW = 0.1
HARD_NEG_HIGH = 0.3
REGRESSION_IOU = 0.6
LSVM_LEASH_IOU = 0.5
BATCH_POS = 32  # positives per SGD minibatch
BATCH_NEG = 96  # negatives per SGD minibatch


@dataclass(frozen=True)
class LinearModel:
    """One-vs-all linear scorer: score = w . f + b."""

    weights: np.ndarray
    bias: float
    category_id: str = ""

    def score(self, features: np.ndarray) -> np.ndarray:
        f = np.asarray(features, dtype=np.float64)
        if f.shape[-1] != self.weights.shape[0]:
            raise DimensionMismatchError(
                f"feature dim {f.shape[-1]} != model dim {self.weights.shape[0]}"
            )
        return f @ self.weights + self.bias


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


def _draw(pool_size: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Positions of ``n`` draws from a pool: without replacement when it is
    large enough, so an exactly-sized pool comes back as a permutation of
    itself, and with replacement otherwise."""
    if pool_size >= n:
        return rng.permutation(pool_size)[:n]
    return rng.integers(0, pool_size, size=n)


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
    category_id: str = "",
) -> LinearModel:
    """Minibatch subgradient descent on the regularized hinge objective.

    The four SGD settings are :class:`~boxforge.config.PipelineConfig`'s
    ``train_steps``, ``learning_rate``, ``weight_decay`` and ``seed``.
    Starts from the zero model and returns it unchanged when ``steps`` is 0.
    The final model is guaranteed to score no worse (on the full training
    set objective) than the zero model.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DimensionMismatchError(
            f"features {X.shape} inconsistent with labels {y.shape}"
        )
    dim = X.shape[1]
    w = np.zeros(dim)
    b = 0.0
    if steps <= 0:
        return LinearModel(weights=w, bias=b, category_id=category_id)
    pos_idx = np.flatnonzero(y > 0)
    neg_idx = np.flatnonzero(y < 0)
    if not pos_idx.size or not neg_idx.size:
        raise EmptyPoolError("training needs at least one positive and one negative")
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        batch = np.concatenate((
            pos_idx[_draw(pos_idx.size, BATCH_POS, rng)],
            neg_idx[_draw(neg_idx.size, BATCH_NEG, rng)],
        ))
        Xb, yb = X[batch], y[batch]
        margins = yb * (Xb @ w + b)
        viol = margins < 1.0
        m = len(batch)
        grad_w = 2.0 * weight_decay * w - (yb[viol] @ Xb[viol]) / m
        grad_b = -float(np.sum(yb[viol])) / m
        w = w - learning_rate * grad_w
        b = b - learning_rate * grad_b
    if hinge_objective(w, b, X, y, weight_decay) > hinge_objective(
        np.zeros(dim), 0.0, X, y, weight_decay
    ):
        return LinearModel(weights=np.zeros(dim), bias=0.0, category_id=category_id)
    return LinearModel(weights=w, bias=b, category_id=category_id)


def lsvm_update(
    model: LinearModel,
    images: Mapping[str, ImageProposals],
    pseudo_gts: Mapping[str, PseudoGT],
    nms_iou: float = 0.3,
) -> dict[str, PseudoGT]:
    """Latent update of the pseudo-GT set with the current model.

    For each positive image the proposals are scored and non-max suppressed.
    An image without a pseudo GT adopts the highest-scoring detection; an
    image with one adopts the highest-scoring detection having at least 0.5
    IOU with it, keeping the original box when no detection qualifies.  The
    result never has fewer pseudo GTs than the input.
    """
    updated: dict[str, PseudoGT] = {}
    for image_id in sorted(images):
        image = images[image_id]
        if image.label != POSITIVE:
            continue
        existing = pseudo_gts.get(image_id)
        scores = model.score(image.features)
        keep = nms(image.boxes, scores.tolist(), nms_iou)
        if existing is None:
            top = keep[0]
            updated[image_id] = PseudoGT(
                image_id=image_id, box=image.boxes[top], vote=float(scores[top]),
                support=0, updated=True,
            )
            continue
        leashed = iou_rows(image.coords[keep], existing.box) >= LSVM_LEASH_IOU
        if not leashed.any():
            updated[image_id] = existing
            continue
        new_box = image.boxes[keep[int(np.argmax(leashed))]]
        if new_box == existing.box:
            updated[image_id] = existing
        else:
            updated[image_id] = replace(existing, box=new_box, updated=True)
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
            pairs.append((image.features[i], image.boxes[i], gt.box))
    return pairs


def fit_bbox_regressor(
    pairs: Sequence[tuple[np.ndarray, BBox, BBox]],
    l2: float = 1e-3,
) -> BoxRegressor:
    """Ridge regression of box targets on (feature, proposal, gt) pairs.

    Features and targets are centered so the intercept is exact and
    unregularized.  A rank-deficient system (possible only at l2 = 0) takes
    the minimum-norm least-squares solution; a system yielding non-finite
    weights falls back to the identity regressor.
    """
    if not pairs:
        raise EmptyPoolError("box regression needs at least one training pair")
    X = np.stack([np.asarray(f, dtype=np.float64).reshape(-1) for f, _, _ in pairs])
    T = np.stack([box_regression_targets(p, g) for _, p, g in pairs])
    x_mean = X.mean(axis=0)
    t_mean = T.mean(axis=0)
    Xc = X - x_mean
    Tc = T - t_mean
    dim = X.shape[1]
    try:
        W, _, _, _ = np.linalg.lstsq(Xc.T @ Xc + l2 * np.eye(dim), Xc.T @ Tc, rcond=None)
    except np.linalg.LinAlgError:
        return BoxRegressor.identity(dim)
    if not np.all(np.isfinite(W)):
        return BoxRegressor.identity(dim)
    biases = t_mean - x_mean @ W
    return BoxRegressor(weights=W.T, biases=biases)


def apply_regressor(regressor: BoxRegressor, feature: np.ndarray, box: BBox) -> BBox:
    """Refine a box with the learned targets; exp keeps sizes positive."""
    f = np.asarray(feature, dtype=np.float64).reshape(-1)
    if f.shape[0] != regressor.weights.shape[1]:
        raise DimensionMismatchError(
            f"feature dim {f.shape[0]} != regressor dim {regressor.weights.shape[1]}"
        )
    targets = regressor.weights @ f + regressor.biases
    return apply_box_targets(box, targets)


def cross_validate_bandwidth(
    b_grid: Sequence[float],
    evaluate: Callable[[float], float],
) -> tuple[float, dict[float, float]]:
    """Evaluate each bandwidth and return (best, all scores); ties -> smaller b."""
    if not b_grid:
        raise ValueError("bandwidth grid is empty")
    scores = {float(b): float(evaluate(float(b))) for b in b_grid}
    best = sorted(scores, key=lambda b: (-scores[b], b))[0]
    return best, scores
