"""Axis-aligned box arithmetic: IOU, containment, box transfer, and NMS.

Coordinates are continuous reals in corner parameterization
``[x_min, y_min, x_max, y_max]``; area uses the closed-interval convention
``(x_max - x_min) * (y_max - y_min)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateBoxError


@dataclass(frozen=True)
class BBox:
    """Axis-aligned rectangle with strictly positive area."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        coords = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(math.isfinite(c) for c in coords):
            raise DegenerateBoxError(f"non-finite box {coords}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise DegenerateBoxError(f"empty or inverted box {coords}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))

    def as_list(self) -> list[float]:
        """The universal JSON shape: a 4-array [x_min, y_min, x_max, y_max]."""
        return [self.x_min, self.y_min, self.x_max, self.y_max]


def intersection_area(a: BBox, b: BBox) -> float:
    """Overlap area; 0.0 for disjoint or merely touching boxes."""
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    return iw * ih


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union in [0, 1]; symmetric, 0 when disjoint."""
    inter = intersection_area(a, b)
    if inter <= 0.0:
        return 0.0
    return inter / (a.area + b.area - inter)


def box_array(boxes: Sequence[BBox]) -> np.ndarray:
    """Boxes as an (N, 4) float64 array of corner rows."""
    return np.array([b.as_list() for b in boxes], dtype=np.float64).reshape(-1, 4)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IOU of every row of ``a`` (N, 4 corners) with every row of ``b`` (M, 4).

    Runs the operations of :func:`iou` elementwise and in the same order,
    so entry (i, j) equals ``iou(BBox(*a[i]), BBox(*b[j]))`` exactly: a pair
    that does not overlap, or whose overlap area underflows to 0, is 0.
    ``iou`` is symmetric bit for bit, so ``iou_matrix(b, a)`` is the
    transpose.  This is the one IOU kernel for arrays of boxes.
    """
    ax0, ay0, ax1, ay1 = a.T[:, :, None]
    bx0, by0, bx1, by1 = b.T
    iw = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
    ih = np.minimum(ay1, by1) - np.maximum(ay0, by0)
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return np.divide(inter, union, out=np.zeros(inter.shape), where=(iw > 0.0) & (inter > 0.0))


def iou_rows(coords: np.ndarray, box: BBox) -> np.ndarray:
    """IOU of every row of ``coords`` (N, 4 corners) with ``box``, equal to
    ``iou(BBox(*coords[i]), box)`` exactly: one column of :func:`iou_matrix`."""
    return iou_matrix(coords, box_array([box]))[:, 0]


def contains(outer: BBox, inner: BBox) -> bool:
    """True iff ``inner`` lies entirely within ``outer`` (closed inequality)."""
    return (
        outer.x_min <= inner.x_min
        and outer.y_min <= inner.y_min
        and inner.x_max <= outer.x_max
        and inner.y_max <= outer.y_max
    )


def transfer_box(r: BBox, v: BBox, t: BBox) -> BBox:
    """Coordinate-wise ``r' = r + (t - v)``.

    Transfers a tracked box ``t`` back to the query region ``r`` while
    preserving the translation and scale offset observed at the match ``v``.
    Raises :class:`DegenerateBoxError` when the result collapses.
    """
    return BBox(
        r.x_min + (t.x_min - v.x_min),
        r.y_min + (t.y_min - v.y_min),
        r.x_max + (t.x_max - v.x_max),
        r.y_max + (t.y_max - v.y_max),
    )


def clip_box(box: BBox, width: float, height: float) -> Optional[BBox]:
    """Clip to the image rectangle [0, width] x [0, height].

    Returns None when nothing with positive area remains.
    """
    x0 = min(max(box.x_min, 0.0), width)
    y0 = min(max(box.y_min, 0.0), height)
    x1 = min(max(box.x_max, 0.0), width)
    y1 = min(max(box.y_max, 0.0), height)
    if x0 >= x1 or y0 >= y1:
        return None
    return BBox(x0, y0, x1, y1)


def nms(coords: np.ndarray, scores: Sequence[float], iou_thresh: float) -> list[int]:
    """Greedy score-descending non-maximum suppression of the boxes whose
    corners are the rows of ``coords`` (N, 4).

    Returns indices of kept boxes in keep order.  A candidate is suppressed
    when its IOU with an already-kept box exceeds ``iou_thresh``.  Ties are
    broken deterministically by (score desc, coordinates lexicographic asc,
    input index asc) so the result never depends on input ordering.  A
    non-finite score raises ``ValueError``: NaN has no place in that order.
    """
    score = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(score).all():
        raise ValueError("nms scores must be finite")
    # lexsort is stable, so equal keys keep input index order
    order = np.lexsort((*coords.T[::-1], -score))
    # row j of a kept box j holds iou(box_j, box_i) == iou(box_i, box_j)
    overlaps = iou_matrix(coords, coords) > iou_thresh
    suppressed = np.zeros(len(coords), dtype=bool)
    kept: list[int] = []
    for i in order.tolist():
        if not suppressed[i]:
            kept.append(i)
            suppressed |= overlaps[i]
    return kept
