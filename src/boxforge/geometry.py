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

    @classmethod
    def from_list(cls, coords: Sequence[float]) -> "BBox":
        if len(coords) != 4:
            raise DegenerateBoxError(f"expected 4 coordinates, got {len(coords)}")
        return cls(float(coords[0]), float(coords[1]), float(coords[2]), float(coords[3]))

    def sort_key(self) -> tuple[float, float, float, float]:
        """Lexicographic coordinate key used for deterministic tie-breaks."""
        return (self.x_min, self.y_min, self.x_max, self.y_max)


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


def iou_rows(coords: np.ndarray, box: BBox) -> np.ndarray:
    """IOU of every row of ``coords`` (N, 4 corners) with ``box``.

    Runs the operations of :func:`iou` elementwise and in the same order,
    so entry i equals ``iou(BBox(*coords[i]), box)`` exactly (an overlap
    whose area underflows to 0 divides to 0, as ``iou`` returns).
    """
    x0, y0, x1, y1 = coords.T
    iw = np.minimum(x1, box.x_max) - np.maximum(x0, box.x_min)
    ih = np.minimum(y1, box.y_max) - np.maximum(y0, box.y_min)
    inter = iw * ih
    hit = (iw > 0.0) & (ih > 0.0)
    out = np.zeros(len(coords))
    area = (x1[hit] - x0[hit]) * (y1[hit] - y0[hit])
    out[hit] = inter[hit] / (area + box.area - inter[hit])
    return out


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


def nms(boxes: Sequence[BBox], scores: Sequence[float], iou_thresh: float) -> list[int]:
    """Greedy score-descending non-maximum suppression.

    Returns indices of kept boxes in keep order.  A candidate is suppressed
    when its IOU with an already-kept box exceeds ``iou_thresh``.  Ties are
    broken deterministically by (score desc, coordinates lexicographic asc,
    input index asc) so the result never depends on input ordering.
    """
    if len(boxes) != len(scores):
        raise ValueError("boxes and scores must have equal length")
    if not 0.0 <= iou_thresh <= 1.0:
        raise ValueError(f"iou_thresh must be in [0, 1], got {iou_thresh}")
    order = sorted(
        range(len(boxes)),
        key=lambda i: (-scores[i], boxes[i].sort_key(), i),
    )
    kept: list[int] = []
    for i in order:
        if all(iou(boxes[i], boxes[j]) <= iou_thresh for j in kept):
            kept.append(i)
    return kept
