"""4-D Hough voting over transferred boxes with mean-shift mode finding.

Every transferred box casts a unit vote at its corner coordinates
``[x_min, y_min, x_max, y_max]``; the vote field at a location l is
``sum_i K((l - p_i) / b)``.  Kernels are normalized so K(0) = 1: a location
coinciding with m identical boxes scores exactly m, which makes the vote
threshold read as an effective supporter count.  The argmax location is
unaffected by this rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigInvalidError, DegenerateBoxError, IoFailureError, NoPointsError
from .geometry import BBox, clip_box

GAUSSIAN = "gaussian"
EPANECHNIKOV = "epanechnikov"
KERNELS = (GAUSSIAN, EPANECHNIKOV)


@dataclass(frozen=True)
class VoteSpace:
    """An immutable 4-D point cloud with its kernel bandwidth (pixels)."""

    points: np.ndarray
    bandwidth: float
    kernel: str = GAUSSIAN

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or (pts.size and pts.shape[1] != 4):
            raise ConfigInvalidError(f"points must be (N, 4), got {pts.shape}")
        if pts.size and not np.all(np.isfinite(pts)):
            raise ConfigInvalidError("vote points must be finite")
        if self.bandwidth <= 0:
            raise ConfigInvalidError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.kernel not in KERNELS:
            raise ConfigInvalidError(f"unknown kernel {self.kernel!r}, expected one of {KERNELS}")
        object.__setattr__(self, "points", pts.reshape(-1, 4))

    @classmethod
    def from_boxes(cls, boxes: Sequence[BBox], bandwidth: float, kernel: str = GAUSSIAN) -> "VoteSpace":
        pts = np.array([b.as_list() for b in boxes], dtype=np.float64).reshape(-1, 4)
        return cls(points=pts, bandwidth=bandwidth, kernel=kernel)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class PseudoGT:
    """A discovered box with its vote mass and provenance."""

    image_id: str
    box: BBox
    vote: float
    support: int
    updated: bool = False


def _kernel_values(kernel: str, sq_dist: np.ndarray) -> np.ndarray:
    if kernel == GAUSSIAN:
        return np.exp(-0.5 * sq_dist)
    return np.maximum(0.0, 1.0 - sq_dist)


def vote_value(l: np.ndarray, space: VoteSpace) -> float:
    """Kernel-weighted vote sum at location ``l`` (a 4-vector)."""
    l = np.asarray(l, dtype=np.float64).reshape(4)
    if space.n_points == 0:
        return 0.0
    diff = (space.points - l) / space.bandwidth
    sq = np.sum(diff * diff, axis=1)
    return float(np.sum(_kernel_values(space.kernel, sq)))


def _ascend(seed: np.ndarray, space: VoteSpace, tol: float, max_iter: int) -> np.ndarray:
    """Mean-shift ascent from one seed to a local mode of the vote field."""
    pts = space.points
    b = space.bandwidth
    m = seed.astype(np.float64).copy()
    for _ in range(max_iter):
        diff = (pts - m) / b
        sq = np.sum(diff * diff, axis=1)
        if space.kernel == GAUSSIAN:
            w = np.exp(-0.5 * sq)
        else:
            # The Epanechnikov profile's shadow is the flat kernel: the mean
            # of the points within one bandwidth.
            w = (sq < 1.0).astype(np.float64)
        total = float(np.sum(w))
        if total <= 0.0:
            break
        new = (w @ pts) / total
        step = float(np.linalg.norm(new - m))
        m = new
        if step < tol:
            break
    return m


def mean_shift_modes(
    space: VoteSpace,
    tol: Optional[float] = None,
    max_iter: int = 200,
) -> list[tuple[np.ndarray, float]]:
    """Modes of the vote field, highest vote first.

    Ascent is seeded at every point; converged locations within 0.5*b of an
    already-kept mode merge into it (the kept one has the higher vote).
    Raises :class:`NoPointsError` on an empty space.
    """
    if space.n_points == 0:
        raise NoPointsError("mean shift requires at least one vote point")
    if tol is None:
        tol = 1e-3 * space.bandwidth
    converged = [_ascend(space.points[i], space, tol, max_iter) for i in range(space.n_points)]
    scored = [(m, vote_value(m, space)) for m in converged]
    scored.sort(key=lambda mv: (-mv[1], tuple(mv[0])))
    merge_radius = 0.5 * space.bandwidth
    modes: list[tuple[np.ndarray, float]] = []
    for m, v in scored:
        if all(float(np.linalg.norm(m - km)) > merge_radius for km, _ in modes):
            modes.append((m, v))
    return modes


def select_pseudo_gt(
    space: VoteSpace,
    theta: float = 20.0,
    image_bounds: tuple[float, float] = (float("inf"), float("inf")),
    image_id: str = "",
) -> Optional[PseudoGT]:
    """The highest-vote mode as a pseudo-GT box, or None.

    Absent when the space is empty, the best vote falls below ``theta``, or
    the mode clips to nothing inside the image.  ``support`` counts the
    points within one bandwidth of the mode.
    """
    if space.n_points == 0:
        return None
    mode, vote = mean_shift_modes(space)[0]
    if vote < theta:
        return None
    try:
        raw = BBox(*[float(c) for c in mode])
    except DegenerateBoxError:
        return None
    box = clip_box(raw, image_bounds[0], image_bounds[1])
    if box is None:
        return None
    dist = np.linalg.norm(space.points - mode, axis=1)
    support = int(np.sum(dist <= space.bandwidth))
    return PseudoGT(image_id=image_id, box=box, vote=vote, support=support, updated=False)


def export_heatmap(
    points: np.ndarray | Sequence[BBox],
    image_size: tuple[int, int],
    path: str | Path,
) -> np.ndarray:
    """Write a grayscale PGM counting how many transferred boxes cover each pixel.

    ``points`` are box corner 4-vectors (or BBox values).  Intensities are
    max-normalized to 0..255 with integer floor division; an empty point set
    produces an all-zero image.  Returns the count grid for callers that
    want the raw values.
    """
    width, height = image_size
    if width < 1 or height < 1:
        raise ConfigInvalidError(f"invalid image size {image_size}")
    if len(points) and isinstance(points[0], BBox):
        arr = np.array([b.as_list() for b in points], dtype=np.float64)
    else:
        arr = np.asarray(points, dtype=np.float64).reshape(-1, 4)
    counts = np.zeros((height, width), dtype=np.int64)
    for x0, y0, x1, y1 in arr:
        ix0 = int(np.clip(np.floor(x0), 0, width))
        iy0 = int(np.clip(np.floor(y0), 0, height))
        ix1 = int(np.clip(np.ceil(x1), 0, width))
        iy1 = int(np.clip(np.ceil(y1), 0, height))
        if ix1 > ix0 and iy1 > iy0:
            counts[iy0:iy1, ix0:ix1] += 1
    peak = int(counts.max())
    if peak > 0:
        img = ((counts * 255) // peak).astype(np.uint8)
    else:
        img = np.zeros((height, width), dtype=np.uint8)
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    try:
        Path(path).write_bytes(header + img.tobytes())
    except OSError as exc:
        raise IoFailureError(f"failed to write heatmap {path}: {exc}") from exc
    return counts
