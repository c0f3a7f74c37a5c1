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


# Upper bound on the four (seeds, points) float64 coordinate-difference planes
# of one batched kernel pass; small enough that mean-shift leaves peak memory
# flat.
ASCENT_BLOCK_BYTES = 64 << 10


def _block_rows(n_points: int) -> int:
    return max(1, ASCENT_BLOCK_BYTES // (n_points * 4 * 8))


def _point_columns(space: VoteSpace) -> np.ndarray:
    """The space's points as a contiguous (4, N) array, one row per coordinate."""
    return np.ascontiguousarray(space.points.T)


def _scaled_sq_dists(locs: np.ndarray, cols: np.ndarray, bandwidth: float) -> np.ndarray:
    """(R, N) squared distances from each location to each point, in bandwidths.

    ``cols`` is the space's :func:`_point_columns`.  Builds one (R, N)
    difference plane per coordinate and adds the squares left to right, which
    is the order ``np.sum`` takes along a row of four: each value equals
    ``np.sum(d * d, axis=1)`` with ``d = (points - l) / b``.
    """
    d = cols[:, None, :] - locs.T[:, :, None]
    d /= bandwidth
    np.multiply(d, d, out=d)
    sq = d[0] + d[1]
    sq += d[2]
    sq += d[3]
    return sq


def _kernel_values(kernel: str, sq_dist: np.ndarray) -> np.ndarray:
    """Kernel values of ``sq_dist``, computed in place."""
    if kernel == GAUSSIAN:
        sq_dist *= -0.5
        return np.exp(sq_dist, out=sq_dist)
    np.subtract(1.0, sq_dist, out=sq_dist)
    return np.maximum(0.0, sq_dist, out=sq_dist)


def _votes(locs: np.ndarray, space: VoteSpace) -> np.ndarray:
    """Vote sums at each row of ``locs`` (R, 4), in blocks of rows."""
    votes = np.empty(len(locs))
    cols = _point_columns(space)
    rows = _block_rows(space.n_points)
    for start in range(0, len(locs), rows):
        sq = _scaled_sq_dists(locs[start:start + rows], cols, space.bandwidth)
        votes[start:start + rows] = np.sum(_kernel_values(space.kernel, sq), axis=1)
    return votes


def vote_value(l: np.ndarray, space: VoteSpace) -> float:
    """Kernel-weighted vote sum at location ``l`` (a 4-vector)."""
    l = np.asarray(l, dtype=np.float64).reshape(1, 4)
    if space.n_points == 0:
        return 0.0
    return float(_votes(l, space)[0])


def _ascend_all(space: VoteSpace, tol: float, max_iter: int) -> np.ndarray:
    """Mean-shift ascent from every point at once; row i is seed i's mode.

    Each pass moves the still-active seeds, block by block, to the weighted
    mean of the points.  A seed stops when its weights sum to zero (it stays
    put) or its step falls below ``tol`` (it keeps the step).  The weighted
    sum is one matrix-vector product per seed, so every mode is bit-identical
    to ascending the seeds one at a time.
    """
    pts = space.points
    cols = _point_columns(space)
    modes = pts.copy()
    active = np.arange(space.n_points)
    rows = _block_rows(space.n_points)
    for _ in range(max_iter):
        moving = []
        for start in range(0, active.size, rows):
            idx = active[start:start + rows]
            sq = _scaled_sq_dists(modes[idx], cols, space.bandwidth)
            if space.kernel == GAUSSIAN:
                w = _kernel_values(GAUSSIAN, sq)
            else:
                # The Epanechnikov profile's shadow is the flat kernel: the mean
                # of the points within one bandwidth.
                w = (sq < 1.0).astype(np.float64)
            total = np.sum(w, axis=1)
            live = total > 0.0
            if not live.all():
                idx, w, total = idx[live], w[live], total[live]
            new = (w[:, None, :] @ pts)[:, 0, :]
            new /= total[:, None]
            delta = new - modes[idx]
            step = np.sqrt(np.vecdot(delta, delta))
            modes[idx] = new
            moving.append(idx[~(step < tol)])
        active = np.concatenate(moving)
        if not active.size:
            break
    return modes


MAX_ITER = 200


def _ranked_ascents(
    space: VoteSpace, tol: Optional[float], max_iter: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every seed's converged location and its vote, highest vote first,
    ties ordered by the location's coordinates."""
    if space.n_points == 0:
        raise NoPointsError("mean shift requires at least one vote point")
    if tol is None:
        tol = 1e-3 * space.bandwidth
    converged = _ascend_all(space, tol, max_iter)
    votes = _votes(converged, space)
    x0, y0, x1, y1 = converged.T
    order = np.lexsort((y1, x1, y0, x0, -votes))
    return converged[order], votes[order]


def mean_shift_modes(
    space: VoteSpace,
    tol: Optional[float] = None,
    max_iter: int = MAX_ITER,
) -> list[tuple[np.ndarray, float]]:
    """Modes of the vote field, highest vote first.

    Ascent is seeded at every point; converged locations within 0.5*b of an
    already-kept mode merge into it (the kept one has the higher vote).
    Ties in vote are ordered by the mode's coordinates.
    Raises :class:`NoPointsError` on an empty space.
    """
    locations, votes = _ranked_ascents(space, tol, max_iter)
    merge_radius = 0.5 * space.bandwidth
    modes: list[tuple[np.ndarray, float]] = []
    for m, v in zip(locations, votes.tolist()):
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
    # the top mode is the first ranked ascent: merging only decides what follows it
    locations, votes = _ranked_ascents(space, None, MAX_ITER)
    mode, vote = locations[0], float(votes[0])
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
    # Each box covers pixels [floor(x0), ceil(x1)) x [floor(y0), ceil(y1))
    # clipped to the image; mark its corners in a difference grid and
    # integrate along both axes.  Marks on the last row or column only reach
    # pixels outside the image, so the integral runs over the image alone.
    limit = np.array([width, height])
    ix0, iy0 = np.clip(np.floor(arr[:, :2]), 0, limit).astype(np.int64).T
    ix1, iy1 = np.clip(np.ceil(arr[:, 2:]), 0, limit).astype(np.int64).T
    keep = (ix1 > ix0) & (iy1 > iy0)
    ix0, iy0, ix1, iy1 = ix0[keep], iy0[keep], ix1[keep], iy1[keep]
    edges = np.zeros((height + 1, width + 1), dtype=np.int64)
    np.add.at(edges, (iy0, ix0), 1)
    np.add.at(edges, (iy0, ix1), -1)
    np.add.at(edges, (iy1, ix0), -1)
    np.add.at(edges, (iy1, ix1), 1)
    counts = edges[:height, :width].cumsum(axis=0).cumsum(axis=1)
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
