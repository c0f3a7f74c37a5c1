"""4-D Hough voting over transferred boxes with mean-shift mode finding.

Every transferred box casts a unit vote at its corner coordinates
``[x_min, y_min, x_max, y_max]``; the vote field at a location l is
``sum_i K((l - p_i) / b)`` with the Gaussian kernel ``K(u) = exp(-|u|^2 / 2)``.
K(0) = 1: a location coinciding with m identical boxes scores exactly m,
which makes the vote threshold read as an effective supporter count.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .atomic import write_atomic
from .errors import ConfigInvalidError, DegenerateBoxError, IoFailureError, NoPointsError
from .geometry import BBox, clip_box


@dataclass(frozen=True)
class VoteSpace:
    """An immutable 4-D point cloud with its kernel bandwidth (pixels)."""

    points: np.ndarray
    bandwidth: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or (pts.size and pts.shape[1] != 4):
            raise ConfigInvalidError(f"points must be (N, 4), got {pts.shape}")
        if pts.size and not np.all(np.isfinite(pts)):
            raise ConfigInvalidError("vote points must be finite")
        if self.bandwidth <= 0:
            raise ConfigInvalidError(f"bandwidth must be positive, got {self.bandwidth}")
        object.__setattr__(self, "points", pts.reshape(-1, 4))

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
ASCENT_BLOCK_BYTES = 256 << 10


# Each mean-shift seed takes at most MAX_ITER passes and stops once its step
# falls below TOL_PER_BANDWIDTH times its bandwidth.
MAX_ITER = 200
TOL_PER_BANDWIDTH = 1e-3


def _block_rows(n_points: int) -> int:
    return max(1, ASCENT_BLOCK_BYTES // (n_points * 4 * 8))


def _point_columns(points: np.ndarray) -> np.ndarray:
    """``points`` as a contiguous (4, N) array, one row per coordinate."""
    return np.ascontiguousarray(points.T)


def _scaled_sq_dists(locs: np.ndarray, cols: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
    """(R, N) squared distances from each location to each point, row r in
    bandwidths ``b_rows[r]``.

    ``cols`` is the points' :func:`_point_columns`.  Builds one (R, N)
    difference plane per coordinate and adds the squares left to right, which
    is the order ``np.sum`` takes along a row of four: each value equals
    ``np.sum(d * d, axis=1)`` with ``d = (points - l) / b``.
    """
    d = cols[:, None, :] - locs.T[:, :, None]
    d /= b_rows[None, :, None]
    np.multiply(d, d, out=d)
    sq = d[0] + d[1]
    sq += d[2]
    sq += d[3]
    return sq


def _kernel_values(sq_dist: np.ndarray) -> np.ndarray:
    """Gaussian kernel values ``exp(-sq_dist / 2)``, computed in place."""
    sq_dist *= -0.5
    return np.exp(sq_dist, out=sq_dist)


def _votes(locs: np.ndarray, b_rows: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Vote sums of ``pts`` at each row of ``locs`` (R, 4), row r in
    bandwidths ``b_rows[r]``, in blocks of rows."""
    votes = np.empty(len(locs))
    cols = _point_columns(pts)
    rows = _block_rows(len(pts))
    for start in range(0, len(locs), rows):
        block = slice(start, start + rows)
        sq = _scaled_sq_dists(locs[block], cols, b_rows[block])
        votes[block] = np.sum(_kernel_values(sq), axis=1)
    return votes


def _ascend_all(pts: np.ndarray, seeds: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
    """Mean-shift ascent from every seed at once; row i is seed i's mode.

    Seed i ascends over all of ``pts`` at bandwidth ``b_rows[i]``, for at
    most :data:`MAX_ITER` passes.  Each pass moves the still-active seeds,
    block by block, to the weighted mean of the points.  A seed stops when
    its weights sum to zero (it stays put) or its step falls below
    :data:`TOL_PER_BANDWIDTH` times its bandwidth (it keeps the step).  The
    weighted sum is one matrix-vector product per seed, so every mode is
    bit-identical to ascending the seeds one at a time.
    """
    cols = _point_columns(pts)
    tol_rows = TOL_PER_BANDWIDTH * b_rows
    modes = seeds.copy()
    active = np.arange(len(seeds))
    rows = _block_rows(len(pts))
    for _ in range(MAX_ITER):
        moving = []
        for start in range(0, active.size, rows):
            idx = active[start:start + rows]
            w = _kernel_values(_scaled_sq_dists(modes[idx], cols, b_rows[idx]))
            total = np.sum(w, axis=1)
            live = total > 0.0
            if not live.all():
                idx, w, total = idx[live], w[live], total[live]
            new = (w[:, None, :] @ pts)[:, 0, :]
            new /= total[:, None]
            delta = new - modes[idx]
            step = np.sqrt(np.vecdot(delta, delta))
            modes[idx] = new
            moving.append(idx[~(step < tol_rows[idx])])
        active = np.concatenate(moving)
        if not active.size:
            break
    return modes


def _distinct_rows(pts: np.ndarray) -> np.ndarray:
    """The rows of ``pts`` with their duplicates dropped, in sorted order.

    Rows count as duplicates only when bit-identical: a seed that never
    moves keeps its start, so -0.0 and 0.0 must both start a seed.
    """
    ordered = pts[np.lexsort(pts.T[::-1])]
    bits = ordered.view(np.int64)
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = np.any(bits[1:] != bits[:-1], axis=1)
    return ordered[first]


class RankedAscents(NamedTuple):
    """Where each seed's ascent converged and the vote there, highest vote
    first, ties ordered by the location's coordinates."""

    locations: np.ndarray
    votes: np.ndarray


def ranked_ascents(points: np.ndarray, bandwidths: Sequence[float]) -> list[RankedAscents]:
    """Each bandwidth's mean-shift ascents over one image's ``points``, an
    (N, 4) float64 array such as :attr:`VoteSpace.points`.

    Entry k ranks the ascents at ``bandwidths[k]``, seeded once per distinct
    point: a seed's path depends only on where it starts and on the points,
    so a repeated point would only repeat an ascent.  Every point, repeats
    included, still weighs in the kernel sums.  All bandwidths ascend
    together in one active set.  Raises :class:`NoPointsError` when
    ``points`` is empty.
    """
    if len(points) == 0:
        raise NoPointsError("mean shift requires at least one vote point")
    seeds = _distinct_rows(points)
    n_b = len(bandwidths)
    b_rows = np.repeat(np.asarray(bandwidths, dtype=np.float64), len(seeds))
    modes = _ascend_all(points, np.tile(seeds, (n_b, 1)), b_rows)
    votes = _votes(modes, b_rows, points)
    ranked = []
    for locations, vote in zip(modes.reshape(n_b, -1, 4), votes.reshape(n_b, -1)):
        x0, y0, x1, y1 = locations.T
        order = np.lexsort((y1, x1, y0, x0, -vote))
        ranked.append(RankedAscents(locations[order], vote[order]))
    return ranked


def mean_shift_modes(space: VoteSpace) -> list[tuple[np.ndarray, float]]:
    """Modes of the vote field, highest vote first.

    Ascent is seeded at every point; converged locations within 0.5*b of an
    already-kept mode merge into it (the kept one has the higher vote).
    Ties in vote are ordered by the mode's coordinates.
    Raises :class:`NoPointsError` on an empty space.
    """
    [(locations, votes)] = ranked_ascents(space.points, [space.bandwidth])
    merge_radius = 0.5 * space.bandwidth
    modes: list[tuple[np.ndarray, float]] = []
    for m, v in zip(locations, votes.tolist()):
        if all(float(np.linalg.norm(m - km)) > merge_radius for km, _ in modes):
            modes.append((m, v))
    return modes


def select_pseudo_gt(
    space: VoteSpace,
    ranking: RankedAscents,
    theta: float,
    image_bounds: tuple[float, float],
    image_id: str,
) -> Optional[PseudoGT]:
    """The highest-vote mode of ``space`` as a pseudo-GT box, or None.

    ``ranking`` is the space's :func:`ranked_ascents` entry.  Absent when
    the best vote falls below ``theta``, or the mode clips to nothing inside
    the image.  ``support`` counts the points within one bandwidth of the
    mode.
    """
    # the top mode is the first ranked ascent: merging only decides what follows it
    mode, vote = ranking.locations[0], float(ranking.votes[0])
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
    points: np.ndarray,
    image_size: tuple[int, int],
    path: str | Path,
) -> np.ndarray:
    """Write a grayscale PGM counting how many transferred boxes cover each pixel.

    ``points`` are box corner 4-vectors, one row per box.  Intensities are
    max-normalized to 0..255 with integer floor division; an empty point set
    produces an all-zero image.  Returns the count grid for callers that
    want the raw values.
    """
    width, height = image_size
    if width < 1 or height < 1:
        raise ConfigInvalidError(f"invalid image size {image_size}")
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
        write_atomic(path, lambda fh: fh.write(header + img.tobytes()), binary=True)
    except OSError as exc:
        raise IoFailureError(f"failed to write heatmap {path}: {exc}") from exc
    return counts
