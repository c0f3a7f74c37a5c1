"""Feature-map storage, pyramids, and dense sliding-window cosine matching.

A feature map is an ``(height, width, channels)`` grid of real activations;
matching slides fixed-shape query windows over every placement of every
pyramid level and scores them with cosine similarity, all the queries of one
frame in one :func:`scan_queries` that groups them by window shape.

FMAP binary format (bit-exact):
    magic bytes ``FMAP`` | version byte ``0x01`` | three little-endian u32
    (height, width, channels) | ``height*width*channels`` little-endian
    IEEE-754 float32 values in (y, x, c) row-major order.

On disk a frame is one FMAP file at scale 1.0; ``manifest.json`` names it
and gives the ``cell_stride`` it is read with.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .atomic import write_atomic
from .errors import ConfigInvalidError, OutOfBoundsError, WindowTooLargeError
from .geometry import BBox

FMAP_MAGIC = b"FMAP"
FMAP_VERSION = 1

# Scale ratio between consecutive levels of a full 7-level pyramid.
LEVEL_RATIO = 2.0 ** -0.5


@dataclass(frozen=True)
class FeatureMap:
    """Dense (height, width, channels) activation grid, immutable after load."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ConfigInvalidError(f"feature map must be 3-D, got shape {self.data.shape}")
        if min(self.data.shape) < 1:
            raise ConfigInvalidError(f"feature map has empty dimension {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ConfigInvalidError("feature map contains non-finite values")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class FeaturePyramid:
    """Ordered (scale, map) levels, scales strictly decreasing.

    ``cell_stride`` is pixels per cell at scale 1.0.
    """

    levels: tuple[tuple[float, FeatureMap], ...]
    cell_stride: float

    def __post_init__(self):
        if not 1 <= len(self.levels) <= 7:
            raise ConfigInvalidError(f"pyramid must have 1-7 levels, got {len(self.levels)}")
        if self.cell_stride <= 0:
            raise ConfigInvalidError(f"cell_stride must be positive, got {self.cell_stride}")
        scales = [s for s, _ in self.levels]
        if any(s <= 0 for s in scales):
            raise ConfigInvalidError("pyramid scales must be positive")
        if any(b >= a for a, b in zip(scales, scales[1:])):
            raise ConfigInvalidError(f"pyramid scales must strictly decrease, got {scales}")
        if len(scales) == 7:
            for a, b in zip(scales, scales[1:]):
                if abs(b / a / LEVEL_RATIO - 1.0) > 0.01:
                    raise ConfigInvalidError(
                        f"7-level pyramid needs consecutive scale ratio 2^-1/2, got {b / a:.4f}"
                    )


@dataclass(frozen=True)
class QueryWindow:
    """A flattened w_cells x h_cells x channels feature window.

    ``data`` is 1-D in the same (y, x, c) order the maps use.
    """

    w_cells: int
    h_cells: int
    channels: int
    data: np.ndarray

    def __post_init__(self):
        if self.w_cells < 1 or self.h_cells < 1:
            raise ConfigInvalidError("query window must be at least 1x1 cells")
        if self.data.size != self.w_cells * self.h_cells * self.channels:
            raise ConfigInvalidError(
                f"window data length {self.data.size} != "
                f"{self.w_cells}*{self.h_cells}*{self.channels}"
            )


@dataclass(frozen=True)
class MatchHit:
    """One scored window placement; ``pixel_box`` is its image-space extent."""

    level_idx: int
    cell_x: int
    cell_y: int
    pixel_box: BBox
    score: float


def window_shape_for_box(box: BBox, target_cells: int = 48) -> tuple[int, int]:
    """Integer (w_cells, h_cells) window shape for matching a pixel box.

    Enumerates shapes whose cell area lies in [5/6, 7/6] of ``target_cells``
    and picks the aspect ratio closest to the box's (log-scale), breaking
    ties by smaller |area - target| and then smaller width.  Each dimension
    is finally clamped to at least 2 cells, which for extreme aspect ratios
    is the only case that can push the area outside the enumerated band.
    """
    if target_cells < 1:
        raise ValueError(f"target_cells must be >= 1, got {target_cells}")
    aspect = box.width / box.height
    log_aspect = math.log(aspect)
    lo = max(1, math.floor(target_cells * 5.0 / 6.0))
    hi = math.ceil(target_cells * 7.0 / 6.0)
    _, _, w, h = min(
        (abs(math.log(w / h) - log_aspect), abs(w * h - target_cells), w, h)
        for w in range(1, hi + 1)
        for h in range(max(1, -(-lo // w)), hi // w + 1)
        if lo <= w * h <= hi
    )
    return (max(2, w), max(2, h))


def extract_window(fmap: FeatureMap, cell_rect: tuple[int, int, int, int]) -> QueryWindow:
    """Slice the (x, y, w, h) cell rectangle into a flattened query window."""
    x, y, w, h = cell_rect
    if w < 1 or h < 1:
        raise OutOfBoundsError(f"empty cell rect {cell_rect}")
    if x < 0 or y < 0 or x + w > fmap.width or y + h > fmap.height:
        raise OutOfBoundsError(
            f"cell rect {cell_rect} outside {fmap.height}x{fmap.width} map"
        )
    data = np.ascontiguousarray(fmap.data[y : y + h, x : x + w, :]).reshape(-1)
    return QueryWindow(w_cells=w, h_cells=h, channels=fmap.channels, data=data)


def resample_window(
    fmap: FeatureMap,
    cell_rect: tuple[int, int, int, int],
    out_shape: tuple[int, int],
) -> QueryWindow:
    """Extract a cell rect and bilinearly resample it to (w_cells, h_cells).

    When the requested shape equals the rect shape this is an exact slice,
    so identity-planting matches score 1.0 bit-for-bit.
    """
    x, y, w, h = cell_rect
    out_w, out_h = out_shape
    if (out_w, out_h) == (w, h):
        return extract_window(fmap, cell_rect)
    if x < 0 or y < 0 or w < 1 or h < 1 or x + w > fmap.width or y + h > fmap.height:
        raise OutOfBoundsError(
            f"cell rect {cell_rect} outside {fmap.height}x{fmap.width} map"
        )
    patch = fmap.data[y : y + h, x : x + w, :].astype(np.float64)
    # Pixel-center sampling of the patch grid, clamped at the borders.
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.clip(y0 + 1, 0, h - 1)
    x1 = np.clip(x0 + 1, 0, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :, None]
    top = patch[y0][:, x0, :] * (1 - wx) + patch[y0][:, x1, :] * wx
    bot = patch[y1][:, x0, :] * (1 - wx) + patch[y1][:, x1, :] * wx
    out = top * (1 - wy) + bot * wy
    return QueryWindow(
        w_cells=out_w,
        h_cells=out_h,
        channels=fmap.channels,
        data=np.ascontiguousarray(out).reshape(-1),
    )


def build_query_window(
    fmap: FeatureMap,
    box: BBox,
    cell_stride: float = 1.0,
    target_cells: int = 48,
) -> QueryWindow:
    """Build the canonical matching window for a pixel box on its own map.

    The box is snapped to the covering cell rectangle, then resampled to the
    shape the sizing heuristic assigns for its aspect ratio.
    """
    x0, y0, x1, y1 = _cell_rect(fmap, box, cell_stride)
    shape = window_shape_for_box(box, target_cells=target_cells)
    return resample_window(fmap, (x0, y0, x1 - x0, y1 - y0), shape)


def placement_boxes(pyramid: FeaturePyramid, place: np.ndarray, shape) -> np.ndarray:
    """Pixel corners (..., 4) of windows of ``shape`` (..., 2) of (w_cells,
    h_cells) at ``place`` (..., 3) of (level, cell_y, cell_x), as from
    :func:`scan_queries`; each corner is ``cell * (cell_stride / scale)`` in
    IEEE float64.  A padding row (place -1) reads the last level."""
    scales = np.array([s for s, _ in pyramid.levels])
    factor = (pyramid.cell_stride / scales[place[..., 0]])[..., None]
    corner = place[..., :0:-1]  # (cell_x, cell_y)
    return np.concatenate([corner, corner + shape], axis=-1) * factor


# Byte cap on the float64 window matrix built at once while scanning a level.
SCAN_BLOCK_BYTES = 64 << 20


def _placement_scores(
    data: np.ndarray, queries: np.ndarray, norms: np.ndarray, h: int, w: int
) -> np.ndarray:
    """Cosine scores, (G, ny, nx), of G same-shape queries (rows of
    ``queries``, with their ``norms``) at every placement of an h x w window
    on one map.  One float64 window matrix (placements as rows, built in
    blocks under :data:`SCAN_BLOCK_BYTES`) and its norms serve all G queries.
    ``np.vecdot``, broadcast over queries and placements, runs the per-row
    dot kernel of ``np.dot`` and ``np.linalg.norm`` on one flattened window,
    so every score is bit-identical to scoring one query at one placement; a
    GEMM (``queries @ mat.T``) would sum in another order."""
    windows = sliding_window_view(data, (h, w, data.shape[2]))[:, :, 0]
    ny, nx = windows.shape[:2]
    g, size = queries.shape
    scores = np.zeros((g, ny, nx))
    row_bytes = 8 * size
    cols = min(nx, max(1, SCAN_BLOCK_BYTES // row_bytes))
    rows = max(1, SCAN_BLOCK_BYTES // (row_bytes * nx)) if cols == nx else 1
    for y0 in range(0, ny, rows):
        for x0 in range(0, nx, cols):
            block = windows[y0 : y0 + rows, x0 : x0 + cols]
            mat = block.astype(np.float64, order="C").reshape(-1, size)
            mat_norms = np.sqrt(np.vecdot(mat, mat))
            cos = np.zeros((g, len(mat)))
            np.divide(
                np.vecdot(mat[None], queries[:, None]), norms[:, None] * mat_norms, out=cos,
                where=(norms[:, None] >= 1e-12) & (mat_norms >= 1e-12),
            )
            # clamp the last-ulp overshoot of near-parallel vectors
            scores[:, y0 : y0 + rows, x0 : x0 + cols] = np.clip(cos, -1.0, 1.0).reshape(
                g, *block.shape[:2]
            )
    return scores


def scan_queries(
    queries: Sequence[QueryWindow], pyramid: FeaturePyramid, top_n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each query's ``top_n`` best placements over every pyramid level:
    ``score`` (queries, top_n) and ``place`` (queries, top_n, 3) of (level,
    cell_y, cell_x).  Row q ranks query q's placements by score descending
    with the (level, cell_y, cell_x) ascending tie-break, then pads with
    score ``-inf`` at place -1.  Queries of one window shape share each
    level's window matrix.  Zero-norm windows (query or placement) score 0
    instead of erroring, which keeps blank frames from poisoning a scan.

    Raises :class:`WindowTooLargeError` when a query fits no level, and
    ``ValueError`` when a query's channel count differs from a level's.
    """
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    for q in queries:
        for _scale, fmap in pyramid.levels:
            if fmap.channels != q.channels:
                raise ValueError(f"channel mismatch: query {q.channels} vs level {fmap.channels}")
    score = np.full((len(queries), top_n), -np.inf)
    place = np.full((len(queries), top_n, 3), -1)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, query in enumerate(queries):
        groups.setdefault((query.w_cells, query.h_cells), []).append(i)
    for (w, h), members in groups.items():
        flat = np.stack([np.asarray(queries[i].data, np.float64).reshape(-1) for i in members])
        norms = np.array([np.linalg.norm(qf) for qf in flat])
        parts, places = [], []
        for level_idx, (_scale, fmap) in enumerate(pyramid.levels):
            if w <= fmap.width and h <= fmap.height:
                level_scores = _placement_scores(fmap.data, flat, norms, h, w)
                parts.append(level_scores.reshape(len(members), -1))
                cy, cx = np.indices(level_scores.shape[1:]).reshape(2, -1)
                places.append(np.stack([np.full(cy.size, level_idx), cy, cx], axis=1))
        if not parts:
            raise WindowTooLargeError(f"query of {h}x{w} cells fits no level of the pyramid")
        scores = np.concatenate(parts, axis=1)
        # placements run in (level, y, x) order, which a stable sort keeps on ties
        order = np.argsort(-scores, axis=1, kind="stable")[:, :top_n]
        score[members, : order.shape[1]] = np.take_along_axis(scores, order, axis=1)
        place[members, : order.shape[1]] = np.concatenate(places)[order]
    return score, place


def slide_match(query: QueryWindow, pyramid: FeaturePyramid, top_n: int) -> list[MatchHit]:
    """:func:`scan_queries` of one query, as hits with their pixel boxes."""
    (score,), (place,) = scan_queries([query], pyramid, top_n)
    boxes = placement_boxes(pyramid, place, (query.w_cells, query.h_cells))
    return [
        MatchHit(li, cx, cy, BBox(*box), s)
        for s, (li, cy, cx), box in zip(score.tolist(), place.tolist(), boxes.tolist())
        if s > -np.inf
    ]


POOL_SURROUND_MARGIN = 2


def _cell_rect(fmap: FeatureMap, box: BBox, cell_stride: float) -> tuple[int, int, int, int]:
    x0 = max(0, min(int(math.floor(box.x_min / cell_stride)), fmap.width - 1))
    y0 = max(0, min(int(math.floor(box.y_min / cell_stride)), fmap.height - 1))
    x1 = max(x0 + 1, min(int(math.ceil(box.x_max / cell_stride)), fmap.width))
    y1 = max(y0 + 1, min(int(math.ceil(box.y_max / cell_stride)), fmap.height))
    return x0, y0, x1, y1


def pool_box_feature(fmap: FeatureMap, box: BBox, cell_stride: float = 1.0) -> np.ndarray:
    """Center-surround pooled region descriptor: interior mean || ring mean.

    The first ``channels`` entries are the mean activation over the cells
    the box covers; the second are the mean over a 2-cell ring around it
    (zeros when the ring is empty).  Including the surround makes the
    descriptor sensitive to whether a box is tight: a sub-box of an object
    sees the object in its surround, a tight box sees background.  It is the
    one descriptor of every box the pipeline scores or regresses: proposals
    (pooled by ``dataio.read_proposals``), pseudo-GT boxes, detections and
    video-frame boxes.
    """
    x0, y0, x1, y1 = _cell_rect(fmap, box, cell_stride)
    m = POOL_SURROUND_MARGIN
    ox0, oy0 = max(0, x0 - m), max(0, y0 - m)
    ox1, oy1 = min(fmap.width, x1 + m), min(fmap.height, y1 + m)
    outer = fmap.data[oy0:oy1, ox0:ox1, :].astype(np.float64)
    inner_sum = outer[y0 - oy0 : y1 - oy0, x0 - ox0 : x1 - ox0, :].sum(axis=(0, 1))
    inner = inner_sum / ((y1 - y0) * (x1 - x0))  # the bits of .mean(axis=(0, 1))
    outer_sum = outer.sum(axis=(0, 1))
    ring_cells = (oy1 - oy0) * (ox1 - ox0) - (y1 - y0) * (x1 - x0)
    if ring_cells > 0:
        ring = (outer_sum - inner_sum) / ring_cells
    else:
        ring = np.zeros(fmap.channels)
    return np.concatenate([inner, ring])


def write_fmap(path: str | Path, fmap: FeatureMap) -> None:
    """Serialize to the FMAP binary format (see module docstring)."""
    payload = fmap.data.astype("<f4").tobytes()
    header = FMAP_MAGIC + bytes([FMAP_VERSION]) + struct.pack(
        "<III", fmap.height, fmap.width, fmap.channels
    )
    write_atomic(path, lambda fh: fh.write(header + payload), binary=True)


def read_fmap(path: str | Path) -> FeatureMap:
    """Parse an FMAP file, validating magic, version, and payload length."""
    raw = Path(path).read_bytes()
    if len(raw) < 17 or raw[:4] != FMAP_MAGIC:
        raise ConfigInvalidError(f"{path}: not an FMAP file")
    if raw[4] != FMAP_VERSION:
        raise ConfigInvalidError(f"{path}: unsupported FMAP version {raw[4]}")
    h, w, c = struct.unpack("<III", raw[5:17])
    expected = 17 + 4 * h * w * c
    if len(raw) != expected:
        raise ConfigInvalidError(
            f"{path}: payload length {len(raw)} != expected {expected}"
        )
    data = np.frombuffer(raw[17:], dtype="<f4").reshape(h, w, c).astype(np.float32)
    try:
        return FeatureMap(data=data)
    except ConfigInvalidError as exc:
        raise ConfigInvalidError(f"{path}: {exc}") from None


def single_level_pyramid(fmap: FeatureMap, cell_stride: float = 1.0) -> FeaturePyramid:
    """Wrap one map as a scale-1.0 pyramid (the synthetic-data layout)."""
    return FeaturePyramid(levels=((1.0, fmap),), cell_stride=cell_stride)
