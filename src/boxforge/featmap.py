"""Feature-map storage and dense sliding-window cosine matching.

A feature map is an ``(height, width, channels)`` grid of real activations;
in memory it is the read-only float32 array :func:`read_fmap` returns, a
view of its file's bytes.  A query window is an ``(h_cells, w_cells,
channels)`` float64 array cut from a region's map by
:func:`build_query_window`; matching slides it over every placement on a
frame's map and scores each with cosine similarity, all the queries of one
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
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .atomic import write_atomic
from .errors import ConfigInvalidError, WindowTooLargeError
from .geometry import BBox

FMAP_MAGIC = b"FMAP"
FMAP_VERSION = 1


def window_shape_for_box(box: BBox, target_cells: int) -> tuple[int, int]:
    """Integer (w_cells, h_cells) window shape for matching a pixel box.

    Enumerates shapes whose cell area lies in [5/6, 7/6] of ``target_cells``
    and picks the aspect ratio closest to the box's (log-scale), breaking
    ties by smaller |area - target| and then smaller width.  Each dimension
    is finally clamped to at least 2 cells, which for extreme aspect ratios
    is the only case that can push the area outside the enumerated band.
    """
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


def build_query_window(
    fmap: np.ndarray, box: BBox, cell_stride: float, target_cells: int
) -> np.ndarray:
    """The (h_cells, w_cells, C) float64 window matching a pixel box on its
    own map: the box's covering cell rectangle, bilinearly resampled to the
    shape :func:`window_shape_for_box` assigns.  A rectangle that already
    has that shape is returned as sliced, so a window scored where it was
    cut scores 1.0 bit for bit.
    """
    x, y, x_end, y_end = _cell_rect(fmap, box.as_list(), cell_stride)
    patch = fmap[y:y_end, x:x_end, :].astype(np.float64)
    h, w = patch.shape[:2]
    out_w, out_h = window_shape_for_box(box, target_cells)
    if (out_w, out_h) == (w, h):
        return patch
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
    return top * (1 - wy) + bot * wy


def placement_boxes(place: np.ndarray, shape, cell_stride: float) -> np.ndarray:
    """Pixel corners (..., 4) of windows of ``shape`` (..., 2) of (w_cells,
    h_cells) at ``place`` (..., 2) of (cell_y, cell_x), as from
    :func:`scan_queries`; each corner is ``cell * cell_stride`` in IEEE
    float64."""
    corner = place[..., ::-1]  # (cell_x, cell_y)
    return np.concatenate([corner, corner + shape], axis=-1) * cell_stride


# Byte cap on the float64 window matrix built at once while scanning a map.
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
    queries: Sequence[np.ndarray], fmap: np.ndarray, top_n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each query's ``top_n`` best placements on ``fmap``: ``score``
    (queries, top_n) and ``place`` (queries, top_n, 2) of (cell_y, cell_x),
    a query being an (h_cells, w_cells, C) float64 window.  Row q ranks
    query q's placements by score descending with the (cell_y, cell_x)
    ascending tie-break, then pads with score ``-inf`` at place -1.
    Queries of one window shape share the map's window matrix.  Zero-norm
    windows (query or placement) score 0 instead of erroring, which keeps
    blank frames from poisoning a scan.

    Raises :class:`WindowTooLargeError` when a query does not fit the map.
    """
    height, width = fmap.shape[:2]
    score = np.full((len(queries), top_n), -np.inf)
    place = np.full((len(queries), top_n, 2), -1)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, query in enumerate(queries):
        groups.setdefault(query.shape[:2], []).append(i)
    for (h, w), members in groups.items():
        if w > width or h > height:
            raise WindowTooLargeError(
                f"query of {h}x{w} cells does not fit the {height}x{width} map"
            )
        flat = np.stack([queries[i].reshape(-1) for i in members])
        norms = np.array([np.linalg.norm(qf) for qf in flat])
        scores = _placement_scores(fmap, flat, norms, h, w)
        grid = scores.shape[1:]
        scores = scores.reshape(len(members), -1)
        # placements run in (y, x) order, which a stable sort keeps on ties
        order = np.argsort(-scores, axis=1, kind="stable")[:, :top_n]
        score[members, : order.shape[1]] = np.take_along_axis(scores, order, axis=1)
        place[members, : order.shape[1]] = np.stack(np.unravel_index(order, grid), axis=-1)
    return score, place


POOL_SURROUND_MARGIN = 2


def _cell_rect(fmap: np.ndarray, corners, cell_stride: float) -> tuple[int, int, int, int]:
    x_min, y_min, x_max, y_max = corners
    height, width = fmap.shape[:2]
    x0 = max(0, min(int(math.floor(x_min / cell_stride)), width - 1))
    y0 = max(0, min(int(math.floor(y_min / cell_stride)), height - 1))
    x1 = max(x0 + 1, min(int(math.ceil(x_max / cell_stride)), width))
    y1 = max(y0 + 1, min(int(math.ceil(y_max / cell_stride)), height))
    return x0, y0, x1, y1


def pool_box_feature(fmap: np.ndarray, coords: np.ndarray, cell_stride: float) -> np.ndarray:
    """Center-surround pooled descriptors of the (N, 4) pixel corner rows
    ``coords``, one (N, 2C) float64 row per box: interior mean || ring mean.

    The first ``channels`` entries of a row are the mean activation over the
    cells the box covers; the second are the mean over a 2-cell ring around
    it (zeros when the ring is empty).  Including the surround makes the
    descriptor sensitive to whether a box is tight: a sub-box of an object
    sees the object in its surround, a tight box sees background.  It is the
    one descriptor of every box the pipeline scores or regresses: proposals
    (``dataio.read_proposals``, one call per image), pseudo-GT boxes,
    detections and video-frame boxes.  A row's bits do not depend on the
    other rows: each is summed over its own float64 slice of the map.
    """
    m = POOL_SURROUND_MARGIN
    height, width, c = fmap.shape
    out = np.zeros((len(coords), 2 * c))
    for i, corners in enumerate(coords.tolist()):
        x0, y0, x1, y1 = _cell_rect(fmap, corners, cell_stride)
        ox0, oy0 = max(0, x0 - m), max(0, y0 - m)
        ox1, oy1 = min(width, x1 + m), min(height, y1 + m)
        outer = fmap[oy0:oy1, ox0:ox1, :].astype(np.float64)
        inner_sum = outer[y0 - oy0 : y1 - oy0, x0 - ox0 : x1 - ox0, :].sum(axis=(0, 1))
        out[i, :c] = inner_sum / ((y1 - y0) * (x1 - x0))  # the bits of .mean(axis=(0, 1))
        ring_cells = (oy1 - oy0) * (ox1 - ox0) - (y1 - y0) * (x1 - x0)
        if ring_cells > 0:
            out[i, c:] = (outer.sum(axis=(0, 1)) - inner_sum) / ring_cells
    return out


def write_fmap(path: str | Path, fmap: np.ndarray) -> None:
    """Serialize an (H, W, C) array, cast to float32, to the FMAP binary
    format (see module docstring)."""
    header = FMAP_MAGIC + bytes([FMAP_VERSION]) + struct.pack("<III", *fmap.shape)
    payload = fmap.astype("<f4").tobytes()
    write_atomic(path, lambda fh: fh.write(header + payload), binary=True)


def read_fmap(path: str | Path) -> np.ndarray:
    """The (H, W, C) float32 map of an FMAP file: a read-only view of the
    file's bytes, after validating magic, version, payload length, that no
    dimension is empty and that every value is finite."""
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
    fmap = np.frombuffer(raw, "<f4", offset=17).reshape(h, w, c)
    if min(fmap.shape) < 1:
        raise ConfigInvalidError(f"{path}: feature map has empty dimension {fmap.shape}")
    if not np.all(np.isfinite(fmap)):
        raise ConfigInvalidError(f"{path}: feature map contains non-finite values")
    return fmap
