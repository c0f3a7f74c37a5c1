"""Match mined regions into video frames and retrieve tracked boxes.

:func:`match_regions` scans all regions' query windows over each sampled
frame once, handing each region's best hit in the frame to track selection
and merging the frame's rows into each region's running top ``n``.  It keeps
about regions × n × 64 bytes however many frames it samples.  Matching
brings each top hit's selected track box back to the region's image by the
box-transfer rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DegenerateBoxError, NoFramesError
from .featmap import FeaturePyramid, MatchHit, QueryWindow, map_window_to_pixels, scan_queries
from .geometry import BBox, intersection_area, transfer_box
from .tracks import FrameSelection

VideoFrames = tuple[str, Sequence[FeaturePyramid]]  # (video_id, pyramids by frame number)


@dataclass(frozen=True)
class VideoMatch:
    """One region-to-video match; ``sim`` mirrors the hit's cosine score."""

    region_id: str
    hit: MatchHit

    @property
    def sim(self) -> float:
        return self.hit.score


@dataclass(frozen=True)
class TransferredBox:
    """A tracked box carried back to a region's source image."""

    image_id: str
    box: BBox
    region_id: str
    video_id: str
    frame_idx: int
    sim: float
    match_box: BBox
    track_box: BBox


def sampled_frame_indices(n_frames: int, frame_stride: int) -> list[int]:
    """Every ``frame_stride``-th frame starting at phase 0."""
    if frame_stride < 1:
        raise ValueError(f"frame_stride must be >= 1, got {frame_stride}")
    return list(range(0, n_frames, frame_stride))


@dataclass(frozen=True)
class TopMatches:
    """Each region's ``n`` best placements over every sampled frame, by score
    descending with the (video_id, frame_idx, level, y, x) tie-break, video
    ids compared as strings.  Row ``(r, k)`` is ``score`` (regions, n),
    ``key`` (regions, n, 5) of (index in ``video_ids``, frame_idx, level,
    cell_y, cell_x) and ``geom`` (regions, n, 2) of the frame's (cell_stride,
    level scale), all its pixel box needs.  Padding rows score ``-inf``."""

    region_ids: tuple[str, ...]
    shapes: tuple[tuple[int, int], ...]  # each region's (w_cells, h_cells)
    video_ids: tuple[str, ...]  # in string order
    score: np.ndarray
    key: np.ndarray
    geom: np.ndarray

    def matches(self, r: int) -> list[VideoMatch]:
        """Region ``r``'s top hits; :class:`NoFramesError` without sampled frames."""
        if self.score[r, 0] == -np.inf:  # a scanned frame gives every region a hit
            raise NoFramesError("no sampled frames in any video")
        rows = zip(self.score[r].tolist(), self.key[r].tolist(), self.geom[r].tolist())
        return [VideoMatch(self.region_ids[r], _hit(self.video_ids, self.shapes[r], *row))
                for row in rows if row[0] > -np.inf]


def _hit(video_ids, shape, score, key, geom) -> MatchHit:
    """The hit of one (score, key, geom) row of a region of window ``shape``."""
    (v, frame_idx, li, cy, cx), (stride, scale) = key, geom
    box = map_window_to_pixels(scale, cx, cy, *shape, stride)
    return MatchHit(li, cx, cy, box, score, video_ids[v], frame_idx)


def match_regions(
    queries: Mapping[str, QueryWindow], videos: Sequence[VideoFrames], on_frame: Callable,
    n: int = 20, frame_stride: int = 8,
) -> tuple[list, TopMatches]:
    """Scan the queries (region id -> window) over every sampled frame in
    ``videos`` order, one :func:`scan_queries` per frame, each frame indexed
    (and so read) once.  Each scan is used as it is made: ``on_frame(video_id,
    frame_idx, hits)`` gets every region's best hit in the frame, in region
    order, then the frame's rows are merged into the running top ``n``.
    Returns the callback's results that are not None, in frame order, and
    the :class:`TopMatches`."""
    windows = list(queries.values())
    shapes = tuple((w.w_cells, w.h_cells) for w in windows)
    video_ids = tuple(sorted(v for v, _ in videos))
    rank = {v: i for i, v in enumerate(video_ids)}
    region = np.arange(len(windows))[:, None]
    # columns [:n] hold each region's running top n, columns [n:] the frame's rows
    score = np.full((len(windows), 2 * n), -np.inf)
    key, geom = np.full(score.shape + (5,), -1), np.zeros(score.shape + (2,))
    results = []
    for video_id, pyramids in videos:
        for frame_idx in sampled_frame_indices(len(pyramids), frame_stride):
            pyramid = pyramids[frame_idx]
            score[:, n:], place = scan_queries(windows, pyramid, n)
            key[:, n:, :2], key[:, n:, 2:] = (rank[video_id], frame_idx), place
            geom[:, n:, 0] = pyramid.cell_stride
            geom[:, n:, 1] = np.take([s for s, _ in pyramid.levels], place[..., 0])
            best = zip(shapes, *(a[:, n].tolist() for a in (score, key, geom)))
            result = on_frame(video_id, frame_idx, [_hit(video_ids, *row) for row in best])
            if result is not None:
                results.append(result)
            # np.lexsort sorts by its last key first: -score, then the key columns
            order = np.lexsort((*np.moveaxis(key[..., ::-1], 2, 0), -score), axis=1)[:, :n]
            for a in (score, key, geom):
                a[:, :n] = a[region, order]
    top = (a[:, :n].copy() for a in (score, key, geom))
    return results, TopMatches(tuple(queries), shapes, video_ids, *top)


# One-region views of the scan; no stage calls them, the benchmark's tracer wraps them by name.
def match_region_to_videos(region_id, query, videos, n=20, frame_stride=8) -> list[VideoMatch]:
    _, top = match_regions({region_id: query}, videos, lambda *_: None, n, frame_stride)
    return top.matches(0)


def match_region_per_frame(region_id, query, videos, frame_stride=8) -> dict:
    best = lambda v, frame_idx, hits: ((v, frame_idx), VideoMatch(region_id, hits[0]))
    return dict(match_regions({region_id: query}, videos, best, 1, frame_stride)[0])


def retrieve_boxes(
    matches: Sequence[VideoMatch],
    region_boxes: Mapping[str, tuple[str, BBox]],
    selections: Mapping[tuple[str, int], FrameSelection],
) -> tuple[list[TransferredBox], int]:
    """Transfer each match's selected track box back to the region's image.

    A match emits nothing when its frame has no selected track or the track
    box has zero spatial overlap with the matched region.  Degenerate
    transfer results are dropped; the second return value counts them.
    """
    transfers: list[TransferredBox] = []
    dropped = 0
    for match in matches:
        selection = selections.get((match.hit.video_id, match.hit.frame_idx))
        if selection is None:
            continue
        t, v = selection.box, match.hit.pixel_box
        if intersection_area(v, t) <= 0.0:
            continue
        image_id, r = region_boxes[match.region_id]
        try:
            box = transfer_box(r, v, t)
        except DegenerateBoxError:
            dropped += 1
            continue
        transfers.append(TransferredBox(
            image_id=image_id, box=box, region_id=match.region_id,
            video_id=match.hit.video_id, frame_idx=match.hit.frame_idx, sim=match.sim,
            match_box=v, track_box=t,
        ))
    return transfers, dropped
