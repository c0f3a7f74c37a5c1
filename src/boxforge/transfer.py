"""Match mined regions into video frames and retrieve tracked boxes.

:func:`match_regions` scans all regions' query windows over each sampled
frame once, into a :class:`RegionMatches` table of every (region, frame)'s
best placements.  Track selection reads each frame's best hit from it;
matching takes each region's globally best hits, which bring their frame's
selected track box back to the region's image by the box-transfer rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

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
class RegionMatches:
    """Each region's ``n`` best placements in each sampled frame, as
    :func:`scan_queries` ranks them: ``score`` (regions, frames, n) and
    ``place`` (regions, frames, n, 3) of (level, cell_y, cell_x).  A frame
    keeps the ``cell_stride`` and level scales its pixel boxes need; no
    feature map is held."""

    region_ids: tuple[str, ...]
    shapes: tuple[tuple[int, int], ...]  # each region's (w_cells, h_cells)
    # each sampled frame's (video_id, frame_idx, cell_stride, level scales)
    frames: tuple[tuple[str, int, float, tuple[float, ...]], ...]
    score: np.ndarray
    place: np.ndarray

    def _match(self, r: int, f: int, k: int) -> VideoMatch:
        video_id, frame_idx, cell_stride, scales = self.frames[f]
        li, cy, cx = self.place[r, f, k].tolist()
        box = map_window_to_pixels(scales[li], cx, cy, *self.shapes[r], cell_stride)
        hit = MatchHit(li, cx, cy, box, float(self.score[r, f, k]), video_id, frame_idx)
        return VideoMatch(region_id=self.region_ids[r], hit=hit)

    def per_frame(self, r: int) -> dict[tuple[str, int], VideoMatch]:
        """Region ``r``'s best hit in each sampled frame, keyed by
        (video_id, frame_idx): the evidence track selection consumes."""
        return {(v, i): self._match(r, f, 0) for f, (v, i, *_) in enumerate(self.frames)}

    def top(self, r: int) -> list[VideoMatch]:
        """Region ``r``'s n globally best hits, by similarity descending with
        the (video_id, frame_idx, level, y, x) tie-break, video ids compared
        as strings.  Raises :class:`NoFramesError` without sampled frames."""
        if not self.frames:
            raise NoFramesError("no sampled frames in any video")
        rank = {v: i for i, v in enumerate(sorted({v for v, *_ in self.frames}))}
        n = self.score.shape[2]
        video_rank, frame_idx = np.repeat([(rank[v], i) for v, i, *_ in self.frames], n, axis=0).T
        score = self.score[r].reshape(-1)
        level, cell_y, cell_x = self.place[r].reshape(-1, 3).T
        order = np.lexsort((cell_x, cell_y, level, frame_idx, video_rank, -score))[:n]
        # padding (-inf) sorts last, so it is cut unless the region has under n hits
        return [self._match(r, *divmod(i, n)) for i in order.tolist() if score[i] > -np.inf]


def match_regions(
    queries: Mapping[str, QueryWindow], videos: Sequence[VideoFrames], n: int = 20,
    frame_stride: int = 8,
) -> RegionMatches:
    """Scan the queries (region id -> window) over every sampled frame, one
    :func:`scan_queries` per frame, keeping each (region, frame)'s ``n``
    best placements.  Each sampled frame is indexed, and so read, once."""
    windows = list(queries.values())
    sampled = [
        (video_id, frame_idx, pyramids)
        for video_id, pyramids in videos
        for frame_idx in sampled_frame_indices(len(pyramids), frame_stride)
    ]
    score = np.empty((len(windows), len(sampled), n))
    place = np.empty((len(windows), len(sampled), n, 3), dtype=np.int64)
    frames = []
    for f, (video_id, frame_idx, pyramids) in enumerate(sampled):
        pyramid = pyramids[frame_idx]
        scales = tuple(s for s, _ in pyramid.levels)
        frames.append((video_id, frame_idx, pyramid.cell_stride, scales))
        score[:, f], place[:, f] = scan_queries(windows, pyramid, n)
    shapes = tuple((q.w_cells, q.h_cells) for q in windows)
    return RegionMatches(tuple(queries), shapes, tuple(frames), score, place)


# One-region views of the table, which the benchmark's tracer wraps by name.
def match_region_to_videos(region_id, query, videos, n=20, frame_stride=8) -> list[VideoMatch]:
    return match_regions({region_id: query}, videos, n, frame_stride).top(0)


def match_region_per_frame(region_id, query, videos, frame_stride=8) -> dict:
    return match_regions({region_id: query}, videos, 1, frame_stride).per_frame(0)


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
