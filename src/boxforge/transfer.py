"""Match mined regions into video frames and retrieve tracked boxes.

:func:`match_regions` scans all regions' query windows over each sampled
frame once, handing each region's best pixel corners and score in the frame
to track selection and merging the frame's rows (score, key and pixel
corners) into each region's running top ``n``: about regions × n × 80 bytes
however many frames it samples.  Matching brings each kept row's selected
track box back to the region's image by the box-transfer rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DegenerateBoxError, NoFramesError
from .featmap import FeaturePyramid, QueryWindow, placement_boxes, scan_queries
from .geometry import BBox, intersection_area, transfer_box
from .tracks import FrameSelection

VideoFrames = tuple[str, Sequence[FeaturePyramid]]  # (video_id, pyramids by frame number)


@dataclass(frozen=True)
class TransferredBox:
    """A tracked box carried back to a region's source image."""

    image_id: str
    box: BBox
    region_id: str
    video_id: str
    frame_idx: int
    sim: float


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
    cell_y, cell_x) and ``box`` (regions, n, 4), the placement's pixel
    corners.  Padding rows score ``-inf``; ``len`` counts the other rows."""

    region_ids: tuple[str, ...]
    video_ids: tuple[str, ...]  # in string order
    score: np.ndarray
    key: np.ndarray
    box: np.ndarray

    def __len__(self) -> int:
        return int(np.count_nonzero(self.score > -np.inf))


def match_regions(
    queries: Mapping[str, QueryWindow], videos: Sequence[VideoFrames], on_frame: Callable,
    n: int = 20, frame_stride: int = 8,
) -> tuple[list, TopMatches]:
    """Scan the queries (region id -> window) over every sampled frame in
    ``videos`` order, one :func:`scan_queries` per frame, each frame indexed
    (and so read) once.  Each scan is used as it is made: ``on_frame(video_id,
    frame_idx, boxes, scores)`` gets every region's best pixel corners (regions,
    4) and score (regions,) in the frame, arrays it may keep, then the frame's
    rows are merged into the running top ``n``.  Returns the callback's
    results that are not None, in frame order, and the :class:`TopMatches`."""
    windows = list(queries.values())
    shape = np.array([(w.w_cells, w.h_cells) for w in windows]).reshape(-1, 1, 2)
    video_ids = tuple(sorted(v for v, _ in videos))
    rank = {v: i for i, v in enumerate(video_ids)}
    region = np.arange(len(windows))[:, None]
    # columns [:n] hold each region's running top n, columns [n:] the frame's rows
    score = np.full((len(windows), 2 * n), -np.inf)
    key, box = np.full(score.shape + (5,), -1), np.zeros(score.shape + (4,))
    results = []
    for video_id, pyramids in videos:
        for frame_idx in sampled_frame_indices(len(pyramids), frame_stride):
            pyramid = pyramids[frame_idx]
            score[:, n:], place = scan_queries(windows, pyramid, n)
            key[:, n:, :2], key[:, n:, 2:] = (rank[video_id], frame_idx), place
            box[:, n:] = placement_boxes(pyramid, place, shape)
            result = on_frame(video_id, frame_idx, box[:, n].copy(), score[:, n].copy())
            if result is not None:
                results.append(result)
            # np.lexsort sorts by its last key first: -score, then the key columns
            order = np.lexsort((*np.moveaxis(key[..., ::-1], 2, 0), -score), axis=1)[:, :n]
            for a in (score, key, box):
                a[:, :n] = a[region, order]
    top = (a[:, :n].copy() for a in (score, key, box))
    return results, TopMatches(tuple(queries), video_ids, *top)


# One-region views of the scan; no stage calls them, the benchmark's tracer wraps them by name.
def match_region_to_videos(region_id, query, videos, n=20, frame_stride=8) -> TopMatches:
    return match_regions({region_id: query}, videos, lambda *_: None, n, frame_stride)[1]


def match_region_per_frame(region_id, query, videos, frame_stride=8) -> dict:
    """(video_id, frame_idx) -> the region's best (pixel corners, score) there."""
    best = lambda v, frame_idx, boxes, scores: ((v, frame_idx), (boxes[0], scores[0]))
    return dict(match_regions({region_id: query}, videos, best, 1, frame_stride)[0])


def retrieve_boxes(
    matches: TopMatches,
    region_boxes: Mapping[str, tuple[str, BBox]],
    selections: Mapping[tuple[str, int], FrameSelection],
) -> tuple[list[TransferredBox], int]:
    """Transfer each kept row's selected track box back to its region's
    image, rows in region-then-rank order.

    A row emits nothing when its frame has no selected track or the track
    box has zero spatial overlap with the row's pixel box.  Degenerate
    transfer results are dropped; the second return value counts them.
    Raises :class:`NoFramesError` when no frame was sampled.
    """
    if np.any(matches.score[:, :1] == -np.inf):  # a scanned frame gives every region a row
        raise NoFramesError("no sampled frames in any video")
    transfers: list[TransferredBox] = []
    dropped = 0
    table = zip(matches.score.tolist(), matches.key.tolist(), matches.box.tolist())
    for region_id, (scores, keys, boxes) in zip(matches.region_ids, table):
        for sim, (video, frame_idx, *_), corners in zip(scores, keys, boxes):
            if sim == -np.inf:
                break  # padding rows come last
            video_id = matches.video_ids[video]
            selection = selections.get((video_id, frame_idx))
            if selection is None:
                continue
            t, v = selection.box, BBox(*corners)
            if intersection_area(v, t) <= 0.0:
                continue
            image_id, r = region_boxes[region_id]
            try:
                box = transfer_box(r, v, t)
            except DegenerateBoxError:
                dropped += 1
                continue
            transfers.append(TransferredBox(image_id, box, region_id, video_id, frame_idx, sim))
    return transfers, dropped
