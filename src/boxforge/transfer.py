"""Match mined regions into video frames and retrieve tracked boxes.

Each region's query window is slid over every sampled frame of every video;
the globally best matches bring their frame's selected track box back to the
region's image through the box-transfer rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .errors import DegenerateBoxError, NoFramesError
from .featmap import FeaturePyramid, MatchHit, QueryWindow, slide_match
from .geometry import BBox, intersection_area, transfer_box
from .tracks import FrameSelection

# A video is (video_id, ordered per-frame pyramids).
VideoFrames = tuple[str, Sequence[FeaturePyramid]]


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


def match_region_to_videos(
    region_id: str,
    query: QueryWindow,
    videos: Sequence[VideoFrames],
    n: int = 20,
    frame_stride: int = 8,
) -> list[VideoMatch]:
    """The n globally best hits across all sampled frames of all videos.

    Sorted by similarity descending with the deterministic
    (video_id, frame_idx, level, y, x) tie-break.  Raises
    :class:`NoFramesError` when sampling yields no frames at all.
    """
    ranked = []
    any_frames = False
    for video_id, frames in videos:
        for frame_idx in sampled_frame_indices(len(frames), frame_stride):
            any_frames = True
            for hit in slide_match(query, frames[frame_idx], top_n=n):
                key = (-hit.score, video_id, frame_idx, hit.level_idx, hit.cell_y, hit.cell_x)
                ranked.append((key, hit))
    if not any_frames:
        raise NoFramesError("no sampled frames in any video")
    # rank first, so only the n kept hits are copied with their frame
    ranked.sort(key=lambda r: r[0])
    return [
        VideoMatch(
            region_id=region_id,
            hit=replace(hit, video_id=video_id, frame_idx=frame_idx),
        )
        for (_score, video_id, frame_idx, *_), hit in ranked[:n]
    ]


def match_region_per_frame(
    region_id: str,
    query: QueryWindow,
    videos: Sequence[VideoFrames],
    frame_stride: int = 8,
) -> dict[tuple[str, int], VideoMatch]:
    """The single best hit per sampled frame, keyed by (video_id, frame_idx).

    This is the match evidence the track-selection stage consumes.
    """
    out: dict[tuple[str, int], VideoMatch] = {}
    for video_id, frames in videos:
        for frame_idx in sampled_frame_indices(len(frames), frame_stride):
            hits = slide_match(query, frames[frame_idx], top_n=1)
            if hits:
                out[(video_id, frame_idx)] = VideoMatch(
                    region_id=region_id,
                    hit=replace(hits[0], video_id=video_id, frame_idx=frame_idx),
                )
    return out


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
        t = selection.box
        v = match.hit.pixel_box
        if intersection_area(v, t) <= 0.0:
            continue
        image_id, r = region_boxes[match.region_id]
        try:
            box = transfer_box(r, v, t)
        except DegenerateBoxError:
            dropped += 1
            continue
        transfers.append(
            TransferredBox(
                image_id=image_id,
                box=box,
                region_id=match.region_id,
                video_id=match.hit.video_id,
                frame_idx=match.hit.frame_idx,
                sim=match.sim,
                match_box=v,
                track_box=t,
            )
        )
    return transfers, dropped
