"""Per-frame selection of the relevant track among candidate object tracks.

Each video comes with up to 9 ranked candidate tracks from an external
tracker.  A tracked box is scored by how well mined-region matches in the
frame agree with it: ``sum_i IOU(v_i, t) * sim_i`` over the per-region best
match boxes ``v_i``.  The highest-scoring candidate wins the frame.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigInvalidError, NoGroundTruthError
from .geometry import BBox, iou, iou_rows


@dataclass(frozen=True)
class Track:
    """A ranked candidate object track: ordered (frame_idx, box) pairs."""

    video_id: str
    track_id: int
    rank: int
    frames: tuple[tuple[int, BBox], ...]

    def __post_init__(self):
        indices = [f for f, _ in self.frames]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ConfigInvalidError(
                f"track {self.video_id}/{self.track_id} has non-increasing frame indices"
            )

    def box_at(self, frame_idx: int) -> Optional[BBox]:
        """The box at ``frame_idx`` (by bisection), or None if the track skips it."""
        i = bisect_left(self.frames, frame_idx, key=lambda fb: fb[0])
        if i < len(self.frames) and self.frames[i][0] == frame_idx:
            return self.frames[i][1]
        return None


@dataclass(frozen=True)
class FrameSelection:
    """The chosen tracked box for one frame."""

    video_id: str
    frame_idx: int
    box: BBox
    score: float
    track_id: int


def score_track_boxes(
    boxes: Sequence[BBox], coords: np.ndarray, sims: np.ndarray
) -> list[float]:
    """Per box t, the sum of IOU(v_i, t) * sim_i over the match corners ``coords``
    (m, 4) and ``sims`` (m,), added left to right (the bits of the per-pair sum)."""
    return [sum((iou_rows(coords, t) * sims).tolist()) for t in boxes]


def select_track_per_frame(
    candidates: Sequence[tuple[int, BBox]],
    coords: np.ndarray,
    sims: np.ndarray,
    video_id: str,
    frame_idx: int,
) -> Optional[FrameSelection]:
    """Pick the candidate with the highest match-agreement score.

    Ties (including the all-zero-score case) go to the lowest track_id, so
    the result is independent of candidate ordering.  Returns None when no
    track covers the frame.
    """
    if not candidates:
        return None
    scores = score_track_boxes([box for _, box in candidates], coords, sims)
    scored = [(track_id, box, score) for (track_id, box), score in zip(candidates, scores)]
    best_id, best_box, best_score = min(scored, key=lambda c: c[0])
    for track_id, box, score in scored:
        if score > best_score or (score == best_score and track_id < best_id):
            best_id, best_box, best_score = track_id, box, score
    return FrameSelection(
        video_id=video_id,
        frame_idx=frame_idx,
        box=best_box,
        score=best_score,
        track_id=best_id,
    )


def candidates_at_frame(tracks: Sequence[Track], frame_idx: int) -> list[tuple[int, BBox]]:
    """(track_id, box) pairs of all tracks covering the frame, id-ordered."""
    out = []
    for track in sorted(tracks, key=lambda t: t.track_id):
        box = track.box_at(frame_idx)
        if box is not None:
            out.append((track.track_id, box))
    return out


def evaluate_selection(
    selections: Sequence[FrameSelection],
    tracks_by_video: Mapping[str, Sequence[Track]],
    gt_by_frame: Mapping[tuple[str, int], BBox],
) -> tuple[float, float]:
    """(mean IOU of selections, upper-bound mean IOU) against per-frame GT.

    Evaluated over frames that have both a selection and a ground-truth box.
    The upper bound replaces the selection with the best candidate box in
    the frame, so ``mean_iou <= upper_bound`` always.
    """
    ious: list[float] = []
    upper: list[float] = []
    for sel in selections:
        key = (sel.video_id, sel.frame_idx)
        gt = gt_by_frame.get(key)
        if gt is None:
            continue
        ious.append(iou(sel.box, gt))
        candidates = candidates_at_frame(tracks_by_video.get(sel.video_id, ()), sel.frame_idx)
        upper.append(max(iou(box, gt) for _, box in candidates) if candidates else 0.0)
    if not ious:
        raise NoGroundTruthError("no evaluated frame has ground truth")
    return (sum(ious) / len(ious), sum(upper) / len(upper))
