import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from boxforge.errors import ConfigInvalidError, NoGroundTruthError
from boxforge.geometry import BBox, iou
from boxforge.tracks import (
    FrameSelection,
    Track,
    candidates_at_frame,
    evaluate_selection,
    score_track_boxes,
    select_track_per_frame,
)


def box(x0, y0, x1, y1):
    return BBox(float(x0), float(y0), float(x1), float(y1))


UNIT = box(0, 0, 10, 10)


def test_track_frames_must_increase():
    with pytest.raises(ConfigInvalidError):
        Track(video_id="v", track_id=0, rank=1, frames=((1, UNIT), (1, UNIT)))


def test_track_box_at():
    t = Track(video_id="v", track_id=0, rank=1, frames=((0, UNIT), (4, box(1, 1, 2, 2))))
    assert t.box_at(4) == box(1, 1, 2, 2)
    assert t.box_at(2) is None


def linear_box_at(track, frame_idx):
    """The frame-by-frame scan ``Track.box_at`` replaced by bisection."""
    for f, b in track.frames:
        if f == frame_idx:
            return b
    return None


@given(st.lists(st.integers(0, 60), max_size=12, unique=True), st.integers(-2, 62))
def test_track_box_at_equals_linear_scan(indices, frame_idx):
    """Gapped frame indices, each with its own box; every index, the first
    and last, and frames the track skips or never reaches."""
    frames = tuple((f, box(f, 0, f + 1, 1)) for f in sorted(indices))
    t = Track(video_id="v", track_id=0, rank=1, frames=frames)
    for f in {frame_idx, *indices, *(f + 1 for f in indices), *(f - 1 for f in indices)}:
        assert t.box_at(f) is linear_box_at(t, f)


def score_track_box(t, frame_matches):
    """The per-pair sum the scoring is defined by."""
    return sum(iou(v, t) * sim for v, sim in frame_matches)


# Integer corners on a small grid, so drawn boxes often touch or coincide.
grid_boxes = st.builds(
    lambda x, y, w, h: box(x, y, x + w, y + h),
    st.integers(0, 12), st.integers(0, 12), st.integers(1, 8), st.integers(1, 8),
)
sims = st.floats(min_value=-1.0, max_value=1.0, width=32)  # no float64 underflow in iou * sim


class TestScoreTrackBox:
    def test_empty_sum(self):
        assert score_track_boxes([UNIT], []) == [0.0]

    def test_single_term(self):
        assert score_track_boxes([UNIT], [(UNIT, 0.8)]) == [pytest.approx(0.8)]

    def test_three_terms_match_manual_sum(self):
        t = box(0, 0, 10, 10)
        matches = [
            (box(0, 0, 10, 10), 0.9),   # iou 1
            (box(5, 0, 15, 10), 0.5),   # iou 1/3
            (box(20, 20, 30, 30), 0.7), # iou 0
        ]
        assert score_track_boxes([t], matches) == [pytest.approx(1 * 0.9 + (1 / 3) * 0.5)]

    def test_negative_sims_contribute(self):
        assert score_track_boxes([UNIT], [(UNIT, -0.5)]) == [pytest.approx(-0.5)]

    @given(st.lists(grid_boxes, max_size=4), st.lists(st.tuples(grid_boxes, sims), max_size=10))
    @example([UNIT], [])
    @example([UNIT], [(box(10, 0, 20, 10), 0.9), (box(10, 10, 20, 20), -0.4)])  # touching
    @example([UNIT, box(5, 0, 15, 10)], [(UNIT, -0.5), (box(0, 0, 5, 10), 0.3)])
    def test_has_the_bits_of_the_per_pair_sum(self, boxes, frame_matches):
        assert score_track_boxes(boxes, frame_matches) == [
            score_track_box(t, frame_matches) for t in boxes
        ]


class TestSelectTrackPerFrame:
    def test_single_candidate_selected(self):
        sel = select_track_per_frame([(3, UNIT)], [], "v", 7)
        assert sel.track_id == 3 and sel.score == 0.0 and sel.frame_idx == 7

    def test_overlapping_candidate_wins(self):
        matches = [(box(0, 0, 10, 10), 0.9)]
        candidates = [(0, box(40, 40, 50, 50)), (1, box(0, 0, 10, 10))]
        assert select_track_per_frame(candidates, matches, "v", 0).track_id == 1

    def test_all_zero_scores_pick_lowest_track_id(self):
        candidates = [(5, box(40, 40, 50, 50)), (2, box(60, 60, 70, 70))]
        assert select_track_per_frame(candidates, [], "v", 0).track_id == 2

    def test_no_candidates(self):
        assert select_track_per_frame([], [], "v", 0) is None

    @given(st.permutations([0, 1, 2]))
    def test_invariant_to_candidate_order(self, order):
        candidates = [(0, box(0, 0, 4, 4)), (1, box(2, 0, 6, 4)), (2, box(8, 8, 12, 12))]
        matches = [(box(1, 0, 5, 4), 0.8)]
        base = select_track_per_frame(candidates, matches, "v", 0)
        shuffled = select_track_per_frame([candidates[i] for i in order], matches, "v", 0)
        assert shuffled == base

    def test_positive_scaling_of_sims_keeps_argmax(self):
        candidates = [(0, box(0, 0, 4, 4)), (1, box(3, 0, 7, 4))]
        matches = [(box(0, 0, 4, 4), 0.3), (box(3, 0, 7, 4), 0.2)]
        scaled = [(v, 10.0 * s) for v, s in matches]
        a = select_track_per_frame(candidates, matches, "v", 0)
        b = select_track_per_frame(candidates, scaled, "v", 0)
        assert a.track_id == b.track_id


def make_tracks():
    true = Track(
        video_id="v", track_id=0, rank=1,
        frames=tuple((f, box(f, 0, f + 4, 4)) for f in range(3)),
    )
    off = Track(
        video_id="v", track_id=1, rank=2,
        frames=tuple((f, box(10, 10, 14, 14)) for f in range(3)),
    )
    return {"v": [true, off]}


class TestEvaluateSelection:
    def test_perfect_selection(self):
        tracks = make_tracks()
        gt = {("v", f): box(f, 0, f + 4, 4) for f in range(3)}
        sels = [
            FrameSelection("v", f, box(f, 0, f + 4, 4), 1.0, 0) for f in range(3)
        ]
        mean_iou, upper = evaluate_selection(sels, tracks, gt)
        assert mean_iou == 1.0 and upper == 1.0

    def test_best_candidate_selection_equals_upper_bound(self):
        tracks = make_tracks()
        gt = {("v", f): box(f + 1, 0, f + 5, 4) for f in range(3)}
        sels = []
        for f in range(3):
            cands = candidates_at_frame(tracks["v"], f)
            best = max(cands, key=lambda c: _iou(c[1], gt[("v", f)]))
            sels.append(FrameSelection("v", f, best[1], 1.0, best[0]))
        mean_iou, upper = evaluate_selection(sels, tracks, gt)
        assert mean_iou == pytest.approx(upper)

    def test_three_frame_manual_case(self):
        tracks = make_tracks()
        gt = {("v", 0): box(0, 0, 4, 4), ("v", 1): box(3, 0, 7, 4), ("v", 2): box(10, 10, 14, 14)}
        sels = [FrameSelection("v", f, tracks["v"][0].box_at(f), 1.0, 0) for f in range(3)]
        mean_iou, upper = evaluate_selection(sels, tracks, gt)
        per_frame = [
            _iou(box(0, 0, 4, 4), gt[("v", 0)]),
            _iou(box(1, 0, 5, 4), gt[("v", 1)]),
            _iou(box(2, 0, 6, 4), gt[("v", 2)]),
        ]
        assert mean_iou == pytest.approx(sum(per_frame) / 3)
        assert mean_iou <= upper

    def test_no_ground_truth(self):
        with pytest.raises(NoGroundTruthError):
            evaluate_selection(
                [FrameSelection("v", 0, UNIT, 1.0, 0)], make_tracks(), {}
            )

    def test_mean_never_exceeds_upper_bound(self):
        tracks = make_tracks()
        gt = {("v", f): box(2, 0, 6, 4) for f in range(3)}
        sels = [FrameSelection("v", f, box(10, 10, 14, 14), 0.0, 1) for f in range(3)]
        mean_iou, upper = evaluate_selection(sels, tracks, gt)
        assert mean_iou <= upper


def _iou(a, b):
    from boxforge.geometry import iou

    return iou(a, b)


def test_candidates_at_frame_ordered_by_track_id():
    tracks = make_tracks()["v"]
    cands = candidates_at_frame(list(reversed(tracks)), 1)
    assert [c[0] for c in cands] == [0, 1]
