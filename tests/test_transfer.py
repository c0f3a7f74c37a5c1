import numpy as np
import pytest

from boxforge.errors import NoFramesError
from boxforge.featmap import FeatureMap, extract_window, single_level_pyramid
from boxforge.geometry import BBox, transfer_box
from boxforge.tracks import FrameSelection
from boxforge.transfer import match_regions, retrieve_boxes, sampled_frame_indices


def fmap_from(arr):
    return FeatureMap(data=np.asarray(arr, dtype=np.float32))


def video(rng, n_frames, h=8, w=8, c=3):
    return [single_level_pyramid(fmap_from(rng.normal(size=(h, w, c)))) for _ in range(n_frames)]


def top(region_id, query, videos, n=20, frame_stride=8):
    """One region's global top-n hits from the match table."""
    return match_regions({region_id: query}, videos, n, frame_stride).top(0)


def test_sampled_frame_indices_phase_zero():
    assert sampled_frame_indices(16, 8) == [0, 8]
    assert sampled_frame_indices(3, 8) == [0]
    assert sampled_frame_indices(5, 1) == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        sampled_frame_indices(5, 0)


class TestMatchRegionsTop:
    def test_identity_planting_single_frame(self):
        rng = np.random.default_rng(20)
        frame = fmap_from(rng.normal(size=(8, 8, 3)))
        q = extract_window(frame, (2, 3, 3, 3))
        matches = top("r0", q, [("vid", [single_level_pyramid(frame)])], n=1, frame_stride=8)
        assert len(matches) == 1
        hit = matches[0].hit
        assert (hit.video_id, hit.frame_idx, hit.cell_x, hit.cell_y) == ("vid", 0, 2, 3)
        assert matches[0].sim == pytest.approx(1.0, abs=1e-6)

    def test_stride_larger_than_video_samples_frame_zero(self):
        rng = np.random.default_rng(21)
        frames = video(rng, 3)
        q = extract_window(frames[0].levels[0][1], (0, 0, 2, 2))
        matches = top("r0", q, [("vid", frames)], n=50, frame_stride=10)
        assert {m.hit.frame_idx for m in matches} == {0}

    def test_no_frames(self):
        rng = np.random.default_rng(22)
        q = extract_window(fmap_from(rng.normal(size=(4, 4, 2))), (0, 0, 2, 2))
        with pytest.raises(NoFramesError):
            top("r0", q, [("vid", [])], n=5)

    def test_top_n_matches_exhaustive_frame_scan_oracle(self):
        rng = np.random.default_rng(23)
        videos = [("va", video(rng, 3)), ("vb", video(rng, 3))]
        q = extract_window(videos[0][1][1].levels[0][1], (1, 2, 3, 2))
        got = top("r0", q, videos, n=5, frame_stride=1)

        # brute force: every placement of every frame of every video
        qf = np.asarray(q.data, dtype=np.float64)
        nq = float(np.linalg.norm(qf))
        all_hits = []
        for vid, frames in videos:
            for fi, pyr in enumerate(frames):
                fm = pyr.levels[0][1]
                for cy in range(fm.height - q.h_cells + 1):
                    for cx in range(fm.width - q.w_cells + 1):
                        wf = (
                            fm.data[cy : cy + q.h_cells, cx : cx + q.w_cells, :]
                            .astype(np.float64)
                            .reshape(-1)
                        )
                        nw = float(np.linalg.norm(wf))
                        score = 0.0 if nw < 1e-12 else min(1.0, max(-1.0, float(np.dot(qf, wf) / (nq * nw))))
                        all_hits.append((score, vid, fi, 0, cy, cx))
        all_hits.sort(key=lambda h: (-h[0], h[1], h[2], h[3], h[4], h[5]))
        want = all_hits[:5]
        got_keys = [
            (m.sim, m.hit.video_id, m.hit.frame_idx, m.hit.level_idx, m.hit.cell_y, m.hit.cell_x)
            for m in got
        ]
        assert got_keys == want

    def test_scores_non_increasing_and_capped(self):
        rng = np.random.default_rng(24)
        videos = [("v", video(rng, 4))]
        q = extract_window(videos[0][1][0].levels[0][1], (0, 0, 2, 2))
        matches = top("r", q, videos, n=7, frame_stride=1)
        assert len(matches) <= 7
        sims = [m.sim for m in matches]
        assert sims == sorted(sims, reverse=True)

    def test_independent_of_video_processing_order(self):
        rng = np.random.default_rng(25)
        videos = [("va", video(rng, 2)), ("vb", video(rng, 2))]
        q = extract_window(videos[1][1][0].levels[0][1], (2, 2, 2, 2))
        a = top("r", q, videos, n=6, frame_stride=1)
        b = top("r", q, list(reversed(videos)), n=6, frame_stride=1)
        key = lambda ms: [
            (m.sim, m.hit.video_id, m.hit.frame_idx, m.hit.cell_y, m.hit.cell_x) for m in ms
        ]
        assert key(a) == key(b)

    def test_video_ids_rank_in_string_order_not_manifest_order(self):
        """Two identical videos tie at every placement; ``v10`` sorts before
        ``v9`` as a string although the manifest lists ``v9`` first."""
        rng = np.random.default_rng(33)
        frames = video(rng, 2)
        q = extract_window(frames[1].levels[0][1], (3, 1, 2, 3))
        got = top("r", q, [("v9", frames), ("v10", frames)], n=6, frame_stride=1)
        assert [(m.hit.video_id, m.hit.frame_idx) for m in got[:2]] == [("v10", 1), ("v9", 1)]
        sims = [m.sim for m in got]
        assert sims[0] == sims[1] == pytest.approx(1.0, abs=1e-6)
        assert [m.hit.video_id for m in got[::2]] == ["v10"] * 3
        assert [m.hit.video_id for m in got[1::2]] == ["v9"] * 3

    def test_regions_scanned_together_equal_each_region_alone(self):
        rng = np.random.default_rng(34)
        videos = [("va", video(rng, 3)), ("vb", video(rng, 2, h=6, w=9))]
        base = videos[0][1][2].levels[0][1]
        queries = {
            "r0": extract_window(base, (1, 2, 3, 2)),
            "r1": extract_window(base, (0, 0, 2, 2)),
            "r2": extract_window(base, (4, 3, 3, 2)),  # the shape of r0
        }
        table = match_regions(queries, videos, 4, frame_stride=1)
        assert table.region_ids == ("r0", "r1", "r2")
        assert [f[:2] for f in table.frames] == [("va", 0), ("va", 1), ("va", 2), ("vb", 0), ("vb", 1)]
        for r, (region_id, q) in enumerate(queries.items()):
            alone = match_regions({region_id: q}, videos, 4, frame_stride=1)
            assert table.top(r) == alone.top(0)
            assert table.per_frame(r) == alone.per_frame(0)


def test_per_frame_keys_and_best():
    rng = np.random.default_rng(26)
    frames = video(rng, 5)
    q = extract_window(frames[2].levels[0][1], (1, 1, 2, 2))
    per_frame = match_regions({"r0": q}, [("v", frames)], 1, frame_stride=2).per_frame(0)
    assert set(per_frame) == {("v", 0), ("v", 2), ("v", 4)}
    assert per_frame[("v", 2)].sim == pytest.approx(1.0, abs=1e-6)


def selection(video_id, frame_idx, box):
    return FrameSelection(video_id=video_id, frame_idx=frame_idx, box=box, score=1.0, track_id=0)


class TestRetrieveBoxes:
    def _match(self, rng, region_box=BBox(2, 2, 6, 6)):
        frame = fmap_from(rng.normal(size=(10, 10, 2)))
        q = extract_window(frame, (2, 2, 4, 4))
        matches = top("r0", q, [("v", [single_level_pyramid(frame)])], n=1)
        return matches, {"r0": ("img", region_box)}

    def test_disjoint_track_emits_nothing(self):
        rng = np.random.default_rng(27)
        matches, regions = self._match(rng)
        sels = {("v", 0): selection("v", 0, BBox(50, 50, 60, 60))}
        transfers, dropped = retrieve_boxes(matches, regions, sels)
        assert transfers == [] and dropped == 0

    def test_track_equal_to_match_returns_region_box(self):
        rng = np.random.default_rng(28)
        matches, regions = self._match(rng)
        v = matches[0].hit.pixel_box
        transfers, _ = retrieve_boxes(matches, regions, {("v", 0): selection("v", 0, v)})
        assert transfers[0].box == regions["r0"][1]

    def test_missing_selection_skipped(self):
        rng = np.random.default_rng(29)
        matches, regions = self._match(rng)
        transfers, dropped = retrieve_boxes(matches, regions, {})
        assert transfers == [] and dropped == 0

    def test_mixed_scenario_matches_per_match_arithmetic(self):
        rng = np.random.default_rng(30)
        matches, regions = self._match(rng)
        v = matches[0].hit.pixel_box
        t = BBox(v.x_min + 1, v.y_min + 1, v.x_max + 3, v.y_max + 2)
        transfers, _ = retrieve_boxes(matches, regions, {("v", 0): selection("v", 0, t)})
        r = regions["r0"][1]
        assert transfers[0].box == transfer_box(r, v, t)
        assert transfers[0].sim == matches[0].sim

    def test_degenerate_transfer_dropped_and_counted(self):
        rng = np.random.default_rng(31)
        matches, regions = self._match(rng, region_box=BBox(0, 0, 1, 1))
        v = matches[0].hit.pixel_box
        # shrink enough to collapse the 1x1 region box
        t = BBox(v.x_min, v.y_min, v.x_min + 1, v.y_min + 1)
        transfers, dropped = retrieve_boxes(matches, regions, {("v", 0): selection("v", 0, t)})
        assert transfers == [] and dropped == 1

    def test_provenance_round_trip(self):
        rng = np.random.default_rng(32)
        matches, regions = self._match(rng)
        v = matches[0].hit.pixel_box
        t = BBox(v.x_min + 2, v.y_min, v.x_max + 2, v.y_max)
        transfers, _ = retrieve_boxes(matches, regions, {("v", 0): selection("v", 0, t)})
        tb = transfers[0]
        _, r = regions[tb.region_id]
        assert transfer_box(r, tb.match_box, tb.track_box) == tb.box
