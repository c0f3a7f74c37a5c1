import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from boxforge import dataio
from boxforge.errors import NoFramesError
from boxforge.featmap import (
    FeatureMap,
    FeaturePyramid,
    extract_window,
    scan_queries,
    single_level_pyramid,
)
from boxforge.geometry import BBox, transfer_box
from boxforge.tracks import FrameSelection
from boxforge.transfer import (
    match_region_per_frame,
    match_regions,
    retrieve_boxes,
    sampled_frame_indices,
)

from test_featmap import map_window_to_pixels


def fmap_from(arr):
    return FeatureMap(data=np.asarray(arr, dtype=np.float32))


def video(rng, n_frames, h=8, w=8, c=3):
    return [single_level_pyramid(fmap_from(rng.normal(size=(h, w, c)))) for _ in range(n_frames)]


def no_selection(video_id, frame_idx, boxes, scores):
    return None


def top(region_id, query, videos, n=20, frame_stride=8):
    """One region's global top-n table from the streamed scan."""
    return match_regions({region_id: query}, videos, no_selection, n, frame_stride)[1]


def rows(matches, r=0):
    """Region ``r``'s kept rows of a :class:`TopMatches`, as (score, video_id,
    frame_idx, level, cell_y, cell_x, pixel corners)."""
    table = zip(*(a[r].tolist() for a in (matches.score, matches.key, matches.box)))
    return [
        (s, matches.video_ids[v], f, li, cy, cx, box)
        for s, (v, f, li, cy, cx), box in table if s > -np.inf
    ]


def best_hits(video_id, frame_idx, boxes, scores):
    """A frame callback that keeps the frame's best rows as they come."""
    return video_id, frame_idx, boxes, scores


def table_top(queries, videos, n, frame_stride):
    """Each region's n globally best rows ranked from a full table of every
    (region, sampled frame)'s n best rows: the ranking the streamed scan
    replaces, kept as its oracle."""
    windows = list(queries.values())
    frames = [
        (video_id, frame_idx, pyramids[frame_idx])
        for video_id, pyramids in videos
        for frame_idx in sampled_frame_indices(len(pyramids), frame_stride)
    ]
    if not frames:
        raise NoFramesError("no sampled frames in any video")
    scanned = [scan_queries(windows, pyramid, n) for _, _, pyramid in frames]
    score = np.stack([s for s, _ in scanned], axis=1)  # (regions, frames, n)
    place = np.stack([p for _, p in scanned], axis=1)  # (regions, frames, n, 3)
    rank = {v: i for i, v in enumerate(sorted({v for v, _, _ in frames}))}
    video_rank, frame_idx = np.repeat([(rank[v], i) for v, i, _ in frames], n, axis=0).T
    out = []
    for r, (region_id, q) in enumerate(queries.items()):
        flat = score[r].reshape(-1)
        level, cell_y, cell_x = place[r].reshape(-1, 3).T
        order = np.lexsort((cell_x, cell_y, level, frame_idx, video_rank, -flat))[:n]
        matches = []
        for i in order.tolist():
            if flat[i] == -np.inf:
                continue
            f, k = divmod(i, n)
            video_id, fi, pyramid = frames[f]
            li, cy, cx = place[r, f, k].tolist()
            box = map_window_to_pixels(
                pyramid.levels[li][0], cx, cy, q.w_cells, q.h_cells, pyramid.cell_stride
            )
            matches.append((float(flat[i]), video_id, fi, li, cy, cx, box.as_list()))
        out.append(matches)
    return out


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
        ((sim, video_id, frame_idx, _, cell_y, cell_x, _),) = rows(matches)
        assert (video_id, frame_idx, cell_x, cell_y) == ("vid", 0, 2, 3)
        assert sim == pytest.approx(1.0, abs=1e-6)

    def test_stride_larger_than_video_samples_frame_zero(self):
        rng = np.random.default_rng(21)
        frames = video(rng, 3)
        q = extract_window(frames[0].levels[0][1], (0, 0, 2, 2))
        matches = top("r0", q, [("vid", frames)], n=50, frame_stride=10)
        assert {frame_idx for _, _, frame_idx, *_ in rows(matches)} == {0}

    def test_no_frames(self):
        rng = np.random.default_rng(22)
        q = extract_window(fmap_from(rng.normal(size=(4, 4, 2))), (0, 0, 2, 2))
        matches = top("r0", q, [("vid", [])], n=5)
        assert len(matches) == 0
        with pytest.raises(NoFramesError):
            retrieve_boxes(matches, {"r0": ("img", BBox(0, 0, 2, 2))}, {})

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
        assert [row[:6] for row in rows(got)] == want

    def test_scores_non_increasing_and_capped(self):
        rng = np.random.default_rng(24)
        videos = [("v", video(rng, 4))]
        q = extract_window(videos[0][1][0].levels[0][1], (0, 0, 2, 2))
        matches = top("r", q, videos, n=7, frame_stride=1)
        assert len(matches) <= 7
        sims = [row[0] for row in rows(matches)]
        assert sims == sorted(sims, reverse=True)

    def test_independent_of_video_processing_order(self):
        rng = np.random.default_rng(25)
        videos = [("va", video(rng, 2)), ("vb", video(rng, 2))]
        q = extract_window(videos[1][1][0].levels[0][1], (2, 2, 2, 2))
        a = top("r", q, videos, n=6, frame_stride=1)
        b = top("r", q, list(reversed(videos)), n=6, frame_stride=1)
        assert rows(a) == rows(b)

    def test_video_ids_rank_in_string_order_not_manifest_order(self):
        """Two identical videos tie at every placement; ``v10`` sorts before
        ``v9`` as a string although the manifest lists ``v9`` first."""
        rng = np.random.default_rng(33)
        frames = video(rng, 2)
        q = extract_window(frames[1].levels[0][1], (3, 1, 2, 3))
        got = rows(top("r", q, [("v9", frames), ("v10", frames)], n=6, frame_stride=1))
        assert [row[1:3] for row in got[:2]] == [("v10", 1), ("v9", 1)]
        sims = [row[0] for row in got]
        assert sims[0] == sims[1] == pytest.approx(1.0, abs=1e-6)
        assert [row[1] for row in got[::2]] == ["v10"] * 3
        assert [row[1] for row in got[1::2]] == ["v9"] * 3

    def test_regions_scanned_together_equal_each_region_alone(self):
        rng = np.random.default_rng(34)
        videos = [("va", video(rng, 3)), ("vb", video(rng, 2, h=6, w=9))]
        base = videos[0][1][2].levels[0][1]
        queries = {
            "r0": extract_window(base, (1, 2, 3, 2)),
            "r1": extract_window(base, (0, 0, 2, 2)),
            "r2": extract_window(base, (4, 3, 3, 2)),  # the shape of r0
        }
        frames, scan = match_regions(queries, videos, best_hits, 4, frame_stride=1)
        assert scan.region_ids == ("r0", "r1", "r2")
        assert [f[:2] for f in frames] == [("va", 0), ("va", 1), ("va", 2), ("vb", 0), ("vb", 1)]
        for r, (region_id, q) in enumerate(queries.items()):
            alone_frames, alone = match_regions({region_id: q}, videos, best_hits, 4, frame_stride=1)
            assert rows(scan, r) == rows(alone)
            best = lambda frames, i: [(b[i].tolist(), s[i]) for *_, b, s in frames]
            assert best(frames, r) == best(alone_frames, 0)


def test_per_frame_keys_and_best():
    rng = np.random.default_rng(26)
    frames = video(rng, 5)
    q = extract_window(frames[2].levels[0][1], (1, 1, 2, 2))
    per_frame = match_region_per_frame("r0", q, [("v", frames)], frame_stride=2)
    assert set(per_frame) == {("v", 0), ("v", 2), ("v", 4)}
    assert per_frame[("v", 2)][1] == pytest.approx(1.0, abs=1e-6)


class TestStreamedScan:
    """The running top-n against the full table it replaces."""

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(["v9", "v10", "va", "b"]), min_size=1, max_size=3, unique=True),
        st.lists(st.integers(1, 4), min_size=3, max_size=3),
        st.integers(1, 2),
        st.integers(1, 12),
        st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=4),
    )
    def test_running_top_n_equals_full_table_ranking(
        self, seed, video_ids, n_frames, frame_stride, n, shapes
    ):
        """Frames repeat a pool of three maps, so scores tie across frames
        and videos; a 4x4 window on a 4x5 map has 2 placements, under n."""
        rng = np.random.default_rng(seed)
        pool = [
            single_level_pyramid(fmap_from(rng.normal(size=(4, 5, 2))), cell_stride=2.0),
            FeaturePyramid(((1.0, fmap_from(rng.normal(size=(6, 5, 2)))),
                            (0.5, fmap_from(rng.normal(size=(4, 4, 2))))), cell_stride=3.0),
            single_level_pyramid(fmap_from(np.zeros((4, 4, 2)))),  # zero-norm windows score 0
        ]
        videos = [
            (v, [pool[i] for i in rng.integers(0, len(pool), size=k)])
            for v, k in zip(video_ids, n_frames)
        ]
        base = pool[0].levels[0][1]
        queries = {
            f"r{i}": extract_window(base, (i % 2, 0, w, h)) for i, (w, h) in enumerate(shapes)
        }
        frames, scan = match_regions(queries, videos, best_hits, n, frame_stride)
        want = table_top(queries, videos, n, frame_stride)
        assert [rows(scan, r) for r in range(len(queries))] == want
        assert len(scan) == sum(map(len, want))
        # each sampled frame's callback saw every region's best hit, in region order
        sampled = [
            (v, pyramids, i) for v, pyramids in videos
            for i in sampled_frame_indices(len(pyramids), frame_stride)
        ]
        assert [(v, i) for v, i, *_ in frames] == [(v, i) for v, _, i in sampled]
        for (_, _, boxes, scores), (video_id, pyramids, frame_idx) in zip(frames, sampled):
            best = table_top(queries, [(video_id, [pyramids[frame_idx]])], 1, 1)
            assert list(zip(scores.tolist(), boxes.tolist())) == [(s, b) for ((s, *_, b),) in best]

    def test_kept_result_does_not_grow_with_frames(self):
        """Doubling the sampled frames at a fixed region count leaves the
        kept result, and the scan's traced memory, the same size; a table of
        every (region, frame)'s n rows would add regions x frames x n x 32 B."""
        rng = np.random.default_rng(35)
        n, n_frames = 50, 40
        frames = video(rng, 2 * n_frames, h=10, w=10, c=2)
        base = frames[0].levels[0][1]
        queries = {f"r{i}": extract_window(base, (i % 4, i % 3, 2 + i % 3, 2)) for i in range(16)}

        def scan(n_sampled):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                _, kept = match_regions(queries, [("v", frames[:n_sampled])], no_selection, n, 1)
                gc.collect()
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return kept, current - before, peak - before

        scan(2 * n_frames)  # warm numpy's small-allocation caches
        kept_f, current_f, peak_f = scan(n_frames)
        kept_2f, current_2f, peak_2f = scan(2 * n_frames)
        arrays = lambda kept: [(a.shape, a.nbytes) for a in (kept.score, kept.key, kept.box)]
        assert arrays(kept_f) == arrays(kept_2f) == [
            ((16, n), 16 * n * 8), ((16, n, 5), 16 * n * 40), ((16, n, 4), 16 * n * 32)
        ]
        table_growth = len(queries) * n_frames * n * 32
        assert current_2f - current_f < table_growth / 10
        assert peak_2f - peak_f < table_growth / 10


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
        v = BBox(*matches.box[0, 0].tolist())
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
        v = BBox(*matches.box[0, 0].tolist())
        t = BBox(v.x_min + 1, v.y_min + 1, v.x_max + 3, v.y_max + 2)
        transfers, _ = retrieve_boxes(matches, regions, {("v", 0): selection("v", 0, t)})
        r = regions["r0"][1]
        assert transfers[0].box == transfer_box(r, v, t)
        assert transfers[0].sim == matches.score[0, 0]

    def test_degenerate_transfer_dropped_and_counted(self):
        rng = np.random.default_rng(31)
        matches, regions = self._match(rng, region_box=BBox(0, 0, 1, 1))
        v = BBox(*matches.box[0, 0].tolist())
        # shrink enough to collapse the 1x1 region box
        t = BBox(v.x_min, v.y_min, v.x_min + 1, v.y_min + 1)
        transfers, dropped = retrieve_boxes(matches, regions, {("v", 0): selection("v", 0, t)})
        assert transfers == [] and dropped == 1

    def test_provenance_round_trip(self, tmp_path):
        """The written transfer row names the table row it came from."""
        rng = np.random.default_rng(32)
        matches, regions = self._match(rng)
        ((sim, video_id, frame_idx, *_, corners),) = rows(matches)
        v = BBox(*corners)
        t = BBox(v.x_min + 2, v.y_min, v.x_max + 2, v.y_max)
        transfers, _ = retrieve_boxes(matches, regions, {("v", 0): selection("v", 0, t)})
        dataio.write_transfers(tmp_path / "transfers.jsonl", transfers)
        (written,) = map(json.loads, (tmp_path / "transfers.jsonl").read_text().splitlines())
        provenance = [written[k] for k in ("region_id", "video_id", "frame_idx", "sim")]
        assert provenance == ["r0", video_id, frame_idx, sim]
        image_id, r = regions["r0"]
        assert (written["image_id"], written["box"]) == (image_id, transfer_box(r, v, t).as_list())
