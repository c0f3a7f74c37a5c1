import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from boxforge import atomic, featmap
from boxforge.errors import (
    ConfigInvalidError,
    OutOfBoundsError,
    WindowTooLargeError,
)
from boxforge.featmap import (
    FeatureMap,
    FeaturePyramid,
    QueryWindow,
    build_query_window,
    extract_window,
    placement_boxes,
    pool_box_feature,
    read_fmap,
    resample_window,
    scan_queries,
    single_level_pyramid,
    slide_match,
    window_shape_for_box,
    write_fmap,
)
from boxforge.geometry import BBox


def fmap_from(arr):
    return FeatureMap(data=np.asarray(arr, dtype=np.float32))


def random_fmap(rng, h, w, c):
    return fmap_from(rng.normal(size=(h, w, c)))


def shape_oracle(aspect, target):
    """Enumerate integer shapes with area in [5/6, 7/6] of target and pick by
    (aspect error, |area-target|, width), clamping dims to >= 2 afterwards."""
    lo = max(1, math.floor(target * 5 / 6))
    hi = math.ceil(target * 7 / 6)
    candidates = []
    for w in range(1, hi + 1):
        for h in range(1, hi + 1):
            if lo <= w * h <= hi:
                key = (abs(math.log((w / h) / aspect)), abs(w * h - target), w, h)
                candidates.append((key, w, h))
    _, w, h = min(candidates)
    return (max(2, w), max(2, h))


class TestWindowShape:
    def test_square_box(self):
        assert window_shape_for_box(BBox(0, 0, 10, 10)) == (7, 7)

    def test_two_to_one_box(self):
        assert window_shape_for_box(BBox(0, 0, 20, 10)) == (10, 5)

    def test_extreme_aspect_clamped(self):
        w, h = window_shape_for_box(BBox(0, 0, 100, 1))
        assert h == 2

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=1.0, max_value=50.0),
        st.sampled_from([6, 30, 48]),
    )
    def test_matches_enumeration_oracle(self, aspect, height, target):
        box = BBox(0, 0, aspect * height, height)
        assert window_shape_for_box(box, target) == shape_oracle(aspect, target)

    @given(st.floats(min_value=0.05, max_value=20.0), st.floats(min_value=1.0, max_value=50.0))
    def test_area_in_band_unless_clamped(self, aspect, height):
        w, h = window_shape_for_box(BBox(0, 0, aspect * height, height), 48)
        if w > 2 and h > 2:
            assert 40 <= w * h <= 56


class TestExtractWindow:
    def test_full_map(self):
        rng = np.random.default_rng(0)
        fm = random_fmap(rng, 4, 5, 3)
        q = extract_window(fm, (0, 0, 5, 4))
        assert np.array_equal(q.data, fm.data.reshape(-1))

    def test_single_cell(self):
        rng = np.random.default_rng(1)
        fm = random_fmap(rng, 4, 5, 3)
        q = extract_window(fm, (2, 3, 1, 1))
        assert np.array_equal(q.data, fm.data[3, 2, :])

    def test_known_slice_order(self):
        # one channel; values encode (y, x) so flattening order is visible
        arr = np.arange(12, dtype=np.float32).reshape(3, 4, 1)
        q = extract_window(fmap_from(arr), (1, 0, 2, 2))
        assert q.data.tolist() == [1.0, 2.0, 5.0, 6.0]

    def test_out_of_bounds(self):
        fm = fmap_from(np.zeros((3, 3, 1)))
        with pytest.raises(OutOfBoundsError):
            extract_window(fm, (2, 2, 2, 2))


class TestResampleWindow:
    def test_identity_when_shape_matches(self):
        rng = np.random.default_rng(2)
        fm = random_fmap(rng, 6, 6, 2)
        a = extract_window(fm, (1, 1, 3, 2)).data
        b = resample_window(fm, (1, 1, 3, 2), (3, 2)).data
        assert np.array_equal(a, b)

    def test_constant_patch_stays_constant(self):
        fm = fmap_from(np.full((8, 8, 2), 3.25))
        q = resample_window(fm, (0, 0, 8, 8), (5, 3))
        assert np.allclose(q.data, 3.25)

    def test_linear_ramp_preserved(self):
        # bilinear resampling reproduces a linear gradient exactly at
        # matching sample phases (2x downscale of a ramp)
        xs = np.arange(8, dtype=np.float64)
        arr = np.tile(xs[None, :, None], (4, 1, 1))
        q = resample_window(fmap_from(arr), (0, 0, 8, 4), (4, 2))
        expected = np.tile(np.array([0.5, 2.5, 4.5, 6.5])[None, :, None], (2, 1, 1))
        assert np.allclose(q.data.reshape(2, 4, 1), expected)


def map_window_to_pixels(scale, cell_x, cell_y, w_cells, h_cells, cell_stride):
    """Pixel-space box of one window placed at (cell_x, cell_y) on a level:
    the scalar arithmetic :func:`placement_boxes` must reproduce bit for bit."""
    factor = cell_stride / scale
    return BBox(
        cell_x * factor,
        cell_y * factor,
        (cell_x + w_cells) * factor,
        (cell_y + h_cells) * factor,
    )


def scale_pyramid(scales, cell_stride):
    """A pyramid of 1x1 maps at ``scales``; placement boxes read only scales."""
    return FeaturePyramid(tuple((s, fmap_from(np.zeros((1, 1, 1)))) for s in scales), cell_stride)


class TestPlacementBoxes:
    def test_unit_mapping(self):
        pyr = scale_pyramid([1.0], 16.0)
        assert placement_boxes(pyr, np.array([0, 0, 0]), (3, 3)).tolist() == [0, 0, 48, 48]

    def test_half_scale_doubles(self):
        pyr = scale_pyramid([1.0, 0.5], 16.0)
        b1, b2 = placement_boxes(pyr, np.array([[0, 2, 1], [1, 2, 1]]), (3, 4))
        assert b2.tolist() == pytest.approx((2 * b1).tolist())

    def test_root_two_scale(self):
        pyr = scale_pyramid([1.0, 2 ** -0.5], 16.0)
        b = placement_boxes(pyr, np.array([1, 1, 2]), (4, 2))
        factor = 16.0 * 2 ** 0.5
        assert b.tolist() == pytest.approx([2 * factor, 1 * factor, 6 * factor, 3 * factor])

    @given(
        n_levels=st.integers(1, 7),
        cell_stride=st.floats(0.25, 64.0),
        rows=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 200), st.integers(0, 200),
                      st.integers(1, 60), st.integers(1, 60)),
            min_size=1, max_size=12,
        ),
        n_padding=st.integers(0, 3),
    )
    def test_bits_of_the_scalar_oracle(self, n_levels, cell_stride, rows, n_padding):
        """Rows of (level, cell_y, cell_x) on a pyramid of 2^-k/2 scales, with
        padding rows (place -1) after them, as :func:`scan_queries` pads."""
        pyr = scale_pyramid([2 ** (-k / 2) for k in range(n_levels)], cell_stride)
        rows = [(li % n_levels, cy, cx, w, h) for li, cy, cx, w, h in rows]
        rows += [(-1, -1, -1, w, h) for *_, w, h in rows[:n_padding]]
        place = np.array([row[:3] for row in rows])
        got = placement_boxes(pyr, place, np.array([row[3:] for row in rows]))
        want = np.array([
            map_window_to_pixels(pyr.levels[li][0], cx, cy, w, h, cell_stride).as_list()
            for li, cy, cx, w, h in rows
        ])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def slide_match_oracle(query, pyramid, top_n):
    """Brute-force every placement and rank with the documented tie-break."""
    qf = np.asarray(query.data, dtype=np.float64).reshape(-1)
    nq = float(np.linalg.norm(qf))
    hits = []
    for level_idx, (scale, fm) in enumerate(pyramid.levels):
        if query.w_cells > fm.width or query.h_cells > fm.height:
            continue
        for cy in range(fm.height - query.h_cells + 1):
            for cx in range(fm.width - query.w_cells + 1):
                wf = (
                    fm.data[cy : cy + query.h_cells, cx : cx + query.w_cells, :]
                    .astype(np.float64)
                    .reshape(-1)
                )
                nw = float(np.linalg.norm(wf))
                score = 0.0 if nq < 1e-12 or nw < 1e-12 else min(1.0, max(-1.0, float(np.dot(qf, wf) / (nq * nw))))
                hits.append((score, level_idx, cy, cx))
    hits.sort(key=lambda h: (-h[0], h[1], h[2], h[3]))
    return hits[:top_n]


class TestSlideMatch:
    def test_identity_planting(self):
        rng = np.random.default_rng(3)
        fm = random_fmap(rng, 10, 12, 4)
        q = extract_window(fm, (3, 2, 4, 5))
        hits = slide_match(q, single_level_pyramid(fm), top_n=3)
        assert (hits[0].cell_x, hits[0].cell_y) == (3, 2)
        assert hits[0].score == pytest.approx(1.0, abs=1e-6)

    def test_all_zero_frame_scores_zero_first_placement(self):
        fm = fmap_from(np.zeros((6, 6, 2)))
        q = extract_window(fm, (1, 1, 2, 2))
        hits = slide_match(q, single_level_pyramid(fm), top_n=2)
        assert all(h.score == 0.0 for h in hits)
        assert (hits[0].level_idx, hits[0].cell_y, hits[0].cell_x) == (0, 0, 0)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(4)
        fm = random_fmap(rng, 8, 8, 3)
        planted = extract_window(fm, (2, 4, 3, 2))
        pyr = single_level_pyramid(fm)
        hits = slide_match(planted, pyr, top_n=3)
        oracle = slide_match_oracle(planted, pyr, 3)
        assert [(h.score, h.level_idx, h.cell_y, h.cell_x) for h in hits] == oracle

    def test_window_too_large(self):
        fm = fmap_from(np.zeros((3, 3, 1)))
        q = extract_window(fm, (0, 0, 3, 3))
        small = single_level_pyramid(fmap_from(np.zeros((2, 2, 1))))
        with pytest.raises(WindowTooLargeError):
            slide_match(q, small, top_n=1)

    def test_scores_invariant_to_positive_feature_scaling(self):
        rng = np.random.default_rng(5)
        fm = random_fmap(rng, 7, 7, 3)
        q = extract_window(fm, (1, 1, 3, 3))
        base = slide_match(q, single_level_pyramid(fm), top_n=5)
        scaled = slide_match(
            q, single_level_pyramid(fmap_from(fm.data * 3.7)), top_n=5
        )
        for a, b in zip(base, scaled):
            # maps store float32, so the rescaled grid is rounded before scoring
            assert b.score == pytest.approx(a.score, abs=1e-6)
            assert (a.cell_x, a.cell_y) == (b.cell_x, b.cell_y)

    def test_planted_copy_attains_global_max(self):
        rng = np.random.default_rng(6)
        fm_arr = rng.normal(size=(9, 9, 4)).astype(np.float32)
        q = extract_window(fmap_from(fm_arr), (5, 5, 3, 3))
        other = rng.normal(size=(9, 9, 4)).astype(np.float32)
        other[1:4, 2:5, :] = q.data.reshape(3, 3, 4)
        hits = slide_match(q, single_level_pyramid(fmap_from(other)), top_n=1)
        assert (hits[0].cell_x, hits[0].cell_y) == (2, 1)
        assert hits[0].score == pytest.approx(1.0, abs=1e-6)


def _scan(query, pyramid, top_n):
    return [(h.score, h.level_idx, h.cell_y, h.cell_x) for h in slide_match(query, pyramid, top_n)]


class TestSlideMatchScanOracle:
    """The array scan must equal the one-placement-at-a-time oracle exactly."""

    def test_pyramid_with_level_smaller_than_window(self):
        rng = np.random.default_rng(11)
        base = random_fmap(rng, 12, 14, 5)
        pyr = FeaturePyramid(
            levels=(
                (1.0, base),
                (0.7, random_fmap(rng, 8, 10, 5)),
                (0.5, random_fmap(rng, 3, 9, 5)),  # shorter than the window
            ),
            cell_stride=4.0,
        )
        q = extract_window(base, (3, 2, 5, 4))
        n = 12 * 14  # more than the placements of the two levels that fit
        hits = _scan(q, pyr, n)
        assert hits == slide_match_oracle(q, pyr, n)
        assert {level for _, level, _, _ in hits} == {0, 1}

    def test_zero_norm_placements_and_zero_query(self):
        rng = np.random.default_rng(12)
        arr = rng.normal(size=(9, 10, 3))
        arr[:5, :6, :] = 0.0
        pyr = single_level_pyramid(fmap_from(arr))
        q = extract_window(fmap_from(arr), (4, 5, 3, 3))
        assert _scan(q, pyr, 80) == slide_match_oracle(q, pyr, 80)
        zero_q = QueryWindow(w_cells=3, h_cells=3, channels=3, data=np.zeros(27))
        hits = _scan(zero_q, pyr, 80)
        assert hits == slide_match_oracle(zero_q, pyr, 80)
        assert all(score == 0.0 for score, _, _, _ in hits)

    @pytest.mark.parametrize("cap_rows", [0.5, 1, 3, 7, 25])
    def test_level_scanned_in_blocks(self, monkeypatch, cap_rows):
        rng = np.random.default_rng(13)
        fm = random_fmap(rng, 11, 13, 4)
        pyr = single_level_pyramid(fm)
        q = resample_window(fm, (2, 3, 5, 4), (4, 3))
        n = 9 * 10
        whole = _scan(q, pyr, n)
        # cap_rows placement rows of 4x3x4 float64 values per block
        monkeypatch.setattr(featmap, "SCAN_BLOCK_BYTES", int(cap_rows * 8 * q.data.size))
        blocked = _scan(q, pyr, n)
        assert blocked == whole == slide_match_oracle(q, pyr, n)



class TestGroupedScan:
    """Queries of mixed window shapes scanned together on one pyramid: each
    query's rows equal what the one-placement oracle finds for it alone."""

    SHAPES = [(2, 2), (3, 2), (2, 3), (4, 3)]  # (w_cells, h_cells)

    @settings(max_examples=25, derandomize=True)
    @given(
        shapes=st.lists(st.sampled_from(SHAPES), min_size=2, max_size=7),
        zero_at=st.integers(0, 6),
        block_bytes=st.sampled_from([8, 100, 600, 64 << 20]),
        top_n=st.integers(1, 70),
        seed=st.integers(0, 2**16),
    )
    def test_each_query_equals_the_oracle(self, shapes, zero_at, block_bytes, top_n, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(1, 4))
        base = rng.normal(size=(int(rng.integers(5, 9)), int(rng.integers(5, 9)), c))
        base[: int(rng.integers(2, 5)), : int(rng.integers(2, 5)), :] = 0.0  # zero-norm placements
        pyr = FeaturePyramid(
            levels=(
                (1.0, fmap_from(base)),
                (0.7, random_fmap(rng, 4, 5, c)),
                (0.5, random_fmap(rng, 2, 3, c)),  # too short for 2x3 and 4x3 windows
            ),
            cell_stride=4.0,
        )
        queries = []
        for i, (w, h) in enumerate(shapes):
            if i == zero_at % len(shapes):
                queries.append(QueryWindow(w_cells=w, h_cells=h, channels=c, data=np.zeros(w * h * c)))
            elif i % 2:
                queries.append(QueryWindow(w_cells=w, h_cells=h, channels=c,
                                           data=rng.normal(size=w * h * c)))
            else:
                x, y = int(rng.integers(0, base.shape[1] - w + 1)), int(rng.integers(0, base.shape[0] - h + 1))
                queries.append(extract_window(fmap_from(base), (x, y, w, h)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(featmap, "SCAN_BLOCK_BYTES", block_bytes)
            score, place = scan_queries(queries, pyr, top_n)
        assert score.shape == place.shape[:2] == (len(queries), top_n)
        for q, query in enumerate(queries):
            want = slide_match_oracle(query, pyr, top_n)
            got = [(s, *where) for s, where in zip(score[q].tolist(), place[q].tolist())]
            assert got[: len(want)] == want
            assert got[len(want):] == [(-np.inf, -1, -1, -1)] * (top_n - len(want))


class TestPyramidValidation:
    def test_scales_must_decrease(self):
        fm = fmap_from(np.zeros((4, 4, 1)))
        with pytest.raises(ConfigInvalidError):
            FeaturePyramid(levels=((1.0, fm), (1.0, fm)), cell_stride=1.0)

    def test_seven_levels_need_root_two_ratio(self):
        fm = fmap_from(np.zeros((4, 4, 1)))
        bad = tuple((1.0 / (i + 1), fm) for i in range(7))
        with pytest.raises(ConfigInvalidError):
            FeaturePyramid(levels=bad, cell_stride=1.0)
        good = tuple(((2 ** -0.5) ** i, fm) for i in range(7))
        FeaturePyramid(levels=good, cell_stride=1.0)

    def test_too_many_levels(self):
        fm = fmap_from(np.zeros((4, 4, 1)))
        with pytest.raises(ConfigInvalidError):
            FeaturePyramid(
                levels=tuple((0.9 ** i, fm) for i in range(8)), cell_stride=1.0
            )


class TestFmapIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        fm = random_fmap(rng, 5, 6, 3)
        write_fmap(tmp_path / "a.fmap", fm)
        back = read_fmap(tmp_path / "a.fmap")
        assert np.array_equal(back.data, fm.data)

    def test_bit_exact_layout(self, tmp_path):
        arr = np.array([[[1.5, -2.0], [0.0, 4.0]]], dtype=np.float32)  # 1x2x2
        write_fmap(tmp_path / "b.fmap", fmap_from(arr))
        raw = (tmp_path / "b.fmap").read_bytes()
        assert raw[:4] == b"FMAP"
        assert raw[4] == 1
        assert np.frombuffer(raw[5:17], dtype="<u4").tolist() == [1, 2, 2]
        assert np.frombuffer(raw[17:], dtype="<f4").tolist() == [1.5, -2.0, 0.0, 4.0]

    def test_rejects_corrupt_header(self, tmp_path):
        (tmp_path / "bad.fmap").write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ConfigInvalidError):
            read_fmap(tmp_path / "bad.fmap")

    def test_non_finite_error_names_the_file(self, tmp_path):
        arr = np.ones((2, 3, 2), dtype=np.float32)
        write_fmap(tmp_path / "nan.fmap", fmap_from(arr))
        raw = bytearray((tmp_path / "nan.fmap").read_bytes())
        raw[17:21] = np.array([np.nan], dtype="<f4").tobytes()
        (tmp_path / "nan.fmap").write_bytes(bytes(raw))
        with pytest.raises(ConfigInvalidError, match="nan.fmap: .*non-finite"):
            read_fmap(tmp_path / "nan.fmap")

    def test_empty_dimension_error_names_the_file(self, tmp_path):
        header = np.array([0, 3, 2], dtype="<u4").tobytes()
        (tmp_path / "empty.fmap").write_bytes(b"FMAP" + bytes([1]) + header)
        with pytest.raises(ConfigInvalidError, match="empty.fmap: .*empty dimension"):
            read_fmap(tmp_path / "empty.fmap")

    def test_rejects_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(8)
        fm = random_fmap(rng, 2, 2, 2)
        write_fmap(tmp_path / "c.fmap", fm)
        raw = (tmp_path / "c.fmap").read_bytes()
        (tmp_path / "c.fmap").write_bytes(raw[:-4])
        with pytest.raises(ConfigInvalidError):
            read_fmap(tmp_path / "c.fmap")


class TestAtomicWrites:
    """FMAP writes go through a temp file: a write that fails leaves the
    earlier file as it was and no temp file behind."""

    @staticmethod
    def refuse_renames_onto(monkeypatch, name):
        rename = atomic.os.replace

        def refuse(src, dst):
            if Path(dst).name == name:
                raise OSError("no space left on device")
            rename(src, dst)

        monkeypatch.setattr(atomic.os, "replace", refuse)

    @staticmethod
    def snapshot(directory):
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    def test_failed_fmap_write_keeps_earlier_file(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(10)
        write_fmap(tmp_path / "a.fmap", random_fmap(rng, 3, 4, 2))
        before = self.snapshot(tmp_path)
        self.refuse_renames_onto(monkeypatch, "a.fmap")
        with pytest.raises(OSError):
            write_fmap(tmp_path / "a.fmap", random_fmap(rng, 5, 5, 2))
        assert self.snapshot(tmp_path) == before

    def test_write_failing_midway_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "a.fmap"
        path.write_bytes(b"earlier")

        def partial(fh):
            fh.write(b"FMAP")
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            atomic.write_atomic(path, partial, binary=True)
        assert self.snapshot(tmp_path) == {"a.fmap": b"earlier"}


class TestPooling:
    def test_center_surround_shape_and_values(self):
        arr = np.zeros((8, 8, 2))
        arr[2:4, 2:4, 0] = 4.0  # 2x2 block in channel 0
        feat = pool_box_feature(fmap_from(arr), BBox(2, 2, 4, 4))
        assert feat.shape == (4,)
        assert feat[0] == pytest.approx(4.0)
        # ring: 6x6 window minus 2x2 interior = 32 cells, 0 signal
        assert feat[2] == pytest.approx(0.0)

    def test_whole_map_has_zero_surround(self):
        arr = np.full((4, 4, 1), 2.0)
        feat = pool_box_feature(fmap_from(arr), BBox(0, 0, 4, 4))
        assert feat.tolist() == [2.0, 0.0]

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 11), st.integers(0, 11), st.integers(1, 12), st.integers(1, 12),
    )
    def test_interior_has_the_bits_of_the_mean(self, seed, x0, y0, w, h):
        arr = np.random.default_rng(seed).normal(size=(12, 12, 3)).astype(np.float32)
        x1, y1 = min(12, x0 + w), min(12, y0 + h)
        want = arr.astype(np.float64)[y0:y1, x0:x1, :].mean(axis=(0, 1))
        feat = pool_box_feature(fmap_from(arr), BBox(x0, y0, x1, y1))
        assert np.array_equal(feat[:3], want)


def test_build_query_window_snaps_and_resamples():
    rng = np.random.default_rng(10)
    fm = random_fmap(rng, 16, 16, 4)
    q = build_query_window(fm, BBox(3, 4, 9, 9), cell_stride=1.0, target_cells=30)
    assert (q.w_cells, q.h_cells) == window_shape_for_box(BBox(3, 4, 9, 9), 30)
