import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from boxforge import atomic, featmap
from boxforge.errors import ConfigInvalidError, WindowTooLargeError
from boxforge.featmap import (
    build_query_window,
    placement_boxes,
    pool_box_feature,
    read_fmap,
    scan_queries,
    window_shape_for_box,
    write_fmap,
)
from boxforge.geometry import BBox, box_array


def fmap_from(arr):
    return np.asarray(arr, dtype=np.float32)


def random_fmap(rng, h, w, c):
    return fmap_from(rng.normal(size=(h, w, c)))


def window(fmap, rect):
    """The (x, y, w, h) cell rectangle of ``fmap`` as a float64 query window."""
    x, y, w, h = rect
    return fmap[y : y + h, x : x + w, :].astype(np.float64)


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
        assert window_shape_for_box(BBox(0, 0, 10, 10), 48) == (7, 7)

    def test_two_to_one_box(self):
        assert window_shape_for_box(BBox(0, 0, 20, 10), 48) == (10, 5)

    def test_extreme_aspect_clamped(self):
        w, h = window_shape_for_box(BBox(0, 0, 100, 1), 48)
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
    """A box whose cell rectangle already has its assigned window shape
    gives the rectangle's float64 slice."""

    def test_full_map(self):
        rng = np.random.default_rng(0)
        fm = random_fmap(rng, 4, 5, 3)
        q = build_query_window(fm, BBox(0, 0, 5, 4), 1.0, 20)  # assigned (5, 4)
        assert q.dtype == np.float64
        assert np.array_equal(q, fm)

    def test_single_cell(self):
        # a window is at least 2 x 2 cells, each one the cell's value
        rng = np.random.default_rng(1)
        fm = random_fmap(rng, 4, 5, 3)
        q = build_query_window(fm, BBox(2, 3, 3, 4), 1.0, 1)
        assert q.shape == (2, 2, 3)
        assert np.allclose(q, fm[3, 2, :])

    def test_known_slice_order(self):
        # one channel; values encode (y, x) so flattening order is visible
        arr = np.arange(12, dtype=np.float32).reshape(3, 4, 1)
        q = build_query_window(fmap_from(arr), BBox(1, 0, 3, 2), 1.0, 4)
        assert q.reshape(-1).tolist() == [1.0, 2.0, 5.0, 6.0]


class TestResampleWindow:
    def test_identity_when_shape_matches(self):
        rng = np.random.default_rng(2)
        fm = random_fmap(rng, 6, 6, 2)
        q = build_query_window(fm, BBox(1, 1, 4, 3), 1.0, 6)  # assigned (3, 2)
        assert q.tobytes() == window(fm, (1, 1, 3, 2)).tobytes()

    def test_constant_patch_stays_constant(self):
        fm = fmap_from(np.full((8, 8, 2), 3.25))
        q = build_query_window(fm, BBox(0, 0, 8, 8), 1.0, 16)
        assert q.shape == (4, 4, 2)
        assert np.allclose(q, 3.25)

    def test_linear_ramp_preserved(self):
        # bilinear resampling reproduces a linear gradient exactly at
        # matching sample phases (2x downscale of a ramp)
        xs = np.arange(8, dtype=np.float64)
        arr = np.tile(xs[None, :, None], (4, 1, 1))
        q = build_query_window(fmap_from(arr), BBox(0, 0, 8, 4), 1.0, 8)
        expected = np.tile(np.array([0.5, 2.5, 4.5, 6.5])[None, :, None], (2, 1, 1))
        assert np.allclose(q, expected)


def map_window_to_pixels(cell_x, cell_y, w_cells, h_cells, cell_stride):
    """Pixel-space box of one window placed at (cell_x, cell_y): the scalar
    arithmetic :func:`placement_boxes` must reproduce bit for bit."""
    return BBox(
        cell_x * cell_stride,
        cell_y * cell_stride,
        (cell_x + w_cells) * cell_stride,
        (cell_y + h_cells) * cell_stride,
    )


class TestPlacementBoxes:
    def test_unit_mapping(self):
        assert placement_boxes(np.array([0, 0]), (3, 3), 16.0).tolist() == [0, 0, 48, 48]

    def test_double_stride_doubles(self):
        place = np.array([[2, 1], [0, 3]])
        b1, b2 = placement_boxes(place, (3, 4), 16.0), placement_boxes(place, (3, 4), 32.0)
        assert np.array_equal(b2, 2 * b1)

    def test_irrational_stride(self):
        stride = 16.0 * 2 ** 0.5
        b = placement_boxes(np.array([1, 2]), (4, 2), stride)
        assert b.tolist() == pytest.approx([2 * stride, 1 * stride, 6 * stride, 3 * stride])

    @given(
        cell_stride=st.floats(0.25, 64.0),
        rows=st.lists(
            st.tuples(st.integers(0, 200), st.integers(0, 200),
                      st.integers(1, 60), st.integers(1, 60)),
            min_size=1, max_size=12,
        ),
        n_padding=st.integers(0, 3),
    )
    def test_bits_of_the_scalar_oracle(self, cell_stride, rows, n_padding):
        """Rows of (cell_y, cell_x), with padding rows (place -1) after
        them, as :func:`scan_queries` pads."""
        rows += [(-1, -1, w, h) for *_, w, h in rows[:n_padding]]
        place = np.array([row[:2] for row in rows])
        got = placement_boxes(place, np.array([row[2:] for row in rows]), cell_stride)
        want = np.array([
            map_window_to_pixels(cx, cy, w, h, cell_stride).as_list() for cy, cx, w, h in rows
        ])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def scan_oracle(query, fm, top_n):
    """Brute-force every placement and rank with the documented tie-break."""
    qf = query.reshape(-1)
    nq = float(np.linalg.norm(qf))
    h, w = query.shape[:2]
    hits = []
    for cy in range(fm.shape[0] - h + 1):
        for cx in range(fm.shape[1] - w + 1):
            wf = (
                fm[cy : cy + h, cx : cx + w, :]
                .astype(np.float64)
                .reshape(-1)
            )
            nw = float(np.linalg.norm(wf))
            score = 0.0 if nq < 1e-12 or nw < 1e-12 else min(1.0, max(-1.0, float(np.dot(qf, wf) / (nq * nw))))
            hits.append((score, cy, cx))
    hits.sort(key=lambda h: (-h[0], h[1], h[2]))
    return hits[:top_n]


def scan_hits(query, fmap, top_n):
    """One query's ranked rows from :func:`scan_queries`, as (score, cell_y,
    cell_x), padding rows dropped."""
    (score,), (place,) = scan_queries([query], fmap, top_n)
    return [(s, cy, cx) for s, (cy, cx) in zip(score.tolist(), place.tolist()) if s > -np.inf]


class TestScanOneQuery:
    def test_identity_planting(self):
        rng = np.random.default_rng(3)
        fm = random_fmap(rng, 10, 12, 4)
        q = window(fm, (3, 2, 4, 5))
        (score, cy, cx), *_ = scan_hits(q, fm, 3)
        assert (cx, cy) == (3, 2)
        assert score == pytest.approx(1.0, abs=1e-6)

    def test_all_zero_frame_scores_zero_first_placement(self):
        fm = fmap_from(np.zeros((6, 6, 2)))
        q = window(fm, (1, 1, 2, 2))
        hits = scan_hits(q, fm, 2)
        assert all(score == 0.0 for score, _, _ in hits)
        assert hits[0][1:] == (0, 0)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(4)
        fm = random_fmap(rng, 8, 8, 3)
        planted = window(fm, (2, 4, 3, 2))
        assert scan_hits(planted, fm, 3) == scan_oracle(planted, fm, 3)

    def test_window_too_large(self):
        fm = fmap_from(np.zeros((3, 3, 1)))
        q = window(fm, (0, 0, 3, 3))
        small = fmap_from(np.zeros((2, 2, 1)))
        with pytest.raises(WindowTooLargeError):
            scan_queries([q], small, top_n=1)

    def test_one_shape_too_large_refuses_the_scan(self):
        fm = fmap_from(np.ones((3, 4, 1)))
        fits = window(fm, (0, 0, 2, 2))
        too_tall = np.ones((4, 2, 1))
        with pytest.raises(WindowTooLargeError, match="4x2 cells"):
            scan_queries([fits, too_tall], fm, top_n=1)

    def test_best_placement_box_at_the_stride(self):
        rng = np.random.default_rng(8)
        fm = random_fmap(rng, 6, 7, 2)
        q = window(fm, (3, 1, 2, 3))
        _, (place,) = scan_queries([q], fm, top_n=1)
        assert place.tolist() == [[1, 3]]  # (cell_y, cell_x)
        box = placement_boxes(place, q.shape[1::-1], 4.0)
        assert BBox(*box[0]) == BBox(12.0, 4.0, 20.0, 16.0)

    def test_scores_invariant_to_positive_feature_scaling(self):
        rng = np.random.default_rng(5)
        fm = random_fmap(rng, 7, 7, 3)
        q = window(fm, (1, 1, 3, 3))
        base = scan_hits(q, fm, 5)
        scaled = scan_hits(q, fmap_from(fm * 3.7), 5)
        assert len(base) == len(scaled) == 5
        for (a, *at), (b, *bt) in zip(base, scaled):
            # maps store float32, so the rescaled grid is rounded before scoring
            assert b == pytest.approx(a, abs=1e-6)
            assert at == bt

    def test_planted_copy_attains_global_max(self):
        rng = np.random.default_rng(6)
        fm_arr = rng.normal(size=(9, 9, 4)).astype(np.float32)
        q = window(fmap_from(fm_arr), (5, 5, 3, 3))
        other = rng.normal(size=(9, 9, 4)).astype(np.float32)
        other[1:4, 2:5, :] = q
        [(score, cy, cx)] = scan_hits(q, fmap_from(other), 1)
        assert (cx, cy) == (2, 1)
        assert score == pytest.approx(1.0, abs=1e-6)


class TestScanOneQueryOracle:
    """The array scan must equal the one-placement-at-a-time oracle exactly."""

    def test_top_n_beyond_the_placements(self):
        rng = np.random.default_rng(11)
        base = random_fmap(rng, 12, 14, 5)
        q = window(base, (3, 2, 5, 4))
        n = 12 * 14  # more than the 9 x 10 placements
        hits = scan_hits(q, base, n)
        assert hits == scan_oracle(q, base, n)
        assert len(hits) == 9 * 10

    def test_zero_norm_placements_and_zero_query(self):
        rng = np.random.default_rng(12)
        arr = rng.normal(size=(9, 10, 3))
        arr[:5, :6, :] = 0.0
        fm = fmap_from(arr)
        q = window(fm, (4, 5, 3, 3))
        assert scan_hits(q, fm, 80) == scan_oracle(q, fm, 80)
        zero_q = np.zeros((3, 3, 3))
        hits = scan_hits(zero_q, fm, 80)
        assert hits == scan_oracle(zero_q, fm, 80)
        assert all(score == 0.0 for score, _, _ in hits)

    @pytest.mark.parametrize("cap_rows", [0.5, 1, 3, 7, 25])
    def test_map_scanned_in_blocks(self, monkeypatch, cap_rows):
        rng = np.random.default_rng(13)
        fm = random_fmap(rng, 11, 13, 4)
        q = build_query_window(fm, BBox(2, 3, 7, 7), 1.0, 12)
        assert q.shape == (3, 4, 4)
        n = 9 * 10
        whole = scan_hits(q, fm, n)
        # cap_rows placement rows of 4x3x4 float64 values per block
        monkeypatch.setattr(featmap, "SCAN_BLOCK_BYTES", int(cap_rows * 8 * q.size))
        blocked = scan_hits(q, fm, n)
        assert blocked == whole == scan_oracle(q, fm, n)



class TestGroupedScan:
    """Queries of mixed window shapes scanned together on one map: each
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
        fm = fmap_from(base)
        queries = []
        for i, (w, h) in enumerate(shapes):
            if i == zero_at % len(shapes):
                queries.append(np.zeros((h, w, c)))
            elif i % 2:
                queries.append(rng.normal(size=(h, w, c)))
            else:
                x, y = int(rng.integers(0, base.shape[1] - w + 1)), int(rng.integers(0, base.shape[0] - h + 1))
                queries.append(window(fmap_from(base), (x, y, w, h)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(featmap, "SCAN_BLOCK_BYTES", block_bytes)
            score, place = scan_queries(queries, fm, top_n)
        assert score.shape == place.shape[:2] == (len(queries), top_n)
        for q, query in enumerate(queries):
            want = scan_oracle(query, fm, top_n)
            got = [(s, *where) for s, where in zip(score[q].tolist(), place[q].tolist())]
            assert got[: len(want)] == want
            assert got[len(want):] == [(-np.inf, -1, -1)] * (top_n - len(want))


class TestScanTies:
    """Tied scores keep the (y, x) placement order, for ``top_n`` below, at
    and above the number of placements."""

    @pytest.mark.parametrize("top_n", [1, 5, 16, 17, 131, 132, 133])
    def test_constant_map(self, top_n):
        fm = fmap_from(np.full((12, 13, 2), 0.5))
        q = window(fm, (2, 1, 2, 2))
        hits = scan_hits(q, fm, top_n)
        assert hits == scan_oracle(q, fm, top_n)
        assert len({score for score, _, _ in hits}) == 1
        assert [where for _, *where in hits] == [[y, x] for y in range(11) for x in range(12)][:top_n]

    @pytest.mark.parametrize("top_n", [1, 4, 21, 25, 26, 30])
    def test_duplicated_windows(self, top_n):
        # a 3x3 tile repeated 5x5 times: windows 3 cells apart are equal
        rng = np.random.default_rng(14)
        fm = fmap_from(np.tile(rng.normal(size=(3, 3, 2)), (5, 5, 1)))
        queries = [window(fm, (4, 1, 2, 3)), window(fm, (0, 0, 3, 3))]
        score, place = scan_queries(queries, fm, top_n)
        for q, query in enumerate(queries):
            want = scan_oracle(query, fm, top_n)
            assert [(s, *where) for s, where in zip(score[q].tolist(), place[q].tolist())] == want
        assert score[1, : min(top_n, 25)].tolist() == [score[1, 0]] * min(top_n, 25)


class TestFmapIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        fm = random_fmap(rng, 5, 6, 3)
        write_fmap(tmp_path / "a.fmap", fm)
        back = read_fmap(tmp_path / "a.fmap")
        assert np.array_equal(back, fm)

    def test_read_gives_a_read_only_float32_array(self, tmp_path):
        write_fmap(tmp_path / "a.fmap", random_fmap(np.random.default_rng(7), 5, 6, 3))
        fm = read_fmap(tmp_path / "a.fmap")
        assert type(fm) is np.ndarray and fm.shape == (5, 6, 3) and fm.dtype == np.float32
        assert not fm.flags.writeable
        with pytest.raises(ValueError):
            fm[0, 0, 0] = 1.0

    def test_float64_writes_the_bytes_of_its_float32_cast(self, tmp_path):
        arr = np.random.default_rng(9).normal(size=(4, 3, 5))
        write_fmap(tmp_path / "f64.fmap", arr)
        write_fmap(tmp_path / "f32.fmap", arr.astype(np.float32))
        assert (tmp_path / "f64.fmap").read_bytes() == (tmp_path / "f32.fmap").read_bytes()

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


def pool_one(fmap, box, cell_stride):
    """One box pooled as the one-box ``pool_box_feature`` did, kept as the
    oracle of each row of the many-row one."""
    m = featmap.POOL_SURROUND_MARGIN
    height, width = fmap.shape[:2]
    x0 = max(0, min(int(math.floor(box.x_min / cell_stride)), width - 1))
    y0 = max(0, min(int(math.floor(box.y_min / cell_stride)), height - 1))
    x1 = max(x0 + 1, min(int(math.ceil(box.x_max / cell_stride)), width))
    y1 = max(y0 + 1, min(int(math.ceil(box.y_max / cell_stride)), height))
    ox0, oy0 = max(0, x0 - m), max(0, y0 - m)
    ox1, oy1 = min(width, x1 + m), min(height, y1 + m)
    outer = fmap[oy0:oy1, ox0:ox1, :].astype(np.float64)
    inner_sum = outer[y0 - oy0 : y1 - oy0, x0 - ox0 : x1 - ox0, :].sum(axis=(0, 1))
    inner = inner_sum / ((y1 - y0) * (x1 - x0))
    outer_sum = outer.sum(axis=(0, 1))
    ring_cells = (oy1 - oy0) * (ox1 - ox0) - (y1 - y0) * (x1 - x0)
    if ring_cells > 0:
        ring = (outer_sum - inner_sum) / ring_cells
    else:
        ring = np.zeros(fmap.shape[2])
    return np.concatenate([inner, ring])


# Cell values with exact ties and both signed zeros, and float32 values
# whose magnitudes are far enough apart that float64 sums round, so the
# order a sum is taken in shows in its bits.
cell_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.25]),
    st.floats(-(2.0**40), 2.0**40, width=32),
)


@st.composite
def pooling_cases(draw):
    """(fmap, coords, cell_stride): a 1-6 x 1-6 map of 1-3 channels and 0-8
    boxes, drawn on the pixel grid the stride spans plus a margin, so boxes
    reach past the edges, sit on them and cover the whole map."""
    h, w, c = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    arr = np.array(draw(st.lists(cell_values, min_size=h * w * c, max_size=h * w * c)))
    stride = draw(st.sampled_from([0.5, 1.0, 2.0]))
    whole = [0.0, 0.0, w * stride, h * stride]
    edges = st.sampled_from([0.0, 0.25, 1.0, 2.5, w * stride, h * stride, 7.0])
    box = st.tuples(edges, edges, edges, edges).map(
        lambda v: [min(v[0], v[2]), min(v[1], v[3]), max(v[0], v[2]) + 0.5, max(v[1], v[3]) + 0.5]
    )
    rows = draw(st.lists(st.one_of(st.just(whole), box), max_size=8))
    return fmap_from(arr.reshape(h, w, c)), np.array(rows).reshape(-1, 4), stride


class TestPooling:
    def test_center_surround_shape_and_values(self):
        arr = np.zeros((8, 8, 2))
        arr[2:4, 2:4, 0] = 4.0  # 2x2 block in channel 0
        [feat] = pool_box_feature(fmap_from(arr), box_array([BBox(2, 2, 4, 4)]), 1.0)
        assert feat.shape == (4,)
        assert feat[0] == pytest.approx(4.0)
        # ring: 6x6 window minus 2x2 interior = 32 cells, 0 signal
        assert feat[2] == pytest.approx(0.0)

    def test_whole_map_has_zero_surround(self):
        arr = np.full((4, 4, 1), 2.0)
        feat = pool_box_feature(fmap_from(arr), box_array([BBox(0, 0, 4, 4)]), 1.0)
        assert feat.tolist() == [[2.0, 0.0]]

    def test_no_rows_give_an_empty_block(self):
        feat = pool_box_feature(fmap_from(np.ones((3, 4, 5))), np.zeros((0, 4)), 2.0)
        assert feat.shape == (0, 10) and feat.dtype == np.float64

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 11), st.integers(0, 11), st.integers(1, 12), st.integers(1, 12),
    )
    def test_interior_has_the_bits_of_the_mean(self, seed, x0, y0, w, h):
        arr = np.random.default_rng(seed).normal(size=(12, 12, 3)).astype(np.float32)
        x1, y1 = min(12, x0 + w), min(12, y0 + h)
        want = arr.astype(np.float64)[y0:y1, x0:x1, :].mean(axis=(0, 1))
        [feat] = pool_box_feature(fmap_from(arr), box_array([BBox(x0, y0, x1, y1)]), 1.0)
        assert np.array_equal(feat[:3], want)

    @settings(max_examples=200)
    @given(pooling_cases())
    def test_each_row_has_the_bits_of_pooling_its_box_alone(self, case):
        fmap, coords, stride = case
        got = pool_box_feature(fmap, coords, stride)
        assert got.shape == (len(coords), 2 * fmap.shape[2]) and got.dtype == np.float64
        for row, corners in zip(got, coords.tolist()):
            assert row.tobytes() == pool_one(fmap, BBox(*corners), stride).tobytes()


def test_build_query_window_snaps_and_resamples():
    rng = np.random.default_rng(10)
    fm = random_fmap(rng, 16, 16, 4)
    q = build_query_window(fm, BBox(3, 4, 9, 9), cell_stride=1.0, target_cells=30)
    assert q.shape == (*window_shape_for_box(BBox(3, 4, 9, 9), 30)[::-1], 4)


def cell_rect(fmap, box, cell_stride):
    """The (x, y, w, h) cells a box covers, clamped into the map."""
    height, width = fmap.shape[:2]
    x0 = max(0, min(int(math.floor(box.x_min / cell_stride)), width - 1))
    y0 = max(0, min(int(math.floor(box.y_min / cell_stride)), height - 1))
    x1 = max(x0 + 1, min(int(math.ceil(box.x_max / cell_stride)), width))
    y1 = max(y0 + 1, min(int(math.ceil(box.y_max / cell_stride)), height))
    return x0, y0, x1 - x0, y1 - y0


def window_oracle(fmap, box, cell_stride, target_cells):
    """A box's window as the slice-then-resample pair of window functions
    built it, flattened to float64, kept as the oracle of
    :func:`build_query_window`."""
    x, y, w, h = cell_rect(fmap, box, cell_stride)
    out_w, out_h = window_shape_for_box(box, target_cells)
    if (out_w, out_h) == (w, h):
        data = np.ascontiguousarray(fmap[y : y + h, x : x + w, :]).reshape(-1)
        return data.astype(np.float64)  # as the scan read it
    patch = fmap[y : y + h, x : x + w, :].astype(np.float64)
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
    return np.ascontiguousarray(top * (1 - wy) + bot * wy).reshape(-1)


@st.composite
def window_cases(draw):
    """(fmap, box, cell_stride, target_cells): a 1-8 x 1-8 map of 1-3
    channels, a box on the pixel grid the stride spans plus a margin, so it
    reaches past the edges, sits on them or covers the whole map, and a
    target of 1-60 cells."""
    h, w, c = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 3))
    arr = np.array(draw(st.lists(cell_values, min_size=h * w * c, max_size=h * w * c)))
    stride = draw(st.sampled_from([0.5, 1.0, 2.0]))
    edges = st.sampled_from([0.0, 0.25, 1.0, 2.5, 3.0, w * stride, h * stride, 9.0, 17.5])
    x, y = sorted(draw(st.lists(edges, min_size=2, max_size=2, unique=True)))
    u, v = sorted(draw(st.lists(edges, min_size=2, max_size=2, unique=True)))
    box = draw(st.sampled_from([BBox(x, u, y, v), BBox(0.0, 0.0, w * stride, h * stride)]))
    fmap = fmap_from(arr.reshape(h, w, c))
    *_, rect_w, rect_h = cell_rect(fmap, box, stride)
    # a target of the rectangle's own area often assigns its shape
    return fmap, box, stride, draw(st.one_of(st.integers(1, 60), st.just(rect_w * rect_h)))


@settings(max_examples=200)
@given(window_cases())
def test_window_has_the_bits_of_the_slice_then_resample_oracle(case):
    fmap, box, stride, target = case
    q = build_query_window(fmap, box, stride, target)
    w, h = window_shape_for_box(box, target)
    assert q.shape == (h, w, fmap.shape[2]) and q.dtype == np.float64
    assert q.tobytes() == window_oracle(fmap, box, stride, target).tobytes()
