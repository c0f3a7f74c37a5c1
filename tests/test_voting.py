import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from boxforge import atomic, voting
from boxforge.errors import ConfigInvalidError, DegenerateBoxError, IoFailureError, NoPointsError
from boxforge.geometry import BBox, box_array, clip_box
from boxforge.voting import (
    PseudoGT,
    VoteSpace,
    export_heatmap,
    mean_shift_modes,
    select_pseudo_gt,
)


def vote_value(l, space):
    """Kernel-weighted vote sum at location ``l`` (a 4-vector), through the
    blocked kernel sum ``voting._votes`` that ranks every mean-shift mode."""
    l = np.asarray(l, dtype=np.float64).reshape(1, 4)
    if space.n_points == 0:
        return 0.0
    b_rows = np.array([space.bandwidth], dtype=np.float64)
    return float(voting._votes(l, b_rows, space.points)[0])


def space(points, b=1.0):
    return VoteSpace(points=np.asarray(points, dtype=np.float64), bandwidth=b)


def oracle_vote(l, points, b):
    """Independent Gaussian kernel-sum evaluation."""
    total = 0.0
    for p in points:
        d2 = sum((li - pi) ** 2 for li, pi in zip(l, p)) / (b * b)
        total += math.exp(-0.5 * d2)
    return total


class TestVoteValue:
    def test_single_point_scores_one_at_itself(self):
        s = space([[1, 2, 3, 4]])
        assert vote_value([1, 2, 3, 4], s) == 1.0

    def test_m_coincident_points_score_exactly_m(self):
        for m in (1, 5, 25):
            s = space([[2, 2, 8, 8]] * m, b=3.0)
            assert vote_value([2, 2, 8, 8], s) == float(m)

    def test_two_points_one_bandwidth_apart_gaussian(self):
        b = 4.0
        s = space([[0, 0, 0, 0], [b, 0, 0, 0]], b=b)
        assert vote_value([0, 0, 0, 0], s) == pytest.approx(1.0 + math.exp(-0.5))

    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50))
    def test_translation_equivariance(self, dx, dy, dz, dw):
        pts = np.array([[0, 1, 5, 6], [2, 2, 7, 9], [1, 0, 4, 4]], dtype=np.float64)
        shift = np.array([dx, dy, dz, dw])
        l = np.array([1.0, 1.0, 5.0, 6.0])
        a = vote_value(l, space(pts, b=2.0))
        b = vote_value(l + shift, space(pts + shift, b=2.0))
        assert b == pytest.approx(a, rel=1e-9, abs=1e-12)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(40)
        pts = rng.normal(size=(12, 4)) * 3
        s = space(pts, b=1.7)
        l = rng.normal(size=4)
        assert vote_value(l, s) == pytest.approx(oracle_vote(l, pts, 1.7), rel=1e-12)


class TestVoteSpaceValidation:
    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ConfigInvalidError):
            space([[0, 0, 1, 1]], b=0.0)

    def test_rejects_wrong_width(self):
        with pytest.raises(ConfigInvalidError):
            VoteSpace(points=np.zeros((3, 3)), bandwidth=1.0)


class TestMeanShiftModes:
    def test_coincident_points_single_mode(self):
        s = space([[3, 4, 9, 11]] * 6, b=2.0)
        modes = mean_shift_modes(s)
        assert len(modes) == 1
        assert modes[0][0] == pytest.approx([3, 4, 9, 11])
        assert modes[0][1] == 6.0

    def test_empty_raises(self):
        with pytest.raises(NoPointsError):
            mean_shift_modes(VoteSpace(points=np.zeros((0, 4)), bandwidth=1.0))

    def test_two_far_clusters_give_two_modes_at_centroids(self):
        b = 1.0
        left = [[0, 0, 0, 0]] * 4
        right = [[10 * b, 0, 0, 0]] * 3
        s = space(left + right, b=b)
        modes = mean_shift_modes(s)
        assert len(modes) == 2
        assert modes[0][0] == pytest.approx([0, 0, 0, 0], abs=1e-3)
        assert modes[0][1] == pytest.approx(4.0, rel=1e-9)
        assert modes[1][0] == pytest.approx([10, 0, 0, 0], abs=1e-3)

        # grid-search oracle: the reported best mode beats a b/4-pitch grid
        grid_best = max(
            oracle_vote([x, 0, 0, 0], s.points, b)
            for x in np.arange(-1, 11.25, b / 4)
        )
        assert modes[0][1] >= grid_best - 1e-6

    def test_modes_sorted_by_vote(self):
        s = space([[0, 0, 0, 0]] * 2 + [[8, 8, 8, 8]] * 5, b=1.0)
        modes = mean_shift_modes(s)
        votes = [v for _, v in modes]
        assert votes == sorted(votes, reverse=True)


# ---- reference mean-shift: one seed at a time, per-seed matrix-vector sums ----


def oracle_vote_value(l, space):
    l = np.asarray(l, dtype=np.float64).reshape(4)
    if space.n_points == 0:
        return 0.0
    diff = (space.points - l) / space.bandwidth
    sq = np.sum(diff * diff, axis=1)
    return float(np.sum(np.exp(-0.5 * sq)))


def oracle_ascend(seed, space, tol, max_iter):
    pts = space.points
    b = space.bandwidth
    m = seed.astype(np.float64).copy()
    for _ in range(max_iter):
        diff = (pts - m) / b
        sq = np.sum(diff * diff, axis=1)
        w = np.exp(-0.5 * sq)
        total = float(np.sum(w))
        if total <= 0.0:
            break
        new = (w @ pts) / total
        step = float(np.linalg.norm(new - m))
        m = new
        if step < tol:
            break
    return m


def ranked_ascents_oracle(space, tol_per_bandwidth=1e-3, max_iter=200):
    """(location, vote) of the ascent from every point, repeats included,
    highest vote first, ties ordered by the location's coordinates."""
    tol = tol_per_bandwidth * space.bandwidth
    converged = [oracle_ascend(space.points[i], space, tol, max_iter) for i in range(space.n_points)]
    scored = [(m, oracle_vote_value(m, space)) for m in converged]
    scored.sort(key=lambda mv: (-mv[1], tuple(mv[0])))
    return scored


def merge_modes(scored, bandwidth):
    merge_radius = 0.5 * bandwidth
    modes = []
    for m, v in scored:
        if all(float(np.linalg.norm(m - km)) > merge_radius for km, _ in modes):
            modes.append((m, v))
    return modes


def mean_shift_oracle(space, tol_per_bandwidth=1e-3, max_iter=200):
    return merge_modes(
        ranked_ascents_oracle(space, tol_per_bandwidth, max_iter), space.bandwidth
    )


def patch_ascent(monkeypatch, tol_per_bandwidth, max_iter):
    """Set the ascent's tolerance and pass limit; returns them as the
    oracle's keyword arguments."""
    monkeypatch.setattr(voting, "TOL_PER_BANDWIDTH", tol_per_bandwidth)
    monkeypatch.setattr(voting, "MAX_ITER", max_iter)
    return {"tol_per_bandwidth": tol_per_bandwidth, "max_iter": max_iter}


def assert_modes_match_oracle(s, **kwargs):
    """The modes equal the oracle's; ``kwargs`` are the oracle's settings,
    which :func:`patch_ascent` has given the ascent."""
    got = mean_shift_modes(s)
    want = mean_shift_oracle(s, **kwargs)
    assert len(got) == len(want)
    for (m, v), (wm, wv) in zip(got, want):
        assert np.array_equal(m, wm)
        assert v == wv
    return got


def distinct_runs(locations):
    """``locations`` (sorted rows) with each row equal to the one before it dropped."""
    locations = np.asarray(locations, dtype=np.float64).reshape(-1, 4)
    keep = np.ones(len(locations), dtype=bool)
    keep[1:] = np.any(locations[1:] != locations[:-1], axis=1)
    return locations[keep]


def cloud(rng, n, n_centers=3, spread=2.0, grid=None):
    centers = rng.uniform(0, 40, size=(n_centers, 4))
    pts = centers[rng.integers(0, n_centers, n)] + rng.normal(scale=spread, size=(n, 4))
    return np.round(pts / grid) * grid if grid else pts


# Gaussian weights of far-apart points underflow to zero by design.
@pytest.mark.filterwarnings("ignore:underflow encountered:RuntimeWarning")
class TestMeanShiftMatchesOracle:
    @settings(max_examples=40)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 60),
        st.integers(1, 4),
        st.floats(0.3, 6.0),
        st.sampled_from([None, 0.5, 1.0]),
    )
    def test_random_spaces(self, seed, n, n_centers, b, grid):
        rng = np.random.default_rng(seed)
        pts = cloud(rng, n, n_centers, spread=rng.uniform(0.2, 4.0), grid=grid)
        assert_modes_match_oracle(space(pts, b=b))

    def test_seeds_converge_at_different_iterations(self):
        s = space(cloud(np.random.default_rng(7), 30, spread=2.0), b=4.0)
        tol = 1e-3 * s.bandwidth
        iters = set()
        for p in s.points:
            final = oracle_ascend(p, s, tol, 200)
            iters.add(next(k for k in range(201) if np.array_equal(oracle_ascend(p, s, tol, k), final)))
        assert len(iters) >= 3
        assert_modes_match_oracle(s)

    @pytest.mark.parametrize("max_iter", [0, 1])
    def test_zero_and_one_iteration(self, monkeypatch, max_iter):
        s = space(cloud(np.random.default_rng(8), 25), b=2.0)
        modes = assert_modes_match_oracle(s, **patch_ascent(monkeypatch, 1e-3, max_iter))
        if max_iter == 0:
            assert all(any(np.array_equal(m, p) for p in s.points) for m, _ in modes)

    def test_zero_tolerance_runs_every_iteration(self, monkeypatch):
        s = space(cloud(np.random.default_rng(9), 15), b=2.0)
        assert_modes_match_oracle(s, **patch_ascent(monkeypatch, 0.0, 50))

    def test_tied_votes_ordered_by_coordinates(self):
        # three triples too far apart to weigh on each other score exactly
        # 3.0 each; they are listed out of coordinate order
        triples = [[100, 0, 104, 4]] * 3 + [[0, 100, 4, 104]] * 3 + [[0, 0, 4, 4]] * 3
        modes = assert_modes_match_oracle(space(triples, b=1.0))
        assert [v for _, v in modes] == [3.0, 3.0, 3.0]
        assert [m.tolist() for m, _ in modes] == [[0, 0, 4, 4], [0, 100, 4, 104], [100, 0, 104, 4]]

    def test_single_point(self):
        modes = assert_modes_match_oracle(space([[1.5, 2.0, 7.25, 9.0]]))
        assert len(modes) == 1 and modes[0][1] == 1.0

    @pytest.mark.parametrize("rows", [1, 3])
    def test_small_blocks(self, monkeypatch, rows):
        # 3 rows per block does not divide the 20 points
        n = 20
        monkeypatch.setattr(voting, "ASCENT_BLOCK_BYTES", rows * n * 4 * 8)
        assert voting._block_rows(n) == rows
        s = space(cloud(np.random.default_rng(10), n, spread=3.0), b=2.0)
        assert_modes_match_oracle(s)

    @staticmethod
    def assert_joint_ascent_matches_oracle(pts, bandwidths, **kwargs):
        """One joint ascent over ``bandwidths`` gives, for each bandwidth,
        the per-space oracle's ranking (repeated rows aside) and modes;
        ``kwargs`` are the oracle's settings, as for
        :func:`assert_modes_match_oracle`."""
        pts = np.asarray(pts, dtype=np.float64)
        ranked = voting.ranked_ascents(pts, bandwidths)
        assert len(ranked) == len(bandwidths)
        for b, (locations, votes) in zip(bandwidths, ranked):
            s = space(pts, b=b)
            want = ranked_ascents_oracle(s, **kwargs)
            assert np.array_equal(distinct_runs(locations), distinct_runs([m for m, _ in want]))
            got = merge_modes(zip(locations, votes.tolist()), b)
            oracle = mean_shift_oracle(s, **kwargs)
            assert len(got) == len(oracle)
            for (m, v), (wm, wv) in zip(got, oracle):
                assert np.array_equal(m, wm)
                assert v == wv
        return ranked

    @settings(max_examples=30)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 60),
        st.lists(st.floats(0.3, 6.0), min_size=1, max_size=4),
        st.sampled_from([None, 0.5, 1.0, 3.0]),
    )
    def test_joint_ascent_over_mixed_bandwidths(self, seed, n, bandwidths, grid):
        rng = np.random.default_rng(seed)
        pts = cloud(rng, n, int(rng.integers(1, 5)), spread=rng.uniform(0.2, 4.0), grid=grid)
        self.assert_joint_ascent_matches_oracle(pts, bandwidths)

    def test_joint_ascent_over_duplicate_heavy_space(self):
        pts = cloud(np.random.default_rng(12), 120, n_centers=2, spread=0.6, grid=2.0)
        n_distinct = len(np.unique(pts, axis=0))
        assert n_distinct < len(pts) // 4
        ranked = self.assert_joint_ascent_matches_oracle(pts, [0.5, 2.0, 1.0, 6.0])
        # one ascent per distinct point, not per point
        assert all(len(locations) == n_distinct for locations, _ in ranked)

    @pytest.mark.parametrize("tol_per_bandwidth,max_iter", [(1e-3, 0), (1e-3, 1), (0.0, 1)])
    def test_joint_ascent_with_patched_tolerance_and_iterations(
        self, monkeypatch, tol_per_bandwidth, max_iter
    ):
        pts = cloud(np.random.default_rng(13), 40, spread=2.0, grid=0.5)
        self.assert_joint_ascent_matches_oracle(
            pts, [1.0, 3.0, 2.0], **patch_ascent(monkeypatch, tol_per_bandwidth, max_iter)
        )

    def test_vote_value_matches_oracle_exactly(self):
        rng = np.random.default_rng(11)
        s = space(cloud(rng, 40), b=1.5)
        for l in rng.uniform(0, 40, size=(20, 4)):
            assert vote_value(l, s) == oracle_vote_value(l, s)


def select(space, theta, image_bounds, image_id=""):
    """select_pseudo_gt on the space's own ranking, as the vote stage calls it."""
    [ranking] = voting.ranked_ascents(space.points, [space.bandwidth])
    return select_pseudo_gt(
        space, ranking=ranking, theta=theta, image_bounds=image_bounds, image_id=image_id
    )


def select_pseudo_gt_oracle(space, theta, image_bounds, image_id=""):
    """select_pseudo_gt as defined on the full merged mode list."""
    mode, vote = mean_shift_modes(space)[0]
    if vote < theta:
        return None
    try:
        raw = BBox(*[float(c) for c in mode])
    except DegenerateBoxError:
        return None
    box = clip_box(raw, image_bounds[0], image_bounds[1])
    if box is None:
        return None
    support = int(np.sum(np.linalg.norm(space.points - mode, axis=1) <= space.bandwidth))
    return PseudoGT(image_id=image_id, box=box, vote=vote, support=support)


class TestSelectPseudoGt:
    @pytest.mark.filterwarnings("ignore:underflow encountered:RuntimeWarning")
    @settings(max_examples=40)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 50),
        st.integers(1, 4),
        st.floats(0.3, 6.0),
        st.sampled_from([None, 0.5]),
        st.floats(0.0, 8.0),
    )
    def test_top_mode_matches_merged_mode_list(self, seed, n, n_centers, b, grid, theta):
        rng = np.random.default_rng(seed)
        pts = cloud(rng, n, n_centers, spread=rng.uniform(0.2, 3.0), grid=grid)
        pts[:, 2:] += 12.0  # mostly well-formed boxes; some stay inverted
        s = space(pts, b=b)
        bounds = (45.0, 45.0)
        assert select(s, theta, bounds, "i") == select_pseudo_gt_oracle(
            s, theta, bounds, "i"
        )

    def test_25_coincident_boxes_with_theta_20(self):
        s = space([[1, 1, 7, 6]] * 25, b=2.0)
        gt = select(s, theta=20.0, image_bounds=(16, 16), image_id="img")
        assert gt is not None
        assert gt.vote == 25.0
        assert gt.support == 25
        assert gt.box == BBox(1, 1, 7, 6)
        assert gt.updated is False

    def test_10_coincident_boxes_below_theta(self):
        s = space([[1, 1, 7, 6]] * 10, b=2.0)
        assert select(s, theta=20.0, image_bounds=(16, 16)) is None

    def test_exactly_theta_is_kept(self):
        s = space([[1, 1, 7, 6]] * 20, b=2.0)
        assert select(s, theta=20.0, image_bounds=(16, 16)) is not None

    def test_empty_space_has_no_ranking_to_select_from(self):
        with pytest.raises(NoPointsError):
            voting.ranked_ascents(np.zeros((0, 4)), [1.0])

    def test_box_clipped_to_image_bounds(self):
        s = space([[-2, -2, 5, 5]] * 30, b=1.0)
        gt = select(s, theta=20.0, image_bounds=(16.0, 16.0))
        assert gt.box == BBox(0, 0, 5, 5)

    def test_mode_fully_outside_image_absent(self):
        s = space([[20, 20, 30, 30]] * 30, b=1.0)
        assert select(s, theta=20.0, image_bounds=(16.0, 16.0)) is None

    def test_two_cluster_mode_matches_grid_oracle(self):
        rng = np.random.default_rng(41)
        b = 2.0
        dense = rng.normal(scale=0.3, size=(18, 4)) + np.array([2, 2, 8, 8])
        sparse = rng.normal(scale=0.3, size=(9, 4)) + np.array([10, 10, 14, 14])
        pts = np.vstack([dense, sparse])
        s = space(pts, b=b)
        gt = select(s, theta=1.0, image_bounds=(1e9, 1e9))
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        axes = [np.arange(lo[d], hi[d] + b / 4, b / 4) for d in range(4)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
        diffs = grid[:, None, :] - pts[None, :, :]
        votes = np.exp(-0.5 * (diffs ** 2).sum(-1) / b ** 2).sum(-1)
        assert gt.vote >= votes.max() * 0.99
        # mode sits on the denser cluster
        assert np.linalg.norm(np.array(gt.box.as_list()) - [2, 2, 8, 8]) < 2.0

    def test_invariant_to_point_ordering(self):
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(15, 4)) + np.array([4, 4, 10, 10])
        a = select(space(pts, b=2.0), theta=0.0, image_bounds=(32, 32))
        b = select(space(pts[::-1], b=2.0), theta=0.0, image_bounds=(32, 32))
        assert a.box.as_list() == pytest.approx(b.box.as_list(), abs=1e-9)
        assert a.vote == pytest.approx(b.vote, rel=1e-12)

    def test_adding_coincident_point_never_decreases_vote(self):
        pts = [[2, 2, 8, 8]] * 21 + [[3, 3, 9, 9]] * 4
        before = select(space(pts, b=2.0), theta=0.0, image_bounds=(32, 32))
        mode = before.box.as_list()
        after = select(
            space(pts + [mode], b=2.0), theta=0.0, image_bounds=(32, 32)
        )
        assert after.vote >= before.vote


class TestExportHeatmap:
    def read_pgm(self, path):
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n")
        header, rest = raw.split(b"\n255\n", 1)
        dims = header.split(b"\n")[1].split()
        w, h = int(dims[0]), int(dims[1])
        return np.frombuffer(rest, dtype=np.uint8).reshape(h, w)

    def test_full_cover_box_uniform_max(self, tmp_path):
        path = tmp_path / "h.pgm"
        export_heatmap(np.array([[0, 0, 8, 6]]), (8, 6), path)
        img = self.read_pgm(path)
        assert img.shape == (6, 8)
        assert np.all(img == 255)

    def test_no_points_all_zero(self, tmp_path):
        path = tmp_path / "z.pgm"
        export_heatmap(np.zeros((0, 4)), (5, 4), path)
        assert np.all(self.read_pgm(path) == 0)

    def test_two_half_overlapping_boxes_three_levels(self, tmp_path):
        path = tmp_path / "t.pgm"
        counts = export_heatmap(
            np.array([[0, 0, 10, 4], [5, 0, 15, 4]]), (20, 4), path
        )
        img = self.read_pgm(path)
        # pixel-count oracle
        oracle = np.zeros((4, 20), dtype=int)
        oracle[:, 0:10] += 1
        oracle[:, 5:15] += 1
        assert np.array_equal(counts, oracle)
        assert set(np.unique(img)) == {0, 127, 255}

    def test_counts_box_array_rows(self, tmp_path):
        counts = export_heatmap(box_array([BBox(0, 0, 2, 2)]), (4, 4), tmp_path / "b.pgm")
        assert counts.sum() == 4

    def test_refused_rename_keeps_earlier_pgm(self, tmp_path, monkeypatch):
        path = tmp_path / "h.pgm"
        export_heatmap(np.array([[0, 0, 8, 6]]), (8, 6), path)
        before = path.read_bytes()

        def refused(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(atomic.os, "replace", refused)
        with pytest.raises(IoFailureError, match="failed to write heatmap"):
            export_heatmap(np.zeros((0, 4)), (8, 6), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["h.pgm"]


def heatmap_oracle(arr, width, height):
    """Per-box slice-add counts and the PGM bytes made from them."""
    counts = np.zeros((height, width), dtype=np.int64)
    for x0, y0, x1, y1 in arr:
        ix0 = int(np.clip(np.floor(x0), 0, width))
        iy0 = int(np.clip(np.floor(y0), 0, height))
        ix1 = int(np.clip(np.ceil(x1), 0, width))
        iy1 = int(np.clip(np.ceil(y1), 0, height))
        if ix1 > ix0 and iy1 > iy0:
            counts[iy0:iy1, ix0:ix1] += 1
    peak = int(counts.max())
    img = (counts * 255) // peak if peak > 0 else counts
    return counts, f"P5\n{width} {height}\n255\n".encode("ascii") + img.astype(np.uint8).tobytes()


class TestExportHeatmapMatchesOracle:
    EDGE_BOXES = [
        [-3.0, -2.0, 4.0, 3.0],  # past the top-left corner
        [5.5, 4.2, 30.0, 25.0],  # past the bottom-right corner, fractional start
        [-10.0, 2.0, 40.0, 3.5],  # wider than the image
        [2.0, -5.0, 3.0, 50.0],  # taller than the image
        [0.1, 0.9, 0.2, 1.1],  # fractional corners inside one pixel column
        [12.0, 3.0, 20.0, 6.0],  # starts on the right edge: zero area
        [3.0, 10.0, 6.0, 14.0],  # starts on the bottom edge: zero area
        [-8.0, -8.0, -1.0, -1.0],  # entirely above-left: zero area
        [4.0, 4.0, 4.0, 7.0],  # zero width
        [8.0, 2.0, 6.0, 5.0],  # inverted x: zero area
        [1.0, 8.0, 3.0, 6.5],  # inverted y: zero area
    ]

    def check(self, arr, size, tmp_path):
        path = tmp_path / "h.pgm"
        counts = export_heatmap(np.asarray(arr, dtype=np.float64).reshape(-1, 4), size, path)
        want_counts, want_bytes = heatmap_oracle(np.asarray(arr).reshape(-1, 4), *size)
        assert np.array_equal(counts, want_counts)
        assert path.read_bytes() == want_bytes

    def test_edges_fractions_and_zero_area(self, tmp_path):
        self.check(self.EDGE_BOXES, (12, 10), tmp_path)

    def test_only_zero_area_boxes(self, tmp_path):
        self.check(self.EDGE_BOXES[5:], (12, 10), tmp_path)

    def test_empty_point_set(self, tmp_path):
        self.check(np.zeros((0, 4)), (7, 3), tmp_path)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_boxes(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        corners = rng.uniform(-6, 26, size=(60, 2, 2))
        boxes = np.concatenate([corners.min(axis=1), corners.max(axis=1)], axis=1)
        self.check(boxes, (int(rng.integers(1, 21)), int(rng.integers(1, 21))), tmp_path)


class TestSelectPseudoGtErrors:
    def test_inverted_mode_is_absent(self):
        s = space([[7, 1, 1, 6]] * 25, b=2.0)
        assert select(s, theta=20.0, image_bounds=(16, 16)) is None

    def test_unrelated_error_propagates(self, monkeypatch):
        def broken(*coords):
            raise RuntimeError("not a degenerate box")

        monkeypatch.setattr(voting, "BBox", broken)
        with pytest.raises(RuntimeError):
            select(space([[1, 1, 7, 6]] * 25, b=2.0), theta=20.0, image_bounds=(16, 16))
