import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from boxforge import voting
from boxforge.errors import ConfigInvalidError, DegenerateBoxError, NoPointsError
from boxforge.geometry import BBox, clip_box
from boxforge.voting import (
    EPANECHNIKOV,
    GAUSSIAN,
    KERNELS,
    PseudoGT,
    VoteSpace,
    export_heatmap,
    mean_shift_modes,
    select_pseudo_gt,
    vote_value,
)


def space(points, b=1.0, kernel=GAUSSIAN):
    return VoteSpace(points=np.asarray(points, dtype=np.float64), bandwidth=b, kernel=kernel)


def oracle_vote(l, points, b, kernel):
    """Independent kernel-sum evaluation."""
    total = 0.0
    for p in points:
        d2 = sum((li - pi) ** 2 for li, pi in zip(l, p)) / (b * b)
        if kernel == GAUSSIAN:
            total += math.exp(-0.5 * d2)
        else:
            total += max(0.0, 1.0 - d2)
    return total


class TestVoteValue:
    def test_single_point_scores_one_at_itself(self):
        s = space([[1, 2, 3, 4]])
        assert vote_value([1, 2, 3, 4], s) == 1.0

    @pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV])
    def test_m_coincident_points_score_exactly_m(self, kernel):
        for m in (1, 5, 25):
            s = space([[2, 2, 8, 8]] * m, b=3.0, kernel=kernel)
            assert vote_value([2, 2, 8, 8], s) == float(m)

    def test_two_points_one_bandwidth_apart_gaussian(self):
        b = 4.0
        s = space([[0, 0, 0, 0], [b, 0, 0, 0]], b=b)
        assert vote_value([0, 0, 0, 0], s) == pytest.approx(1.0 + math.exp(-0.5))

    def test_epanechnikov_compact_support(self):
        s = space([[0, 0, 0, 0]], b=2.0, kernel=EPANECHNIKOV)
        assert vote_value([2, 0, 0, 0], s) == 0.0
        assert vote_value([1, 0, 0, 0], s) == pytest.approx(0.75)

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
        for kernel in (GAUSSIAN, EPANECHNIKOV):
            s = space(pts, b=1.7, kernel=kernel)
            l = rng.normal(size=4)
            assert vote_value(l, s) == pytest.approx(
                oracle_vote(l, pts, 1.7, kernel), rel=1e-12
            )


class TestVoteSpaceValidation:
    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ConfigInvalidError):
            space([[0, 0, 1, 1]], b=0.0)

    def test_rejects_bad_kernel(self):
        with pytest.raises(ConfigInvalidError):
            VoteSpace(points=np.zeros((1, 4)), bandwidth=1.0, kernel="box")

    def test_rejects_wrong_width(self):
        with pytest.raises(ConfigInvalidError):
            VoteSpace(points=np.zeros((3, 3)), bandwidth=1.0)

    def test_from_boxes(self):
        s = VoteSpace.from_boxes([BBox(0, 1, 2, 3)], bandwidth=1.0)
        assert s.points.tolist() == [[0.0, 1.0, 2.0, 3.0]]


class TestMeanShiftModes:
    @pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV])
    def test_coincident_points_single_mode(self, kernel):
        s = space([[3, 4, 9, 11]] * 6, b=2.0, kernel=kernel)
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
            oracle_vote([x, 0, 0, 0], s.points, b, GAUSSIAN)
            for x in np.arange(-1, 11.25, b / 4)
        )
        assert modes[0][1] >= grid_best - 1e-6

    def test_modes_sorted_by_vote(self):
        s = space([[0, 0, 0, 0]] * 2 + [[8, 8, 8, 8]] * 5, b=1.0)
        modes = mean_shift_modes(s)
        votes = [v for _, v in modes]
        assert votes == sorted(votes, reverse=True)


# ---- reference mean-shift: one seed at a time, per-seed matrix-vector sums ----


def _oracle_kernel_values(kernel, sq_dist):
    if kernel == GAUSSIAN:
        return np.exp(-0.5 * sq_dist)
    return np.maximum(0.0, 1.0 - sq_dist)


def oracle_vote_value(l, space):
    l = np.asarray(l, dtype=np.float64).reshape(4)
    if space.n_points == 0:
        return 0.0
    diff = (space.points - l) / space.bandwidth
    sq = np.sum(diff * diff, axis=1)
    return float(np.sum(_oracle_kernel_values(space.kernel, sq)))


def oracle_ascend(seed, space, tol, max_iter):
    pts = space.points
    b = space.bandwidth
    m = seed.astype(np.float64).copy()
    for _ in range(max_iter):
        diff = (pts - m) / b
        sq = np.sum(diff * diff, axis=1)
        if space.kernel == GAUSSIAN:
            w = np.exp(-0.5 * sq)
        else:
            w = (sq < 1.0).astype(np.float64)
        total = float(np.sum(w))
        if total <= 0.0:
            break
        new = (w @ pts) / total
        step = float(np.linalg.norm(new - m))
        m = new
        if step < tol:
            break
    return m


def mean_shift_oracle(space, tol=None, max_iter=200):
    if tol is None:
        tol = 1e-3 * space.bandwidth
    converged = [oracle_ascend(space.points[i], space, tol, max_iter) for i in range(space.n_points)]
    scored = [(m, oracle_vote_value(m, space)) for m in converged]
    scored.sort(key=lambda mv: (-mv[1], tuple(mv[0])))
    merge_radius = 0.5 * space.bandwidth
    modes = []
    for m, v in scored:
        if all(float(np.linalg.norm(m - km)) > merge_radius for km, _ in modes):
            modes.append((m, v))
    return modes


def assert_modes_match_oracle(s, **kwargs):
    got = mean_shift_modes(s, **kwargs)
    want = mean_shift_oracle(s, **kwargs)
    assert len(got) == len(want)
    for (m, v), (wm, wv) in zip(got, want):
        assert np.array_equal(m, wm)
        assert v == wv
    return got


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
        st.sampled_from(KERNELS),
        st.sampled_from([None, 0.5, 1.0]),
    )
    def test_random_spaces(self, seed, n, n_centers, b, kernel, grid):
        rng = np.random.default_rng(seed)
        pts = cloud(rng, n, n_centers, spread=rng.uniform(0.2, 4.0), grid=grid)
        assert_modes_match_oracle(space(pts, b=b, kernel=kernel))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_seeds_converge_at_different_iterations(self, kernel):
        s = space(cloud(np.random.default_rng(7), 30, spread=2.0), b=4.0, kernel=kernel)
        tol = 1e-3 * s.bandwidth
        iters = set()
        for p in s.points:
            final = oracle_ascend(p, s, tol, 200)
            iters.add(next(k for k in range(201) if np.array_equal(oracle_ascend(p, s, tol, k), final)))
        assert len(iters) >= 3
        assert_modes_match_oracle(s)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("max_iter", [0, 1])
    def test_zero_and_one_iteration(self, kernel, max_iter):
        s = space(cloud(np.random.default_rng(8), 25), b=2.0, kernel=kernel)
        modes = assert_modes_match_oracle(s, max_iter=max_iter)
        if max_iter == 0:
            assert all(any(np.array_equal(m, p) for p in s.points) for m, _ in modes)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_zero_tolerance_runs_every_iteration(self, kernel):
        s = space(cloud(np.random.default_rng(9), 15), b=2.0, kernel=kernel)
        assert_modes_match_oracle(s, tol=0.0, max_iter=50)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_tied_votes_ordered_by_coordinates(self, kernel):
        # three triples too far apart to weigh on each other score exactly
        # 3.0 each; they are listed out of coordinate order
        triples = [[100, 0, 104, 4]] * 3 + [[0, 100, 4, 104]] * 3 + [[0, 0, 4, 4]] * 3
        modes = assert_modes_match_oracle(space(triples, b=1.0, kernel=kernel))
        assert [v for _, v in modes] == [3.0, 3.0, 3.0]
        assert [m.tolist() for m, _ in modes] == [[0, 0, 4, 4], [0, 100, 4, 104], [100, 0, 104, 4]]

    def test_flat_kernel_excludes_points_exactly_one_bandwidth_away(self):
        s = space([[0, 0, 0, 0], [2, 0, 0, 0]], b=2.0, kernel=EPANECHNIKOV)
        modes = assert_modes_match_oracle(s)
        assert [m.tolist() for m, _ in modes] == [[0, 0, 0, 0], [2, 0, 0, 0]]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_single_point(self, kernel):
        modes = assert_modes_match_oracle(space([[1.5, 2.0, 7.25, 9.0]], kernel=kernel))
        assert len(modes) == 1 and modes[0][1] == 1.0

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("rows", [1, 3])
    def test_small_blocks(self, monkeypatch, kernel, rows):
        # 3 rows per block does not divide the 20 points
        n = 20
        monkeypatch.setattr(voting, "ASCENT_BLOCK_BYTES", rows * n * 4 * 8)
        assert voting._block_rows(n) == rows
        s = space(cloud(np.random.default_rng(10), n, spread=3.0), b=2.0, kernel=kernel)
        assert_modes_match_oracle(s)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_vote_value_matches_oracle_exactly(self, kernel):
        rng = np.random.default_rng(11)
        s = space(cloud(rng, 40), b=1.5, kernel=kernel)
        for l in rng.uniform(0, 40, size=(20, 4)):
            assert vote_value(l, s) == oracle_vote_value(l, s)


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
        st.sampled_from(KERNELS),
        st.sampled_from([None, 0.5]),
        st.floats(0.0, 8.0),
    )
    def test_top_mode_matches_merged_mode_list(self, seed, n, n_centers, b, kernel, grid, theta):
        rng = np.random.default_rng(seed)
        pts = cloud(rng, n, n_centers, spread=rng.uniform(0.2, 3.0), grid=grid)
        pts[:, 2:] += 12.0  # mostly well-formed boxes; some stay inverted
        s = space(pts, b=b, kernel=kernel)
        bounds = (45.0, 45.0)
        assert select_pseudo_gt(s, theta, bounds, "i") == select_pseudo_gt_oracle(
            s, theta, bounds, "i"
        )

    def test_25_coincident_boxes_with_theta_20(self):
        s = space([[1, 1, 7, 6]] * 25, b=2.0)
        gt = select_pseudo_gt(s, theta=20.0, image_bounds=(16, 16), image_id="img")
        assert gt is not None
        assert gt.vote == 25.0
        assert gt.support == 25
        assert gt.box == BBox(1, 1, 7, 6)
        assert gt.updated is False

    def test_10_coincident_boxes_below_theta(self):
        s = space([[1, 1, 7, 6]] * 10, b=2.0)
        assert select_pseudo_gt(s, theta=20.0, image_bounds=(16, 16)) is None

    def test_exactly_theta_is_kept(self):
        s = space([[1, 1, 7, 6]] * 20, b=2.0)
        assert select_pseudo_gt(s, theta=20.0, image_bounds=(16, 16)) is not None

    def test_empty_space_is_absent(self):
        s = VoteSpace(points=np.zeros((0, 4)), bandwidth=1.0)
        assert select_pseudo_gt(s, theta=0.0, image_bounds=(16, 16)) is None

    def test_box_clipped_to_image_bounds(self):
        s = space([[-2, -2, 5, 5]] * 30, b=1.0)
        gt = select_pseudo_gt(s, theta=20.0, image_bounds=(16.0, 16.0))
        assert gt.box == BBox(0, 0, 5, 5)

    def test_mode_fully_outside_image_absent(self):
        s = space([[20, 20, 30, 30]] * 30, b=1.0)
        assert select_pseudo_gt(s, theta=20.0, image_bounds=(16.0, 16.0)) is None

    def test_two_cluster_mode_matches_grid_oracle(self):
        rng = np.random.default_rng(41)
        b = 2.0
        dense = rng.normal(scale=0.3, size=(18, 4)) + np.array([2, 2, 8, 8])
        sparse = rng.normal(scale=0.3, size=(9, 4)) + np.array([10, 10, 14, 14])
        pts = np.vstack([dense, sparse])
        s = space(pts, b=b)
        gt = select_pseudo_gt(s, theta=1.0, image_bounds=(1e9, 1e9))
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
        a = select_pseudo_gt(space(pts, b=2.0), theta=0.0, image_bounds=(32, 32))
        b = select_pseudo_gt(space(pts[::-1], b=2.0), theta=0.0, image_bounds=(32, 32))
        assert a.box.as_list() == pytest.approx(b.box.as_list(), abs=1e-9)
        assert a.vote == pytest.approx(b.vote, rel=1e-12)

    def test_adding_coincident_point_never_decreases_vote(self):
        pts = [[2, 2, 8, 8]] * 21 + [[3, 3, 9, 9]] * 4
        before = select_pseudo_gt(space(pts, b=2.0), theta=0.0, image_bounds=(32, 32))
        mode = before.box.as_list()
        after = select_pseudo_gt(
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

    def test_accepts_bbox_list(self, tmp_path):
        counts = export_heatmap([BBox(0, 0, 2, 2)], (4, 4), tmp_path / "b.pgm")
        assert counts.sum() == 4


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
        assert select_pseudo_gt(s, theta=20.0, image_bounds=(16, 16)) is None

    def test_unrelated_error_propagates(self, monkeypatch):
        def broken(*coords):
            raise RuntimeError("not a degenerate box")

        monkeypatch.setattr(voting, "BBox", broken)
        with pytest.raises(RuntimeError):
            select_pseudo_gt(space([[1, 1, 7, 6]] * 25, b=2.0), theta=20.0, image_bounds=(16, 16))
