import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from boxforge import voting
from boxforge.errors import ConfigInvalidError, NoPointsError
from boxforge.geometry import BBox
from boxforge.voting import (
    EPANECHNIKOV,
    GAUSSIAN,
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


class TestSelectPseudoGt:
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
