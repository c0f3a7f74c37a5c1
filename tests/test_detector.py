import json

import numpy as np
import pytest

from types import SimpleNamespace

from boxforge import dataio, detector, pipeline
from boxforge.config import PipelineConfig
from boxforge.detector import (
    BATCH_NEG,
    BATCH_POS,
    ImageProposals,
    LinearModel,
    apply_box_targets,
    apply_regressor,
    box_regression_targets,
    cross_validate_bandwidth,
    fit_bbox_regressor,
    hard_negative_mask,
    hinge_objective,
    lsvm_update,
    regression_pairs,
    train_linear,
)
from boxforge.errors import DimensionMismatchError, EmptyPoolError
from boxforge.geometry import BBox, box_array, iou
from boxforge.voting import PseudoGT


def box(x0, y0, x1, y1):
    return BBox(float(x0), float(y0), float(x1), float(y1))


GT = box(0, 0, 10, 10)


def proposal_with_iou(target_iou):
    """A box sharing GT's left edge whose IOU with GT is exactly target_iou."""
    # box (0,0,w,10) with w <= 10 lies inside GT: iou = 10w / 100 = w / 10
    w = target_iou * 10.0
    return box(0, 0, w, 10)


def in_band(*ious):
    """hard_negative_mask over proposals at the given IOUs with GT."""
    return hard_negative_mask(box_array([proposal_with_iou(v) for v in ious]), GT).tolist()


def one_hot_images(label, boxes):
    """One image whose proposal features are one-hot rows, so a training
    row names the proposal it came from."""
    return {"img": ImageProposals.from_boxes(label, boxes, list(np.eye(len(boxes))))}


def no_gt_dataset(images):
    """A dataset holding only proposals: enough for a training corpus
    without pseudo GT, which pools no feature map."""
    return SimpleNamespace(manifest=None, images=images)


class TestRcnnLabels:
    """Classifier-stage labels as training applies them: the band check of
    :func:`hard_negative_mask`, and the corpus of ``pipeline._training_corpus``."""

    def test_band_is_negative(self):
        assert in_band(0.2) == [True]

    def test_above_band_ignored(self):
        assert in_band(0.5) == [False]

    def test_boundaries_inclusive(self):
        assert in_band(0.1, 0.3) == [True, True]

    def test_just_outside_band_ignored(self):
        assert in_band(0.09, 0.31) == [False, False]

    def test_negative_image_all_negative(self):
        images = one_hot_images("neg", [GT, proposal_with_iou(0.2)])
        X, y = pipeline._training_corpus(no_gt_dataset(images), {})
        assert np.array_equal(X, np.eye(2)) and y.tolist() == [-1.0, -1.0]

    def test_positive_image_without_gt_all_ignored(self):
        images = {
            **one_hot_images("pos", [GT]),
            "neg": ImageProposals.from_boxes("neg", [GT], [np.array([0.0])]),
        }
        X, y = pipeline._training_corpus(no_gt_dataset(images), {})
        # only the negative image's proposal enters
        assert X.shape == (1, 1) and y.tolist() == [-1.0]

    def test_proposals_partitioned(self):
        ious = [0.05 + 0.09 * i for i in range(10)]
        band = in_band(*ious)
        assert band == [0.1 <= iou(proposal_with_iou(v), GT) <= 0.3 for v in ious]
        assert 0 < sum(band) < len(band)


class TestFinetuneLabels:
    """The IOU >= 0.6 rule, as box regression selects its training pairs
    (:func:`regression_pairs`), against the hard-negative band."""

    @staticmethod
    def pairs(*ious):
        boxes = [proposal_with_iou(v) for v in ious]
        gts = {"img": PseudoGT(image_id="img", box=GT, vote=20.0, support=20)}
        return [p for _, p, _ in regression_pairs(one_hot_images("pos", boxes), gts)]

    def test_high_iou_positive(self):
        assert self.pairs(0.7) == [proposal_with_iou(0.7)]

    def test_band_negative(self):
        assert self.pairs(0.2) == [] and in_band(0.2) == [True]

    def test_midrange_ignored(self):
        assert self.pairs(0.45) == [] and in_band(0.45) == [False]

    def test_boundary_point_six_is_positive(self):
        assert self.pairs(0.6) == [proposal_with_iou(0.6)]

    def test_no_gt_all_ignored(self):
        assert regression_pairs(one_hot_images("pos", [GT]), {}) == []

    def test_exhaustive_exclusive_partition(self):
        ious = [i / 20 for i in range(1, 20)]
        boxes = [proposal_with_iou(v) for v in ious]
        gts = {"img": PseudoGT(image_id="img", box=GT, vote=20.0, support=20)}
        pairs = regression_pairs(one_hot_images("pos", boxes), gts)
        # the feature rows are one-hot, so each pair names its proposal
        positive = {int(np.argmax(f)) for f, _, _ in pairs}
        negative = {i for i, h in enumerate(in_band(*ious)) if h}
        assert positive == {i for i, v in enumerate(ious) if v >= 0.6}
        assert not positive & negative
        assert pairs[0][1] == boxes[min(positive)]


class TestSampleMinibatch:
    """Minibatch draws: ``_draw`` on its own and through ``train_linear``."""

    def test_exact_pools_come_back_whole(self):
        rng = np.random.default_rng(0)
        assert sorted(detector._draw(BATCH_POS, BATCH_POS, rng)) == list(range(BATCH_POS))
        assert sorted(detector._draw(BATCH_NEG, BATCH_NEG, rng)) == list(range(BATCH_NEG))

    def test_single_positive_repeats(self):
        rng = np.random.default_rng(1)
        assert detector._draw(1, BATCH_POS, rng).tolist() == [0] * BATCH_POS

    def test_deterministic_given_seed(self):
        a = detector._draw(300, BATCH_NEG, np.random.default_rng(7))
        b = detector._draw(300, BATCH_NEG, np.random.default_rng(7))
        assert np.array_equal(a, b)
        X, y = shuffled_pools(5, 200)
        first = train_linear(X, y, **sgd(steps=20, seed=7))
        second = train_linear(X, y, **sgd(steps=20, seed=7))
        assert np.array_equal(first.weights, second.weights) and first.bias == second.bias

    def test_empty_pool_raises(self):
        with pytest.raises(EmptyPoolError):
            train_linear(np.zeros((3, 2)), -np.ones(3), **sgd(steps=1))


def sgd(**settings):
    """train_linear's four SGD settings: the pipeline's defaults, with
    ``settings`` replacing some of them."""
    cfg = PipelineConfig()
    return {
        "steps": cfg.train_steps, "learning_rate": cfg.learning_rate,
        "weight_decay": cfg.weight_decay, "seed": cfg.seed, **settings,
    }


def list_draw(pool, n, rng):
    """The minibatch draw as a list comprehension over a Python list pool,
    the form train_linear used before its pools became index arrays."""
    if len(pool) >= n:
        idx = rng.permutation(len(pool))[:n]
    else:
        idx = rng.integers(0, len(pool), size=n)
    return [pool[int(i)] for i in idx]


def list_draw_train_linear(features, labels, config, category_id=""):
    """train_linear with list pools and list_draw minibatches; ``config``
    holds its four SGD settings, as :func:`sgd` gives them."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    dim = X.shape[1]
    w = np.zeros(dim)
    b = 0.0
    pos_idx = [int(i) for i in np.flatnonzero(y > 0)]
    neg_idx = [int(i) for i in np.flatnonzero(y < 0)]
    rng = np.random.default_rng(config["seed"])
    for _ in range(config["steps"]):
        batch = list_draw(pos_idx, BATCH_POS, rng) + list_draw(neg_idx, BATCH_NEG, rng)
        Xb, yb = X[batch], y[batch]
        margins = yb * (Xb @ w + b)
        viol = margins < 1.0
        m = len(batch)
        grad_w = 2.0 * config["weight_decay"] * w - (yb[viol] @ Xb[viol]) / m
        grad_b = -float(np.sum(yb[viol])) / m
        w = w - config["learning_rate"] * grad_w
        b = b - config["learning_rate"] * grad_b
    if hinge_objective(w, b, X, y, config["weight_decay"]) > hinge_objective(
        np.zeros(dim), 0.0, X, y, config["weight_decay"]
    ):
        return LinearModel(weights=np.zeros(dim), bias=0.0, category_id=category_id)
    return LinearModel(weights=w, bias=b, category_id=category_id)


def shuffled_pools(n_pos, n_neg, dim=5, seed=0):
    """Features and labels with the positives scattered among the negatives."""
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.array([1.0] * n_pos + [-1.0] * n_neg))
    X = rng.normal(size=(y.size, dim)) + y[:, None]
    return X, y


# positive and negative pools smaller than, equal to and larger than the
# default 32/96 batch halves
POOL_SIZES = [(5, 40), (32, 96), (50, 200), (32, 40), (5, 200)]


class TestArrayDrawsMatchListDraws:
    @pytest.mark.parametrize("n_pos,n_neg", POOL_SIZES)
    def test_batches_identical(self, n_pos, n_neg):
        _X, y = shuffled_pools(n_pos, n_neg)
        pos_idx, neg_idx = np.flatnonzero(y > 0), np.flatnonzero(y < 0)
        old_rng, new_rng = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(25):
            old = list_draw(pos_idx.tolist(), 32, old_rng)
            old += list_draw(neg_idx.tolist(), 96, old_rng)
            new = np.concatenate((
                pos_idx[detector._draw(pos_idx.size, 32, new_rng)],
                neg_idx[detector._draw(neg_idx.size, 96, new_rng)],
            ))
            assert new.tolist() == old

    @pytest.mark.parametrize("n_pos,n_neg", POOL_SIZES)
    def test_model_bytes_identical(self, tmp_path, n_pos, n_neg):
        X, y = shuffled_pools(n_pos, n_neg, seed=n_pos + n_neg)
        cfg = sgd(steps=60, learning_rate=0.2, seed=9)
        dataio.write_model(tmp_path / "old.json", list_draw_train_linear(X, y, cfg, "obj"))
        dataio.write_model(tmp_path / "new.json", train_linear(X, y, **cfg, category_id="obj"))
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
        assert json.loads((tmp_path / "new.json").read_text())["bias"] != 0.0


def separable_toy(n=40, seed=3):
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n, 2)) + np.array([3.0, 3.0])
    neg = rng.normal(size=(n, 2)) + np.array([-3.0, -3.0])
    X = np.vstack([pos, neg])
    y = np.array([1.0] * n + [-1.0] * n)
    return X, y


class TestTrainLinear:
    def test_separable_reaches_perfect_accuracy(self):
        X, y = separable_toy()
        model = train_linear(X, y, **sgd(steps=200, learning_rate=0.1, seed=0))
        acc = float(np.mean(np.sign(model.score(X)) == y))
        assert acc == 1.0

    def test_zero_steps_returns_zero_model(self):
        X, y = separable_toy()
        model = train_linear(X, y, **sgd(steps=0))
        assert np.all(model.weights == 0.0) and model.bias == 0.0

    def test_objective_never_worse_than_zero_model(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 3))
        y = np.sign(rng.normal(size=30))
        y[y == 0] = 1.0
        cfg = sgd(steps=50, learning_rate=5.0, weight_decay=0.01, seed=2)
        model = train_linear(X, y, **cfg)
        assert hinge_objective(model.weights, model.bias, X, y, cfg["weight_decay"]) <= 1.0

    def test_identical_features_mixed_labels_predicts_majority(self):
        X = np.ones((10, 2))
        y = np.array([1.0] * 7 + [-1.0] * 3)
        model = train_linear(X, y, **sgd(steps=100, learning_rate=0.05, seed=0))
        assert np.all(model.score(X) >= 0.0)

    def test_deterministic_given_seed(self):
        X, y = separable_toy()
        cfg = sgd(steps=60, seed=11)
        m1 = train_linear(X, y, **cfg)
        m2 = train_linear(X, y, **cfg)
        assert np.array_equal(m1.weights, m2.weights) and m1.bias == m2.bias

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            train_linear(np.zeros((4, 2)), np.ones(3), **sgd(steps=1))

    def test_score_dim_check(self):
        model = LinearModel(weights=np.zeros(3), bias=0.0)
        with pytest.raises(DimensionMismatchError):
            model.score(np.zeros((2, 4)))


def images_fixture():
    """One positive image with a planted high-score proposal, one negative."""
    target = np.array([1.0, 0.0])
    return {
        "img_pos": ImageProposals.from_boxes(
            "pos",
            [
                box(2, 2, 8, 8),  # the object
                box(2, 2, 7, 8),  # near-duplicate, lower score
                box(12, 12, 15, 15),
            ],
            [target, target * 0.8, np.array([0.0, 1.0])],
        ),
        "img_neg": ImageProposals.from_boxes("neg", [box(0, 0, 4, 4)], [np.array([0.0, 1.0])]),
    }


def model_toward(direction):
    return LinearModel(weights=np.asarray(direction, dtype=np.float64), bias=0.0)


class TestLsvmUpdate:
    def test_fills_missing_image_with_top_detection(self):
        updated = lsvm_update(model_toward([1, 0]), images_fixture(), {})
        assert "img_pos" in updated and "img_neg" not in updated
        assert updated["img_pos"].box == box(2, 2, 8, 8)
        assert updated["img_pos"].updated is True

    def test_existing_gt_kept_when_best_is_itself(self):
        existing = PseudoGT(image_id="img_pos", box=box(2, 2, 8, 8), vote=25.0, support=25)
        updated = lsvm_update(model_toward([1, 0]), images_fixture(), {"img_pos": existing})
        assert updated["img_pos"] == existing
        assert updated["img_pos"].updated is False

    def test_leash_keeps_original_when_no_overlap_candidate(self):
        existing = PseudoGT(image_id="img_pos", box=box(12, 12, 15, 15), vote=21.0, support=21)
        model = model_toward([1, 0])  # best detection is far from existing GT
        updated = lsvm_update(model, images_fixture(), {"img_pos": existing})
        assert updated["img_pos"].box == existing.box
        assert updated["img_pos"].updated is False

    def test_refinement_respects_leash(self):
        existing = PseudoGT(image_id="img_pos", box=box(2, 2, 7, 8), vote=21.0, support=21)
        updated = lsvm_update(model_toward([1, 0]), images_fixture(), {"img_pos": existing})
        new = updated["img_pos"]
        assert new.updated is True
        from boxforge.geometry import iou

        assert iou(new.box, existing.box) >= 0.5

    @pytest.mark.parametrize("first", [0, 1])
    def test_highest_scoring_eligible_detection_wins(self, first):
        # both halves keep 0.6 IOU with the existing box and only 0.2 with
        # each other, so NMS keeps both and the better-scored one is adopted
        halves = [box(0, 0, 10, 6), box(0, 4, 10, 10)]
        feats = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        images = {"img": ImageProposals.from_boxes("pos", halves, feats)}
        existing = PseudoGT(image_id="img", box=box(0, 0, 10, 10), vote=21.0, support=21)
        model = model_toward([1.0, 0.5] if first == 0 else [0.5, 1.0])
        updated = lsvm_update(model, images, {"img": existing})
        assert updated["img"].box == halves[first]
        assert updated["img"].updated is True

    def test_count_never_decreases(self):
        existing = {"img_pos": PseudoGT(image_id="img_pos", box=GT, vote=20.0, support=20)}
        updated = lsvm_update(model_toward([1, 0]), images_fixture(), existing)
        assert len(updated) >= len(existing)


class TestBoxRegressor:
    def test_target_round_trip_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x0, y0 = rng.uniform(0, 50, 2)
            p = box(x0, y0, x0 + rng.uniform(1, 30), y0 + rng.uniform(1, 30))
            gx0, gy0 = rng.uniform(0, 50, 2)
            g = box(gx0, gy0, gx0 + rng.uniform(1, 30), gy0 + rng.uniform(1, 30))
            t = box_regression_targets(p, g)
            back = apply_box_targets(p, t)
            assert back.as_list() == pytest.approx(g.as_list(), abs=1e-9)

    def test_zero_targets_when_proposals_equal_gt(self):
        pairs = []
        rng = np.random.default_rng(6)
        for _ in range(10):
            x0, y0 = rng.uniform(0, 20, 2)
            b = box(x0, y0, x0 + 5, y0 + 4)
            pairs.append((rng.normal(size=3), b, b))
        reg = fit_bbox_regressor(pairs, l2=1e-3)
        f, p, _ = pairs[0]
        assert apply_regressor(reg, f, p).as_list() == pytest.approx(p.as_list(), abs=1e-6)

    def test_bias_only_features_recover_constant_offset_exactly(self):
        # every proposal is shifted by the same delta; features carry no signal
        pairs = []
        for i in range(6):
            p = box(i * 10, 0, i * 10 + 4, 4)
            g = box(i * 10 + 2, 1, i * 10 + 6, 5)
            pairs.append((np.array([1.0]), p, g))
        reg = fit_bbox_regressor(pairs, l2=0.0)
        for f, p, g in pairs:
            assert apply_regressor(reg, f, p).as_list() == pytest.approx(g.as_list(), abs=1e-9)

    def test_singular_system_falls_back_to_identity(self):
        pairs = [
            (np.array([0.0, 0.0]), box(0, 0, 4, 4), box(1, 1, 5, 5)),
            (np.array([0.0, 0.0]), box(5, 5, 9, 9), box(4, 4, 8, 8)),
        ]
        reg = fit_bbox_regressor(pairs, l2=0.0)
        p = box(0, 0, 4, 4)
        # centered zero features give a zero weight matrix; bias carries the
        # mean target, so at least the result is finite and valid
        refined = apply_regressor(reg, np.array([0.0, 0.0]), p)
        assert all(np.isfinite(refined.as_list()))

    def test_empty_pairs_raise(self):
        with pytest.raises(EmptyPoolError):
            fit_bbox_regressor([])


class TestCrossValidateBandwidth:
    def test_single_entry_grid(self):
        best, scores = cross_validate_bandwidth([250.0], lambda b: 0.5)
        assert best == 250.0 and scores == {250.0: 0.5}

    def test_argmax_wins(self):
        best, _ = cross_validate_bandwidth([100, 250, 500], lambda b: -abs(b - 250))
        assert best == 250.0

    def test_ties_prefer_smaller_bandwidth(self):
        best, _ = cross_validate_bandwidth([1000, 100, 500], lambda b: 1.0)
        assert best == 100.0

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            cross_validate_bandwidth([], lambda b: 0.0)
