import json
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from types import SimpleNamespace

from boxforge import dataio, detector, pipeline
from boxforge.config import PipelineConfig
from boxforge.detector import (
    BATCH_NEG,
    BATCH_POS,
    BoxRegressor,
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
from boxforge.errors import EmptyPoolError
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


def proposals(label, boxes, features):
    """One image's proposals: its boxes as corner rows and one float64
    feature row per box."""
    return ImageProposals(label, box_array(boxes), np.array(features, dtype=np.float64))


def one_hot_images(label, boxes):
    """One image whose proposal features are one-hot rows, so a training
    row names the proposal it came from."""
    return {"img": proposals(label, boxes, np.eye(len(boxes)))}


def no_gt_dataset(images):
    """A dataset holding only proposals: enough for a training corpus
    without pseudo GT, which pools no feature map."""
    return SimpleNamespace(images=images)


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
            "neg": proposals("neg", [GT], [[0.0]]),
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


MASK64 = (1 << 64) - 1


def reference_mix(z):
    """SplitMix64's mixer on a Python int, masked to 64 bits."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_draw(seed, step, k, pool):
    """Draw k of SGD step ``step`` mapped into a pool of size ``pool``, in
    Python ints: the rule in the detector module's docstring."""
    counter = step * detector.STEP_DRAWS + k + 1
    u = reference_mix((reference_mix(seed) + counter * detector.GAMMA) & MASK64)
    return ((u >> 32) * pool) >> 32


def reference_batch(pos_pool, neg_pool, seed, step):
    """Step ``step``'s minibatch as a list of rows of the two pools."""
    return [
        pos_pool[reference_draw(seed, step, k, len(pos_pool))] for k in range(BATCH_POS)
    ] + [
        neg_pool[reference_draw(seed, step, BATCH_POS + k, len(neg_pool))]
        for k in range(BATCH_NEG)
    ]


def draw_table(n_pos, n_neg, seed, steps):
    """:func:`detector.minibatch_draws`' blocks stacked into one table."""
    return np.concatenate(list(detector.minibatch_draws(n_pos, n_neg, seed, steps)))


class TestMinibatchDraws:
    """The counter stream of :func:`detector.minibatch_draws` against the
    Python-int reference, and its draws through ``train_linear``."""

    @given(
        seed=st.integers(0, MASK64),
        step=st.sampled_from([0, 1, 1023, 1024, 1025]),
        n_pos=st.sampled_from([1, 2, 5, 32, 1000, (1 << 32) - 1]),
        n_neg=st.sampled_from([1, 3, 96, 211, 2_000_000, 1 << 32]),
    )
    def test_draws_equal_reference(self, seed, step, n_pos, n_neg):
        drawn = draw_table(n_pos, n_neg, seed, step + 1)[step].tolist()
        assert drawn == reference_batch(range(n_pos), range(n_neg), seed, step)

    def test_blocks_hold_at_most_draw_block_steps(self):
        assert detector.DRAW_BLOCK_STEPS == 32
        blocks = list(detector.minibatch_draws(5, 7, 0, 2500))
        assert [b.shape for b in blocks] == [(32, 128)] * 78 + [(4, 128)]
        assert list(detector.minibatch_draws(5, 7, 0, 0)) == []

    @pytest.mark.parametrize("steps", [0, 1, 31, 32, 33, 300])
    def test_block_size_does_not_change_the_stream(self, monkeypatch, steps):
        """Each draw is indexed by its absolute step, so blocks of any size
        concatenate to one table."""
        tables = []
        for block_steps in (1, 32, 1024):
            monkeypatch.setattr(detector, "DRAW_BLOCK_STEPS", block_steps)
            blocks = list(detector.minibatch_draws(5, 211, 9, steps))
            assert all(len(b) <= block_steps for b in blocks)
            tables.append(np.concatenate([np.empty((0, detector.STEP_DRAWS), np.intp), *blocks]))
        assert all(t.shape == (steps, detector.STEP_DRAWS) for t in tables)
        assert all(np.array_equal(t, tables[0]) for t in tables)

    def test_single_positive_repeats(self):
        table = draw_table(1, 300, 1, 50)
        assert np.all(table[:, :BATCH_POS] == 0)

    @pytest.mark.parametrize("seed", [0, 1, 7, MASK64])
    def test_draws_are_uniform(self, seed):
        """Each index of pools of 5 and 7 is drawn within 5 sigma of its
        expected count over 1,000 steps."""
        table = draw_table(5, 7, seed, 1000)
        for draws, pool in ((table[:, :BATCH_POS], 5), (table[:, BATCH_POS:], 7)):
            counts = np.bincount(draws.ravel(), minlength=pool)
            n, p = draws.size, 1.0 / pool
            assert counts.size == pool
            assert np.all(np.abs(counts - n * p) <= 5.0 * np.sqrt(n * p * (1.0 - p)))

    def test_deterministic_given_seed(self):
        assert np.array_equal(draw_table(300, 40, 7, 30), draw_table(300, 40, 7, 30))
        assert not np.array_equal(draw_table(300, 40, 7, 30), draw_table(300, 40, 8, 30))
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


def list_draw_train_linear(features, labels, config):
    """train_linear as a loop over steps, with list pools, the reference
    draws and the zero model's objective computed in full; ``config`` holds
    its four SGD settings, as :func:`sgd` gives them."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    dim = X.shape[1]
    w = np.zeros(dim)
    b = 0.0
    pos_idx = [int(i) for i in np.flatnonzero(y > 0)]
    neg_idx = [int(i) for i in np.flatnonzero(y < 0)]
    for step in range(config["steps"]):
        batch = reference_batch(pos_idx, neg_idx, config["seed"], step)
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
        return LinearModel(weights=np.zeros(dim), bias=0.0)
    return LinearModel(weights=w, bias=b)


def shuffled_pools(n_pos, n_neg, dim=5, seed=0):
    """Features and labels with the positives scattered among the negatives."""
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.array([1.0] * n_pos + [-1.0] * n_neg))
    X = rng.normal(size=(y.size, dim)) + y[:, None]
    return X, y


# positive and negative pools smaller than, equal to and larger than the
# default 32/96 batch halves
POOL_SIZES = [(5, 40), (32, 96), (50, 200), (32, 40), (5, 200)]


class TestTrainLinearMatchesLoop:
    @pytest.mark.parametrize("n_pos,n_neg", POOL_SIZES)
    def test_model_bytes_identical(self, tmp_path, n_pos, n_neg):
        X, y = shuffled_pools(n_pos, n_neg, seed=n_pos + n_neg)
        cfg = sgd(steps=60, learning_rate=0.2, seed=9)
        dataio.write_model(tmp_path / "old.json", list_draw_train_linear(X, y, cfg), "obj")
        dataio.write_model(tmp_path / "new.json", train_linear(X, y, **cfg), "obj")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
        assert json.loads((tmp_path / "new.json").read_text())["bias"] != 0.0


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(
    rows=st.integers(1, 30).flatmap(lambda n: st.tuples(
        st.lists(st.lists(finite, min_size=3, max_size=3), min_size=n, max_size=n),
        st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n),
    )),
    weight_decay=st.floats(0.0, 10.0),
)
def test_zero_model_objective_is_exactly_one(rows, weight_decay):
    features, labels = rows
    X, y = np.array(features), np.array(labels)
    assert hinge_objective(np.zeros(3), 0.0, X, y, weight_decay) == 1.0


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
        # a step size whose SGD overflows to a NaN objective gets the zero model
        with pytest.warns(RuntimeWarning) as warned:
            model = train_linear(X, y, **{**cfg, "learning_rate": 1e300})
        assert any("overflow" in str(w.message) for w in warned)
        assert np.all(model.weights == 0.0) and model.bias == 0.0

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


def images_fixture():
    """One positive image with a planted high-score proposal, one negative."""
    target = np.array([1.0, 0.0])
    return {
        "img_pos": proposals(
            "pos",
            [
                box(2, 2, 8, 8),  # the object
                box(2, 2, 7, 8),  # near-duplicate, lower score
                box(12, 12, 15, 15),
            ],
            [target, target * 0.8, np.array([0.0, 1.0])],
        ),
        "img_neg": proposals("neg", [box(0, 0, 4, 4)], [[0.0, 1.0]]),
    }


def model_toward(direction):
    return LinearModel(weights=np.asarray(direction, dtype=np.float64), bias=0.0)


def update_from_detections(model, images, pseudo_gts):
    """The latent update on ``model``'s detections in ``images``, the rows
    the train stage writes."""
    positives = [i for i, image in images.items() if image.label == "pos"]
    return lsvm_update(pipeline._detect(images, model, 0.3)[0], positives, pseudo_gts)


class TestLsvmUpdate:
    def test_fills_missing_image_with_top_detection(self):
        updated = update_from_detections(model_toward([1, 0]), images_fixture(), {})
        assert "img_pos" in updated and "img_neg" not in updated
        assert updated["img_pos"].box == box(2, 2, 8, 8)
        assert updated["img_pos"].updated is True

    def test_existing_gt_kept_when_best_is_itself(self):
        existing = PseudoGT(image_id="img_pos", box=box(2, 2, 8, 8), vote=25.0, support=25)
        updated = update_from_detections(
            model_toward([1, 0]), images_fixture(), {"img_pos": existing}
        )
        assert updated["img_pos"] == existing
        assert updated["img_pos"].updated is False

    def test_leash_keeps_original_when_no_overlap_candidate(self):
        existing = PseudoGT(image_id="img_pos", box=box(12, 12, 15, 15), vote=21.0, support=21)
        model = model_toward([1, 0])  # best detection is far from existing GT
        updated = update_from_detections(model, images_fixture(), {"img_pos": existing})
        assert updated["img_pos"].box == existing.box
        assert updated["img_pos"].updated is False

    def test_refinement_respects_leash(self):
        existing = PseudoGT(image_id="img_pos", box=box(2, 2, 7, 8), vote=21.0, support=21)
        updated = update_from_detections(
            model_toward([1, 0]), images_fixture(), {"img_pos": existing}
        )
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
        images = {"img": proposals("pos", halves, feats)}
        existing = PseudoGT(image_id="img", box=box(0, 0, 10, 10), vote=21.0, support=21)
        model = model_toward([1.0, 0.5] if first == 0 else [0.5, 1.0])
        updated = update_from_detections(model, images, {"img": existing})
        assert updated["img"].box == halves[first]
        assert updated["img"].updated is True

    def test_count_never_decreases(self):
        existing = {"img_pos": PseudoGT(image_id="img_pos", box=GT, vote=20.0, support=20)}
        updated = update_from_detections(model_toward([1, 0]), images_fixture(), existing)
        assert len(updated) >= len(existing)

    def test_equal_scores_are_taken_in_nms_keep_order_whatever_the_row_order(self):
        boxes = [box(10, 0, 20, 10), box(0, 0, 10, 10)]
        images = {"img": proposals("pos", boxes, [[1.0, 0.0], [1.0, 0.0]])}
        rows, _ = pipeline._detect(images, model_toward([1, 0]), 0.3)
        assert [b for _, b, _ in rows] == [boxes[1], boxes[0]]
        for order in (rows, rows[::-1]):
            assert lsvm_update(order, ["img"], {})["img"].box == boxes[1]

    @given(st.randoms())
    def test_rows_in_any_order_give_the_same_update(self, rng):
        """Each image's rows are taken in NMS keep order, so the rows of
        several images, with tied scores, give one result in any order."""
        halves = [box(0, 0, 10, 6), box(0, 4, 10, 10)]
        images = {
            **images_fixture(),
            "img_tie": proposals("pos", [box(10, 0, 20, 10), box(0, 0, 10, 10)],
                                 [[1.0, 0.0], [1.0, 0.0]]),
            "img_move": proposals("pos", halves, [[1.0, 0.0], [0.0, 1.0]]),
        }
        existing = {
            "img_move": PseudoGT(image_id="img_move", box=box(0, 0, 10, 10), vote=21.0, support=21)
        }
        rows, _ = pipeline._detect(images, model_toward([1.0, 0.5]), 0.3)
        positives = ["img_pos", "img_tie", "img_move"]
        want = lsvm_update(rows, positives, existing)
        assert sorted(want) == sorted(positives) and want["img_move"].box == halves[0]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert lsvm_update(shuffled, positives, existing) == want

    def test_positive_without_detections_keeps_what_it_had(self):
        existing = PseudoGT(image_id="img", box=GT, vote=20.0, support=20)
        assert lsvm_update([], ["img"], {}) == {}
        assert lsvm_update([], ["img"], {"img": existing}) == {"img": existing}


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

    def test_zero_features_get_zero_weights_and_mean_bias(self):
        pairs = [
            (np.array([0.0, 0.0]), box(0, 0, 4, 4), box(1, 1, 5, 5)),
            (np.array([0.0, 0.0]), box(5, 5, 9, 9), box(4, 4, 8, 8)),
        ]
        reg = fit_bbox_regressor(pairs, l2=0.0)
        p = box(0, 0, 4, 4)
        # centered zero features make every pivot 0, so each feature is
        # dependent and gets weight 0; the bias carries the mean target
        assert reg.weights.tolist() == [[0.0, 0.0]] * 4
        targets = [box_regression_targets(p, g) for _, p, g in pairs]
        assert reg.biases.tolist() == np.mean(targets, axis=0).tolist()
        refined = apply_regressor(reg, np.array([0.0, 0.0]), p)
        assert all(np.isfinite(refined.as_list()))

    def test_nan_feature_falls_back_to_identity(self):
        pairs = [
            (np.array([1.0, np.nan]), box(0, 0, 4, 4), box(1, 1, 5, 5)),
            (np.array([2.0, 0.5]), box(5, 5, 9, 9), box(4, 4, 8, 8)),
            (np.array([0.0, 1.5]), box(2, 2, 7, 7), box(2, 3, 7, 8)),
        ]
        reg = fit_bbox_regressor(pairs, l2=1e-3)
        identity = BoxRegressor.identity(2)
        assert reg.weights.tolist() == identity.weights.tolist()
        assert reg.biases.tolist() == identity.biases.tolist()


def regression_case(rng, features):
    """One (feature, proposal, gt) pair per feature row; each gt is its
    proposal with every corner moved by at most 1."""
    pairs = []
    for f in features:
        x0, y0 = rng.uniform(0, 50, 2)
        w, h = rng.uniform(4, 20, 2)
        d = rng.uniform(-1, 1, 4)
        pairs.append((f, box(x0, y0, x0 + w, y0 + h),
                      box(x0 + d[0], y0 + d[1], x0 + w + d[2], y0 + h + d[3])))
    return pairs


def centered_system(pairs):
    """Features, targets, centered features and centered targets of ``pairs``."""
    X = np.stack([f for f, _, _ in pairs])
    T = np.stack([box_regression_targets(p, g) for _, p, g in pairs])
    return X, T, X - X.mean(axis=0), T - T.mean(axis=0)


class TestRidgeSolve:
    """The fixed-order Cholesky solve against ``numpy.linalg``, which only
    these oracles call."""

    @given(
        seed=st.integers(0, 2**16),
        dim=st.integers(1, 16),
        extra=st.integers(2, 30),
        l2=st.sampled_from([1e-3, 1.0]),
    )
    def test_weights_match_linalg_solve(self, seed, dim, extra, l2):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(2 * dim + extra, dim)) * rng.uniform(0.5, 2.0, dim)
        pairs = regression_case(rng, features)
        *_, Xc, Tc = centered_system(pairs)
        want = np.linalg.solve(Xc.T @ Xc + l2 * np.eye(dim), Xc.T @ Tc).T
        got = fit_bbox_regressor(pairs, l2=l2).weights
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    @pytest.mark.parametrize("seed", range(5))
    def test_dependent_columns_at_zero_l2(self, seed):
        # columns: a, b, a again, a constant, c
        rng = np.random.default_rng(seed)
        a, b, c = rng.normal(size=(3, 12)) * [[1.0], [3.0], [0.5]]
        X = np.stack([a, b, a, np.full(12, 0.7), c], axis=1)
        pairs = regression_case(rng, X)
        reg = fit_bbox_regressor(pairs, l2=0.0)
        assert np.all(np.isfinite(reg.weights)) and np.all(np.isfinite(reg.biases))
        assert reg.weights[:, 2].tolist() == [0.0] * 4
        _, T, Xc, Tc = centered_system(pairs)
        W, *_ = np.linalg.lstsq(Xc, Tc, rcond=None)
        want = Xc @ W + T.mean(axis=0)
        assert np.abs(X @ reg.weights.T + reg.biases - want).max() <= 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_ridge_below_the_zero_l2_tolerance_keeps_a_duplicated_column(self, seed):
        # l2 = 4·eps·A[0, 0] lies below the l2 = 0 tolerance 16·eps·A[1, 1]
        rng = np.random.default_rng(seed)
        a = rng.normal(size=30) * 1e3
        X = np.stack([a, a, *rng.normal(size=(14, 30))], axis=1)
        pairs = regression_case(rng, X)
        *_, Xc, _ = centered_system(pairs)
        l2 = 4 * np.finfo(np.float64).eps * float(Xc[:, 0] @ Xc[:, 0])
        assert fit_bbox_regressor(pairs, l2=0.0).weights[:, 1].tolist() == [0.0] * 4
        weights = fit_bbox_regressor(pairs, l2=l2).weights
        assert np.all(np.isfinite(weights)) and np.all(weights[:, 1] != 0.0)


def numpy_blas():
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


KERNEL_CHILD = """
import json, sys
import numpy as np
from boxforge import dataio
from boxforge.detector import apply_regressor, fit_bbox_regressor
from boxforge.geometry import BBox
d = np.load(sys.argv[1])
boxes = [BBox(*map(float, p)) for p in d["proposals"]]
pairs = [(f, p, BBox(*map(float, g))) for f, p, g in zip(d["features"], boxes, d["gts"])]
reg = fit_bbox_regressor(pairs, l2=1e-3)
dataio.write_regressor(sys.argv[2], reg)
print(json.dumps([apply_regressor(reg, f, p).as_list() for f, p in zip(d["features"], boxes)]))
"""


@pytest.mark.skipif("openblas" not in numpy_blas(), reason="numpy's BLAS is not OpenBLAS")
def test_regressor_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    """Fit and apply on one input in children under three OpenBLAS kernels,
    each chosen in the child's environment only: same bytes from each."""
    rng = np.random.default_rng(9)
    features = rng.normal(size=(200, 16)) * rng.uniform(0.1, 10.0, 16)
    pairs = regression_case(rng, features)
    np.savez(
        tmp_path / "pairs.npz", features=features,
        proposals=[p.as_list() for _, p, _ in pairs], gts=[g.as_list() for _, _, g in pairs],
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(detector.__file__).parents[1])
    outputs = []
    for coretype in (None, "Haswell", "Sandybridge"):
        out = tmp_path / f"regressor_{coretype}.json"
        proc = subprocess.run(
            [sys.executable, "-c", KERNEL_CHILD, str(tmp_path / "pairs.npz"), str(out)],
            env={**env, **({"OPENBLAS_CORETYPE": coretype} if coretype else {})},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out.read_bytes(), proc.stdout))
    assert outputs[0] == outputs[1] == outputs[2]


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
