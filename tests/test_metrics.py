import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from boxforge.errors import NoGroundTruthError, NoPositiveImagesError
from boxforge.geometry import BBox
from boxforge.metrics import (
    ALL_POINT,
    ErrorCase,
    aggregate,
    average_precision,
    categorize_error,
    corloc,
    error_histogram,
)


def box(x0, y0, x1, y1):
    return BBox(float(x0), float(y0), float(x1), float(y1))


GT_BOX = box(0, 0, 10, 10)


class TestCorloc:
    def test_all_exact_predictions(self):
        gt = {"a": [GT_BOX], "b": [box(5, 5, 9, 9)]}
        preds = {"a": GT_BOX, "b": box(5, 5, 9, 9)}
        assert corloc(preds, gt) == 1.0

    def test_half_correct(self):
        gt = {"a": [GT_BOX], "b": [GT_BOX]}
        preds = {"a": GT_BOX, "b": box(50, 50, 60, 60)}
        assert corloc(preds, gt) == 0.5

    def test_denominator_rule_for_missed(self):
        gt = {"a": [GT_BOX], "b": [GT_BOX]}
        preds = {"a": GT_BOX}
        assert corloc(preds, gt, include_missed=True) == 0.5
        assert corloc(preds, gt, include_missed=False) == 1.0

    def test_strictly_greater_than_half(self):
        # IOU exactly 0.5 does not count
        gt = {"a": [GT_BOX]}
        preds = {"a": box(0, 0, 5, 10)}
        assert corloc(preds, gt) == 0.0
        assert categorize_error(preds["a"], gt["a"]) is ErrorCase.PSEUDO_IN_GT

    def test_empty_gt_raises(self):
        with pytest.raises(NoPositiveImagesError):
            corloc({}, {})

    def test_no_predictions_excluding_missed_is_zero(self):
        gt = {"a": [GT_BOX]}
        assert corloc({}, gt, include_missed=False) == 0.0

    def test_include_never_exceeds_exclude(self):
        gt = {"a": [GT_BOX], "b": [GT_BOX], "c": [GT_BOX]}
        preds = {"a": GT_BOX, "b": box(40, 40, 50, 50)}
        assert corloc(preds, gt, True) <= corloc(preds, gt, False)


class TestCategorizeError:
    def test_correct_localization(self):
        assert categorize_error(box(0, 0, 10, 8), [GT_BOX]) is ErrorCase.CORRECT_LOCALIZATION

    def test_identical_boxes_are_correct(self):
        assert categorize_error(GT_BOX, [GT_BOX]) is ErrorCase.CORRECT_LOCALIZATION

    def test_pseudo_inside_gt(self):
        assert categorize_error(box(1, 1, 4, 4), [GT_BOX]) is ErrorCase.PSEUDO_IN_GT

    def test_gt_inside_pseudo(self):
        assert categorize_error(box(-5, -5, 20, 20), [GT_BOX]) is ErrorCase.GT_IN_PSEUDO

    def test_low_overlap(self):
        assert categorize_error(box(8, 8, 30, 30), [GT_BOX]) is ErrorCase.LOW_OVERLAP

    def test_no_overlap(self):
        assert categorize_error(box(50, 50, 60, 60), [GT_BOX]) is ErrorCase.NO_OVERLAP

    def test_best_iou_gt_box_is_the_reference(self):
        near = box(0, 0, 9, 10)   # iou 0.9 with pred below
        far = box(100, 100, 110, 110)
        assert categorize_error(box(0, 0, 9, 9), [far, near]) is ErrorCase.CORRECT_LOCALIZATION

    def test_requires_gt(self):
        with pytest.raises(NoGroundTruthError):
            categorize_error(GT_BOX, [])


def test_error_histogram_counts_sum_to_predictions():
    gt = {"a": [GT_BOX], "b": [GT_BOX], "c": [GT_BOX]}
    preds = {"a": GT_BOX, "b": box(1, 1, 4, 4)}
    hist = error_histogram(preds, gt)
    assert sum(hist.values()) == 2
    assert hist[ErrorCase.CORRECT_LOCALIZATION.value] == 1
    assert hist[ErrorCase.PSEUDO_IN_GT.value] == 1


# Integer corners on a small grid, so IOU often lands on exactly 0.5.
grid_boxes = st.builds(
    lambda x, y, w, h: box(x, y, x + w, y + h),
    st.integers(0, 4), st.integers(0, 4), st.integers(1, 4), st.integers(1, 4),
)


@given(st.lists(st.tuples(st.lists(grid_boxes, min_size=1, max_size=3),
                          st.none() | grid_boxes), min_size=1, max_size=6))
@example([([box(0, 0, 1, 1)], box(0, 0, 2, 1))])  # IOU exactly 0.5
def test_error_histogram_counts_corloc_hits_as_correct(images):
    gt = {f"i{k}": boxes for k, (boxes, _) in enumerate(images)}
    preds = {f"i{k}": pred for k, (_, pred) in enumerate(images) if pred is not None}
    hist = error_histogram(preds, gt)
    assert corloc(preds, gt) == hist[ErrorCase.CORRECT_LOCALIZATION.value] / len(gt)


class TestAveragePrecision:
    def test_single_perfect_detection(self):
        gt = {"a": [GT_BOX]}
        dets = [("a", GT_BOX, 0.9)]
        assert average_precision(dets, gt) == 1.0
        assert average_precision(dets, gt, mode=ALL_POINT) == 1.0

    def test_single_disjoint_detection(self):
        gt = {"a": [GT_BOX]}
        dets = [("a", box(50, 50, 60, 60), 0.9)]
        assert average_precision(dets, gt) == 0.0
        assert average_precision(dets, gt, mode=ALL_POINT) == 0.0

    def test_hand_computed_eleven_point_case(self):
        # 2 GT boxes, 3 detections scoring TP, FP, TP
        gt = {"a": [GT_BOX], "b": [GT_BOX]}
        dets = [
            ("a", GT_BOX, 3.0),
            ("a", box(40, 40, 50, 50), 2.0),
            ("b", GT_BOX, 1.0),
        ]
        # PR points: (r=.5, p=1), (r=.5, p=.5), (r=1, p=2/3)
        expected = (6 * 1.0 + 5 * (2 / 3)) / 11
        assert average_precision(dets, gt) == pytest.approx(expected, abs=1e-12)

    def test_all_point_mode_hand_case(self):
        gt = {"a": [GT_BOX], "b": [GT_BOX]}
        dets = [
            ("a", GT_BOX, 3.0),
            ("a", box(40, 40, 50, 50), 2.0),
            ("b", GT_BOX, 1.0),
        ]
        expected = 0.5 * 1.0 + 0.5 * (2 / 3)
        assert average_precision(dets, gt, mode=ALL_POINT) == pytest.approx(expected, abs=1e-12)

    def test_each_gt_matched_at_most_once(self):
        gt = {"a": [GT_BOX]}
        dets = [("a", GT_BOX, 2.0), ("a", GT_BOX, 1.0)]
        # second detection is an unmatched duplicate -> FP
        expected = (6 * 1.0 + 5 * 0.0) / 11  # recall tops out at 1 after det 1
        assert average_precision(dets, gt) == pytest.approx(1.0)

    def test_invariant_to_monotone_score_transform(self):
        rng = np.random.default_rng(50)
        gt = {f"i{k}": [GT_BOX] for k in range(4)}
        dets = []
        for k in range(4):
            hit = box(0, 0, 10, 9) if k % 2 == 0 else box(30, 30, 40, 40)
            dets.append((f"i{k}", hit, float(rng.uniform(0.1, 1.0))))
        base = average_precision(dets, gt)
        squashed = [(i, b, np.tanh(5 * s)) for i, b, s in dets]
        assert average_precision(squashed, gt) == pytest.approx(base, abs=1e-12)

    def test_no_gt_raises(self):
        with pytest.raises(NoGroundTruthError):
            average_precision([], {})

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            average_precision([("a", GT_BOX, 1.0)], {"a": [GT_BOX]}, mode="weird")


class TestAggregate:
    def entry(self, corloc_all, corloc_found, ap):
        return {
            "corloc_all": corloc_all,
            "corloc_found": corloc_found,
            "ap": ap,
            "error_histogram": {ErrorCase.CORRECT_LOCALIZATION.value: 2},
        }

    def test_single_category_mean_is_value(self):
        doc = aggregate({"cat": self.entry(0.4, 0.5, 0.7)})
        assert doc["mean_corloc"] == 0.4
        assert doc["map"] == 0.7

    def test_two_categories_average(self):
        doc = aggregate({"a": self.entry(0.4, 0.5, 0.2), "b": self.entry(0.6, 0.7, 0.8)})
        assert doc["mean_corloc"] == pytest.approx(0.5)
        assert doc["map"] == pytest.approx(0.5)
        assert doc["error_histogram"][ErrorCase.CORRECT_LOCALIZATION.value] == 4

    def test_ten_category_mean_matches_oracle(self):
        rng = np.random.default_rng(51)
        cats = {f"c{k}": self.entry(float(rng.random()), 0.5, float(rng.random())) for k in range(10)}
        doc = aggregate(cats)
        assert doc["mean_corloc"] == pytest.approx(
            sum(v["corloc_all"] for v in cats.values()) / 10
        )

    def test_empty_raises(self):
        with pytest.raises(NoPositiveImagesError):
            aggregate({})
