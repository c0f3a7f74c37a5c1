"""Localization and detection metrics: CorLoc, error cases, and 11-point
(VOC 2007) average precision.

CorLoc is the fraction of positive images whose predicted box overlaps some
ground-truth box with IOU strictly greater than 0.5.  Images with no
prediction count as failures when ``include_missed`` and are dropped from
the denominator otherwise.
"""

from __future__ import annotations

import enum
from typing import Mapping, Optional, Sequence

from .geometry import BBox, contains, iou

CORLOC_IOU = 0.5
AP_IOU = 0.5  # VOC's overlap for a true-positive detection


class ErrorCase(enum.Enum):
    """Five-way localization outcome for one pseudo-GT box."""

    CORRECT_LOCALIZATION = "correct_localization"
    PSEUDO_IN_GT = "pseudo_in_gt"
    GT_IN_PSEUDO = "gt_in_pseudo"
    LOW_OVERLAP = "low_overlap"
    NO_OVERLAP = "no_overlap"


def corloc(
    predictions: Mapping[str, Optional[BBox]],
    gt: Mapping[str, Sequence[BBox]],
    include_missed: bool = True,
) -> float:
    """Fraction of positive images localized with IOU > 0.5.

    ``gt``, never empty, defines the positive image set; predictions for
    unknown images are ignored.  With ``include_missed`` the denominator is
    every positive image; otherwise only images that have a prediction (0.0
    if none do).
    """
    found = 0
    correct = 0
    for image_id, boxes in gt.items():
        pred = predictions.get(image_id)
        if pred is None:
            continue
        found += 1
        if max(iou(pred, g) for g in boxes) > CORLOC_IOU:
            correct += 1
    if include_missed:
        return correct / len(gt)
    if found == 0:
        return 0.0
    return correct / found


def categorize_error(pred: BBox, gt_boxes: Sequence[BBox]) -> ErrorCase:
    """Classify a prediction against its best-IOU ground-truth box.

    Cases are tested in priority order: correct (IOU > 0.5, as in CorLoc),
    prediction completely inside the GT, GT completely inside the prediction,
    some overlap, no overlap.  Identical boxes are correct by the IOU test first.
    """
    best = max(gt_boxes, key=lambda g: iou(pred, g))
    overlap = iou(pred, best)
    if overlap > CORLOC_IOU:
        return ErrorCase.CORRECT_LOCALIZATION
    if contains(best, pred):
        return ErrorCase.PSEUDO_IN_GT
    if contains(pred, best):
        return ErrorCase.GT_IN_PSEUDO
    if overlap > 0.0:
        return ErrorCase.LOW_OVERLAP
    return ErrorCase.NO_OVERLAP


def error_histogram(
    predictions: Mapping[str, Optional[BBox]],
    gt: Mapping[str, Sequence[BBox]],
) -> dict[str, int]:
    """ErrorCase counts over every predicted image that has ground truth."""
    hist = {case.value: 0 for case in ErrorCase}
    for image_id, boxes in gt.items():
        pred = predictions.get(image_id)
        if pred is None:
            continue
        hist[categorize_error(pred, boxes).value] += 1
    return hist


def average_precision(
    detections: Sequence[tuple[str, BBox, float]],
    gt: Mapping[str, Sequence[BBox]],
) -> float:
    """PASCAL-style 11-point (VOC 2007) AP of scored detections against
    per-image GT boxes, at least one.

    Detections are processed score-descending (ties: image_id, then box
    coordinates) and greedily matched: a detection is a true positive when
    its best-IOU ground-truth box reaches :data:`AP_IOU` and is not already
    matched.  AP is the mean, over recall levels 0, 0.1, ..., 1, of the best
    precision at that recall or above.
    """
    total_gt = sum(len(boxes) for boxes in gt.values())
    order = sorted(
        range(len(detections)),
        key=lambda i: (-detections[i][2], detections[i][0], detections[i][1].as_list()),
    )
    matched: dict[str, list[bool]] = {img: [False] * len(boxes) for img, boxes in gt.items()}
    tp_flags: list[bool] = []
    for i in order:
        image_id, box, _score = detections[i]
        boxes = gt.get(image_id, ())
        best_j, best_iou = -1, 0.0
        for j, g in enumerate(boxes):
            ov = iou(box, g)
            if ov > best_iou:
                best_iou, best_j = ov, j
        if best_j >= 0 and best_iou >= AP_IOU and not matched[image_id][best_j]:
            matched[image_id][best_j] = True
            tp_flags.append(True)
        else:
            tp_flags.append(False)
    precisions: list[float] = []
    recalls: list[float] = []
    tp = 0
    for rank, flag in enumerate(tp_flags, start=1):
        tp += int(flag)
        precisions.append(tp / rank)
        recalls.append(tp / total_gt)
    total = 0.0
    for i in range(11):
        t = i / 10
        ps = [p for p, r in zip(precisions, recalls) if r >= t]
        total += max(ps) if ps else 0.0
    return total / 11
