"""File-driven pipeline stages behind the CLI subcommands.

Every stage has one calling shape, ``run_x(ds, cfg, *, <artifact>=None)``.
It reads the dataset ``ds``, the one :class:`~boxforge.dataio.Dataset`
that :func:`~boxforge.dataio.load_manifest` opens (the manifest's entries
and files, its maps, proposals and tracks), and every setting from the
run's :class:`~boxforge.config.PipelineConfig` ``cfg``, writes its outputs
plus a stage report under ``cfg.out_dir`` (reports in ``<out>/reports/``)
and returns the report.  An input artifact left unset is
the file the stage before it wrote there: for example ``run_train`` reads
``pseudo_gt.jsonl``.  Stages are deterministic for fixed inputs and seed.

``run_match`` alone scans the video frames, and writes the selections it
made with the transfers.  ``run_vote`` alone votes, choosing the bandwidth
on those selections when ``cfg.bandwidth`` is unset.  ``run_train`` alone
turns the pseudo GT into the detector: it trains, runs the latent updates
and fits the box regressor in memory, and only ``run_eval`` reads the
detections back.  Each detector is computed through
:meth:`~boxforge.dataio.Dataset.memo`, keyed by the values it is computed
from, so a stage reuses an earlier stage's detector only for equal inputs.
``run_pipeline`` opens the dataset once and chains the stages in order with
their default inputs.  Running the stages one by one writes the same
artifacts.  Models and the box regressor are outputs only: no stage reads
them back.
"""

from __future__ import annotations

import functools
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import dataio
from .config import PipelineConfig
from .detector import (
    BoxRegressor,
    LinearModel,
    apply_regressor,
    cross_validate_bandwidth,
    fit_bbox_regressor,
    hard_negative_mask,
    lsvm_update,
    regression_pairs,
    train_linear,
)
from .errors import ConfigInvalidError, EmptyPoolError, MissingInputError
from .featmap import build_query_window, pool_box_feature
from .geometry import BBox, box_array, clip_box, nms
from .metrics import average_precision, corloc, error_histogram
from .mining import (
    POSITIVE,
    ImageProposals,
    MinedRegion,
    build_clusters,
    dedup_clusters,
    rank_clusters,
    select_positive_regions,
)
from .tracks import FrameSelection, candidates_at_frame, select_track_per_frame
from .transfer import match_regions, retrieve_boxes
from .voting import PseudoGT, VoteSpace, export_heatmap, ranked_ascents, select_pseudo_gt

REGIONS = "regions.jsonl"
SELECTIONS = "selections.jsonl"
TRANSFERS = "transfers.jsonl"
PSEUDO_GT = "pseudo_gt.jsonl"
PSEUDO_GT_UPDATED = "pseudo_gt_updated.jsonl"
MODEL_INITIAL = "model_initial.json"
MODEL_UPDATED = "model_updated.json"
DETECTIONS_INITIAL = "detections_initial.jsonl"
DETECTIONS_UPDATED = "detections_updated.jsonl"
REGRESSOR = "regressor.json"
DETECTIONS_BBOXREG = "detections_bboxreg.jsonl"
METRICS = "metrics.json"
BANDWIDTH_REPORT = "bandwidth_report.json"

log = logging.getLogger(__name__)


class _Stage:
    """One stage's run: its output directory ``cfg.out_dir``, created on
    entry, and its clock.  Its report is ``reports/<name>.json``."""

    def __init__(self, cfg: PipelineConfig, name: str):
        if cfg.out_dir is None:
            raise MissingInputError(f"{name} needs out_dir")
        self.t0 = time.perf_counter()
        self.name = name
        self.out = Path(cfg.out_dir)
        self.out.mkdir(parents=True, exist_ok=True)

    def input(self, path: Optional[str | Path], default: str) -> Path:
        """``path``, which must exist, or when it is unset the file
        ``default`` in the output directory."""
        if path and not Path(path).exists():
            raise MissingInputError(f"missing input file: {path}")
        return Path(path) if path else self.out / default

    def report(self, fields: dict) -> dict:
        """The stage's name, ``fields`` and the elapsed time, written as its
        report and logged at INFO as one line: the report's name, then the
        report as sorted JSON."""
        report = {"stage": self.name, **fields, "elapsed_s": time.perf_counter() - self.t0}
        reports = self.out / "reports"
        reports.mkdir(exist_ok=True)
        dataio.dump_json(report, reports / f"{self.name}.json")
        log.info("%s %s", self.name, json.dumps(report, sort_keys=True))
        return report


def _default_k(images: dict[str, ImageProposals]) -> int:
    n_pos = sum(1 for image in images.values() if image.label == POSITIVE)
    return -(-n_pos // 2)


def run_mine(ds: dataio.Dataset, cfg: PipelineConfig) -> dict:
    """Cluster, rank, dedup, and select the mined positive region set."""
    stage = _Stage(cfg, "mine")
    images = ds.images
    k = _default_k(images) if cfg.k is None else cfg.k
    sizes = [len(image) for image in images.values()]
    n_proposals = sum(sizes)
    clusters = build_clusters(images, k)
    kept = dedup_clusters(clusters, rank_clusters(clusters))
    mined = select_positive_regions(clusters, kept, top_c=cfg.top_clusters)
    dataio.write_regions(stage.out / REGIONS, mined)
    return stage.report({
        "k": k,
        "n_proposals": n_proposals,
        # ordered (seed, candidate) pairs from different images
        "n_proposal_pairs": sum(n * (n_proposals - n) for n in sizes),
        "n_clusters": len(clusters),
        "n_kept_clusters": len(kept),
        "n_regions": len(mined),
    })


def _read_regions(ds: dataio.Dataset, path: Path) -> list[MinedRegion]:
    """The mined regions in ``path``, each of an image the manifest lists."""
    mined = dataio.read_regions(path)
    ds.check_listed(path, (r.image_id for r in mined))
    return mined


def _query_windows(ds, mined, target_cells: int) -> dict[str, np.ndarray]:
    """Each region's query window, by region id; each image's map is read
    once and released on return, before any frame is read."""
    load_fmap = functools.cache(ds.load_image_fmap)
    return {
        r.region_id: build_query_window(load_fmap(r.image_id), r.box, ds.cell_stride, target_cells)
        for r in mined
    }


def _scan(ds: dataio.Dataset, cfg: PipelineConfig, mined):
    """Each region's query scanned once over every sampled frame: (selections, TopMatches)."""
    queries = _query_windows(ds, mined, cfg.target_cells)
    videos = [(video_id, ds.load_video_frames(video_id)) for video_id in ds.videos]

    def select(video_id: str, frame_idx: int, boxes, scores) -> Optional[FrameSelection]:
        candidates = candidates_at_frame(ds.tracks.get(video_id, []), frame_idx)
        return select_track_per_frame(candidates, boxes, scores, video_id, frame_idx)

    return match_regions(queries, videos, select, cfg.n_matches, cfg.frame_stride, ds.cell_stride)


def run_match(
    ds: dataio.Dataset, cfg: PipelineConfig, *, regions: Optional[str | Path] = None
) -> dict:
    """Scan the mined regions over each sampled frame once, selecting each
    frame's track as the scan reaches it, and transfer the selected track
    boxes of each region's top hits back to its image."""
    stage = _Stage(cfg, "match")
    mined = _read_regions(ds, stage.input(regions, REGIONS))
    selections, top_matches = _scan(ds, cfg, mined)
    region_boxes = {r.region_id: (r.image_id, r.box) for r in mined}
    selected = {(s.video_id, s.frame_idx): s for s in selections}

    transfers, dropped = retrieve_boxes(top_matches, region_boxes, selected)
    dataio.write_selections(stage.out / SELECTIONS, selections)
    dataio.write_transfers(stage.out / TRANSFERS, transfers)
    return stage.report({
        "n_regions": len(mined),
        "n_selections": len(selections),
        "n_matches": len(top_matches),
        "n_transfers": len(transfers),
        "n_degenerate_dropped": dropped,
    })


def vote_pseudo_gts(
    ds: dataio.Dataset,
    corners_by_image: dict[str, np.ndarray],
    bandwidths: Sequence[float],
    theta: float,
) -> dict[float, dict[str, PseudoGT]]:
    """Mean-shift each image's transferred boxes, image id -> (N, 4) float64
    corner rows, at every bandwidth, in one ascent per image in image-id
    order; bandwidth -> (image id -> pseudo GT), for the images whose top
    mode passes ``theta``."""
    gts: dict[float, dict[str, PseudoGT]] = {b: {} for b in bandwidths}
    for image_id in sorted(corners_by_image):
        spaces = [VoteSpace(points=corners_by_image[image_id], bandwidth=b) for b in gts]
        rankings = ranked_ascents(spaces[0].points, list(gts))
        size = ds.image(image_id).size
        for space, ranking in zip(spaces, rankings):
            gt = select_pseudo_gt(
                space, ranking=ranking, theta=theta, image_bounds=size, image_id=image_id
            )
            if gt is not None:
                gts[space.bandwidth][image_id] = gt
    return gts


def _read_transfer_corners(ds: dataio.Dataset, path: Path) -> dict[str, np.ndarray]:
    """The transferred boxes in ``path``, each of an image the manifest lists."""
    corners_by_image = dataio.read_transfer_corners(path)
    ds.check_listed(path, corners_by_image)
    return corners_by_image


def run_vote(
    ds: dataio.Dataset,
    cfg: PipelineConfig,
    *,
    selections: Optional[str | Path] = None,
    transfers: Optional[str | Path] = None,
    heatmaps: Optional[str | Path] = None,
) -> dict:
    """Mean-shift the per-image vote spaces into pseudo-GT boxes, and write
    one heatmap per image into the directory ``heatmaps`` when it is set.

    The vote uses ``cfg.bandwidth``.  Without it, the whole
    ``cfg.bandwidth_grid`` is voted, one mean-shift ascent per image, and
    the pseudo GT written is that of the bandwidth cross-validation picks
    on the selected tracks, as ``bandwidth_report.json`` records.
    """
    stage = _Stage(cfg, "vote")
    corners_by_image = _read_transfer_corners(ds, stage.input(transfers, TRANSFERS))
    grid = cfg.bandwidth_grid if cfg.bandwidth is None else (cfg.bandwidth,)
    voted = vote_pseudo_gts(ds, corners_by_image, grid, cfg.theta)
    bandwidth, cv = cfg.bandwidth, {}
    if bandwidth is None:
        bandwidth, scores = _cross_validate(ds, cfg, stage.input(selections, SELECTIONS), voted)
        cv = {"ap_per_b": {str(b): scores[b] for b in sorted(scores)}}
        # the artifact stays byte-reproducible; only the stage report is timed
        dataio.dump_json({"best_b": bandwidth, **cv}, stage.out / BANDWIDTH_REPORT)
    pseudo_gts = voted[bandwidth]
    if heatmaps is not None:
        hdir = Path(heatmaps)
        hdir.mkdir(parents=True, exist_ok=True)
        for image_id in sorted(corners_by_image):
            width, height = ds.image(image_id).size
            points = corners_by_image[image_id]
            export_heatmap(points, (int(width), int(height)), hdir / f"{image_id}.pgm")
    dataio.write_pseudo_gts(stage.out / PSEUDO_GT, [pseudo_gts[i] for i in sorted(pseudo_gts)])
    return stage.report({
        "bandwidth": bandwidth,
        **cv,
        "kernel": "gaussian",
        "theta": cfg.theta,
        "n_images_with_transfers": len(corners_by_image),
        "n_pseudo_gt": len(pseudo_gts),
    })


def _training_corpus(ds: dataio.Dataset, pseudo_gts):
    """Pseudo-GT boxes as positives, band and negative-image proposals as
    negatives, image by image in id order; every example is described by
    :func:`pool_box_feature` on its image's FMAP: a pseudo GT as one corner
    row, the proposals as :func:`dataio.read_proposals` pooled them."""
    blocks: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for image_id, image in ds.images.items():
        if image.label == POSITIVE:
            gt = pseudo_gts.get(image_id)
            if gt is None:
                continue  # without a pseudo GT every proposal is ignored
            fmap = ds.load_image_fmap(image_id)
            blocks.append(pool_box_feature(fmap, box_array([gt.box]), ds.cell_stride))
            labels.append(np.ones(1))
            negatives = image.features[hard_negative_mask(image.coords, gt.box)]
        else:
            negatives = image.features
        blocks.append(negatives)
        labels.append(np.full(len(negatives), -1.0))
    if not sum(len(y) for y in labels):
        raise EmptyPoolError("no training examples")
    return np.concatenate(blocks), np.concatenate(labels)


def _read_pseudo_gts(ds: dataio.Dataset, path: Path) -> dict[str, PseudoGT]:
    """The pseudo GTs in ``path``, each of an image the manifest lists."""
    pseudo_gts = dataio.read_pseudo_gts(path)
    ds.check_listed(path, pseudo_gts)
    return pseudo_gts


def _read_detections(ds: dataio.Dataset, path: Path) -> list[tuple[str, BBox, float]]:
    """The detections in ``path``, each of an image the manifest lists."""
    rows = dataio.read_detections(path)
    ds.check_listed(path, (image_id for image_id, _, _ in rows))
    return rows


@dataclass(frozen=True)
class DetectorFit:
    """A trained detector and the size of its training set."""

    model: LinearModel
    n_examples: int
    n_positives: int


def fit_detector(
    ds: dataio.Dataset, pseudo_gts, steps: int, learning_rate: float, weight_decay: float,
    seed: int,
) -> DetectorFit:
    """Train the linear detector on ``pseudo_gts``, (image id, pseudo GT)
    pairs, with :func:`train_linear`'s SGD settings; raises
    :class:`EmptyPoolError` when there is nothing to train on."""
    X, y = _training_corpus(ds, dict(pseudo_gts))
    model = train_linear(X, y, steps, learning_rate, weight_decay, seed)
    return DetectorFit(model=model, n_examples=int(X.shape[0]), n_positives=int(np.sum(y > 0)))


def _fitted(ds: dataio.Dataset, cfg: PipelineConfig, pseudo_gts: dict[str, PseudoGT]):
    """The detector trained on ``pseudo_gts``, once per dataset."""
    return ds.memo(
        fit_detector, tuple(sorted(pseudo_gts.items())),
        cfg.train_steps, cfg.learning_rate, cfg.weight_decay, cfg.seed,
    )


def _detect(images, model, nms_iou):
    """``(key, box, score)`` for every box of every pool in ``images`` (key ->
    :class:`ImageProposals`, of an image or a video frame) that the model
    scores and NMS keeps, pool by pool in key order."""
    detections = []
    for image_id in sorted(images):
        image = images[image_id]
        scores = model.score(image.features)
        for i in nms(image.coords, scores, nms_iou):
            detections.append((image_id, image.box(i), float(scores[i])))
    return detections


def _regress(ds: dataio.Dataset, cfg: PipelineConfig, pseudo_gts, detections):
    """The box regressor fit on the proposals that overlap ``pseudo_gts``
    well, and ``detections`` refined by it, both described by
    :func:`pool_box_feature` on the FMAP: ``(regressor, n_pairs, refined)``.
    Without a pair the regressor is the identity."""
    images = ds.images
    pairs = regression_pairs(images, pseudo_gts)
    if pairs:
        regressor = fit_bbox_regressor(pairs, l2=cfg.regressor_l2)
    else:
        regressor = BoxRegressor.identity(next(iter(images.values())).features.shape[1])
    load_fmap = functools.cache(ds.load_image_fmap)  # one read per image
    refined = []
    for image_id, box, score in detections:
        [feature] = pool_box_feature(load_fmap(image_id), box_array([box]), ds.cell_stride)
        new_box = apply_regressor(regressor, feature, box)
        clipped = clip_box(new_box, *ds.image(image_id).size)
        refined.append((image_id, clipped if clipped is not None else box, score))
    return regressor, len(pairs), refined


def run_train(
    ds: dataio.Dataset, cfg: PipelineConfig, *, pseudo_gt: Optional[str | Path] = None
) -> dict:
    """Turn the pseudo GT into the detector: train on it, then run at most
    ``cfg.lsvm_rounds`` latent updates, each adopting the last detector's
    detections and training again, then fit the box regressor on the
    updated pseudo GT and refine the updated detections.

    A round that changes no pseudo GT ends the updates: the update depends
    only on the detections, the positives and the pseudo GT, and the
    detector only on the pseudo GT, so every later round would repeat it.
    """
    stage = _Stage(cfg, "train")
    before = _read_pseudo_gts(ds, stage.input(pseudo_gt, PSEUDO_GT))
    positives = [i for i, entry in ds.entries.items() if entry.label == POSITIVE]

    def detector(pseudo_gts):
        fit = _fitted(ds, cfg, pseudo_gts)
        detections = _detect(ds.images, fit.model, cfg.nms_iou)
        counts = {
            "n_train_examples": fit.n_examples,
            "n_positives": fit.n_positives,
            "n_detections": len(detections),
        }
        return fit.model, detections, counts

    model, detections, initial = detector(before)
    dataio.write_model(stage.out / MODEL_INITIAL, model, ds.category)
    dataio.write_detections(stage.out / DETECTIONS_INITIAL, detections)
    after, updated = before, initial
    for n_rounds in range(1, cfg.lsvm_rounds + 1):
        adopted = lsvm_update(detections, positives, after)
        if adopted == after:
            break
        after = adopted
        model, detections, updated = detector(after)
    dataio.write_pseudo_gts(stage.out / PSEUDO_GT_UPDATED, [after[i] for i in sorted(after)])
    dataio.write_model(stage.out / MODEL_UPDATED, model, ds.category)
    dataio.write_detections(stage.out / DETECTIONS_UPDATED, detections)

    regressor, n_pairs, refined = _regress(ds, cfg, after, detections)
    dataio.write_regressor(stage.out / REGRESSOR, regressor)
    dataio.write_detections(stage.out / DETECTIONS_BBOXREG, refined)
    return stage.report({
        "seed": cfg.seed,
        "initial": initial,
        "update": {
            "n_rounds": n_rounds,
            "n_before": len(before),
            "n_after": len(after),
            "n_filled": len(after) - len(before),
            "n_moved": sum(1 for i, g in after.items() if i in before and g.box != before[i].box),
        },
        "updated": updated,
        "regress": {"n_pairs": n_pairs, "n_detections": len(refined)},
    })


def run_eval(
    ds: dataio.Dataset,
    cfg: PipelineConfig,
    *,
    initial_pgt: Optional[str | Path] = None,
    updated_pgt: Optional[str | Path] = None,
    det_initial: Optional[str | Path] = None,
    det_updated: Optional[str | Path] = None,
    det_bboxreg: Optional[str | Path] = None,
) -> dict:
    """Compute CorLoc (both accountings), error cases and 11-point (VOC 2007) AP.

    metrics.json's block for the category, repeated at the top level, scores
    the best available artifacts (updated pseudo GT over initial; regressed
    detections over plain); ``ablation`` scores each variant whose file
    exists; an unset input whose default file is absent is skipped.
    """
    stage = _Stage(cfg, "eval")
    category = ds.category
    gt_path = ds.path("gt")
    gt = dataio.read_gt(gt_path).get(category)
    if gt is None:
        raise MissingInputError(f"gt.jsonl has no boxes for category {category!r}")
    ds.check_listed(gt_path, gt)

    ablation = {}
    primary_pgt = None
    for tag, path in (
        ("initial", stage.input(initial_pgt, PSEUDO_GT)),
        ("updated", stage.input(updated_pgt, PSEUDO_GT_UPDATED)),
    ):
        if not path.exists():
            continue
        pgts = _read_pseudo_gts(ds, path)
        boxes = {image_id: g.box for image_id, g in pgts.items()}
        ablation[tag] = {
            "corloc_all": corloc(boxes, gt, include_missed=True),
            "corloc_found": corloc(boxes, gt, include_missed=False),
            "n_pseudo_gt": len(pgts),
        }
        primary_pgt = (tag, boxes)
    if primary_pgt is None:
        raise MissingInputError("eval needs at least one pseudo-GT file")

    primary_ap = 0.0
    primary_det_tag = None
    for tag, path in (
        ("initial", stage.input(det_initial, DETECTIONS_INITIAL)),
        ("updated", stage.input(det_updated, DETECTIONS_UPDATED)),
        ("updated_bboxreg", stage.input(det_bboxreg, DETECTIONS_BBOXREG)),
    ):
        if not path.exists():
            continue
        ap = average_precision(_read_detections(ds, path), gt)
        ablation.setdefault(tag, {})["ap"] = ap
        primary_ap = ap
        primary_det_tag = tag

    tag, boxes = primary_pgt
    scores = {key: ablation[tag][key] for key in ("corloc_all", "corloc_found")}
    scores.update(ap=primary_ap, error_histogram=error_histogram(boxes, gt))
    doc = {
        "categories": {category: scores},
        "mean_corloc": scores["corloc_all"],
        "mean_corloc_found": scores["corloc_found"],
        "map": primary_ap,
        "error_histogram": scores["error_histogram"],
        "ablation": ablation,
        "primary": {"pseudo_gt": tag, "detections": primary_det_tag},
    }
    dataio.dump_json(doc, stage.out / METRICS)
    stage.report({"category": category, "mean_corloc": doc["mean_corloc"], "map": doc["map"]})
    return doc


def _video_frames(ds: dataio.Dataset, path: Path):
    """The frames a detector is scored on, those with a selection in the
    ``selections.jsonl`` at ``path``, as ``(frames, gt)``: frame key -> the
    frame's boxes with their pooled features, and each frame's selected
    track box as (noisy) ground truth.  Each video is opened once; a row of
    a video the manifest does not list, or of a frame the video does not
    have, is refused.

    The per-frame proposal pool is the candidate track boxes plus a
    centered half-size sub-box of each, so a detector that never learned
    tightness ranks loose parts above the object and loses precision.  A
    sub-box's corners are its box's ``center -/+ size / 4``, as BBox rounds."""
    frames: dict[str, ImageProposals] = {}
    gt: dict[str, list[BBox]] = {}
    open_video = functools.cache(ds.load_video_frames)  # each video opened once
    for (video_id, frame_idx), sel in dataio.read_selections(path).items():
        if video_id not in ds.videos:
            raise ConfigInvalidError(f"{path}: video {video_id!r} is not in the manifest")
        fmaps = open_video(video_id)
        if not 0 <= frame_idx < len(fmaps):
            raise ConfigInvalidError(f"{path}: video {video_id!r} has no frame {frame_idx}")
        frame_key = f"{video_id}:{frame_idx}"
        gt[frame_key] = [sel.box]
        candidates = candidates_at_frame(ds.tracks.get(video_id, []), frame_idx)
        if not candidates:
            continue
        tight = box_array([box for _, box in candidates])
        lo, hi = tight[:, :2], tight[:, 2:]
        center, quarter = 0.5 * (lo + hi), 0.25 * (hi - lo)
        coords = np.concatenate([tight, np.hstack([center - quarter, center + quarter])])
        features = pool_box_feature(fmaps[frame_idx], coords, ds.cell_stride)
        frames[frame_key] = ImageProposals(POSITIVE, coords, features)
    return frames, gt


def _cross_validate(ds: dataio.Dataset, cfg: PipelineConfig, selections: Path, voted):
    """Pick the ``cfg.bandwidth_grid`` bandwidth whose detector best recovers
    the tracks in ``selections``: ``(best b, b -> AP)``.

    ``voted`` is the vote of the whole grid.  Each bandwidth's pseudo GT is
    trained on as the train stage trains on it, so train reuses the
    winner's detector; the frames are pooled once and detected on as the
    train stage detects on images.
    """
    frames, gt = _video_frames(ds, selections)

    def evaluate(b: float) -> float:
        if not voted[b]:  # with zero SGD steps an empty pool trains a zero model
            return 0.0
        try:
            model = _fitted(ds, cfg, voted[b]).model
        except EmptyPoolError:
            return 0.0
        return average_precision(_detect(frames, model, cfg.nms_iou), gt) if gt else 0.0

    return cross_validate_bandwidth(cfg.bandwidth_grid, evaluate)


def run_pipeline(cfg: PipelineConfig, heatmaps: Optional[str | Path] = None) -> dict:
    """Run every stage in order; returns the final metrics document."""
    if cfg.manifest is None or cfg.out_dir is None:
        raise MissingInputError("pipeline needs both manifest and out_dir")
    ds = dataio.load_manifest(cfg.manifest)  # a refused manifest leaves no output directory
    stage = _Stage(cfg, "pipeline")

    run_mine(ds, cfg)
    run_match(ds, cfg)
    bandwidth = run_vote(ds, cfg, heatmaps=heatmaps)["bandwidth"]
    run_train(ds, cfg)
    metrics_doc = run_eval(ds, cfg)
    stage.report({"bandwidth": bandwidth})
    return metrics_doc
