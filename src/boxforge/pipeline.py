"""File-driven pipeline stages behind the CLI subcommands.

Every stage has one calling shape, ``run_x(ds, cfg, *, <artifact>=None)``.
It reads the open :class:`~boxforge.dataio.Dataset` ``ds`` and every
setting from the run's :class:`~boxforge.config.PipelineConfig` ``cfg``,
writes its outputs plus a stage report under ``cfg.out_dir`` (reports in
``<out>/reports/``) and returns the report.  An input artifact left unset is
the file the stage before it wrote there: for example ``run_regress`` reads
``pseudo_gt_updated.jsonl`` and ``detections_updated.jsonl``.  Stages are
deterministic for fixed inputs and seed.

The scan, the vote and each detector are computed through
:meth:`~boxforge.dataio.Dataset.memo`, keyed by the values they are computed
from, so a stage reuses an earlier stage's result only for equal inputs.
``run_pipeline`` opens the dataset once and chains the stages in order,
passing only what differs from the defaults: the bandwidth cross-validation
chose, the updated pseudo GT that the updated train reads, and the updated
model and pseudo GT of each update round after the first.  Running the
stages one by one writes the same artifacts.
"""

from __future__ import annotations

import functools
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

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
from .metrics import aggregate, average_precision, corloc, error_histogram
from .mining import (
    POSITIVE,
    ImageProposals,
    build_clusters,
    dedup_clusters,
    rank_clusters,
    select_positive_regions,
)
from .tracks import FrameSelection, candidates_at_frame, select_track_per_frame
from .transfer import match_regions, retrieve_boxes, sampled_frame_indices
from .voting import PseudoGT, VoteSpace, export_heatmap, ranked_ascents, select_pseudo_gt

REGIONS = "regions.jsonl"
SELECTIONS = "selections.jsonl"
TRANSFERS = "transfers.jsonl"
PSEUDO_GT = "pseudo_gt.jsonl"
PSEUDO_GT_UPDATED = "pseudo_gt_updated.jsonl"
MODEL_INITIAL = "model_initial.json"
DETECTIONS_INITIAL = "detections_initial.jsonl"
DETECTIONS_UPDATED = "detections_updated.jsonl"
REGRESSOR = "regressor.json"
DETECTIONS_BBOXREG = "detections_bboxreg.jsonl"
METRICS = "metrics.json"
BANDWIDTH_REPORT = "bandwidth_report.json"

log = logging.getLogger(__name__)


class _Stage:
    """One stage's run: its output directory ``cfg.out_dir``, created on
    entry, and its clock.  Its report is ``reports/<name>.json``, or
    ``reports/<name>_<tag>.json`` when the stage is run with a ``tag``."""

    def __init__(self, cfg: PipelineConfig, name: str, tag: Optional[str] = None):
        if cfg.out_dir is None:
            raise MissingInputError(f"{name} needs out_dir")
        self.t0 = time.perf_counter()
        self.name = name
        self.file = name if tag is None else f"{name}_{tag}"
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
        dataio.dump_json(report, reports / f"{self.file}.json")
        log.info("%s %s", self.file, json.dumps(report, sort_keys=True))
        return report


def _default_k(labels: dict[str, str]) -> int:
    n_pos = sum(1 for v in labels.values() if v == POSITIVE)
    return -(-n_pos // 2)


def run_mine(ds: dataio.Dataset, cfg: PipelineConfig) -> dict:
    """Cluster, rank, dedup, and select the mined positive region set."""
    stage = _Stage(cfg, "mine")
    images = ds.images
    labels = {image_id: image.label for image_id, image in images.items()}
    k = _default_k(labels) if cfg.k is None else cfg.k
    sizes = [len(image) for image in images.values()]
    n_proposals = sum(sizes)
    clusters = build_clusters(images, k)
    ranked = rank_clusters(clusters)
    deduped = dedup_clusters(ranked)
    mined = select_positive_regions(deduped, labels, top_c=cfg.top_clusters)
    dataio.write_regions(stage.out / REGIONS, mined)
    return stage.report({
        "k": k,
        "n_proposals": n_proposals,
        # ordered (seed, candidate) pairs from different images
        "n_proposal_pairs": sum(n * (n_proposals - n) for n in sizes),
        "n_clusters": len(clusters),
        "n_kept_clusters": len(deduped),
        "n_regions": len(mined),
    })


def _scan(ds, mined, target_cells, n_matches, frame_stride):
    """Each region's query scanned once over every sampled frame: (selections, TopMatches)."""
    manifest = ds.manifest
    load_fmap = functools.cache(manifest.load_image_fmap)  # one read per image
    queries = {
        r.region_id: build_query_window(
            load_fmap(r.image_id), r.box, manifest.cell_stride, target_cells
        )
        for r in mined
    }
    videos = [(e.video_id, manifest.load_video_frames(e.video_id)) for e in manifest.videos]

    def select(video_id: str, frame_idx: int, boxes, scores) -> Optional[FrameSelection]:
        candidates = candidates_at_frame(ds.tracks.get(video_id, []), frame_idx)
        return select_track_per_frame(candidates, boxes, scores, video_id, frame_idx)

    return match_regions(queries, videos, select, n_matches, frame_stride, manifest.cell_stride)


def _scanned(ds: dataio.Dataset, cfg: PipelineConfig, mined):
    """The scan of the regions ``mined``, once per dataset."""
    return ds.memo(_scan, tuple(mined), cfg.target_cells, cfg.n_matches, cfg.frame_stride)


def run_select_tracks(
    ds: dataio.Dataset, cfg: PipelineConfig, *, regions: Optional[str | Path] = None
) -> dict:
    """Pick the best-supported candidate track box in every sampled frame,
    as the scan (whose top hits match reads) reaches the frame."""
    stage = _Stage(cfg, "select_tracks")
    mined = dataio.read_regions(stage.input(regions, REGIONS))
    selections, _ = _scanned(ds, cfg, mined)
    dataio.write_selections(stage.out / SELECTIONS, selections)
    return stage.report({"n_regions": len(mined), "n_selections": len(selections)})


def run_match(
    ds: dataio.Dataset,
    cfg: PipelineConfig,
    *,
    regions: Optional[str | Path] = None,
    selections: Optional[str | Path] = None,
) -> dict:
    """Match every mined region into the videos and transfer track boxes
    back."""
    stage = _Stage(cfg, "match")
    mined = dataio.read_regions(stage.input(regions, REGIONS))
    selected = dataio.read_selections(stage.input(selections, SELECTIONS))
    _, top_matches = _scanned(ds, cfg, mined)
    region_boxes = {r.region_id: (r.image_id, r.box) for r in mined}

    transfers, dropped = retrieve_boxes(top_matches, region_boxes, selected)
    dataio.write_transfers(stage.out / TRANSFERS, transfers)
    return stage.report({
        "n_regions": len(mined),
        "n_matches": len(top_matches),
        "n_transfers": len(transfers),
        "n_degenerate_dropped": dropped,
    })


def vote_pseudo_gts(
    ds: dataio.Dataset,
    boxes_by_image: Iterable[tuple[str, Sequence[BBox]]],
    bandwidths: Sequence[float],
    theta: float,
) -> dict[float, dict[str, PseudoGT]]:
    """Mean-shift each image's transferred boxes, given as ``(image id,
    boxes)`` pairs in image-id order, at every bandwidth, in one ascent per
    image; bandwidth -> (image id -> pseudo GT), for the images whose top
    mode passes ``theta``."""
    gts: dict[float, dict[str, PseudoGT]] = {b: {} for b in bandwidths}
    for image_id, boxes in boxes_by_image:
        points = box_array(boxes)
        spaces = [VoteSpace(points=points, bandwidth=b) for b in gts]
        rankings = ranked_ascents(spaces[0].points, list(gts))
        size = ds.manifest.image(image_id).size
        for space, ranking in zip(spaces, rankings):
            gt = select_pseudo_gt(
                space, ranking=ranking, theta=theta, image_bounds=size, image_id=image_id
            )
            if gt is not None:
                gts[space.bandwidth][image_id] = gt
    return gts


def _voted(ds: dataio.Dataset, cfg: PipelineConfig, boxes_by_image, bandwidths):
    """The vote of ``boxes_by_image`` (image id -> boxes), once per dataset."""
    pairs = tuple((i, tuple(boxes_by_image[i])) for i in sorted(boxes_by_image))
    return ds.memo(vote_pseudo_gts, pairs, tuple(bandwidths), cfg.theta)


def run_vote(
    ds: dataio.Dataset,
    cfg: PipelineConfig,
    *,
    transfers: Optional[str | Path] = None,
    heatmaps: Optional[str | Path] = None,
    bandwidth: Optional[float] = None,
) -> dict:
    """Mean-shift the per-image vote spaces into pseudo-GT boxes, and write
    one heatmap per image into the directory ``heatmaps`` when it is set.

    ``bandwidth`` is the one cross-validation chose from
    ``cfg.bandwidth_grid``, read from its vote of the whole grid; without
    it the vote uses ``cfg.bandwidth``.
    """
    if bandwidth is None:
        bandwidth = cfg.bandwidth
    if bandwidth is None:
        raise ConfigInvalidError("vote needs a bandwidth: b in the config file or --bandwidth")
    stage = _Stage(cfg, "vote")
    manifest = ds.manifest
    boxes_by_image = dataio.read_transfer_boxes(stage.input(transfers, TRANSFERS))
    chosen = cfg.bandwidth is None and bandwidth in cfg.bandwidth_grid
    grid = cfg.bandwidth_grid if chosen else (bandwidth,)
    pseudo_gts = _voted(ds, cfg, boxes_by_image, grid)[bandwidth]
    if heatmaps is not None:
        hdir = Path(heatmaps)
        hdir.mkdir(parents=True, exist_ok=True)
        for image_id in sorted(boxes_by_image):
            width, height = manifest.image(image_id).size
            path = hdir / f"{image_id}.pgm"
            export_heatmap(box_array(boxes_by_image[image_id]), (int(width), int(height)), path)
    dataio.write_pseudo_gts(stage.out / PSEUDO_GT, [pseudo_gts[i] for i in sorted(pseudo_gts)])
    return stage.report({
        "bandwidth": bandwidth,
        "kernel": "gaussian",
        "theta": cfg.theta,
        "n_images_with_transfers": len(boxes_by_image),
        "n_pseudo_gt": len(pseudo_gts),
    })


def _training_corpus(ds: dataio.Dataset, pseudo_gts):
    """Pseudo-GT boxes as positives, band and negative-image proposals as
    negatives, image by image in id order; every example is described by
    :func:`pool_box_feature` on its image's FMAP, the proposals' as
    :func:`dataio.read_proposals` pooled them."""
    manifest = ds.manifest
    blocks: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for image_id, image in ds.images.items():
        if image.label == POSITIVE:
            gt = pseudo_gts.get(image_id)
            if gt is None:
                continue  # without a pseudo GT every proposal is ignored
            fmap = manifest.load_image_fmap(image_id)
            blocks.append(pool_box_feature(fmap, gt.box, manifest.cell_stride)[None, :])
            labels.append(np.ones(1))
            negatives = image.features[hard_negative_mask(image.coords, gt.box)]
        else:
            negatives = image.features
        blocks.append(negatives)
        labels.append(np.full(len(negatives), -1.0))
    if not sum(len(y) for y in labels):
        raise EmptyPoolError("no training examples")
    return np.concatenate(blocks), np.concatenate(labels)


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
    model = train_linear(
        X, y, steps, learning_rate, weight_decay, seed, category_id=ds.manifest.categories[0]
    )
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
        for i in nms(image.boxes, scores.tolist(), nms_iou):
            detections.append((image_id, image.boxes[i], float(scores[i])))
    return detections


def run_train(
    ds: dataio.Dataset,
    cfg: PipelineConfig,
    *,
    pseudo_gt: Optional[str | Path] = None,
    tag: str = "initial",
) -> dict:
    """Train the linear detector on the pseudo GT and emit its detections,
    both named with ``tag``."""
    stage = _Stage(cfg, "train", tag)
    fit = _fitted(ds, cfg, dataio.read_pseudo_gts(stage.input(pseudo_gt, PSEUDO_GT)))
    dataio.write_model(stage.out / f"model_{tag}.json", fit.model)
    detections = _detect(ds.images, fit.model, cfg.nms_iou)
    dataio.write_detections(stage.out / f"detections_{tag}.jsonl", detections)
    return stage.report({
        "tag": tag,
        "n_train_examples": fit.n_examples,
        "n_positives": fit.n_positives,
        "n_detections": len(detections),
        "seed": cfg.seed,
    })


def run_update(
    ds: dataio.Dataset,
    cfg: PipelineConfig,
    *,
    model: Optional[str | Path] = None,
    pseudo_gt: Optional[str | Path] = None,
) -> dict:
    """Latent update: fill missing pseudo GTs, refine existing ones."""
    stage = _Stage(cfg, "update")
    detector = dataio.read_model(stage.input(model, MODEL_INITIAL))
    before = dataio.read_pseudo_gts(stage.input(pseudo_gt, PSEUDO_GT))
    after = lsvm_update(detector, ds.images, before, nms_iou=cfg.nms_iou)
    dataio.write_pseudo_gts(stage.out / PSEUDO_GT_UPDATED, [after[i] for i in sorted(after)])
    return stage.report({
        "n_before": len(before),
        "n_after": len(after),
        "n_filled": len(after) - len(before),
        "n_moved": sum(1 for i, g in after.items() if i in before and g.box != before[i].box),
    })


def run_regress(
    ds: dataio.Dataset,
    cfg: PipelineConfig,
    *,
    pseudo_gt: Optional[str | Path] = None,
    detections: Optional[str | Path] = None,
) -> dict:
    """Fit the box regressor on well-overlapping proposals and refine
    detections; both are described by :func:`pool_box_feature` on the FMAP."""
    stage = _Stage(cfg, "regress")
    manifest = ds.manifest
    images = ds.images
    pairs = regression_pairs(
        images, dataio.read_pseudo_gts(stage.input(pseudo_gt, PSEUDO_GT_UPDATED))
    )
    if pairs:
        regressor = fit_bbox_regressor(pairs, l2=cfg.regressor_l2)
    else:
        regressor = BoxRegressor.identity(next(iter(images.values())).features.shape[1])
    dataio.write_regressor(stage.out / REGRESSOR, regressor)

    load_fmap = functools.cache(manifest.load_image_fmap)  # one read per image
    refined = []
    for image_id, box, score in dataio.read_detections(
        stage.input(detections, DETECTIONS_UPDATED)
    ):
        feature = pool_box_feature(load_fmap(image_id), box, manifest.cell_stride)
        new_box = apply_regressor(regressor, feature, box)
        entry = manifest.image(image_id)
        clipped = clip_box(new_box, entry.size[0], entry.size[1])
        refined.append((image_id, clipped if clipped is not None else box, score))
    dataio.write_detections(stage.out / DETECTIONS_BBOXREG, refined)
    return stage.report({"n_pairs": len(pairs), "n_detections": len(refined)})


def _category_gt(manifest, category):
    gt = dataio.read_gt(manifest.path("gt"))
    if category not in gt:
        raise MissingInputError(f"gt.jsonl has no boxes for category {category!r}")
    return gt[category]


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
    """Compute CorLoc (both accountings), error cases, and AP into metrics.json.

    The top-level per-category block reflects the best available artifacts
    (updated pseudo GT over initial; regressed detections over plain); the
    ``ablation`` block reports each variant whose file exists separately; an
    unset input whose default file is absent is skipped.
    """
    stage = _Stage(cfg, "eval")
    manifest = ds.manifest
    category = manifest.categories[0]
    gt = _category_gt(manifest, category)

    ablation = {}
    primary_pgt = None
    for tag, path in (
        ("initial", stage.input(initial_pgt, PSEUDO_GT)),
        ("updated", stage.input(updated_pgt, PSEUDO_GT_UPDATED)),
    ):
        if not path.exists():
            continue
        pgts = dataio.read_pseudo_gts(path)
        boxes = {image_id: g.box for image_id, g in pgts.items()}
        ablation[tag] = {
            "corloc_all": corloc(boxes, gt, include_missed=True),
            "corloc_found": corloc(boxes, gt, include_missed=False),
            "n_pseudo_gt": len(pgts),
        }
        primary_pgt = (tag, boxes, pgts)
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
        ap = average_precision(dataio.read_detections(path), gt)
        ablation.setdefault(tag, {})["ap"] = ap
        primary_ap = ap
        primary_det_tag = tag

    tag, boxes, _pgts = primary_pgt
    per_category = {
        category: {
            "corloc_all": ablation[tag]["corloc_all"],
            "corloc_found": ablation[tag]["corloc_found"],
            "ap": primary_ap,
            "error_histogram": error_histogram(boxes, gt),
        }
    }
    doc = aggregate(per_category)
    doc["ablation"] = ablation
    doc["primary"] = {"pseudo_gt": tag, "detections": primary_det_tag}
    dataio.dump_json(doc, stage.out / METRICS)
    stage.report({"category": category, "mean_corloc": doc["mean_corloc"], "map": doc["map"]})
    return doc


def _half_box(box: BBox) -> BBox:
    cx, cy = box.center
    return BBox(
        cx - 0.25 * box.width, cy - 0.25 * box.height,
        cx + 0.25 * box.width, cy + 0.25 * box.height,
    )


def _video_frames(ds: dataio.Dataset, selections, frame_stride):
    """The sampled frames a detector is scored on, as ``(frames, gt)``:
    frame key -> the frame's boxes with their pooled features, and each
    frame's selected track box as (noisy) ground truth.

    The per-frame proposal pool is the candidate track boxes plus a
    centered half-size sub-box of each, so a detector that never learned
    tightness ranks loose parts above the object and loses precision."""
    manifest = ds.manifest
    frames: dict[str, ImageProposals] = {}
    gt: dict[str, list[BBox]] = {}
    for entry in manifest.videos:
        fmaps = manifest.load_video_frames(entry.video_id)
        tracks = ds.tracks.get(entry.video_id, [])
        for frame_idx in sampled_frame_indices(len(fmaps), frame_stride):
            sel = selections.get((entry.video_id, frame_idx))
            if sel is None:
                continue
            frame_key = f"{entry.video_id}:{frame_idx}"
            gt[frame_key] = [sel.box]
            candidates = candidates_at_frame(tracks, frame_idx)
            if not candidates:
                continue
            fmap = fmaps[frame_idx]
            boxes = [box for _, box in candidates]
            boxes.extend(_half_box(box) for _, box in candidates)
            feats = [pool_box_feature(fmap, box, manifest.cell_stride) for box in boxes]
            frames[frame_key] = ImageProposals.from_boxes(POSITIVE, boxes, feats)
    return frames, gt


def run_cv_bandwidth(
    ds: dataio.Dataset,
    cfg: PipelineConfig,
    *,
    selections: Optional[str | Path] = None,
    transfers: Optional[str | Path] = None,
) -> dict:
    """Pick the ``cfg.bandwidth_grid`` bandwidth whose detector best recovers
    the selected tracks.

    The whole grid is voted up front, one mean-shift ascent per image, as
    the vote stage votes a chosen grid bandwidth; each bandwidth's pseudo GT
    is trained on as the train stage trains on it.  The video frames the
    detectors are scored on are pooled once and detected on as the train
    stage detects on images.
    """
    stage = _Stage(cfg, "cv_bandwidth")
    boxes_by_image = dataio.read_transfer_boxes(stage.input(transfers, TRANSFERS))
    selected = dataio.read_selections(stage.input(selections, SELECTIONS))
    voted = _voted(ds, cfg, boxes_by_image, cfg.bandwidth_grid)
    frames, gt = _video_frames(ds, selected, cfg.frame_stride)

    def evaluate(b: float) -> float:
        if not voted[b]:  # with zero SGD steps an empty pool trains a zero model
            return 0.0
        try:
            model = _fitted(ds, cfg, voted[b]).model
        except EmptyPoolError:
            return 0.0
        return average_precision(_detect(frames, model, cfg.nms_iou), gt) if gt else 0.0

    best_b, scores = cross_validate_bandwidth(cfg.bandwidth_grid, evaluate)
    doc = {"best_b": best_b, "ap_per_b": {str(b): scores[b] for b in sorted(scores)}}
    # the artifact stays byte-reproducible; only the stage report is timed
    dataio.dump_json(doc, stage.out / BANDWIDTH_REPORT)
    return stage.report(doc)


def run_pipeline(cfg: PipelineConfig, heatmaps: Optional[str | Path] = None) -> dict:
    """Run every stage in order; returns the final metrics document."""
    if cfg.manifest is None or cfg.out_dir is None:
        raise MissingInputError("pipeline needs both manifest and out_dir")
    ds = dataio.open_dataset(cfg.manifest)  # a refused manifest leaves no output directory
    stage = _Stage(cfg, "pipeline")

    run_mine(ds, cfg)
    run_select_tracks(ds, cfg)
    run_match(ds, cfg)
    bandwidth = cfg.bandwidth
    if bandwidth is None:
        bandwidth = run_cv_bandwidth(ds, cfg)["best_b"]
    run_vote(ds, cfg, heatmaps=heatmaps, bandwidth=bandwidth)
    run_train(ds, cfg)
    updated = stage.out / PSEUDO_GT_UPDATED
    later_round = {"model": stage.out / "model_updated.json", "pseudo_gt": updated}
    for round_idx in range(cfg.lsvm_rounds):
        run_update(ds, cfg, **(later_round if round_idx else {}))
        run_train(ds, cfg, pseudo_gt=updated, tag="updated")
    run_regress(ds, cfg)
    metrics_doc = run_eval(ds, cfg)
    stage.report({"bandwidth": bandwidth})
    return metrics_doc
