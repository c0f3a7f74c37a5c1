"""File-driven pipeline stages behind the CLI subcommands.

Every stage reads its inputs from disk, writes its outputs plus a stage
report under ``<out>/reports/``, and is deterministic for fixed inputs and
seed.  ``run_pipeline`` chains the stages in order, so running them
individually produces the same artifacts.

A stage takes either a manifest path, which it opens, or a
:class:`~boxforge.dataio.Dataset` already open: ``run_pipeline`` opens the
dataset once and hands it to every stage, so the manifest, proposals and
tracks are parsed once per run.  It also hands cross-validation's winning
pseudo GT and detector to the vote and initial train stages, which write
them rather than computing them again.

Every setting a stage reads comes from the run's
:class:`~boxforge.config.PipelineConfig`; its other arguments are artifact
paths and those hand-offs.
"""

from __future__ import annotations

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
    TrainConfig,
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
from .geometry import BBox, clip_box, nms
from .metrics import aggregate, average_precision, corloc, error_histogram
from .mining import (
    POSITIVE,
    build_clusters,
    dedup_clusters,
    rank_clusters,
    select_positive_regions,
)
from .tracks import candidates_at_frame, select_track_per_frame
from .transfer import (
    match_region_per_frame,
    match_region_to_videos,
    retrieve_boxes,
    sampled_frame_indices,
)
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


def _open(dataset: dataio.Dataset | str | Path) -> dataio.Dataset:
    """The dataset itself, or the one its manifest path names, opened."""
    if isinstance(dataset, dataio.Dataset):
        return dataset
    return dataio.open_dataset(dataset)


def _write_report(out_dir: Path, stage: str, report: dict) -> dict:
    reports = out_dir / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    dataio.dump_json(report, reports / f"{stage}.json")
    return report


def _default_k(labels: dict[str, str]) -> int:
    n_pos = sum(1 for v in labels.values() if v == POSITIVE)
    return -(-n_pos // 2)


def run_mine(
    dataset: dataio.Dataset | str | Path,
    out_dir: str | Path,
    cfg: PipelineConfig,
) -> dict:
    """Cluster, rank, dedup, and select the mined positive region set."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    images = _open(dataset).images
    labels = {image_id: image.label for image_id, image in images.items()}
    k = _default_k(labels) if cfg.k is None else cfg.k
    sizes = [len(image) for image in images.values()]
    n_proposals = sum(sizes)
    clusters = build_clusters(images, k)
    ranked = rank_clusters(clusters)
    deduped = dedup_clusters(ranked)
    mined = select_positive_regions(deduped, labels, top_c=cfg.top_clusters)
    dataio.write_regions(out / REGIONS, mined)
    return _write_report(
        out,
        "mine",
        {
            "stage": "mine",
            "k": k,
            "n_proposals": n_proposals,
            # ordered (seed, candidate) pairs from different images
            "n_proposal_pairs": sum(n * (n_proposals - n) for n in sizes),
            "n_clusters": len(clusters),
            "n_kept_clusters": len(deduped),
            "n_regions": len(mined.regions),
            "elapsed_s": time.perf_counter() - t0,
        },
    )


def _load_region_queries(manifest, regions, target_cells):
    fmap_cache: dict[str, object] = {}
    queries = {}
    for region in regions:
        fmap = fmap_cache.get(region.image_id)
        if fmap is None:
            fmap = manifest.load_image_fmap(region.image_id)
            fmap_cache[region.image_id] = fmap
        queries[region.region_id] = build_query_window(
            fmap,
            region.box,
            cell_stride=manifest.cell_stride,
            target_cells=target_cells,
            source_image=region.image_id,
        )
    return queries


def _load_videos(manifest):
    return [
        (entry.video_id, manifest.load_video_pyramids(entry.video_id))
        for entry in manifest.videos
    ]


def run_select_tracks(
    dataset: dataio.Dataset | str | Path,
    regions_path: str | Path,
    out_dir: str | Path,
    cfg: PipelineConfig,
) -> dict:
    """Pick the best-supported candidate track box in every sampled frame."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds = _open(dataset)
    mined = dataio.read_regions(regions_path)
    queries = _load_region_queries(ds.manifest, mined.regions, cfg.target_cells)
    videos = _load_videos(ds.manifest)
    tracks_by_video = ds.tracks

    region_order = [r.region_id for r in mined.regions]
    per_region = [
        match_region_per_frame(rid, queries[rid], videos, cfg.frame_stride)
        for rid in region_order
    ]
    evidence: dict[tuple[str, int], list[tuple[BBox, float]]] = {}
    for matches in per_region:
        for key, match in matches.items():
            evidence.setdefault(key, []).append((match.hit.pixel_box, match.sim))

    selections = []
    for video_id, frames in videos:
        tracks = tracks_by_video.get(video_id, [])
        for frame_idx in sampled_frame_indices(len(frames), cfg.frame_stride):
            candidates = candidates_at_frame(tracks, frame_idx)
            sel = select_track_per_frame(
                candidates, evidence.get((video_id, frame_idx), []), video_id, frame_idx
            )
            if sel is not None:
                selections.append(sel)
    dataio.write_selections(out / SELECTIONS, selections)
    return _write_report(
        out,
        "select_tracks",
        {
            "stage": "select_tracks",
            "n_regions": len(region_order),
            "n_selections": len(selections),
            "elapsed_s": time.perf_counter() - t0,
        },
    )


def run_match(
    dataset: dataio.Dataset | str | Path,
    regions_path: str | Path,
    selections_path: str | Path,
    out_dir: str | Path,
    cfg: PipelineConfig,
) -> dict:
    """Match every mined region into the videos and transfer track boxes back."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _open(dataset).manifest
    mined = dataio.read_regions(regions_path)
    selections = dataio.read_selections(selections_path)
    queries = _load_region_queries(manifest, mined.regions, cfg.target_cells)
    videos = _load_videos(manifest)
    region_boxes = {r.region_id: (r.image_id, r.box) for r in mined.regions}

    region_order = [r.region_id for r in mined.regions]
    per_region = [
        match_region_to_videos(rid, queries[rid], videos, cfg.n_matches, cfg.frame_stride)
        for rid in region_order
    ]
    transfers = []
    n_matches_total = 0
    dropped_total = 0
    for matches in per_region:
        n_matches_total += len(matches)
        emitted, dropped = retrieve_boxes(matches, region_boxes, selections)
        transfers.extend(emitted)
        dropped_total += dropped
    dataio.write_transfers(out / TRANSFERS, transfers)
    return _write_report(
        out,
        "match",
        {
            "stage": "match",
            "n_regions": len(region_order),
            "n_matches": n_matches_total,
            "n_transfers": len(transfers),
            "n_degenerate_dropped": dropped_total,
            "elapsed_s": time.perf_counter() - t0,
        },
    )


def vote_pseudo_gts(
    manifest: dataio.Manifest,
    boxes_by_image: dict[str, list[BBox]],
    bandwidths: Sequence[float],
    cfg: PipelineConfig,
) -> dict[float, dict[str, PseudoGT]]:
    """Mean-shift each image's transferred boxes at every bandwidth with
    ``cfg``'s kernel, in one ascent per image; bandwidth -> (image id ->
    pseudo GT), for the images whose top mode passes ``cfg.theta``."""
    gts: dict[float, dict[str, PseudoGT]] = {b: {} for b in bandwidths}
    for image_id in sorted(boxes_by_image):
        points = np.array([box.as_list() for box in boxes_by_image[image_id]], dtype=np.float64)
        spaces = [VoteSpace(points=points, bandwidth=b, kernel=cfg.kernel) for b in gts]
        rankings = ranked_ascents(spaces[0].points, list(gts), cfg.kernel)
        size = manifest.image(image_id).size
        for space, ranking in zip(spaces, rankings):
            gt = select_pseudo_gt(
                space, theta=cfg.theta, image_bounds=size, image_id=image_id, ranking=ranking
            )
            if gt is not None:
                gts[space.bandwidth][image_id] = gt
    return gts


def run_vote(
    dataset: dataio.Dataset | str | Path,
    transfers_path: str | Path,
    out_dir: str | Path,
    cfg: PipelineConfig,
    bandwidth: Optional[float] = None,
    heatmap_dir: Optional[str | Path] = None,
    pseudo_gts: Optional[dict[str, PseudoGT]] = None,
) -> dict:
    """Mean-shift the per-image vote spaces into pseudo-GT boxes.

    ``bandwidth`` is the one cross-validation chose; without it the vote
    uses ``cfg.bandwidth``.  ``pseudo_gts`` is this vote's result when the
    caller already has it (cross-validation voted with the same transfers,
    bandwidth, kernel and theta); it is written as is.
    """
    if bandwidth is None:
        bandwidth = cfg.bandwidth
    if bandwidth is None:
        raise ConfigInvalidError("vote needs a bandwidth: b in the config file or --bandwidth")
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _open(dataset).manifest
    boxes_by_image = dataio.read_transfer_boxes(transfers_path)
    if pseudo_gts is None:
        pseudo_gts = vote_pseudo_gts(manifest, boxes_by_image, [bandwidth], cfg)[bandwidth]
    if heatmap_dir is not None:
        hdir = Path(heatmap_dir)
        hdir.mkdir(parents=True, exist_ok=True)
        for image_id in sorted(boxes_by_image):
            width, height = manifest.image(image_id).size
            export_heatmap(
                boxes_by_image[image_id], (int(width), int(height)), hdir / f"{image_id}.pgm"
            )
    dataio.write_pseudo_gts(out / PSEUDO_GT, [pseudo_gts[i] for i in sorted(pseudo_gts)])
    return _write_report(
        out,
        "vote",
        {
            "stage": "vote",
            "bandwidth": bandwidth,
            "kernel": cfg.kernel,
            "theta": cfg.theta,
            "n_images_with_transfers": len(boxes_by_image),
            "n_pseudo_gt": len(pseudo_gts),
            "elapsed_s": time.perf_counter() - t0,
        },
    )


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
    ds: dataio.Dataset, pseudo_gts: dict[str, PseudoGT], train_config: TrainConfig
) -> DetectorFit:
    """Train the linear detector on the pseudo GT; raises
    :class:`EmptyPoolError` when there is nothing to train on."""
    X, y = _training_corpus(ds, pseudo_gts)
    model = train_linear(X, y, train_config, category_id=ds.manifest.categories[0])
    return DetectorFit(model=model, n_examples=int(X.shape[0]), n_positives=int(np.sum(y > 0)))


def _detect(images, model, nms_iou):
    detections = []
    for image_id in sorted(images):
        image = images[image_id]
        scores = model.score(image.features)
        for i in nms(image.boxes, scores.tolist(), nms_iou):
            detections.append((image_id, image.boxes[i], float(scores[i])))
    return detections


def run_train(
    dataset: dataio.Dataset | str | Path,
    pseudo_gt_path: str | Path,
    out_dir: str | Path,
    cfg: PipelineConfig,
    tag: str = "initial",
    fit: Optional[DetectorFit] = None,
) -> dict:
    """Train the linear detector on the pseudo GT and emit its detections.

    ``fit`` is this training's result when the caller already has it
    (cross-validation trained on the same pseudo GT with the same config);
    its model is written as is.
    """
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds = _open(dataset)
    if fit is None:
        fit = fit_detector(ds, dataio.read_pseudo_gts(pseudo_gt_path), cfg.train_config())
    dataio.write_model(out / f"model_{tag}.json", fit.model)
    detections = _detect(ds.images, fit.model, cfg.nms_iou)
    dataio.write_detections(out / f"detections_{tag}.jsonl", detections)
    return _write_report(
        out,
        f"train_{tag}",
        {
            "stage": "train",
            "tag": tag,
            "n_train_examples": fit.n_examples,
            "n_positives": fit.n_positives,
            "n_detections": len(detections),
            "seed": cfg.seed,
            "elapsed_s": time.perf_counter() - t0,
        },
    )


def run_update(
    dataset: dataio.Dataset | str | Path,
    model_path: str | Path,
    pseudo_gt_path: str | Path,
    out_dir: str | Path,
    cfg: PipelineConfig,
) -> dict:
    """Latent update: fill missing pseudo GTs, refine existing ones."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds = _open(dataset)
    model = dataio.read_model(model_path)
    before = dataio.read_pseudo_gts(pseudo_gt_path)
    after = lsvm_update(model, ds.images, before, nms_iou=cfg.nms_iou)
    dataio.write_pseudo_gts(out / PSEUDO_GT_UPDATED, [after[i] for i in sorted(after)])
    return _write_report(
        out,
        "update",
        {
            "stage": "update",
            "n_before": len(before),
            "n_after": len(after),
            "n_filled": len(after) - len(before),
            "n_moved": sum(
                1 for i, g in after.items() if i in before and g.box != before[i].box
            ),
            "elapsed_s": time.perf_counter() - t0,
        },
    )


def run_regress(
    dataset: dataio.Dataset | str | Path,
    pseudo_gt_path: str | Path,
    detections_path: str | Path,
    out_dir: str | Path,
    cfg: PipelineConfig,
) -> dict:
    """Fit the box regressor on well-overlapping proposals and refine
    detections; both are described by :func:`pool_box_feature` on the FMAP."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds = _open(dataset)
    manifest = ds.manifest
    images = ds.images
    pairs = regression_pairs(images, dataio.read_pseudo_gts(pseudo_gt_path))
    if pairs:
        regressor = fit_bbox_regressor(pairs, l2=cfg.regressor_l2)
    else:
        regressor = BoxRegressor.identity(next(iter(images.values())).features.shape[1])
    dataio.write_regressor(out / REGRESSOR, regressor)

    detections = dataio.read_detections(detections_path)
    fmap_cache = {}
    refined = []
    for image_id, box, score in detections:
        fmap = fmap_cache.get(image_id)
        if fmap is None:
            fmap = manifest.load_image_fmap(image_id)
            fmap_cache[image_id] = fmap
        feature = pool_box_feature(fmap, box, manifest.cell_stride)
        new_box = apply_regressor(regressor, feature, box)
        entry = manifest.image(image_id)
        clipped = clip_box(new_box, entry.size[0], entry.size[1])
        refined.append((image_id, clipped if clipped is not None else box, score))
    dataio.write_detections(out / DETECTIONS_BBOXREG, refined)
    return _write_report(
        out,
        "regress",
        {
            "stage": "regress",
            "n_pairs": len(pairs),
            "n_detections": len(refined),
            "elapsed_s": time.perf_counter() - t0,
        },
    )


def _category_gt(manifest, category):
    gt = dataio.read_gt(manifest.path("gt"))
    if category not in gt:
        raise MissingInputError(f"gt.jsonl has no boxes for category {category!r}")
    return gt[category]


def _pgt_boxes(pseudo_gts):
    return {image_id: g.box for image_id, g in pseudo_gts.items()}


def run_eval(
    dataset: dataio.Dataset | str | Path,
    out_dir: str | Path,
    initial_pgt_path: Optional[str | Path] = None,
    updated_pgt_path: Optional[str | Path] = None,
    detections_paths: Optional[dict[str, str | Path]] = None,
) -> dict:
    """Compute CorLoc (both accountings), error cases, and AP into metrics.json.

    The top-level per-category block reflects the best available artifacts
    (updated pseudo GT over initial; regressed detections over plain); the
    ``ablation`` block reports each provided variant separately.
    """
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _open(dataset).manifest
    category = manifest.categories[0]
    gt = _category_gt(manifest, category)
    detections_paths = detections_paths or {}

    ablation = {}
    primary_pgt = None
    for tag, path in (("initial", initial_pgt_path), ("updated", updated_pgt_path)):
        if path is None or not Path(path).exists():
            continue
        pgts = dataio.read_pseudo_gts(path)
        boxes = _pgt_boxes(pgts)
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
    for tag in ("initial", "updated", "updated_bboxreg"):
        path = detections_paths.get(tag)
        if path is None or not Path(path).exists():
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
    dataio.dump_json(doc, out / METRICS)
    report = {
        "stage": "eval",
        "category": category,
        "mean_corloc": doc["mean_corloc"],
        "map": doc["map"],
        "elapsed_s": time.perf_counter() - t0,
    }
    _write_report(out, "eval", report)
    return doc


def _half_box(box: BBox) -> BBox:
    cx, cy = box.center
    return BBox(
        cx - 0.25 * box.width, cy - 0.25 * box.height,
        cx + 0.25 * box.width, cy + 0.25 * box.height,
    )


def _video_frames(ds: dataio.Dataset, selections, frame_stride):
    """The sampled frames a detector is scored on, as ``(frames, gt)``:
    ``(frame_key, boxes, pooled features)`` per frame, and each frame's
    selected track box as (noisy) ground truth.

    The per-frame proposal pool is the candidate track boxes plus a
    centered half-size sub-box of each, so a detector that never learned
    tightness ranks loose parts above the object and loses precision."""
    manifest = ds.manifest
    frames = []
    gt: dict[str, list[BBox]] = {}
    for entry in manifest.videos:
        pyramids = manifest.load_video_pyramids(entry.video_id)
        tracks = ds.tracks.get(entry.video_id, [])
        for frame_idx in sampled_frame_indices(len(pyramids), frame_stride):
            sel = selections.get((entry.video_id, frame_idx))
            if sel is None:
                continue
            frame_key = f"{entry.video_id}:{frame_idx}"
            gt[frame_key] = [sel.box]
            candidates = candidates_at_frame(tracks, frame_idx)
            if not candidates:
                continue
            fmap = pyramids[frame_idx].levels[0][1]
            boxes = [box for _, box in candidates]
            boxes.extend(_half_box(box) for _, box in candidates)
            feats = np.stack(
                [pool_box_feature(fmap, box, manifest.cell_stride) for box in boxes]
            )
            frames.append((frame_key, boxes, feats))
    return frames, gt


def _video_detection_ap(frames, gt, model, nms_iou) -> float:
    """AP of the detector on the :func:`_video_frames` frames."""
    if not gt:
        return 0.0
    detections = []
    for frame_key, boxes, feats in frames:
        scores = model.score(feats)
        for i in nms(boxes, scores.tolist(), nms_iou):
            detections.append((frame_key, boxes[i], float(scores[i])))
    return average_precision(detections, gt)


@dataclass(frozen=True)
class BandwidthTrial:
    """What cross-validation computed at one grid bandwidth."""

    pseudo_gts: dict[str, PseudoGT]
    fit: Optional[DetectorFit]  # None when there was nothing to train on


@dataclass(frozen=True)
class CrossValidation:
    """The cv-bandwidth stage report and every grid bandwidth's trial."""

    report: dict
    trials: dict[float, BandwidthTrial]

    @property
    def best_b(self) -> float:
        return self.report["best_b"]

    @property
    def winner(self) -> BandwidthTrial:
        return self.trials[self.best_b]


def run_cv_bandwidth(
    dataset: dataio.Dataset | str | Path,
    transfers_path: str | Path,
    selections_path: str | Path,
    out_dir: str | Path,
    cfg: PipelineConfig,
) -> CrossValidation:
    """Pick the ``cfg.bandwidth_grid`` bandwidth whose detector best recovers
    the selected tracks.

    The whole grid is voted up front, one mean-shift ascent per image; each
    bandwidth's pseudo GT is what the vote stage would find, and it is
    trained on exactly as the train stage would.  The video frames the
    detectors are scored on are pooled once, when the first detector needs
    them.
    """
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds = _open(dataset)
    boxes_by_image = dataio.read_transfer_boxes(transfers_path)
    selections = dataio.read_selections(selections_path)
    train_config = cfg.train_config()
    trials: dict[float, BandwidthTrial] = {}
    voted = vote_pseudo_gts(ds.manifest, boxes_by_image, cfg.bandwidth_grid, cfg)
    video = None  # (frames, gt), pooled when the first detector needs them

    def evaluate(b: float) -> float:
        nonlocal video
        gts = voted[b]
        fit = None
        if gts:
            try:
                fit = fit_detector(ds, gts, train_config)
            except EmptyPoolError:
                pass
        trials[b] = BandwidthTrial(pseudo_gts=gts, fit=fit)
        if fit is None:
            return 0.0
        if video is None:
            video = _video_frames(ds, selections, cfg.frame_stride)
        return _video_detection_ap(*video, fit.model, cfg.nms_iou)

    best_b, scores = cross_validate_bandwidth(cfg.bandwidth_grid, evaluate)
    doc = {"best_b": best_b, "ap_per_b": {str(b): scores[b] for b in sorted(scores)}}
    # the artifact stays byte-reproducible; only the stage report is timed
    dataio.dump_json(doc, out / BANDWIDTH_REPORT)
    report = _write_report(out, "cv_bandwidth", {**doc, "elapsed_s": time.perf_counter() - t0})
    return CrossValidation(report=report, trials=trials)


def run_pipeline(cfg: PipelineConfig, heatmap_dir: Optional[str | Path] = None) -> dict:
    """Run every stage in order; returns the final metrics document."""
    if cfg.manifest is None or cfg.out_dir is None:
        raise MissingInputError("pipeline needs both manifest and out_dir")
    t0 = time.perf_counter()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds = dataio.open_dataset(cfg.manifest)

    run_mine(ds, out, cfg)
    run_select_tracks(ds, out / REGIONS, out, cfg)
    run_match(ds, out / REGIONS, out / SELECTIONS, out, cfg)
    bandwidth = cfg.bandwidth
    winner_gts, winner_fit = None, None
    if bandwidth is None:
        cv = run_cv_bandwidth(ds, out / TRANSFERS, out / SELECTIONS, out, cfg)
        bandwidth = cv.best_b
        winner_gts, winner_fit = cv.winner.pseudo_gts, cv.winner.fit
    run_vote(
        ds, out / TRANSFERS, out, cfg,
        bandwidth=bandwidth, heatmap_dir=heatmap_dir, pseudo_gts=winner_gts,
    )
    # without a winning detector (fixed bandwidth, or an empty pool) this trains
    run_train(ds, out / PSEUDO_GT, out, cfg, tag="initial", fit=winner_fit)
    current_pgt = out / PSEUDO_GT
    for round_idx in range(cfg.lsvm_rounds):
        model_tag = "initial" if round_idx == 0 else "updated"
        run_update(ds, out / f"model_{model_tag}.json", current_pgt, out, cfg)
        current_pgt = out / PSEUDO_GT_UPDATED
        run_train(ds, current_pgt, out, cfg, tag="updated")
    run_regress(ds, current_pgt, out / DETECTIONS_UPDATED, out, cfg)
    metrics_doc = run_eval(
        ds,
        out,
        initial_pgt_path=out / PSEUDO_GT,
        updated_pgt_path=current_pgt if cfg.lsvm_rounds > 0 else None,
        detections_paths={
            "initial": out / DETECTIONS_INITIAL,
            "updated": out / DETECTIONS_UPDATED,
            "updated_bboxreg": out / DETECTIONS_BBOXREG,
        },
    )
    _write_report(
        out,
        "pipeline",
        {
            "stage": "pipeline",
            "bandwidth": bandwidth,
            "elapsed_s": time.perf_counter() - t0,
        },
    )
    return metrics_doc
