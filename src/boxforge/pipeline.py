"""File-driven pipeline stages behind the CLI subcommands.

Every stage reads its inputs from disk, writes its outputs plus a stage
report under ``<out>/reports/``, and is deterministic for fixed inputs and
seed.  ``run_pipeline`` chains the stages in order, so running them
individually produces the same artifacts.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import dataio
from .config import PipelineConfig
from .detector import (
    FINETUNE_POS_IOU,
    BoxRegressor,
    TrainConfig,
    apply_regressor,
    assign_rcnn_labels,
    cross_validate_bandwidth,
    fit_bbox_regressor,
    lsvm_update,
    train_linear,
)
from .errors import DimensionMismatchError, EmptyPoolError, MissingInputError
from .featmap import build_query_window, pool_box_feature
from .geometry import BBox, clip_box, iou, nms
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
from .voting import VoteSpace, export_heatmap, select_pseudo_gt

REGIONS = "regions.jsonl"
SELECTIONS = "selections.jsonl"
TRANSFERS = "transfers.jsonl"
PSEUDO_GT = "pseudo_gt.jsonl"
PSEUDO_GT_UPDATED = "pseudo_gt_updated.jsonl"
REGRESSOR = "regressor.json"
DETECTIONS_BBOXREG = "detections_bboxreg.jsonl"
METRICS = "metrics.json"
BANDWIDTH_REPORT = "bandwidth_report.json"


def _write_report(out_dir: Path, stage: str, report: dict) -> dict:
    reports = out_dir / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    dataio.dump_json(report, reports / f"{stage}.json")
    return report


def _default_k(labels: dict[str, str]) -> int:
    n_pos = sum(1 for v in labels.values() if v == POSITIVE)
    return -(-n_pos // 2)


def run_mine(
    manifest_path: str | Path,
    out_dir: str | Path,
    k: Optional[int] = None,
    top_clusters: int = 200,
) -> dict:
    """Cluster, rank, dedup, and select the mined positive region set."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = dataio.load_manifest(manifest_path)
    by_image, labels = dataio.read_proposals(manifest.path("proposals"))
    if k is None:
        k = _default_k(labels)
    sizes = [len(props) for props in by_image.values()]
    n_proposals = sum(sizes)
    clusters = build_clusters(by_image, labels, k)
    ranked = rank_clusters(clusters)
    deduped = dedup_clusters(ranked)
    mined = select_positive_regions(deduped, labels, top_c=top_clusters)
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
    manifest_path: str | Path,
    regions_path: str | Path,
    out_dir: str | Path,
    frame_stride: int = 8,
    target_cells: int = 48,
) -> dict:
    """Pick the best-supported candidate track box in every sampled frame."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = dataio.load_manifest(manifest_path)
    mined = dataio.read_regions(regions_path)
    queries = _load_region_queries(manifest, mined.regions, target_cells)
    videos = _load_videos(manifest)
    tracks_by_video = dataio.read_tracks(manifest.path("tracks"))

    region_order = [r.region_id for r in mined.regions]
    per_region = [
        match_region_per_frame(rid, queries[rid], videos, frame_stride) for rid in region_order
    ]
    evidence: dict[tuple[str, int], list[tuple[BBox, float]]] = {}
    for matches in per_region:
        for key, match in matches.items():
            evidence.setdefault(key, []).append((match.hit.pixel_box, match.sim))

    selections = []
    for video_id, frames in videos:
        tracks = tracks_by_video.get(video_id, [])
        for frame_idx in sampled_frame_indices(len(frames), frame_stride):
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
    manifest_path: str | Path,
    regions_path: str | Path,
    selections_path: str | Path,
    out_dir: str | Path,
    n_matches: int = 20,
    frame_stride: int = 8,
    target_cells: int = 48,
) -> dict:
    """Match every mined region into the videos and transfer track boxes back."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = dataio.load_manifest(manifest_path)
    mined = dataio.read_regions(regions_path)
    selections = dataio.read_selections(selections_path)
    queries = _load_region_queries(manifest, mined.regions, target_cells)
    videos = _load_videos(manifest)
    region_boxes = {r.region_id: (r.image_id, r.box) for r in mined.regions}

    region_order = [r.region_id for r in mined.regions]
    per_region = [
        match_region_to_videos(rid, queries[rid], videos, n_matches, frame_stride)
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


def run_vote(
    manifest_path: str | Path,
    transfers_path: str | Path,
    out_dir: str | Path,
    bandwidth: float,
    kernel: str = "gaussian",
    theta: float = 20.0,
    heatmap_dir: Optional[str | Path] = None,
) -> dict:
    """Mean-shift the per-image vote spaces into pseudo-GT boxes."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = dataio.load_manifest(manifest_path)
    boxes_by_image = dataio.read_transfer_boxes(transfers_path)
    gts = []
    for image_id in sorted(boxes_by_image):
        boxes = boxes_by_image[image_id]
        space = VoteSpace.from_boxes(boxes, bandwidth=bandwidth, kernel=kernel)
        entry = manifest.image(image_id)
        gt = select_pseudo_gt(space, theta=theta, image_bounds=entry.size, image_id=image_id)
        if gt is not None:
            gts.append(gt)
        if heatmap_dir is not None:
            hdir = Path(heatmap_dir)
            hdir.mkdir(parents=True, exist_ok=True)
            size = (int(entry.size[0]), int(entry.size[1]))
            export_heatmap(space.points, size, hdir / f"{image_id}.pgm")
    dataio.write_pseudo_gts(out / PSEUDO_GT, gts)
    return _write_report(
        out,
        "vote",
        {
            "stage": "vote",
            "bandwidth": bandwidth,
            "kernel": kernel,
            "theta": theta,
            "n_images_with_transfers": len(boxes_by_image),
            "n_pseudo_gt": len(gts),
            "elapsed_s": time.perf_counter() - t0,
        },
    )


def _load_image_proposals(manifest):
    """image_id -> (label, [(prop_id, box, feature)]) in file order."""
    by_image, labels = dataio.read_proposals(manifest.path("proposals"))
    images = {}
    for image_id in sorted(by_image):
        props = [(p.prop_id, p.box, p.feature) for p in by_image[image_id]]
        images[image_id] = (labels[image_id], props)
    return images


def _training_corpus(manifest, images, pseudo_gts):
    """Pseudo-GT pooled features as positives, band and negative-image
    proposals as negatives."""
    feats: list[np.ndarray] = []
    labels: list[float] = []
    for image_id in sorted(images):
        label, props = images[image_id]
        if label == POSITIVE:
            gt = pseudo_gts.get(image_id)
            assignment = assign_rcnn_labels(
                [(pid, box) for pid, box, _ in props], gt.box if gt else None, label
            )
            if gt is not None:
                fmap = manifest.load_image_fmap(image_id)
                feats.append(pool_box_feature(fmap, gt.box, manifest.cell_stride))
                labels.append(1.0)
            negatives = set(assignment.negatives)
            for pid, _box, feature in props:
                if pid in negatives:
                    feats.append(np.asarray(feature, dtype=np.float64))
                    labels.append(-1.0)
        else:
            for _pid, _box, feature in props:
                feats.append(np.asarray(feature, dtype=np.float64))
                labels.append(-1.0)
    if not feats:
        raise EmptyPoolError("no training examples")
    return np.stack(feats), np.asarray(labels)


def _detect(images, model, nms_iou):
    detections = []
    for image_id in sorted(images):
        _label, props = images[image_id]
        if not props:
            continue
        boxes = [box for _, box, _ in props]
        feats = np.stack([np.asarray(f, dtype=np.float64) for _, _, f in props])
        scores = model.score(feats)
        for i in nms(boxes, [float(s) for s in scores], nms_iou):
            detections.append((image_id, boxes[i], float(scores[i])))
    return detections


def run_train(
    manifest_path: str | Path,
    pseudo_gt_path: str | Path,
    out_dir: str | Path,
    train_config: TrainConfig,
    nms_iou: float = 0.3,
    tag: str = "initial",
) -> dict:
    """Train the linear detector on the pseudo GT and emit its detections."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = dataio.load_manifest(manifest_path)
    images = _load_image_proposals(manifest)
    pseudo_gts = dataio.read_pseudo_gts(pseudo_gt_path)
    X, y = _training_corpus(manifest, images, pseudo_gts)
    model = train_linear(X, y, train_config, category_id=manifest.categories[0])
    dataio.write_model(out / f"model_{tag}.json", model)
    detections = _detect(images, model, nms_iou)
    dataio.write_detections(out / f"detections_{tag}.jsonl", detections)
    return _write_report(
        out,
        f"train_{tag}",
        {
            "stage": "train",
            "tag": tag,
            "n_train_examples": int(X.shape[0]),
            "n_positives": int(np.sum(y > 0)),
            "n_detections": len(detections),
            "seed": train_config.seed,
            "elapsed_s": time.perf_counter() - t0,
        },
    )


def run_update(
    manifest_path: str | Path,
    model_path: str | Path,
    pseudo_gt_path: str | Path,
    out_dir: str | Path,
    nms_iou: float = 0.3,
    out_name: str = PSEUDO_GT_UPDATED,
) -> dict:
    """Latent update: fill missing pseudo GTs, refine existing ones."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = dataio.load_manifest(manifest_path)
    images = _load_image_proposals(manifest)
    model = dataio.read_model(model_path)
    before = dataio.read_pseudo_gts(pseudo_gt_path)
    after = lsvm_update(model, images, before, nms_iou=nms_iou)
    ordered = [after[i] for i in sorted(after)]
    dataio.write_pseudo_gts(out / out_name, ordered)
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
    manifest_path: str | Path,
    pseudo_gt_path: str | Path,
    detections_path: str | Path,
    out_dir: str | Path,
    l2: float = 1e-3,
) -> dict:
    """Fit the box regressor on well-overlapping proposals and refine detections."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = dataio.load_manifest(manifest_path)
    images = _load_image_proposals(manifest)
    pseudo_gts = dataio.read_pseudo_gts(pseudo_gt_path)
    pairs = []
    for image_id in sorted(pseudo_gts):
        if image_id not in images:
            continue
        gt = pseudo_gts[image_id]
        _label, props = images[image_id]
        for _pid, box, feature in props:
            if iou(box, gt.box) >= FINETUNE_POS_IOU:
                pairs.append((np.asarray(feature, dtype=np.float64), box, gt.box))
    if pairs:
        regressor = fit_bbox_regressor(pairs, l2=l2)
    else:
        dim = len(next(iter(images.values()))[1][0][2])
        regressor = BoxRegressor.identity(dim)
    dataio.write_regressor(out / REGRESSOR, regressor)

    detections = dataio.read_detections(detections_path)
    fmap_cache = {}
    refined = []
    n_fallbacks = 0
    for image_id, box, score in detections:
        fmap = fmap_cache.get(image_id)
        if fmap is None:
            fmap = manifest.load_image_fmap(image_id)
            fmap_cache[image_id] = fmap
        feature = pool_box_feature(fmap, box, manifest.cell_stride)
        try:
            new_box = apply_regressor(regressor, feature, box)
        except DimensionMismatchError:
            n_fallbacks += 1
            new_box = box
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
            "n_regressor_fallbacks": n_fallbacks,
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
    manifest_path: str | Path,
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
    manifest = dataio.load_manifest(manifest_path)
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


def _video_detection_ap(manifest, model, selections, frame_stride, nms_iou):
    """AP of the detector on sampled video frames, with the selected track
    boxes as (noisy) ground truth.  The per-frame proposal pool is the
    candidate track boxes plus a centered half-size sub-box of each, so a
    detector that never learned tightness ranks loose parts above the
    object and loses precision."""
    tracks_by_video = dataio.read_tracks(manifest.path("tracks"))
    detections = []
    gt: dict[str, list[BBox]] = {}
    for entry in manifest.videos:
        pyramids = manifest.load_video_pyramids(entry.video_id)
        tracks = tracks_by_video.get(entry.video_id, [])
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
            scores = model.score(feats)
            for i in nms(boxes, [float(s) for s in scores], nms_iou):
                detections.append((frame_key, boxes[i], float(scores[i])))
    if not gt:
        return 0.0
    return average_precision(detections, gt)


def run_cv_bandwidth(
    manifest_path: str | Path,
    transfers_path: str | Path,
    selections_path: str | Path,
    out_dir: str | Path,
    bandwidth_grid: Sequence[float],
    train_config: TrainConfig,
    kernel: str = "gaussian",
    theta: float = 20.0,
    frame_stride: int = 8,
    nms_iou: float = 0.3,
) -> dict:
    """Pick the voting bandwidth whose detector best recovers the selected tracks."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = dataio.load_manifest(manifest_path)
    images = _load_image_proposals(manifest)
    boxes_by_image = dataio.read_transfer_boxes(transfers_path)
    selections = dataio.read_selections(selections_path)

    def evaluate(b: float) -> float:
        gts = {}
        for image_id in sorted(boxes_by_image):
            space = VoteSpace.from_boxes(boxes_by_image[image_id], bandwidth=b, kernel=kernel)
            entry = manifest.image(image_id)
            gt = select_pseudo_gt(space, theta=theta, image_bounds=entry.size, image_id=image_id)
            if gt is not None:
                gts[image_id] = gt
        if not gts:
            return 0.0
        try:
            X, y = _training_corpus(manifest, images, gts)
            model = train_linear(X, y, train_config, category_id=manifest.categories[0])
        except EmptyPoolError:
            return 0.0
        return _video_detection_ap(manifest, model, selections, frame_stride, nms_iou)

    best_b, scores = cross_validate_bandwidth(bandwidth_grid, evaluate)
    doc = {"best_b": best_b, "ap_per_b": {str(b): scores[b] for b in sorted(scores)}}
    # the artifact stays byte-reproducible; only the stage report is timed
    dataio.dump_json(doc, out / BANDWIDTH_REPORT)
    return _write_report(out, "cv_bandwidth", {**doc, "elapsed_s": time.perf_counter() - t0})


def run_pipeline(cfg: PipelineConfig, heatmap_dir: Optional[str | Path] = None) -> dict:
    """Run every stage in order; returns the final metrics document."""
    if cfg.manifest is None or cfg.out_dir is None:
        raise MissingInputError("pipeline needs both manifest and out_dir")
    t0 = time.perf_counter()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_config = TrainConfig(
        steps=cfg.train_steps,
        learning_rate=cfg.learning_rate,
        weight_decay=cfg.weight_decay,
        seed=cfg.seed,
    )

    run_mine(cfg.manifest, out, k=cfg.k, top_clusters=cfg.top_clusters)
    run_select_tracks(
        cfg.manifest, out / REGIONS, out,
        frame_stride=cfg.frame_stride, target_cells=cfg.target_cells,
    )
    run_match(
        cfg.manifest, out / REGIONS, out / SELECTIONS, out,
        n_matches=cfg.n_matches, frame_stride=cfg.frame_stride,
        target_cells=cfg.target_cells,
    )
    bandwidth = cfg.bandwidth
    if bandwidth is None:
        cv = run_cv_bandwidth(
            cfg.manifest, out / TRANSFERS, out / SELECTIONS, out,
            cfg.bandwidth_grid, train_config,
            kernel=cfg.kernel, theta=cfg.theta,
            frame_stride=cfg.frame_stride, nms_iou=cfg.nms_iou,
        )
        bandwidth = cv["best_b"]
    run_vote(
        cfg.manifest, out / TRANSFERS, out,
        bandwidth=bandwidth, kernel=cfg.kernel, theta=cfg.theta, heatmap_dir=heatmap_dir,
    )
    run_train(
        cfg.manifest, out / PSEUDO_GT, out, train_config, nms_iou=cfg.nms_iou, tag="initial"
    )
    current_pgt = out / PSEUDO_GT
    for round_idx in range(cfg.lsvm_rounds):
        model_tag = "initial" if round_idx == 0 else "updated"
        run_update(
            cfg.manifest, out / f"model_{model_tag}.json", current_pgt, out,
            nms_iou=cfg.nms_iou,
        )
        current_pgt = out / PSEUDO_GT_UPDATED
        run_train(
            cfg.manifest, current_pgt, out, train_config, nms_iou=cfg.nms_iou, tag="updated"
        )
    run_regress(
        cfg.manifest, current_pgt, out / "detections_updated.jsonl", out, l2=cfg.regressor_l2
    )
    metrics_doc = run_eval(
        cfg.manifest,
        out,
        initial_pgt_path=out / PSEUDO_GT,
        updated_pgt_path=current_pgt if cfg.lsvm_rounds > 0 else None,
        detections_paths={
            "initial": out / "detections_initial.jsonl",
            "updated": out / "detections_updated.jsonl",
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
