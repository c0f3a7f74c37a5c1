"""Command-line interface: one subcommand per pipeline stage.

Exit code 0 on success; on failure a machine-readable JSON error object is
printed to stderr and the exit code is nonzero.  ``BOXFORGE_LOG`` selects
the log level (DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import pipeline
from .config import build_config
from .detector import TrainConfig
from .errors import BoxforgeError
from .synth import SynthConfig, gen_dataset

def _setup_logging() -> None:
    level = os.environ.get("BOXFORGE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _add_config_flags(p: argparse.ArgumentParser, need_seed: bool = False) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--manifest", help="dataset manifest.json")
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--k", type=int, help="nearest neighbors per cluster")
    p.add_argument("--top-clusters", type=int, dest="top_clusters")
    p.add_argument("--n-matches", type=int, dest="n_matches")
    p.add_argument("--frame-stride", type=int, dest="frame_stride")
    p.add_argument("--target-cells", type=int, dest="target_cells")
    p.add_argument("--theta", type=float)
    p.add_argument("--bandwidth", type=float, dest="bandwidth")
    p.add_argument(
        "--bandwidth-grid", dest="bandwidth_grid",
        type=lambda s: tuple(float(x) for x in s.split(",")),
    )
    p.add_argument("--kernel", choices=["gaussian", "epanechnikov"])
    p.add_argument("--lsvm-rounds", type=int, dest="lsvm_rounds")
    p.add_argument("--steps", type=int, dest="train_steps")
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--weight-decay", type=float, dest="weight_decay")
    p.add_argument("--nms-iou", type=float, dest="nms_iou")
    p.add_argument("--regressor-l2", type=float, dest="regressor_l2")
    p.add_argument("--seed", type=int, required=need_seed)


_CONFIG_KEYS = (
    "manifest", "out_dir", "k", "top_clusters", "n_matches", "frame_stride",
    "target_cells", "theta", "bandwidth", "bandwidth_grid", "kernel",
    "lsvm_rounds", "train_steps", "learning_rate", "weight_decay", "nms_iou",
    "regressor_l2", "seed",
)


def _config_from_args(args) -> "pipeline.PipelineConfig":
    overrides = {key: getattr(args, key, None) for key in _CONFIG_KEYS}
    return build_config(getattr(args, "config", None), overrides)


def _train_config(cfg) -> TrainConfig:
    return TrainConfig(
        steps=cfg.train_steps,
        learning_rate=cfg.learning_rate,
        weight_decay=cfg.weight_decay,
        seed=cfg.seed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxforge",
        description="Discover pseudo ground-truth boxes in weakly-labeled "
        "image collections by transferring tracked object boxes from videos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-pos-images", type=int, default=8)
    p.add_argument("--n-neg-images", type=int, default=8)
    p.add_argument("--n-videos", type=int, default=2)
    p.add_argument("--frames-per-video", type=int, default=16)
    p.add_argument("--map-height", type=int, default=16)
    p.add_argument("--map-width", type=int, default=16)
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--signature-strength", type=float, default=4.0)
    p.add_argument("--n-distractors", type=int, default=2)
    p.add_argument("--multi-instance-prob", type=float, default=0.0)
    p.add_argument("--proposals-per-image", type=int, default=12)
    p.add_argument("--noise-sigma", type=float, default=0.05)

    for name, need_seed in (
        ("mine", False), ("select-tracks", False), ("match", False),
        ("vote", False), ("train", True), ("update", False), ("regress", False),
        ("eval", False), ("cv-bandwidth", True), ("pipeline", True),
    ):
        p = sub.add_parser(name, help=f"run the {name} stage")
        _add_config_flags(p, need_seed=need_seed)
        if name in ("select-tracks", "match"):
            p.add_argument("--regions", help="regions.jsonl (default: <out>/regions.jsonl)")
        if name in ("match", "cv-bandwidth"):
            p.add_argument("--selections", help="selections.jsonl")
        if name in ("vote", "cv-bandwidth"):
            p.add_argument("--transfers", help="transfers.jsonl")
        if name in ("train", "update", "regress"):
            p.add_argument("--pseudo-gt", dest="pseudo_gt", help="pseudo_gt.jsonl")
        if name == "train":
            p.add_argument("--tag", default="initial", help="artifact name suffix")
        if name == "update":
            p.add_argument("--model", help="model json (default: <out>/model_initial.json)")
        if name == "regress":
            p.add_argument("--detections", help="detections to refine")
        if name == "eval":
            p.add_argument("--initial-pseudo-gt", dest="initial_pgt")
            p.add_argument("--updated-pseudo-gt", dest="updated_pgt")
            p.add_argument("--detections", dest="det_initial")
            p.add_argument("--detections-updated", dest="det_updated")
            p.add_argument("--detections-bboxreg", dest="det_bboxreg")
        if name in ("vote", "pipeline"):
            p.add_argument("--heatmaps", help="directory for vote heatmap PGMs")
    return parser


def _out(cfg) -> Path:
    if cfg.out_dir is None:
        raise BoxforgeError("--out is required")
    return Path(cfg.out_dir)


def _default(args, attr: str, cfg, filename: str) -> str:
    value = getattr(args, attr, None)
    return value if value else str(_out(cfg) / filename)


def run_command(args) -> int:
    if args.command == "synth":
        config = SynthConfig(
            seed=args.seed,
            n_pos_images=args.n_pos_images,
            n_neg_images=args.n_neg_images,
            n_videos=args.n_videos,
            frames_per_video=args.frames_per_video,
            map_height=args.map_height,
            map_width=args.map_width,
            channels=args.channels,
            signature_strength=args.signature_strength,
            n_distractors=args.n_distractors,
            multi_instance_prob=args.multi_instance_prob,
            proposals_per_image=args.proposals_per_image,
            noise_sigma=args.noise_sigma,
        )
        gen_dataset(config, args.out)
        print(json.dumps({"out": args.out, "manifest": str(Path(args.out) / "manifest.json")}))
        return 0

    cfg = _config_from_args(args)
    if args.command == "pipeline":
        doc = pipeline.run_pipeline(cfg, heatmap_dir=getattr(args, "heatmaps", None))
        print(json.dumps({"mean_corloc": doc["mean_corloc"], "map": doc["map"]}))
        return 0
    if cfg.manifest is None:
        raise BoxforgeError("--manifest is required")
    out = _out(cfg)

    if args.command == "mine":
        report = pipeline.run_mine(cfg.manifest, out, k=cfg.k, top_clusters=cfg.top_clusters)
    elif args.command == "select-tracks":
        report = pipeline.run_select_tracks(
            cfg.manifest, _default(args, "regions", cfg, pipeline.REGIONS), out,
            frame_stride=cfg.frame_stride, target_cells=cfg.target_cells,
        )
    elif args.command == "match":
        report = pipeline.run_match(
            cfg.manifest,
            _default(args, "regions", cfg, pipeline.REGIONS),
            _default(args, "selections", cfg, pipeline.SELECTIONS),
            out,
            n_matches=cfg.n_matches, frame_stride=cfg.frame_stride,
            target_cells=cfg.target_cells,
        )
    elif args.command == "vote":
        if cfg.bandwidth is None:
            raise BoxforgeError("vote needs --bandwidth (or b in the config file)")
        report = pipeline.run_vote(
            cfg.manifest, _default(args, "transfers", cfg, pipeline.TRANSFERS), out,
            bandwidth=cfg.bandwidth, kernel=cfg.kernel, theta=cfg.theta,
            heatmap_dir=getattr(args, "heatmaps", None),
        )
    elif args.command == "train":
        report = pipeline.run_train(
            cfg.manifest, _default(args, "pseudo_gt", cfg, pipeline.PSEUDO_GT), out,
            _train_config(cfg), nms_iou=cfg.nms_iou, tag=args.tag,
        )
    elif args.command == "update":
        report = pipeline.run_update(
            cfg.manifest,
            _default(args, "model", cfg, "model_initial.json"),
            _default(args, "pseudo_gt", cfg, pipeline.PSEUDO_GT),
            out, nms_iou=cfg.nms_iou,
        )
    elif args.command == "regress":
        report = pipeline.run_regress(
            cfg.manifest,
            _default(args, "pseudo_gt", cfg, pipeline.PSEUDO_GT_UPDATED),
            _default(args, "detections", cfg, "detections_updated.jsonl"),
            out, l2=cfg.regressor_l2,
        )
    elif args.command == "eval":
        report = pipeline.run_eval(
            cfg.manifest, out,
            initial_pgt_path=_default(args, "initial_pgt", cfg, pipeline.PSEUDO_GT),
            updated_pgt_path=getattr(args, "updated_pgt", None),
            detections_paths={
                "initial": _default(args, "det_initial", cfg, "detections_initial.jsonl"),
                "updated": _default(args, "det_updated", cfg, "detections_updated.jsonl"),
                "updated_bboxreg": _default(args, "det_bboxreg", cfg, pipeline.DETECTIONS_BBOXREG),
            },
        )
    elif args.command == "cv-bandwidth":
        report = pipeline.run_cv_bandwidth(
            cfg.manifest,
            _default(args, "transfers", cfg, pipeline.TRANSFERS),
            _default(args, "selections", cfg, pipeline.SELECTIONS),
            out, cfg.bandwidth_grid, _train_config(cfg),
            kernel=cfg.kernel, theta=cfg.theta,
            frame_stride=cfg.frame_stride, nms_iou=cfg.nms_iou,
        ).report
    else:  # pragma: no cover - argparse enforces choices
        raise BoxforgeError(f"unknown command {args.command}")
    print(json.dumps({k: v for k, v in report.items() if k != "elapsed_s"}))
    return 0


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run_command(args)
    except BoxforgeError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "IoFailure", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
