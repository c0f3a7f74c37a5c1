"""Command-line interface: one subcommand per pipeline stage.

Exit code 0 on success; on failure a machine-readable JSON error object is
printed to stderr and the exit code is nonzero.  ``BOXFORGE_LOG`` selects
the log level (DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from . import pipeline
from .config import SETTINGS, PipelineConfig, build_config
from .errors import BoxforgeError
from .synth import SynthConfig, gen_dataset

_DEFAULTS = {f.name: f.default for f in dataclasses.fields(PipelineConfig)}


def _setup_logging() -> None:
    level = os.environ.get("BOXFORGE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _add_config_flags(p: argparse.ArgumentParser, need_seed: bool = False) -> None:
    p.add_argument("--config", help="key=value config file")
    for setting in SETTINGS:
        p.add_argument(
            setting.flag, dest=setting.field,
            required=need_seed and setting.field == "seed",
            help=f"config key {setting.key} (default {_DEFAULTS[setting.field]})",
        )


def _config_from_args(args) -> PipelineConfig:
    return build_config(args.config, {s.field: getattr(args, s.field) for s in SETTINGS})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxforge",
        description="Discover pseudo ground-truth boxes in weakly-labeled "
        "image collections by transferring tracked object boxes from videos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    for f in dataclasses.fields(SynthConfig):
        p.add_argument(
            "--" + f.name.replace("_", "-"), type=type(f.default), default=f.default,
            required=f.name == "seed",
        )

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
            p.add_argument("--model", help=f"model json (default: <out>/{pipeline.MODEL_INITIAL})")
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
        fields = {f.name: getattr(args, f.name) for f in dataclasses.fields(SynthConfig)}
        gen_dataset(SynthConfig(**fields), args.out)
        print(json.dumps({"out": args.out, "manifest": str(Path(args.out) / "manifest.json")}))
        return 0

    cfg = _config_from_args(args)
    if args.command == "pipeline":
        doc = pipeline.run_pipeline(cfg, heatmap_dir=args.heatmaps)
        print(json.dumps({"mean_corloc": doc["mean_corloc"], "map": doc["map"]}))
        return 0
    if cfg.manifest is None:
        raise BoxforgeError("--manifest is required")
    out = _out(cfg)

    if args.command == "mine":
        report = pipeline.run_mine(cfg.manifest, out, cfg)
    elif args.command == "select-tracks":
        report = pipeline.run_select_tracks(
            cfg.manifest, _default(args, "regions", cfg, pipeline.REGIONS), out, cfg
        )
    elif args.command == "match":
        report = pipeline.run_match(
            cfg.manifest,
            _default(args, "regions", cfg, pipeline.REGIONS),
            _default(args, "selections", cfg, pipeline.SELECTIONS),
            out, cfg,
        )
    elif args.command == "vote":
        report = pipeline.run_vote(
            cfg.manifest, _default(args, "transfers", cfg, pipeline.TRANSFERS), out, cfg,
            heatmap_dir=args.heatmaps,
        )
    elif args.command == "train":
        report = pipeline.run_train(
            cfg.manifest, _default(args, "pseudo_gt", cfg, pipeline.PSEUDO_GT), out, cfg,
            tag=args.tag,
        )
    elif args.command == "update":
        report = pipeline.run_update(
            cfg.manifest,
            _default(args, "model", cfg, pipeline.MODEL_INITIAL),
            _default(args, "pseudo_gt", cfg, pipeline.PSEUDO_GT),
            out, cfg,
        )
    elif args.command == "regress":
        report = pipeline.run_regress(
            cfg.manifest,
            _default(args, "pseudo_gt", cfg, pipeline.PSEUDO_GT_UPDATED),
            _default(args, "detections", cfg, pipeline.DETECTIONS_UPDATED),
            out, cfg,
        )
    elif args.command == "eval":
        report = pipeline.run_eval(
            cfg.manifest, out,
            initial_pgt_path=_default(args, "initial_pgt", cfg, pipeline.PSEUDO_GT),
            updated_pgt_path=getattr(args, "updated_pgt", None),
            detections_paths={
                "initial": _default(args, "det_initial", cfg, pipeline.DETECTIONS_INITIAL),
                "updated": _default(args, "det_updated", cfg, pipeline.DETECTIONS_UPDATED),
                "updated_bboxreg": _default(args, "det_bboxreg", cfg, pipeline.DETECTIONS_BBOXREG),
            },
        )
    elif args.command == "cv-bandwidth":
        report = pipeline.run_cv_bandwidth(
            cfg.manifest,
            _default(args, "transfers", cfg, pipeline.TRANSFERS),
            _default(args, "selections", cfg, pipeline.SELECTIONS),
            out, cfg,
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
