"""Command-line interface: one subcommand per pipeline stage.

Exit code 0 on success; on failure a machine-readable JSON error object is
printed to stderr and the exit code is nonzero.  ``BOXFORGE_LOG`` selects
the log level (DEBUG, INFO, WARNING, ...); any other name is refused.

:data:`COMMANDS` has one row per stage subcommand: the pipeline function it
runs, whether ``--seed`` is required, and whether it takes ``--heatmaps``,
the directory ``vote`` writes its heatmaps to, which it passes to the stage
by keyword.  A stage reads its input artifacts from ``--out``, where the
stage before it wrote them: ``match`` writes the track selections that ``vote``
reads when it cross-validates the bandwidth; ``train`` writes every model
and detections file that ``eval`` reads, from the pseudo GT alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import logging
import os
import sys
from pathlib import Path
from typing import NamedTuple

from . import pipeline
from .config import SETTINGS, PipelineConfig, build_config
from .dataio import load_manifest
from .errors import BoxforgeError, ConfigInvalidError, MissingInputError
from .synth import SynthConfig, gen_dataset

_DEFAULTS = {f.name: f.default for f in dataclasses.fields(PipelineConfig)}


def _setup_logging() -> None:
    """Log at the level ``BOXFORGE_LOG`` names (any case; WARNING when
    unset); a name that is not a logging level is refused."""
    name = os.environ.get("BOXFORGE_LOG", "WARNING")
    level = logging.getLevelName(name.upper())
    if not isinstance(level, int):
        raise ConfigInvalidError(f"BOXFORGE_LOG={name!r} is not a logging level "
                                 "(DEBUG, INFO, WARNING, ERROR or CRITICAL)")
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


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


class Command(NamedTuple):
    name: str  # subcommand
    stage: str  # the pipeline function it runs, looked up when it runs
    need_seed: bool = False
    heatmaps: bool = False  # takes --heatmaps, the stage's one keyword argument


COMMANDS = (
    Command("mine", "run_mine"),
    Command("match", "run_match"),
    Command("vote", "run_vote", need_seed=True, heatmaps=True),
    Command("train", "run_train", need_seed=True),
    Command("eval", "run_eval"),
    Command("pipeline", "run_pipeline", need_seed=True, heatmaps=True),
)
_BY_NAME = {c.name: c for c in COMMANDS}


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

    for command in COMMANDS:
        p = sub.add_parser(command.name, help=f"run the {command.name} stage")
        _add_config_flags(p, need_seed=command.need_seed)
        if command.heatmaps:
            p.add_argument("--heatmaps", help="directory for vote heatmap PGMs")
    return parser


def run_command(args) -> int:
    if args.command == "synth":
        fields = {f.name: getattr(args, f.name) for f in dataclasses.fields(SynthConfig)}
        gen_dataset(SynthConfig(**fields), args.out)
        print(json.dumps({"out": args.out, "manifest": str(Path(args.out) / "manifest.json")}))
        return 0

    cfg = _config_from_args(args)
    command = _BY_NAME[args.command]
    given = {"heatmaps": args.heatmaps} if command.heatmaps else {}
    stage = getattr(pipeline, command.stage)
    if command.name == "pipeline":
        doc = stage(cfg, **given)
        print(json.dumps({"mean_corloc": doc["mean_corloc"], "map": doc["map"]}))
        return 0
    if cfg.manifest is None:
        raise MissingInputError("--manifest is required")
    result = stage(load_manifest(cfg.manifest), cfg, **given)
    print(json.dumps({k: v for k, v in result.items() if k != "elapsed_s"}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _setup_logging()
        return run_command(args)
    except BoxforgeError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "IoFailure", "message": str(exc)}), file=sys.stderr)
        return 1


def run() -> None:
    """The entry point of a ``boxforge`` process: :func:`main`, then exit
    with its code.  ``gc.freeze()`` first moves every object to the
    permanent generation, so the interpreter's final collection at exit
    skips the whole heap instead of walking it."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
