"""Pipeline configuration: dataclass defaults, key=value files, CLI flags.

A config file is flat text, one ``key = value`` per line, ``#`` comments;
lists are comma-separated.  CLI flags override file values, which override
the defaults below.  Exactly one of ``b`` and ``b_grid`` is active: setting
``b`` fixes the voting bandwidth, otherwise ``b_grid`` is cross-validated.

:data:`SETTINGS` is the one list of settings: each field's config-file key,
CLI flag and value parser.  A flag value is parsed from its text by the same
parser as the file value, so both fail with the same
:class:`ConfigInvalidError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .errors import ConfigInvalidError


@dataclass(frozen=True)
class PipelineConfig:
    manifest: Optional[str] = None
    out_dir: Optional[str] = None
    k: Optional[int] = None  # None -> ceil(#positive images / 2)
    top_clusters: int = 200
    n_matches: int = 20
    frame_stride: int = 8
    target_cells: int = 48
    theta: float = 20.0
    bandwidth: Optional[float] = None
    bandwidth_grid: tuple[float, ...] = (100.0, 250.0, 500.0, 1000.0)
    lsvm_rounds: int = 1
    train_steps: int = 300
    learning_rate: float = 0.1
    weight_decay: float = 1e-4
    nms_iou: float = 0.3
    regressor_l2: float = 1e-3
    seed: int = 0

    def validate(self) -> None:
        for setting in SETTINGS:  # NaN and inf would slip past the range checks below
            value = getattr(self, setting.field)
            values = value if isinstance(value, tuple) else (value,)
            if setting.parse in (float, _floats) and not all(
                math.isfinite(v) for v in values if v is not None
            ):
                raise ConfigInvalidError(f"{setting.key} must be finite, got {value}")
        positive = {
            "top_clusters": self.top_clusters,
            "n_matches": self.n_matches,
            "frame_stride": self.frame_stride,
            "target_cells": self.target_cells,
            "theta": self.theta,
            "lsvm_rounds": self.lsvm_rounds,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigInvalidError(f"{name} must be positive, got {value}")
        if self.k is not None and self.k < 0:
            raise ConfigInvalidError(f"k must be >= 0, got {self.k}")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ConfigInvalidError(f"b must be positive, got {self.bandwidth}")
        if self.bandwidth is None and not self.bandwidth_grid:
            raise ConfigInvalidError("one of b or b_grid must be present")
        if any(b <= 0 for b in self.bandwidth_grid):
            raise ConfigInvalidError("b_grid entries must be positive")
        if self.train_steps < 0 or self.learning_rate <= 0 or self.weight_decay < 0:
            raise ConfigInvalidError("invalid training hyperparameters")
        if not 0.0 <= self.nms_iou <= 1.0:
            raise ConfigInvalidError(f"nms_iou must be in [0, 1], got {self.nms_iou}")
        if not self.regressor_l2 >= 0.0:
            raise ConfigInvalidError(f"regressor_l2 must be >= 0, got {self.regressor_l2}")


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in raw.split(",") if x.strip())


class Setting(NamedTuple):
    field: str  # PipelineConfig field
    key: str  # config-file key
    flag: str  # CLI flag
    parse: Callable[[str], object]


SETTINGS = (
    Setting("manifest", "manifest", "--manifest", str),
    Setting("out_dir", "out_dir", "--out", str),
    Setting("k", "k", "--k", int),
    Setting("top_clusters", "C", "--top-clusters", int),
    Setting("n_matches", "n", "--n-matches", int),
    Setting("frame_stride", "frame_stride", "--frame-stride", int),
    Setting("target_cells", "target_cells", "--target-cells", int),
    Setting("theta", "theta", "--theta", float),
    Setting("bandwidth", "b", "--bandwidth", float),
    Setting("bandwidth_grid", "b_grid", "--bandwidth-grid", _floats),
    Setting("lsvm_rounds", "lsvm_rounds", "--lsvm-rounds", int),
    Setting("train_steps", "steps", "--steps", int),
    Setting("learning_rate", "lr", "--lr", float),
    Setting("weight_decay", "weight_decay", "--weight-decay", float),
    Setting("nms_iou", "nms_iou", "--nms-iou", float),
    Setting("regressor_l2", "regressor_l2", "--regressor-l2", float),
    Setting("seed", "seed", "--seed", int),
)
_BY_KEY = {s.key: s for s in SETTINGS}
_BY_FIELD = {s.field: s for s in SETTINGS}


def _parse(setting: Setting, raw: str, where: str):
    try:
        return setting.parse(raw)
    except ValueError as exc:
        raise ConfigInvalidError(f"{where}: bad value for {setting.key}: {exc}") from exc


def parse_config_file(path: str | Path) -> dict:
    """Parse a key=value config file into dataclass-field keyword arguments."""
    fields = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigInvalidError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _BY_KEY:
            raise ConfigInvalidError(f"{path}:{lineno}: unknown key {key!r}")
        setting = _BY_KEY[key]
        fields[setting.field] = _parse(setting, raw, f"{path}:{lineno}")
    if "bandwidth" in fields and "bandwidth_grid" in fields:
        raise ConfigInvalidError(f"{path}: b and b_grid are mutually exclusive")
    return fields


def build_config(
    file_path: Optional[str] = None, overrides: Optional[dict[str, Optional[str]]] = None
) -> PipelineConfig:
    """Defaults <- config file <- overrides, then validate.

    ``overrides`` maps field names to flag text as typed on the command line
    (None for a flag not given); it is parsed as a file value would be.
    """
    fields = parse_config_file(file_path) if file_path else {}
    for name, raw in (overrides or {}).items():
        if raw is not None:
            setting = _BY_FIELD[name]
            fields[name] = _parse(setting, raw, setting.flag)
    if "bandwidth" in fields and "bandwidth_grid" in fields:
        raise ConfigInvalidError("b and b_grid are mutually exclusive")
    cfg = PipelineConfig(**fields)
    cfg.validate()
    return cfg
