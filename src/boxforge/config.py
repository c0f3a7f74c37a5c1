"""Pipeline configuration: dataclass defaults, key=value files, overrides.

A config file is flat text, one ``key = value`` per line, ``#`` comments;
lists are comma-separated.  CLI flags override file values, which override
the defaults below.  Exactly one of ``b`` and ``b_grid`` is active: setting
``b`` fixes the voting bandwidth, otherwise ``b_grid`` is cross-validated.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import ConfigInvalidError

# Config-file key -> dataclass field.
_KEY_MAP = {
    "manifest": "manifest",
    "out_dir": "out_dir",
    "k": "k",
    "C": "top_clusters",
    "n": "n_matches",
    "frame_stride": "frame_stride",
    "target_cells": "target_cells",
    "theta": "theta",
    "b": "bandwidth",
    "b_grid": "bandwidth_grid",
    "kernel": "kernel",
    "lsvm_rounds": "lsvm_rounds",
    "steps": "train_steps",
    "lr": "learning_rate",
    "weight_decay": "weight_decay",
    "nms_iou": "nms_iou",
    "regressor_l2": "regressor_l2",
    "seed": "seed",
}


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
    kernel: str = "gaussian"
    lsvm_rounds: int = 1
    train_steps: int = 300
    learning_rate: float = 0.1
    weight_decay: float = 1e-4
    nms_iou: float = 0.3
    regressor_l2: float = 1e-3
    seed: int = 0

    def validate(self) -> None:
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
        if self.kernel not in ("gaussian", "epanechnikov"):
            raise ConfigInvalidError(f"unknown kernel {self.kernel!r}")
        if self.train_steps < 0 or self.learning_rate <= 0 or self.weight_decay < 0:
            raise ConfigInvalidError("invalid training hyperparameters")


def _parse_value(field_name: str, raw: str):
    raw = raw.strip()
    if field_name == "bandwidth_grid":
        return tuple(float(x) for x in raw.split(",") if x.strip())
    if field_name in ("manifest", "out_dir", "kernel"):
        return raw
    if field_name in ("theta", "bandwidth", "learning_rate", "weight_decay", "nms_iou", "regressor_l2"):
        return float(raw)
    return int(raw)


def parse_config_file(path: str | Path) -> dict:
    """Parse a key=value config file into dataclass-field keyword arguments."""
    fields = {}
    seen_keys = set()
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigInvalidError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEY_MAP:
            raise ConfigInvalidError(f"{path}:{lineno}: unknown key {key!r}")
        seen_keys.add(key)
        try:
            fields[_KEY_MAP[key]] = _parse_value(_KEY_MAP[key], raw)
        except ValueError as exc:
            raise ConfigInvalidError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    if "b" in seen_keys and "b_grid" in seen_keys:
        raise ConfigInvalidError(f"{path}: b and b_grid are mutually exclusive")
    return fields


def build_config(
    file_path: Optional[str] = None, overrides: Optional[dict] = None
) -> PipelineConfig:
    """Defaults <- config file <- explicit overrides, then validate."""
    fields: dict = {}
    if file_path:
        fields.update(parse_config_file(file_path))
    for key, value in (overrides or {}).items():
        if value is not None:
            fields[key] = value
    if "bandwidth" in fields and "bandwidth_grid" in fields:
        raise ConfigInvalidError("b and b_grid are mutually exclusive")
    valid_names = {f.name for f in dataclasses.fields(PipelineConfig)}
    unknown = set(fields) - valid_names
    if unknown:
        raise ConfigInvalidError(f"unknown config fields: {sorted(unknown)}")
    cfg = PipelineConfig(**fields)
    cfg.validate()
    return cfg
