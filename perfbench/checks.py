"""Output checks for one ``boxforge pipeline`` run.

The benchmark reads the program's files directly (JSON and JSON-lines), never
through the package, so a refactor of the package cannot break the check.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# Quality values read from metrics.json: metric name -> key path.
QUALITY_KEYS = {
    "mean_corloc": ("mean_corloc",),
    "mean_corloc_found": ("mean_corloc_found",),
    "map": ("map",),
    "initial_corloc_all": ("ablation", "initial", "corloc_all"),
    "initial_corloc_found": ("ablation", "initial", "corloc_found"),
    "updated_ap": ("ablation", "updated", "ap"),
}

# Artifacts whose bytes the determinism contract pins.
DIGESTED = ("regions.jsonl", "selections.jsonl", "transfers.jsonl")
PSEUDO_GT_GLOB = "pseudo_gt*.jsonl"

# Slack for boxes clipped to the image edge in floating point.
BOUNDS_EPS = 1e-9


class OutputError(Exception):
    """A pipeline output is missing, malformed or out of range."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path) -> str:
    """One sha256 over every file under ``root`` (relative path and bytes)."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise OutputError(f"{path.name}: {exc}") from exc


def read_quality(metrics_path: Path) -> dict[str, float]:
    """The quality block of metrics.json; every value must lie in [0, 1]."""
    doc = _load_json(metrics_path)
    quality = {}
    for name, keys in QUALITY_KEYS.items():
        value = doc
        for key in keys:
            if not isinstance(value, dict) or key not in value:
                raise OutputError(f"metrics.json lacks {'.'.join(keys)}")
            value = value[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise OutputError(f"metrics.json {'.'.join(keys)} is not a number")
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            raise OutputError(f"metrics.json {'.'.join(keys)} = {value} is outside [0, 1]")
        quality[name] = float(value)
    return quality


def image_sizes(manifest_path: Path) -> dict[str, tuple[float, float]]:
    doc = _load_json(manifest_path)
    try:
        return {e["id"]: (float(e["size"][0]), float(e["size"][1])) for e in doc["images"]}
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise OutputError(f"manifest.json: bad images table ({exc!r})") from exc


def check_pseudo_gt(path: Path, sizes: dict[str, tuple[float, float]]) -> int:
    """Every pseudo-GT box is a non-empty box inside its image; returns the row count."""
    rows = 0
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
            image_id = row["image_id"]
            x0, y0, x1, y1 = (float(v) for v in row["box"])
        except (ValueError, KeyError, TypeError) as exc:
            raise OutputError(f"{path.name}:{lineno}: malformed row ({exc!r})") from exc
        if image_id not in sizes:
            raise OutputError(f"{path.name}:{lineno}: unknown image {image_id!r}")
        width, height = sizes[image_id]
        inside = (
            -BOUNDS_EPS <= x0 < x1 <= width + BOUNDS_EPS
            and -BOUNDS_EPS <= y0 < y1 <= height + BOUNDS_EPS
        )
        if not inside:
            raise OutputError(
                f"{path.name}:{lineno}: box {[x0, y0, x1, y1]} outside {width}x{height} image"
            )
        rows += 1
    return rows


def check_outputs(out_dir: Path, manifest_path: Path) -> tuple[dict[str, float], dict[str, str]]:
    """Validate one pipeline output directory.

    Returns ``(quality, digests)``; raises :class:`OutputError` on any defect.
    """
    quality = read_quality(out_dir / "metrics.json")
    sizes = image_sizes(manifest_path)
    pseudo_gts = sorted(out_dir.glob(PSEUDO_GT_GLOB))
    if not pseudo_gts:
        raise OutputError("no pseudo_gt*.jsonl written")
    for path in pseudo_gts:
        check_pseudo_gt(path, sizes)
    digests = {}
    for path in [out_dir / name for name in DIGESTED] + pseudo_gts:
        if not path.is_file():
            raise OutputError(f"{path.name} missing")
        digests[path.name] = sha256(path)
    return quality, digests
