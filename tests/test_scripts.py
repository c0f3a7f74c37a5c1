"""Smoke tests of the code that drives the package from outside: the
example scripts under ``scripts/``, the package import and the benchmark's
tracer.

The scripts call the stage functions directly, and the tracer wraps them by
name and reads their arguments, so a change to a stage's signature that
either misses fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boxforge
from boxforge.synth import SynthConfig, gen_dataset

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _env():
    return {**os.environ, "PYTHONPATH": str(Path(boxforge.__file__).parents[1])}


@pytest.mark.parametrize("script", ["run_synth_pipeline.py", "bandwidth_failure_demo.py"])
def test_script_exits_zero(script, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--out", str(tmp_path), "--seed", "0"],
        env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_package_import_loads_no_submodule():
    """``import boxforge`` binds no names: each is imported from its module."""
    code = "import sys, boxforge; print(sorted(m for m in sys.modules if m.startswith('boxforge.')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_benchmark_tracer_sees_every_layer(tmp_path):
    """``perfbench/tracer.py`` over a cross-validated pipeline run finds
    every function it wraps and computes every work count it hooks.

    A subprocess, because the tracer rewrites module globals for good."""
    gen_dataset(SynthConfig(seed=0, n_videos=1, frames_per_video=8), tmp_path / "data")
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--out", str(spans), "--",
            "pipeline", "--manifest", str(tmp_path / "data" / "manifest.json"),
            "--out", str(tmp_path / "run"), "--target-cells", "30", "--frame-stride", "1",
            "--bandwidth-grid", "1,2", "--seed", "0",
        ],
        env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(spans.read_text())
    assert summary["absent"] == []
    assert [k for k in summary["counters"] if k.endswith(".hook_failed")] == []
    assert summary["calls"]["mining.build_clusters"] == 1
    assert summary["counters"]["mining.build_clusters.pairs"] > 0
