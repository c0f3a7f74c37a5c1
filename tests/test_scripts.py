"""Smoke test: the example scripts under ``scripts/`` run to completion.

Both call the stage functions directly, so a change to a stage's signature
that they miss fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import boxforge

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script", ["run_synth_pipeline.py", "bandwidth_failure_demo.py"])
def test_script_exits_zero(script, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(boxforge.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--out", str(tmp_path), "--seed", "0"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
