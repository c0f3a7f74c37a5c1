"""What every ``boxforge`` process does before and after its stages: it
loads numpy's BLAS on one thread unless ``OPENBLAS_NUM_THREADS`` says
otherwise, and its entry points exit with :func:`cli.main`'s code after
freezing the heap, while ``main`` itself leaves the collector as it found it.
"""

import gc
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import boxforge
from boxforge import cli

from test_detector import numpy_blas

ROOT = Path(__file__).resolve().parents[1]

needs_openblas_threads = pytest.mark.skipif(
    sys.platform != "linux" or (os.cpu_count() or 1) < 2 or "openblas" not in numpy_blas(),
    reason="needs Linux, at least 2 CPUs and numpy built on OpenBLAS",
)


def child(code, *argv, threads=None, cwd=None):
    """``python -c code argv...`` importing this tree's package, with
    ``OPENBLAS_NUM_THREADS`` unset, or set to ``threads``."""
    env = {**os.environ, "PYTHONPATH": str(Path(boxforge.__file__).parents[1])}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )


THREADS_CHILD = (
    "import os, boxforge.cli; "
    "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
)


@needs_openblas_threads
def test_import_starts_no_blas_worker():
    proc = child(THREADS_CHILD)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]


@needs_openblas_threads
def test_explicit_thread_count_wins():
    proc = child(THREADS_CHILD, threads="2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "2"]


SCAN_CHILD = """
import sys
from boxforge import featmap
import numpy as np
rng = np.random.default_rng(3)
fmap = rng.normal(size=(12, 12, 401)).astype(np.float32)
queries = [rng.normal(size=(5, 5, 401)) for _ in range(3)]
score, place = featmap.scan_queries(queries, fmap, top_n=64)
sys.stdout.write(score.tobytes().hex() + " " + place.tobytes().hex())
"""


@needs_openblas_threads
def test_wide_window_scores_do_not_depend_on_the_callers_environment():
    """A 5 x 5 x 401 window is a 10,025-element dot, long enough for a
    second OpenBLAS thread to split the sum; a child that leaves the thread
    count unset writes the one-thread bytes."""
    unset, one = child(SCAN_CHILD), child(SCAN_CHILD, threads="1")
    assert unset.returncode == 0, unset.stderr
    assert one.returncode == 0, one.stderr
    assert unset.stdout == one.stdout


def test_main_in_process_leaves_the_collector_unfrozen(tmp_path, capsys):
    frozen = gc.get_freeze_count()
    assert cli.main(["synth", "--out", str(tmp_path / "data"), "--seed", "0",
                     "--n-videos", "1", "--frames-per-video", "2"]) == 0
    assert cli.main(["synth", "--out", str(tmp_path / "bad"), "--seed", "-1"]) == 1
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen


def test_run_freezes_the_heap_then_exits_with_mains_code(tmp_path):
    """The final collection at exit skips frozen objects, so ``run`` leaves
    it nothing of the heap the stages built."""
    code = (
        "import gc, sys\nfrom boxforge import cli\n"
        "try:\n    cli.run()\nexcept SystemExit as stop:\n"
        "    print(stop.code, gc.get_freeze_count() > 1000)"
    )
    ok = child(code, "synth", "--out", tmp_path / "data", "--seed", 0, "--n-videos", 1,
               "--frames-per-video", 2)
    refused = child(code, "synth", "--out", tmp_path / "bad", "--seed", -1)
    assert ok.stdout.splitlines()[-1] == "0 True", ok.stderr
    assert refused.stdout.splitlines()[-1] == "1 True", refused.stderr


def console_script():
    """The console script's target, ``module:function``, from pyproject."""
    doc = tomllib.loads((ROOT / "pyproject.toml").read_text())
    return doc["project"]["scripts"]["boxforge"]


ENTRY_POINTS = {
    "python -m boxforge": "import runpy; runpy.run_module('boxforge', run_name='__main__')",
    "python -m boxforge.cli": "import runpy; runpy.run_module('boxforge.cli', run_name='__main__')",
    # what the installed wrapper runs: sys.exit(function())
    "console script": (
        "import importlib, sys; module, name = {!r}.split(':'); "
        "sys.exit(getattr(importlib.import_module(module), name)())"
    ).format(console_script()),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_exits_zero_on_success(entry, tmp_path):
    out = tmp_path / "data"
    code = ENTRY_POINTS[entry] + "\nprint('unreachable')"
    proc = child(code, "synth", "--out", out, "--seed", 0, "--n-videos", 1,
                 "--frames-per-video", 2, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "unreachable" not in proc.stdout
    assert json.loads(proc.stdout)["out"] == str(out)
    assert (out / "manifest.json").is_file()


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_exits_one_with_the_json_error(entry, tmp_path):
    out = tmp_path / "data"
    proc = child(ENTRY_POINTS[entry], "synth", "--out", out, "--seed", -1, cwd=tmp_path)
    assert proc.returncode == 1
    err = json.loads(proc.stderr.strip())
    assert err["error"] == "ConfigInvalidError" and "seed" in err["message"]
    assert not out.exists()
