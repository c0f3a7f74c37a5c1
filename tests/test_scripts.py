"""Smoke tests of the code that drives the package from outside: the
example scripts under ``scripts/``, the package import and the benchmark's
tracer; and a check that the package defines nothing only tests reach.

The scripts call the stage functions directly, and the tracer wraps them by
name and reads their arguments, so a change to a stage's signature that
either misses fails here.
"""

import ast
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import boxforge
from boxforge.synth import SynthConfig, gen_dataset

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
PACKAGE = ROOT / "src" / "boxforge"


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
    # no run calls these one-call views of the scan and the vote, or the
    # track-selection, cross-validation, update and regression stages that
    # match, vote and train absorbed, so the package no longer defines them;
    # the tracer's targets still name them
    assert summary["absent"] == [
        "pipeline.select_tracks", "pipeline.cv_bandwidth", "pipeline.update", "pipeline.regress",
        "featmap.slide_match",
        "transfer.match_region_per_frame", "transfer.match_region_to_videos",
        "voting.mean_shift_modes",
    ]
    assert [k for k in summary["counters"] if k.endswith(".hook_failed")] == []
    assert summary["calls"]["mining.build_clusters"] == 1
    assert summary["counters"]["mining.build_clusters.pairs"] > 0


def _identifiers(path: Path):
    """Each name a module's code uses: its ``Name`` ids, attribute names and
    identifier-only string constants (such as the stage names in
    ``cli.COMMANDS``)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def _definitions(path: Path):
    """A module's top-level functions and classes, and each method and
    property of its classes except dunders, as (qualified name, name)."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{path.stem}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{path.stem}.{node.name}.{member.name}", member.name


def test_every_package_definition_is_reached():
    """Every top-level function and class of the package, and every method
    and property of its classes, is used by name in the package, in
    ``scripts/`` or in the benchmark's tracer (whose hooks read attributes
    such as ``VoteSpace.n_points``): code that only tests reach is
    deleted."""
    modules = sorted(PACKAGE.glob("*.py"))
    readers = [*modules, *SCRIPTS.glob("*.py"), ROOT / "perfbench" / "tracer.py"]
    used = {name for path in readers for name in _identifiers(path)}
    unreached = [
        qualified for path in modules for qualified, name in _definitions(path) if name not in used
    ]
    assert unreached == []


def test_every_package_error_is_raised():
    """Every exception class in ``errors.py`` but ``BoxforgeError`` is
    raised under ``src/boxforge/``: a class that is only imported or named
    is an error no run can meet."""
    errors = ast.parse((PACKAGE / "errors.py").read_text()).body
    classes = {node.name for node in errors if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert sorted(classes - raised - {"BoxforgeError"}) == []


def _same_bytes():
    spec = importlib.util.spec_from_file_location("same_bytes", SCRIPTS / "same_bytes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSameBytes:
    """``scripts/same_bytes.py`` compares two output trees file by file, and
    runs a tree's workloads under a chosen OpenBLAS kernel."""

    TRANSFERS = [
        {"box": [0.0, 0.0, 4.0, 4.0], "frame_idx": 0, "image_id": "pos_000",
         "region_id": "r00000", "sim": 0.75, "video_id": "vid_000"},
        {"box": [1.0, 1.0, 5.0, 5.0], "frame_idx": 1, "image_id": "pos_000",
         "region_id": "r00001", "sim": 0.5, "video_id": "vid_000"},
    ]

    def tree(self, root, transfers=TRANSFERS, elapsed=0.25):
        (root / "w" / "seed0" / "reports").mkdir(parents=True)
        rows = "".join(json.dumps(row, sort_keys=True) + "\n" for row in transfers)
        (root / "w" / "seed0" / "transfers.jsonl").write_text(rows)
        report = {"stage": "vote", "n_pseudo_gt": 2, "elapsed_s": elapsed}
        (root / "w" / "seed0" / "reports" / "vote.json").write_text(json.dumps(report))
        (root / "w" / "data.bin").write_bytes(bytes(range(256)))
        return root

    def test_identical_trees_pass(self, tmp_path):
        base, head = self.tree(tmp_path / "base"), self.tree(tmp_path / "head")
        assert _same_bytes().compare_trees(base, head) == (3, [])

    def test_one_ulp_change_to_a_sim_is_reported_with_file_and_line(self, tmp_path):
        moved = [self.TRANSFERS[0], {**self.TRANSFERS[1], "sim": math.nextafter(0.5, 1.0)}]
        base, head = self.tree(tmp_path / "base"), self.tree(tmp_path / "head", moved)
        n_files, differences = _same_bytes().compare_trees(base, head)
        assert n_files == 3
        [message] = differences
        assert message.startswith(f"{Path('w', 'seed0', 'transfers.jsonl')}: line 2, byte ")
        assert '"sim": 0.5,' in message and '"sim": 0.5000000000000001,' in message

    def test_reports_differing_only_in_elapsed_time_pass(self, tmp_path):
        base = self.tree(tmp_path / "base", elapsed=0.25)
        head = self.tree(tmp_path / "head", elapsed=9.5)
        assert _same_bytes().compare_trees(base, head) == (3, [])

    def test_missing_file_and_changed_report_value_are_reported(self, tmp_path):
        base, head = self.tree(tmp_path / "base"), self.tree(tmp_path / "head")
        (head / "w" / "data.bin").unlink()
        report = head / "w" / "seed0" / "reports" / "vote.json"
        report.write_text(json.dumps({"stage": "vote", "n_pseudo_gt": 3, "elapsed_s": 0.25}))
        _, differences = _same_bytes().compare_trees(base, head)
        assert differences[0] == f"{Path('w', 'data.bin')}: only in base"
        assert differences[1].startswith(f"{Path('w', 'seed0', 'reports', 'vote.json')}: line ")
        assert "n_pseudo_gt" in differences[1]

    def test_coretype_is_set_in_the_children_only(self, tmp_path, monkeypatch):
        """Each child runs under the chosen ``OPENBLAS_CORETYPE``, or under
        none by default, and the calling process's environment keeps none."""
        monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
        tree = tmp_path / "tree"
        (tree / "src" / "boxforge").mkdir(parents=True)
        (tree / "src" / "boxforge" / "__init__.py").write_text("")
        (tree / "src" / "boxforge" / "cli.py").write_text(
            "import os, sys\n"
            "with open('children.txt', 'a') as fh:\n"
            "    print(sys.argv[1], os.environ.get('OPENBLAS_CORETYPE'), file=fh)\n"
        )
        workloads = {"w": SimpleNamespace(synth=[], pipeline=[])}
        same_bytes = _same_bytes()
        for coretype in (None, "Haswell"):
            work = tmp_path / f"work-{coretype}"
            work.mkdir()
            setting = coretype and ("OPENBLAS_CORETYPE", coretype)
            same_bytes.run_workloads(tree, work, workloads, setting=setting)
            assert (work / "children.txt").read_text().splitlines() == [
                f"{command} {coretype}" for command in ("synth", "pipeline", "pipeline")
            ]
            assert "OPENBLAS_CORETYPE" not in os.environ

    def test_blas_threads_rerun_lists_differences_and_keeps_the_exit_code(
        self, tmp_path, monkeypatch, capsys
    ):
        """``--blas-threads 1,2`` reruns this checkout once per thread count,
        with ``OPENBLAS_NUM_THREADS`` set in the children only, and lists
        the files that differ from its default run without failing."""
        same_bytes = _same_bytes()
        runs = []

        def run_workloads(tree, work, workloads, setting=None):
            runs.append(setting)
            (work / "w").mkdir()
            (work / "w" / "same.txt").write_text("same\n")
            two = setting == ("OPENBLAS_NUM_THREADS", "2")
            (work / "w" / "sums.txt").write_text("2 threads\n" if two else "one\n")

        monkeypatch.setattr(same_bytes, "export_revision", lambda rev, dest: dest.mkdir())
        monkeypatch.setattr(same_bytes, "run_workloads", run_workloads)
        monkeypatch.setattr(sys, "path", [*sys.path])
        monkeypatch.setitem(sys.modules, "run", SimpleNamespace(WORKLOADS={"w": None}))
        assert same_bytes.main(["--base", "HEAD", "--blas-threads", "1,2"]) == 0
        assert runs == [None, None, ("OPENBLAS_NUM_THREADS", "1"), ("OPENBLAS_NUM_THREADS", "2")]
        printed = capsys.readouterr().out.splitlines()
        assert printed[1:] == [
            "same_bytes: this checkout under OPENBLAS_NUM_THREADS=1 against its default run: "
            "no differences",
            f"OPENBLAS_NUM_THREADS=2: {Path('w', 'sums.txt')}: line 1, byte 1: b'one' != b'2 threads'",
            "same_bytes: this checkout under OPENBLAS_NUM_THREADS=2 against its default run: "
            "1 difference",
        ]
        assert printed[0].endswith("against HEAD: no differences")
