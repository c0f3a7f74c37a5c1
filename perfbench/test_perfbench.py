"""Tests of the benchmark itself.  Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from checks import OutputError, check_outputs  # noqa: E402
from tracer import Tracer, install, self_times  # noqa: E402

TINY = run.Workload(
    why="tiny inputs for tests",
    synth=(
        "--seed", "5", "--n-pos-images", "4", "--n-neg-images", "4",
        "--n-videos", "1", "--frames-per-video", "3",
        "--map-height", "12", "--map-width", "12",
    ),
    pipeline=("--target-cells", "16", "--frame-stride", "1", "--bandwidth", "2.0"),
)


@pytest.fixture
def bench(tmp_path):
    return run.Bench(ROOT, TINY, seed=7, work=tmp_path)


@pytest.fixture
def manifest(bench):
    data, res = bench.synth()
    assert res.code == 0, res.stderr_tail
    return data / "manifest.json"


def test_self_time_subtracts_merged_child_intervals():
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a, as a second worker thread would
        ("leaf", 2.0, 3.0, 1),
        ("b", 8.0, 12.0, 0),  # runs past its parent: only [8, 10] is covered
        ("c", 4.0, 5.0, 0),  # inside the union of a and b: covers nothing new
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert got["a"] == pytest.approx(3.0 - 1.0)
    assert got["b"] == pytest.approx(3.0 + 4.0)
    assert got["leaf"] == pytest.approx(1.0)
    assert got["c"] == pytest.approx(1.0)


def test_wrapped_calls_nest_and_worker_spans_join_the_submitting_span():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda x: x + 1)

    def stage(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(n)))

    outer = tracer.wrap("stage", stage)
    assert outer(4) == [1, 2, 3, 4]
    assert leaf(0) == 1  # outside any span: no parent
    spans = tracer.spans
    assert [s[0] for s in spans].count("leaf") == 5
    stage_idx = next(i for i, s in enumerate(spans) if s[0] == "stage")
    parents = [s[3] for s in spans if s[0] == "leaf"]
    assert parents.count(stage_idx) == 4 and parents.count(None) == 1
    summary = tracer.summary()
    assert summary["calls"] == {"stage": 1, "leaf": 5}


def test_wrapper_counts_raised_errors_and_reraises():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.counters["boom.raised"] == 1
    assert tracer.summary()["calls"] == {"boom": 1}


def test_a_hook_that_no_longer_fits_loses_its_count_not_the_call():
    tracer = Tracer()

    def renamed(x):
        return x

    def hook(tr, a, result):
        tr.add("n", a["old_name"])

    assert tracer.wrap("f", renamed, hook)(3) == 3
    assert tracer.counters == {"f.hook_failed": 1}


def test_missing_targets_are_reported_absent_not_errors():
    targets = (
        ("featmap", "no_such_function", "featmap.no_such_function", None),
        ("no_such_module", "f", "no_such_module.f", None),
        ("featmap", "read_fmap", "featmap.read_fmap", None),
    )
    import boxforge.dataio
    import boxforge.featmap

    original = boxforge.featmap.read_fmap
    try:
        absent = install(Tracer(), targets)
        assert absent == ["featmap.no_such_function", "no_such_module.f"]
        assert boxforge.dataio.read_fmap is not original  # patched where it is called
    finally:
        for mod in (boxforge.featmap, boxforge.dataio):
            mod.read_fmap = original


def test_traced_and_untraced_runs_write_identical_outputs(bench, manifest):
    plain_out, plain = bench.pipeline(manifest, 7)
    summary = bench.work / "spans.json"
    traced_out, traced = bench.pipeline(manifest, 7, summary)
    assert plain.code == 0, plain.stderr_tail
    assert traced.code == 0, traced.stderr_tail
    assert (plain_out / "metrics.json").read_bytes() == (traced_out / "metrics.json").read_bytes()
    assert check_outputs(plain_out, manifest) == check_outputs(traced_out, manifest)
    assert bench.record(plain_out, manifest, plain, 7)
    assert bench.record(traced_out, manifest, traced, 7)
    assert bench.failures == []
    spans = json.loads(summary.read_text())
    assert spans["absent"] == []
    assert spans["calls"]["featmap.slide_match"] > 0
    layers = run.layer_metrics(spans)
    assert layers["featmap.slide_match.repeat_ratio"] == pytest.approx(2.0)
    assert layers["featmap.slide_match.macs"] > layers["featmap.slide_match.placements"] > 0


def test_corrupt_manifest_is_a_failed_run_not_a_crash(bench, manifest):
    manifest.write_text("{ not json")
    out, res = bench.pipeline(manifest, 7)
    assert res.code != 0
    assert bench.record(out, manifest, res, 7) is False
    assert bench.attempted == 1 and len(bench.failures) == 1


def test_output_check_rejects_a_box_outside_the_image(bench, manifest):
    out, res = bench.pipeline(manifest, 7)
    assert res.code == 0, res.stderr_tail
    path = out / "pseudo_gt.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[0]["box"][2] = 1e6
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(OutputError, match="outside"):
        check_outputs(out, manifest)


def test_a_changed_artifact_counts_as_nondeterminism(bench, manifest):
    first, res1 = bench.pipeline(manifest, 7)
    second, res2 = bench.pipeline(manifest, 7)
    with open(second / "transfers.jsonl", "a") as fh:
        fh.write("\n")
    assert bench.record(first, manifest, res1, 7)
    assert not bench.record(second, manifest, res2, 7)
    assert "nondeterministic" in bench.failures[0]


def test_result_line_names_every_end_to_end_metric(monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result, report = json.loads(lines[-1]), json.loads("\n".join(lines[:-1]))
    seeds = sorted(map(int, report["quality"]))
    assert seeds == list(range(3 * run.TRAIN_SEEDS, 4 * run.TRAIN_SEEDS))
    per_seed = [q["initial_corloc_all"] for q in report["quality"].values()]
    mean = sum(per_seed) / len(per_seed)
    assert result["metrics"]["initial_corloc_all"]["value"] == pytest.approx(mean)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == run.MIN_RUNS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    env = report["environment"]
    assert isinstance(env["default_jobs"], int) and env["numpy"] and env["nproc"] >= 1
    assert not (ROOT / run.WORK_DIR_NAME).exists()


def test_traced_mode_reports_every_per_layer_metric(monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result, report = json.loads(lines[-1]), json.loads("\n".join(lines[:-1]))
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.per_layer_units())
    assert report["absent"] == []
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["featmap.slide_match.repeat_ratio"] == pytest.approx(2.0)
    assert metrics["voting.vote_points"] > 0
    assert metrics["synth.gen_dataset.wall_s"] > 0
    assert metrics["pipeline.total.wall_s"] >= metrics["pipeline.match.wall_s"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "video-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_sigterm_stops_the_running_child_and_cleans_up():
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "video-scan", "--seed", "1",
         "--seconds", "30", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    work = ROOT / run.WORK_DIR_NAME / f"video-scan-s1-{proc.pid}"
    time.sleep(5)  # inside set-up or a pipeline run
    proc.send_signal(signal.SIGTERM)
    out, _err = proc.communicate(timeout=60)
    assert proc.returncode != 0 and out == b""
    assert not work.exists()
    leftovers = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                cmdline = (Path("/proc") / entry / "cmdline").read_bytes()
            except OSError:
                continue
            if str(work).encode() in cmdline:
                leftovers.append(entry)
    assert leftovers == []
