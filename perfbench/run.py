"""Benchmark for the boxforge pipeline: end-to-end and per-layer metrics.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload video-scan --seed 1 --seconds 35 --trace 0

Each workload generates its inputs with ``boxforge synth``, then runs
``boxforge pipeline`` over them as fresh child processes until ``--seconds``
is spent.  The set-up is repeated ``SETUP_REPEATS`` times in all, between
pipeline runs; ``setup_s`` is the median.  Every run's outputs are
checked (``checks.check_outputs``) and must match, byte for byte, the first
run with the same training seed.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced runs with runs under ``tracer.py`` and prints the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a JSON
report with sample counts, quartiles, digests and the environment.

The package is imported only by the child processes, from ``src/`` of the
checkout.  Without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import OutputError, check_outputs, tree_digest  # noqa: E402

HERE = Path(__file__).resolve().parent
TRACER = HERE / "tracer.py"
WORK_DIR_NAME = ".perfbench_work"

SETUP_REPEATS = 7  # synth runs per set-up; setup_s is their median
# Training seeds per run.  The bandwidth chosen by cross-validation on
# hard-cv depends on the detector's SGD seed (about one seed in eight flips
# it), so one seed's quality would jump between runs; their mean does not.
TRAIN_SEEDS = 6
MIN_RUNS = TRAIN_SEEDS  # pipeline runs made even when --seconds is already spent
HARD_LIMIT_S = 170.0  # the whole benchmark stays under this
CHILD_TIMEOUT_S = 120.0


class BenchError(Exception):
    """The benchmark cannot produce a result (set-up failed, no good run)."""


@dataclass(frozen=True)
class Workload:
    why: str
    synth: tuple[str, ...]  # `boxforge synth` flags, including its pinned --seed
    pipeline: tuple[str, ...]  # `boxforge pipeline` method flags; --seed is added per run


WORKLOADS = {
    "video-scan": Workload(
        why="matching-bound: 24 regions slid over 30 frames; slide_match is ~90% of self time",
        synth=(
            "--seed", "1", "--n-pos-images", "8", "--n-neg-images", "8",
            "--n-videos", "3", "--frames-per-video", "10",
            "--map-height", "16", "--map-width", "16",
        ),
        pipeline=("--target-cells", "30", "--frame-stride", "1", "--bandwidth", "2.0"),
    ),
    "image-mine": Workload(
        why="mining-bound: 1,152 proposals, 2 frames; build_clusters ~56%, matching with many queries",
        synth=(
            "--seed", "2", "--n-pos-images", "18", "--n-neg-images", "18",
            "--proposals-per-image", "32", "--n-videos", "1", "--frames-per-video", "2",
        ),
        pipeline=("--target-cells", "30", "--frame-stride", "1", "--bandwidth", "2.0"),
    ),
    "hard-cv": Workload(
        why="voting-bound quality guard: noisy multi-instance data, 4-bandwidth cross-validation",
        synth=(
            "--seed", "3", "--noise-sigma", "0.6", "--n-distractors", "4",
            "--signature-strength", "2.0", "--multi-instance-prob", "0.3",
            "--n-pos-images", "16", "--n-neg-images", "16",
            "--n-videos", "1", "--frames-per-video", "8",
        ),
        pipeline=(
            "--target-cells", "30", "--frame-stride", "2", "--n-matches", "30",
            "--bandwidth-grid", "1,2,4,8",
        ),
    ),
}

QUALITY = (
    "mean_corloc", "mean_corloc_found", "map",
    "initial_corloc_all", "initial_corloc_found", "updated_ap",
)

# Per-layer self times and call counts read straight from the span summary.
SELF_TIME = (
    "featmap.slide_match", "featmap.build_query_window", "featmap.pool_box_feature",
    "featmap.read_fmap", "mining.build_clusters", "mining.rank_clusters",
    "mining.dedup_clusters", "tracks.select_track_per_frame",
    "transfer.match_region_per_frame", "transfer.match_region_to_videos",
    "transfer.retrieve_boxes", "voting.select_pseudo_gt", "voting.mean_shift_modes",
    "detector.train_linear", "detector.lsvm_update", "detector.fit_bbox_regressor",
    "metrics.average_precision", "metrics.corloc", "dataio.read_proposals",
)
CALLS = (
    "featmap.slide_match", "featmap.build_query_window", "featmap.pool_box_feature",
    "featmap.read_fmap", "tracks.select_track_per_frame",
    "transfer.match_region_per_frame", "transfer.match_region_to_videos",
    "voting.select_pseudo_gt", "detector.train_linear", "detector.apply_regressor",
    "metrics.average_precision", "dataio.read_proposals", "dataio.load_manifest",
)
STAGES = (
    "mine", "select_tracks", "match", "cv_bandwidth", "vote",
    "train", "update", "regress", "eval",
)
# Counts derived from input shapes by the tracer's hooks, not measured.
COMPUTED = (
    "featmap.slide_match.placements", "featmap.slide_match.macs",
    "mining.build_clusters.pairs", "voting.vote_points",
)


def per_layer_units() -> dict[str, str]:
    units = {"pipeline.total.wall_s": "s"}
    for stage in STAGES:
        units[f"pipeline.{stage}.s"] = "s"
        units[f"pipeline.{stage}.wall_s"] = "s"
    units.update({
        "pipeline.user_s": "s", "pipeline.sys_s": "s",
        "pipeline.traced_s": "s", "trace.overhead_s": "s",
    })
    units.update({f"{name}.s": "s" for name in SELF_TIME})
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update({
        "featmap.slide_match.placements": "count",
        "featmap.slide_match.macs": "count",
        "featmap.slide_match.repeat_ratio": "ratio",
        "featmap.read_fmap.bytes": "bytes",
        "featmap.read_fmap.repeat_ratio": "ratio",
        "mining.build_clusters.pairs": "count",
        "mining.kept_ratio": "ratio",
        "tracks.selection_ratio": "ratio",
        "transfer.kept_ratio": "ratio",
        "transfer.degenerate_dropped": "count",
        "voting.vote_points": "count",
        "voting.pseudo_gt_ratio": "ratio",
        "detector.train_linear.examples": "count",
        "detector.apply_regressor.failed": "count",
        "dataio.artifact_bytes": "bytes",
        "synth.gen_dataset.wall_s": "s",
    })
    return units


END_TO_END_UNITS = {
    "pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    **{name: "ratio" for name in QUALITY},
}


# --- child processes -------------------------------------------------------


@dataclass
class ChildResult:
    code: int
    wall_s: float
    user_s: float
    sys_s: float
    peak_rss_mb: float
    stderr_tail: str


def run_child(argv: list[str], env: dict, log: Path, timeout: float) -> ChildResult:
    """Run ``argv`` to completion; wall time spans spawn to reap.

    The child is reaped with ``os.wait4`` so its own rusage (CPU times and
    peak RSS) is read, not that of every child so far.  A child still running
    at ``timeout`` is killed and reported with a nonzero code.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    tail = log.read_text(errors="replace")[-600:] if proc.returncode else ""
    return ChildResult(
        code=proc.returncode,
        wall_s=wall,
        user_s=usage.ru_utime,
        sys_s=usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stderr_tail=tail,
    )


class Bench:
    """One benchmark invocation: a work directory, a deadline, run records."""

    def __init__(self, root: Path, workload: Workload, seed: int, work: Path):
        self.root = root
        self.workload = workload
        self.train_seeds = [seed * TRAIN_SEEDS + i for i in range(TRAIN_SEEDS)]
        self.work = work
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        src = str(root / "src")
        prior = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + prior if prior else "")
        self.attempted = 0
        self.failures: list[str] = []
        # training seed -> (quality, digests) of its first good run
        self.reference: dict[int, tuple[dict, dict]] = {}
        self._n = 0

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def _timeout(self) -> float:
        return max(1.0, min(CHILD_TIMEOUT_S, self.remaining()))

    def _fresh(self, stem: str) -> Path:
        self._n += 1
        return self.work / f"{stem}_{self._n:03d}"

    def cli(self, args: list[str], traced_summary: Optional[Path] = None) -> list[str]:
        if traced_summary is None:
            return [sys.executable, "-m", "boxforge.cli", *args]
        return [sys.executable, str(TRACER), "--out", str(traced_summary), "--", *args]

    def synth(self, traced_summary: Optional[Path] = None) -> tuple[Path, ChildResult]:
        data = self._fresh("data")
        argv = self.cli(["synth", "--out", str(data), *self.workload.synth], traced_summary)
        return data, run_child(argv, self.env, data.with_suffix(".log"), self._timeout())

    def pipeline(
        self, manifest: Path, train_seed: int, traced_summary: Optional[Path] = None
    ) -> tuple[Path, ChildResult]:
        out = self._fresh("out")
        args = [
            "pipeline", "--manifest", str(manifest), "--out", str(out),
            *self.workload.pipeline, "--seed", str(train_seed),
        ]
        res = run_child(self.cli(args, traced_summary), self.env, out.with_suffix(".log"),
                        self._timeout())
        return out, res

    def record(self, out: Path, manifest: Path, res: ChildResult, train_seed: int) -> bool:
        """Count one pipeline run; check its outputs against the first good
        run with the same training seed."""
        self.attempted += 1
        if res.code != 0:
            self.failures.append(f"exit {res.code}: {res.stderr_tail.strip()[-300:]}")
            return False
        try:
            quality, digests = check_outputs(out, manifest)
        except OutputError as exc:
            self.failures.append(f"output check: {exc}")
            return False
        if self.reference.setdefault(train_seed, (quality, digests)) != (quality, digests):
            self.failures.append(
                f"nondeterministic: seed {train_seed} quality or artifact digest differs"
            )
            return False
        return True


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {
        "n": len(values), "min": min(values), "q1": q[0],
        "median": statistics.median(values), "q3": q[2], "max": max(values),
    }


# --- end-to-end (--trace 0) -------------------------------------------------


def timed_setup(bench: Bench) -> tuple[Path, float, str]:
    """Generate the inputs once: (directory, wall time, digest of every file)."""
    data, res = bench.synth()
    if res.code != 0:
        raise BenchError(f"synth failed (exit {res.code}): {res.stderr_tail}")
    return data, res.wall_s, tree_digest(data)


def end_to_end(bench: Bench, seconds: float, report: dict) -> dict:
    data, setup_time, digest = timed_setup(bench)
    manifest = data / "manifest.json"
    setup_times, walls, rss = [setup_time], [], []

    def set_up_again() -> None:
        # Repeats are spread over the run, so setup_s samples the host over
        # the same window as pipeline_s rather than over its first seconds.
        copy, setup_time, copy_digest = timed_setup(bench)
        shutil.rmtree(copy)
        if copy_digest != digest:
            raise BenchError("synth is not deterministic: set-up copies differ")
        setup_times.append(setup_time)

    loop_start = time.perf_counter()
    for run_idx in itertools.count():
        spent = time.perf_counter() - loop_start
        typical = statistics.median(walls) if walls else 0.0
        if bench.attempted >= MIN_RUNS and spent + typical > seconds:
            break
        if bench.remaining() < max(typical, 1.0) * 1.5 and bench.attempted >= 1:
            break
        if len(bench.failures) >= MIN_RUNS:
            break
        train_seed = bench.train_seeds[run_idx % TRAIN_SEEDS]
        out, res = bench.pipeline(manifest, train_seed)
        if bench.record(out, manifest, res, train_seed):
            walls.append(res.wall_s)
            rss.append(res.peak_rss_mb)
        shutil.rmtree(out, ignore_errors=True)
        if len(setup_times) < SETUP_REPEATS:
            set_up_again()
    while len(setup_times) < SETUP_REPEATS:
        set_up_again()
    if not walls:
        raise BenchError("no pipeline run succeeded: " + "; ".join(bench.failures[:3]))
    report["samples"] = {
        "pipeline_s": quartiles(walls),
        "peak_rss_mb": quartiles(rss),
        "setup_s": quartiles(setup_times),
    }
    report["digests"] = {seed: ref[1] for seed, ref in bench.reference.items()}
    report["quality"] = {seed: ref[0] for seed, ref in bench.reference.items()}
    metrics = {
        "pipeline_s": statistics.median(walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(rss),
    }
    for name in QUALITY:
        metrics[name] = statistics.fmean(ref[0][name] for ref in bench.reference.values())
    return metrics


# --- per-layer (--trace 1) --------------------------------------------------


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run."""
    self_s, calls = summary["self_s"], summary["calls"]
    counters, distinct = summary["counters"], summary["distinct"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"pipeline.{stage}.s"] = self_s.get(f"pipeline.{stage}", 0.0)
        m[f"pipeline.{stage}.wall_s"] = summary["wall_s"].get(f"pipeline.{stage}", 0.0)
    m["pipeline.total.wall_s"] = summary["wall_s"].get("pipeline.total", 0.0)
    for name in SELF_TIME:
        m[f"{name}.s"] = self_s.get(name, 0.0)
    for name in CALLS:
        m[f"{name}.calls"] = calls.get(name, 0)
    for key in COMPUTED:
        m[key] = counters.get(key, 0)
    m["featmap.slide_match.repeat_ratio"] = ratio(
        calls.get("featmap.slide_match", 0), distinct.get("featmap.slide_match.pairs", 0)
    )
    m["featmap.read_fmap.bytes"] = counters.get("featmap.read_fmap.bytes", 0)
    m["featmap.read_fmap.repeat_ratio"] = ratio(
        calls.get("featmap.read_fmap", 0), distinct.get("featmap.read_fmap.files", 0)
    )
    m["mining.kept_ratio"] = ratio(
        counters.get("mining.kept_clusters", 0), counters.get("mining.clusters", 0)
    )
    m["tracks.selection_ratio"] = ratio(
        counters.get("tracks.selections", 0), calls.get("tracks.select_track_per_frame", 0)
    )
    m["transfer.kept_ratio"] = ratio(
        counters.get("transfer.transfers", 0), counters.get("transfer.matches", 0)
    )
    m["transfer.degenerate_dropped"] = counters.get("transfer.degenerate_dropped", 0)
    m["voting.pseudo_gt_ratio"] = ratio(
        counters.get("voting.pseudo_gts", 0), calls.get("voting.select_pseudo_gt", 0)
    )
    m["detector.train_linear.examples"] = counters.get("detector.train_linear.examples", 0)
    m["detector.apply_regressor.failed"] = counters.get("detector.apply_regressor.raised", 0)
    return m


def load_summary(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def per_layer(bench: Bench, seconds: float, report: dict) -> dict:
    """Alternate untraced and traced pipeline runs; report per-layer medians."""
    data, _setup_time, digest = timed_setup(bench)
    summary_path = bench.work / "synth_spans.json"
    traced_data, res = bench.synth(summary_path)
    if res.code != 0:
        raise BenchError(f"traced synth failed (exit {res.code}): {res.stderr_tail}")
    synth_summary = load_summary(summary_path)
    bench.attempted += 1
    if tree_digest(traced_data) != digest:
        bench.failures.append("tracing changed the synth output")
    manifest = data / "manifest.json"

    train_seed = bench.train_seeds[0]
    untraced, traced, layers, absent = [], [], [], set(synth_summary["absent"])
    loop_start = time.perf_counter()
    while True:
        spent = time.perf_counter() - loop_start
        pair = 0.0
        if traced:
            pair = statistics.median(r.wall_s for r in untraced) + statistics.median(traced)
        if len(traced) >= 2 and spent + pair > seconds:
            break
        if traced and bench.remaining() < max(pair, 2.0) * 1.5:
            break
        out, res = bench.pipeline(manifest, train_seed)
        if bench.record(out, manifest, res, train_seed):
            untraced.append(res)
            nbytes = artifact_bytes(out)
        shutil.rmtree(out, ignore_errors=True)
        summary_path = bench.work / f"spans_{len(traced):03d}.json"
        out, res = bench.pipeline(manifest, train_seed, summary_path)
        if bench.record(out, manifest, res, train_seed):
            summary = load_summary(summary_path)
            absent.update(summary["absent"])
            absent.update(k for k in summary["counters"] if k.endswith(".hook_failed"))
            m = layer_metrics(summary)
            m["pipeline.traced_s"] = res.wall_s
            layers.append(m)
            traced.append(res.wall_s)
        shutil.rmtree(out, ignore_errors=True)
        if not untraced or not traced:
            break
    if not layers or not untraced:
        raise BenchError("no traced pipeline run succeeded: " + "; ".join(bench.failures[:3]))

    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["pipeline.user_s"] = statistics.median(r.user_s for r in untraced)
    metrics["pipeline.sys_s"] = statistics.median(r.sys_s for r in untraced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(
        r.wall_s for r in untraced
    )
    metrics["dataio.artifact_bytes"] = nbytes
    metrics["synth.gen_dataset.wall_s"] = synth_summary["wall_s"].get("synth.gen_dataset", 0.0)
    report["absent"] = sorted(absent)
    report["computed"] = list(COMPUTED)
    report["samples"] = {
        "untraced_pipeline_s": quartiles([r.wall_s for r in untraced]),
        "traced_pipeline_s": quartiles(traced),
    }
    report["digests"] = bench.reference[train_seed][1]
    total = sum(metrics[f"{name}.s"] for name in SELF_TIME) + sum(
        metrics[f"pipeline.{stage}.s"] for stage in STAGES
    )
    largest = sorted(SELF_TIME, key=lambda n: -metrics[f"{n}.s"])[:6]
    report["self_time_share"] = {n: metrics[f"{n}.s"] / total for n in largest if total}
    return metrics


# --- environment ------------------------------------------------------------

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


# Run in a child with the benchmark's environment, so it reports the numpy and
# the default `jobs` the pipeline itself sees.
ENV_PROBE = """
import json, numpy, boxforge.config
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
except (TypeError, KeyError):  # numpy builds without the dict form
    blas = None
print(json.dumps({"numpy": numpy.__version__, "blas": blas,
                  "default_jobs": boxforge.config.PipelineConfig().jobs}))
"""


def environment(bench: Bench) -> dict:
    """Facts about the machine and toolchain; nothing here is ever set."""
    probed = {"numpy": None, "blas": None, "default_jobs": None}
    try:
        out = subprocess.run(
            [sys.executable, "-c", ENV_PROBE], env=bench.env, capture_output=True,
            text=True, timeout=60, check=True,
        ).stdout
        probed.update(json.loads(out.splitlines()[-1]))
    except (subprocess.SubprocessError, IndexError, ValueError):
        pass
    commit = None
    if (bench.root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=bench.root, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **probed,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": commit,
    }


# --- main -------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="boxforge pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help=f"picks the {TRAIN_SEEDS} `boxforge pipeline --seed` values")
    parser.add_argument("--seconds", type=float, required=True,
                        help="time spent on pipeline runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "boxforge" / "cli.py").is_file():
        print("perfbench: run from a checkout root holding src/boxforge", file=sys.stderr)
        return 2
    work = root / WORK_DIR_NAME / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(root, WORKLOADS[args.workload], args.seed, work)
    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        if args.trace:
            metrics = per_layer(bench, args.seconds, report)
            units = per_layer_units()
        else:
            metrics = end_to_end(bench, args.seconds, report)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR_NAME).rmdir()
        except OSError:  # another run is still using it
            pass
    failed = len(bench.failures)
    report["failure_ratio"] = failed / bench.attempted
    report["failures"] = bench.failures
    report["environment"] = environment(bench)
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
