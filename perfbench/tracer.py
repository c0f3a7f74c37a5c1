"""Run one ``boxforge`` CLI command in-process with its layers wrapped in spans.

Usage::

    python3 perfbench/tracer.py --out spans.json -- pipeline --manifest ... --out ...

The package is imported as is; before the command runs, every function named
in ``TARGETS`` is replaced, in each ``boxforge`` module that holds it, by a
wrapper that records a span (name, start, end, parent) and, through a hook,
work counts computed from its arguments and result.  The wrapper is installed
where the name is looked up at call time (``boxforge.transfer.slide_match``,
``boxforge.pipeline.build_clusters``, ...), since modules bind imported names
at import time.  A target the package no longer defines is reported as
``absent``.  Per-pair helpers (``geometry.iou``, ``featmap.cosine_sim``) are
deliberately not wrapped: at millions of calls the wrapper would dominate.

The JSON written to ``--out`` holds per-span-name self time, total span time
and call counts, the hook counters and the absent targets.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Optional


def self_times(spans: list[tuple[str, float, float, Optional[int]]]) -> dict[str, float]:
    """Total self time per span name.

    ``spans`` holds ``(name, start, end, parent_index)``.  A span's self time
    is its duration minus the part of its interval covered by its children;
    children that overlap each other (worker threads) are merged first, so
    the covered part is never counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if cur_end is None or c_start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = c_start, c_end
            else:
                cur_end = max(cur_end, c_end)
        if cur_end is not None:
            covered += cur_end - cur_start
        totals[name] += (end - start) - covered
    return dict(totals)


class Tracer:
    """In-memory span and counter store shared by every wrapper.

    Each thread keeps its own span stack.  A span opened on a worker thread
    with an empty stack takes as parent the span the main thread has open,
    so work handed to a thread pool is charged to the stage that submitted it.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> tuple[list[int], int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(idx)
        return stack, idx

    def close(self, stack: list[int], idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        stack.pop()

    def add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counters[key] += value

    def see(self, key: str, item) -> None:
        with self._lock:
            self.distinct[key].add(item)

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.close(stack, idx)
                self.add(name + ".raised")
                raise
            self.close(stack, idx)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    hook(self, bound.arguments, result)
                except (KeyError, AttributeError, TypeError, ValueError):
                    # a refactor renamed an argument or changed a result:
                    # lose the count, never the run
                    self.add(name + ".hook_failed")
            return result

        return wrapper

    def summary(self) -> dict:
        done = [tuple(s) for s in self.spans if s[2] is not None]
        calls = Counter(s[0] for s in done)
        wall: dict[str, float] = defaultdict(float)
        for name, start, end, _parent in done:
            wall[name] += end - start
        return {
            "self_s": self_times(done),
            "wall_s": dict(wall),
            "calls": dict(calls),
            "counters": dict(self.counters),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }


# --- hooks: work counts computed from arguments and results ---------------
# Each hook gets the tracer, the call's bound arguments (defaults applied)
# and the return value.


def _slide_match(tr: Tracer, a, result) -> None:
    query = a["query"]
    w, h = query.w_cells, query.h_cells
    placements = 0
    for _scale, fmap in a["pyramid"].levels:
        if w <= fmap.width and h <= fmap.height:
            placements += (fmap.height - h + 1) * (fmap.width - w + 1)
    tr.add("featmap.slide_match.placements", placements)
    tr.add("featmap.slide_match.macs", placements * w * h * query.channels)


def _region_frames(tr: Tracer, a, result) -> None:
    for video_id, frames in a["videos"]:
        for frame_idx in range(0, len(frames), a["frame_stride"]):
            tr.see("featmap.slide_match.pairs", (a["region_id"], video_id, frame_idx))


def _read_fmap(tr: Tracer, a, result) -> None:
    path = os.fspath(a["path"])
    tr.add("featmap.read_fmap.bytes", os.path.getsize(path))
    tr.see("featmap.read_fmap.files", path)


def _build_clusters(tr: Tracer, a, result) -> None:
    sizes = [len(p) for p in a["proposals_by_image"].values()]
    total = sum(sizes)
    tr.add("mining.build_clusters.pairs", sum(n * (total - n) for n in sizes))
    tr.add("mining.clusters", len(result))


def _dedup_clusters(tr: Tracer, a, result) -> None:
    tr.add("mining.kept_clusters", len(result))


def _select_track(tr: Tracer, a, result) -> None:
    tr.add("tracks.selections", int(result is not None))


def _retrieve_boxes(tr: Tracer, a, result) -> None:
    transfers, dropped = result
    tr.add("transfer.matches", len(a["matches"]))
    tr.add("transfer.transfers", len(transfers))
    tr.add("transfer.degenerate_dropped", dropped)


def _select_pseudo_gt(tr: Tracer, a, result) -> None:
    tr.add("voting.vote_points", a["space"].n_points)
    tr.add("voting.pseudo_gts", int(result is not None))


def _train_linear(tr: Tracer, a, result) -> None:
    tr.add("detector.train_linear.examples", len(a["features"]))


# (defining module, function, span name, hook); the span name is the
# module-qualified function name unless the pipeline stage alias reads better.
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("pipeline", "run_pipeline", "pipeline.total", None),
    ("pipeline", "run_mine", "pipeline.mine", None),
    ("pipeline", "run_select_tracks", "pipeline.select_tracks", None),
    ("pipeline", "run_match", "pipeline.match", None),
    ("pipeline", "run_cv_bandwidth", "pipeline.cv_bandwidth", None),
    ("pipeline", "run_vote", "pipeline.vote", None),
    ("pipeline", "run_train", "pipeline.train", None),
    ("pipeline", "run_update", "pipeline.update", None),
    ("pipeline", "run_regress", "pipeline.regress", None),
    ("pipeline", "run_eval", "pipeline.eval", None),
    ("featmap", "slide_match", "featmap.slide_match", _slide_match),
    ("featmap", "build_query_window", "featmap.build_query_window", None),
    ("featmap", "pool_box_feature", "featmap.pool_box_feature", None),
    ("featmap", "read_fmap", "featmap.read_fmap", _read_fmap),
    ("mining", "build_clusters", "mining.build_clusters", _build_clusters),
    ("mining", "rank_clusters", "mining.rank_clusters", None),
    ("mining", "dedup_clusters", "mining.dedup_clusters", _dedup_clusters),
    ("tracks", "select_track_per_frame", "tracks.select_track_per_frame", _select_track),
    ("transfer", "match_region_per_frame", "transfer.match_region_per_frame", _region_frames),
    ("transfer", "match_region_to_videos", "transfer.match_region_to_videos", _region_frames),
    ("transfer", "retrieve_boxes", "transfer.retrieve_boxes", _retrieve_boxes),
    ("voting", "select_pseudo_gt", "voting.select_pseudo_gt", _select_pseudo_gt),
    ("voting", "mean_shift_modes", "voting.mean_shift_modes", None),
    ("detector", "train_linear", "detector.train_linear", _train_linear),
    ("detector", "lsvm_update", "detector.lsvm_update", None),
    ("detector", "fit_bbox_regressor", "detector.fit_bbox_regressor", None),
    ("detector", "apply_regressor", "detector.apply_regressor", None),
    ("metrics", "average_precision", "metrics.average_precision", None),
    ("metrics", "corloc", "metrics.corloc", None),
    ("dataio", "read_proposals", "dataio.read_proposals", None),
    ("dataio", "load_manifest", "dataio.load_manifest", None),
    ("synth", "gen_dataset", "synth.gen_dataset", None),
)


def install(tracer: Tracer, targets=TARGETS) -> list[str]:
    """Wrap every target in every loaded ``boxforge`` module that binds it.

    Returns the span names of targets the package does not define.
    """
    absent = []
    for module_name, func_name, span_name, hook in targets:
        try:
            module = importlib.import_module(f"boxforge.{module_name}")
        except ImportError:
            absent.append(span_name)
            continue
        original = getattr(module, func_name, None)
        if not callable(original):
            absent.append(span_name)
            continue
        wrapper = tracer.wrap(span_name, original, hook)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "boxforge" or name.startswith("boxforge.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    return absent


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the span summary JSON")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- <boxforge CLI args>")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import boxforge.cli  # imports every stage module the CLI reaches

    tracer = Tracer()
    absent = install(tracer)
    code = boxforge.cli.main(command)
    doc = tracer.summary()
    doc["absent"] = absent
    with open(args.out, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
