#!/usr/bin/env python3
"""Check that this checkout writes the same bytes as a base revision.

    python3 scripts/same_bytes.py --base HEAD~1 [--coretype Haswell,Sandybridge]
                                  [--blas-threads 1,2]

Exports ``--base`` with ``git archive`` into a temporary directory.  Then,
for each benchmark workload (``WORKLOADS`` in ``perfbench/run.py``), it runs
``boxforge synth`` and ``boxforge pipeline --heatmaps`` at training seeds 0
and 5 from that tree and from this checkout, each as a child process that
imports its own tree's ``src/``.  Both trees run in the same relative
layout, so a path written into an output is the same on both sides.

Every output file is compared by sha256.  A stage report
(``reports/*.json``) is compared as JSON without ``elapsed_s``, the one
value that differs between runs.  Each differing file is printed with its
first differing line, and the exit code is 1 on any difference.

``--coretype NAME[,NAME]`` also reruns this checkout's workloads once per
OpenBLAS kernel, with ``OPENBLAS_CORETYPE=NAME`` set in the children's
environment only, and prints the files that differ from this checkout's
default run.  ``--blas-threads N[,N]`` does the same once per OpenBLAS
thread count, with ``OPENBLAS_NUM_THREADS=N``.  Those differences do not
change the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 5)
TIMED = "elapsed_s"  # the report key that differs between runs


def export_revision(rev: str, dest: Path) -> None:
    """The files of ``rev`` in this repository, written under ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_workloads(
    tree: Path, work: Path, workloads: dict, setting: tuple[str, str] | None = None
) -> None:
    """``synth`` once and ``pipeline --heatmaps`` at each of :data:`SEEDS`
    per workload, from ``tree``'s ``src/``, into ``work/<workload>/``; with
    ``setting``, a ``(variable, value)`` pair such as
    ``("OPENBLAS_CORETYPE", "Haswell")``, each child runs with it set."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    if setting:
        env[setting[0]] = setting[1]

    def boxforge(*args: str) -> None:
        proc = subprocess.run(
            [sys.executable, "-m", "boxforge.cli", *args],
            cwd=work, env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise SystemExit(f"same_bytes: {tree}: boxforge {args[0]} failed\n{proc.stderr}")

    for name, workload in workloads.items():
        data = f"{name}/data"
        boxforge("synth", "--out", data, *workload.synth)
        for seed in SEEDS:
            out = f"{name}/seed{seed}"
            boxforge(
                "pipeline", "--manifest", f"{data}/manifest.json", "--out", out,
                *workload.pipeline, "--seed", str(seed), "--heatmaps", f"{out}/heatmaps",
            )


def _comparable(path: Path) -> bytes:
    """The file's bytes; a stage report's as sorted JSON without the time."""
    raw = path.read_bytes()
    if path.parent.name != "reports" or path.suffix != ".json":
        return raw
    doc = json.loads(raw)
    doc.pop(TIMED, None)
    return json.dumps(doc, indent=2, sort_keys=True).encode()


def first_difference(a: bytes, b: bytes) -> str:
    """Where two different byte strings first differ: the line, the byte in
    it, and both lines from 40 bytes before that byte to 60 after it."""
    lines_a, lines_b = a.split(b"\n"), b.split(b"\n")
    for n, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if x != y:
            col = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
            cut = slice(max(0, col - 40), col + 60)
            return f"line {n}, byte {col + 1}: {x[cut]!r} != {y[cut]!r}"
    return f"line {min(len(lines_a), len(lines_b)) + 1}: one side ends there"


def compare_trees(base: Path, head: Path) -> tuple[int, list[str]]:
    """(files compared, one message per difference) between two output trees."""
    names = sorted(
        {p.relative_to(root) for root in (base, head) for p in root.rglob("*") if p.is_file()}
    )
    differences = []
    for name in names:
        a, b = base / name, head / name
        if not (a.is_file() and b.is_file()):
            differences.append(f"{name}: only in {'base' if a.is_file() else 'head'}")
            continue
        bytes_a, bytes_b = _comparable(a), _comparable(b)
        if hashlib.sha256(bytes_a).digest() != hashlib.sha256(bytes_b).digest():
            differences.append(f"{name}: {first_difference(bytes_a, bytes_b)}")
    return len(names), differences


def _count(differences: list[str]) -> str:
    return f"{len(differences) or 'no'} difference{'' if len(differences) == 1 else 's'}"


def _names(text: str) -> list[str]:
    return [n for n in text.split(",") if n]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument(
        "--coretype", type=_names, default=[], metavar="NAME[,NAME]",
        help="also rerun this checkout under each OPENBLAS_CORETYPE and list the files "
        "that differ from its default run",
    )
    parser.add_argument(
        "--blas-threads", type=_names, default=[], metavar="N[,N]",
        help="also rerun this checkout under each OPENBLAS_NUM_THREADS and list the files "
        "that differ from its default run",
    )
    args = parser.parse_args(argv)
    settings = [("OPENBLAS_CORETYPE", name) for name in args.coretype]
    settings += [("OPENBLAS_NUM_THREADS", n) for n in args.blas_threads]

    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import WORKLOADS

    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        base_tree, base_work, head_work = Path(tmp, "tree"), Path(tmp, "base"), Path(tmp, "head")
        export_revision(args.base, base_tree)
        for tree, work in ((base_tree, base_work), (ROOT, head_work)):
            work.mkdir()
            run_workloads(tree, work, WORKLOADS)
        n_files, differences = compare_trees(base_work, head_work)
        by_setting = {}
        for variable, value in settings:
            work = Path(tmp, f"{variable}-{value}")
            work.mkdir()
            run_workloads(ROOT, work, WORKLOADS, setting=(variable, value))
            by_setting[f"{variable}={value}"] = compare_trees(head_work, work)[1]
    for line in differences:
        print(line)
    seeds = " and ".join(map(str, SEEDS))
    print(
        f"same_bytes: {n_files} files from {len(WORKLOADS)} workloads "
        f"({', '.join(WORKLOADS)}) at seeds {seeds} against {args.base}: {_count(differences)}"
    )
    for name, setting_differences in by_setting.items():
        for line in setting_differences:
            print(f"{name}: {line}")
        print(
            f"same_bytes: this checkout under {name} against its "
            f"default run: {_count(setting_differences)}"
        )
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
