import dataclasses
import inspect
import json
import logging
from collections import Counter
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import boxforge
from boxforge import atomic, cli, dataio, featmap, pipeline, transfer
from boxforge.config import SETTINGS, PipelineConfig, build_config, parse_config_file
from boxforge.errors import ConfigInvalidError, EmptyPoolError, MissingInputError
from boxforge.detector import fit_bbox_regressor, lsvm_update
from boxforge.geometry import BBox, box_array, iou, nms
from boxforge.metrics import corloc
from boxforge.mining import MinedRegion
from boxforge.pipeline import run_pipeline
from boxforge.synth import SynthConfig, gen_dataset
from boxforge.tracks import FrameSelection, candidates_at_frame
from boxforge.voting import PseudoGT

from test_featmap import pool_one

# Matching profile for the synthetic data: planted objects occupy ~30 cells
# on a stride-1 map, every frame is cheap enough to sample.
PROFILE = dict(target_cells=30, frame_stride=1, bandwidth=2.0)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    gen_dataset(SynthConfig(seed=0, n_videos=1, frames_per_video=8), root)
    return root


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def finished(synth_dir, tmp_path_factory):
    """The CLI pipeline's outputs on ``synth_dir``; copy before writing."""
    out = tmp_path_factory.mktemp("finished")
    code = run_cli("pipeline", "--manifest", synth_dir / "manifest.json", "--out", out,
                   "--seed", 0, "--target-cells", 30, "--frame-stride", 1, "--bandwidth", 2.0)
    assert code == 0
    return out


def assert_same_outputs(chained, piped):
    """Every file the stage chain wrote has the pipeline's bytes; stage
    reports match in every field but their timing."""
    def listing(root):
        return {p.relative_to(root).as_posix(): p for p in root.rglob("*") if p.is_file()}

    ours, theirs = listing(chained), listing(piped)
    assert set(ours) == set(theirs) - {"reports/pipeline.json"}
    for rel, path in sorted(ours.items()):
        if rel.startswith("reports/"):
            a, b = json.loads(path.read_text()), json.loads(theirs[rel].read_text())
            a.pop("elapsed_s")
            b.pop("elapsed_s")
            assert a == b, rel
        else:
            assert path.read_bytes() == theirs[rel].read_bytes(), rel


class TestConfigFile:
    def test_parse_key_value(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# synthetic profile\n"
            "k = 4\n"
            "C = 150\n"
            "n = 10\n"
            "theta = 12.5\n"
            "b = 2.0\n"
        )
        cfg = build_config(str(cfg_file))
        assert cfg.k == 4
        assert cfg.top_clusters == 150
        assert cfg.n_matches == 10
        assert cfg.theta == 12.5
        assert cfg.bandwidth == 2.0

    def test_overrides_beat_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("n = 10\n")
        cfg = build_config(str(cfg_file), {"n_matches": "33"})
        assert cfg.n_matches == 33

    def test_bandwidth_grid_list(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("b_grid = 1.0, 2.0, 4.0\n")
        assert build_config(str(cfg_file)).bandwidth_grid == (1.0, 2.0, 4.0)

    def test_b_and_grid_mutually_exclusive(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("b = 2.0\nb_grid = 1.0,2.0\n")
        with pytest.raises(ConfigInvalidError):
            parse_config_file(cfg_file)

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("bogus = 1\n")
        with pytest.raises(ConfigInvalidError):
            parse_config_file(cfg_file)

    def test_repeated_key_rejected_naming_its_line(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("k = 2\n# then\nk = 3\n")
        with pytest.raises(ConfigInvalidError, match=r"run.cfg:3: repeated key 'k'$"):
            parse_config_file(cfg_file)

    def test_removed_jobs_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("jobs = 1\n")
        with pytest.raises(ConfigInvalidError, match="unknown key 'jobs'"):
            build_config(str(cfg_file))

    def test_removed_kernel_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("kernel = gaussian\n")
        with pytest.raises(ConfigInvalidError, match="unknown key 'kernel'"):
            build_config(str(cfg_file))

    def test_missing_file_is_a_missing_input(self, synth_dir, tmp_path, capsys):
        cfg_file = tmp_path / "nonexistent.cfg"
        code = run_cli("mine", "--manifest", synth_dir / "manifest.json", "--out", tmp_path / "o",
                       "--config", cfg_file)
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "MissingInputError", "message": f"missing config file: {cfg_file}"}

    def test_removed_kernel_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pipeline", "--seed", "0", "--kernel", "gaussian"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --kernel gaussian" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        pytest.param(["update"], "invalid choice: 'update'", id="update"),
        pytest.param(["regress"], "invalid choice: 'regress'", id="regress"),
        pytest.param(["train", "--seed", "0", "--tag", "updated"],
                     "unrecognized arguments: --tag updated", id="train-tag"),
        # a stage reads its input files under --out only
        *(
            pytest.param([command, "--seed", "0", flag, "x"],
                         f"unrecognized arguments: {flag} x", id=f"{command}{flag}")
            for command, flag in (
                ("match", "--regions"), ("vote", "--selections"), ("vote", "--transfers"),
                ("train", "--pseudo-gt"), ("eval", "--initial-pseudo-gt"),
                ("eval", "--updated-pseudo-gt"), ("eval", "--detections"),
                ("eval", "--detections-updated"), ("eval", "--detections-bboxreg"),
            )
        ),
    ])
    def test_removed_flag_or_subcommand_rejected(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_validation_catches_bad_values(self):
        with pytest.raises(ConfigInvalidError):
            PipelineConfig(theta=-1.0)


# A value other than the default for every setting, as typed in a file or
# after a flag, and a value each must refuse.  manifest and out_dir are
# paths: no text is malformed for them.
SAMPLE_TEXT = {
    "manifest": "data/manifest.json", "out_dir": "run", "k": "3", "top_clusters": "150",
    "n_matches": "10", "frame_stride": "2", "target_cells": "30", "theta": "12.5",
    "bandwidth": "2.5", "bandwidth_grid": "1,2,", "lsvm_rounds": "2", "train_steps": "50",
    "learning_rate": "0.05", "weight_decay": "0.01", "nms_iou": "0.5", "regressor_l2": "10",
    "seed": "7",
}
BAD_TEXT = {
    "k": "abc", "top_clusters": "0", "n_matches": "1.5", "frame_stride": "-1",
    "target_cells": "x", "theta": "-3", "bandwidth": "wide", "bandwidth_grid": "1,x",
    "lsvm_rounds": "0", "train_steps": "-1", "learning_rate": "0",
    "weight_decay": "-1", "nms_iou": "1.5", "regressor_l2": "-5", "seed": "s",
}
FLOAT_FIELDS = [
    "theta", "bandwidth", "bandwidth_grid", "learning_rate", "weight_decay", "nms_iou",
    "regressor_l2",
]


def shown_default(value):
    """A setting's default as README's settings table writes it."""
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(f"{v:g}" for v in value)
    return str(value)


class TestSettingsSurface:
    """Every setting has one config-file key and one CLI flag, and both
    parse the same text the same way."""

    def test_table_covers_every_field(self):
        names = [s.field for s in SETTINGS]
        assert sorted(names) == sorted(f.name for f in dataclasses.fields(PipelineConfig))
        assert len({s.key for s in SETTINGS}) == len({s.flag for s in SETTINGS}) == len(names)
        assert set(SAMPLE_TEXT) == set(names)
        assert set(BAD_TEXT) == set(names) - {"manifest", "out_dir"}
        assert set(FLOAT_FIELDS) == {
            f.name for f in dataclasses.fields(PipelineConfig) if "float" in str(f.type)
        }

    def test_readme_table_lists_every_setting_in_order(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme[readme.index("| key | flag | default | meaning |"):].split("\n\n")[0]
        rows = [
            tuple(cell.strip().strip("`") for cell in line.strip("|").split(" | ")[:3])
            for line in table.splitlines()[2:]
        ]
        defaults = {f.name: f.default for f in dataclasses.fields(PipelineConfig)}
        assert rows == [(s.key, s.flag, shown_default(defaults[s.field])) for s in SETTINGS]

    @staticmethod
    def from_flags(*argv):
        return cli._config_from_args(cli.build_parser().parse_args(["mine", *argv]))

    @pytest.mark.parametrize("setting", SETTINGS, ids=lambda s: s.field)
    def test_file_key_and_flag_agree(self, setting, tmp_path):
        text = SAMPLE_TEXT[setting.field]
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{setting.key} = {text}\n")
        from_file = build_config(str(cfg_file))
        assert from_file == self.from_flags(setting.flag, text)
        assert from_file != PipelineConfig()

    def test_trailing_comma_grid_agrees(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("b_grid = 1,2,\n")
        from_flag = self.from_flags("--bandwidth-grid", "1,2,")
        assert from_flag == build_config(str(cfg_file))
        assert from_flag.bandwidth_grid == (1.0, 2.0)

    @pytest.mark.parametrize("field", sorted(BAD_TEXT))
    def test_bad_value_is_a_config_error_from_either_source(
        self, field, synth_dir, tmp_path, capsys
    ):
        setting = next(s for s in SETTINGS if s.field == field)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{setting.key} = {BAD_TEXT[field]}\n")
        out = tmp_path / "out"
        common = ["mine", "--manifest", synth_dir / "manifest.json", "--out", out]
        for extra in (["--config", cfg_file], [setting.flag, BAD_TEXT[field]]):
            assert run_cli(*common, *extra) == 1
            err = json.loads(capsys.readouterr().err.strip())
            assert err["error"] == "ConfigInvalidError"
        assert not out.exists()  # refused before any stage ran

    @pytest.mark.parametrize("text", ["nan", "inf"])
    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_non_finite_value_refused_naming_its_key(
        self, field, text, synth_dir, tmp_path, capsys
    ):
        setting = next(s for s in SETTINGS if s.field == field)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{setting.key} = {text}\n")
        out = tmp_path / "out"
        common = ["pipeline", "--manifest", synth_dir / "manifest.json", "--out", out,
                  "--seed", 0]
        for extra in (["--config", cfg_file], [setting.flag, text]):
            assert run_cli(*common, *extra) == 1
            err = json.loads(capsys.readouterr().err.strip())
            assert err["error"] == "ConfigInvalidError"
            assert err["message"].startswith(f"{setting.key} must be")
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--nms-iou", "1.5"), ("--regressor-l2", "-5")])
    def test_pipeline_refuses_bad_value_before_any_stage(
        self, flag, value, synth_dir, tmp_path, capsys
    ):
        out = tmp_path / "out"
        code = run_cli("pipeline", "--manifest", synth_dir / "manifest.json", "--out", out,
                       "--seed", 0, flag, value)
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigInvalidError"
        assert not out.exists()


def run_stage_chain(manifest, out, frame_stride, lsvm_rounds=1):
    """Every stage subcommand in pipeline order at a fixed bandwidth of 2."""
    common = ["--manifest", manifest, "--out", out,
              "--target-cells", 30, "--frame-stride", frame_stride]
    assert run_cli("mine", *common) == 0
    assert run_cli("match", *common) == 0
    assert run_cli("vote", *common, "--seed", 7, "--bandwidth", 2.0) == 0
    assert run_cli("train", *common, "--seed", 7, "--lsvm-rounds", lsvm_rounds) == 0
    assert run_cli("eval", *common) == 0


class TestCliStages:
    def test_full_stage_chain_matches_pipeline(self, synth_dir, tmp_path):
        manifest = synth_dir / "manifest.json"
        chained = tmp_path / "chained"
        run_stage_chain(manifest, chained, 1)

        piped = tmp_path / "piped"
        cfg = PipelineConfig(
            manifest=str(manifest), out_dir=str(piped), seed=7, **PROFILE
        )
        doc = run_pipeline(cfg)
        chained_doc = json.loads((chained / "metrics.json").read_text())
        piped_doc = json.loads((piped / "metrics.json").read_text())
        assert chained_doc == piped_doc
        assert doc["mean_corloc"] == piped_doc["mean_corloc"]
        assert_same_outputs(chained, piped)

    def test_two_videos_at_stride_two_chain_matches_pipeline(self, tmp_path, monkeypatch):
        """The stage chain at stride 2 writes what a pipeline run writes,
        and the run opens only the sampled frames."""
        gen_dataset(SynthConfig(seed=0, n_videos=2, frames_per_video=7), tmp_path / "data")
        manifest = tmp_path / "data" / "manifest.json"
        chained = tmp_path / "chained"
        run_stage_chain(manifest, chained, 2)

        reads = []
        original = dataio.read_fmap
        monkeypatch.setattr(dataio, "read_fmap", lambda path: reads.append(Path(path)) or original(path))
        piped = tmp_path / "piped"
        run_pipeline(PipelineConfig(
            manifest=str(manifest), out_dir=str(piped), seed=7, target_cells=30,
            frame_stride=2, bandwidth=2.0,
        ))
        assert_same_outputs(chained, piped)
        assert json.loads((piped / "reports" / "match.json").read_text())["n_transfers"] > 0
        videos = dataio.load_manifest(manifest).videos
        assert len(videos) == 2
        frames = {tmp_path / "data" / p: i for paths in videos.values() for i, p in enumerate(paths)}
        read_frames = [frames[p] for p in reads if p in frames]
        assert read_frames and all(i % 2 == 0 for i in read_frames)

    def test_cv_stage_chain_matches_pipeline(self, synth_dir, tmp_path, capsys, monkeypatch):
        """vote without a bandwidth cross-validates the grid, voting each
        image once per grid bandwidth, and writes the winner's pseudo GT;
        the stages after it write what a pipeline run writes."""
        manifest = synth_dir / "manifest.json"
        chained = tmp_path / "chained"
        common = ["--manifest", manifest, "--out", chained,
                  "--target-cells", 30, "--frame-stride", 1]
        assert run_cli("mine", *common) == 0
        assert run_cli("match", *common) == 0
        votes = []
        select = pipeline.select_pseudo_gt
        monkeypatch.setattr(
            pipeline, "select_pseudo_gt", lambda *a, **kw: votes.append(1) or select(*a, **kw)
        )
        # on this data every grid bandwidth votes differently and the best is
        # neither end of the grid
        grid = "1,2,4,8"
        assert run_cli("vote", *common, "--seed", 7, "--bandwidth-grid", grid) == 0
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert printed["stage"] == "vote"
        cv = json.loads((chained / pipeline.BANDWIDTH_REPORT).read_text())
        best_b = cv["best_b"]
        assert printed["bandwidth"] == best_b and printed["ap_per_b"] == cv["ap_per_b"]
        n_images = len(dataio.read_transfer_corners(chained / pipeline.TRANSFERS))
        assert n_images > 0 and len(votes) == len(grid.split(",")) * n_images
        assert run_cli("train", *common, "--seed", 7) == 0
        assert run_cli("eval", *common) == 0

        piped = tmp_path / "piped"
        run_pipeline(PipelineConfig(
            manifest=str(manifest), out_dir=str(piped), seed=7, target_cells=30,
            frame_stride=1, bandwidth_grid=(1.0, 2.0, 4.0, 8.0),
        ))
        assert json.loads((piped / "reports" / "pipeline.json").read_text())["bandwidth"] == best_b
        assert_same_outputs(chained, piped)

    def test_vote_with_unreachable_theta_writes_empty_set(self, synth_dir, tmp_path):
        manifest = synth_dir / "manifest.json"
        out = tmp_path / "out"
        common = ["--manifest", manifest, "--out", out,
                  "--target-cells", 30, "--frame-stride", 1]
        assert run_cli("mine", *common) == 0
        assert run_cli("match", *common) == 0
        assert run_cli("vote", *common, "--seed", 7, "--bandwidth", 2.0, "--theta", 1e9) == 0
        assert dataio.read_pseudo_gts(out / "pseudo_gt.jsonl") == {}

    def test_vote_at_a_set_bandwidth_reads_no_selections(self, synth_dir, finished, tmp_path):
        """With ``--bandwidth`` vote votes at it alone: it needs no
        selections.jsonl and writes no bandwidth report."""
        out = shutil.copytree(finished, tmp_path / "o")
        (out / pipeline.SELECTIONS).unlink()
        assert run_cli("vote", "--manifest", synth_dir / "manifest.json", "--out", out,
                       "--seed", 7, "--bandwidth", 2.0) == 0
        assert not (out / pipeline.BANDWIDTH_REPORT).exists()
        report = json.loads((out / "reports" / "vote.json").read_text())
        assert report["bandwidth"] == 2.0 and "ap_per_b" not in report
        kept = (out / pipeline.PSEUDO_GT).read_bytes()
        assert kept == (finished / pipeline.PSEUDO_GT).read_bytes()

    def test_vote_at_a_set_bandwidth_removes_a_stale_bandwidth_report(
        self, synth_dir, tmp_path
    ):
        """A run at a set bandwidth into the ``--out`` of a cross-validating
        run leaves no ``bandwidth_report.json`` naming another bandwidth."""
        out = tmp_path / "o"
        common = ["--manifest", synth_dir / "manifest.json", "--out", out,
                  "--target-cells", 30, "--frame-stride", 2, "--seed", 7]
        assert run_cli("pipeline", *common, "--bandwidth-grid", "1,2,4,8") == 0
        assert json.loads((out / pipeline.BANDWIDTH_REPORT).read_text())["best_b"] != 8.0
        assert run_cli("pipeline", *common, "--bandwidth", 8) == 0
        assert json.loads((out / "reports" / "vote.json").read_text())["bandwidth"] == 8.0
        assert not (out / pipeline.BANDWIDTH_REPORT).exists()

    def test_vote_without_transfers_writes_empty_set(self, synth_dir, tmp_path):
        """An image with no transferred box has no vote space: the reader
        yields only images with rows, so mean-shift never sees zero points."""
        out = tmp_path / "out"
        out.mkdir()
        (out / pipeline.TRANSFERS).write_text("")
        assert run_cli("vote", "--manifest", synth_dir / "manifest.json", "--out", out,
                       "--seed", 7, "--bandwidth", 2.0) == 0
        assert dataio.read_pseudo_gts(out / pipeline.PSEUDO_GT) == {}
        report = json.loads((out / "reports" / "vote.json").read_text())
        assert report["n_images_with_transfers"] == 0

    def test_missing_input_gives_error_json_and_nonzero_exit(self, synth_dir, tmp_path, capsys):
        manifest = synth_dir / "manifest.json"
        code = run_cli(
            "vote", "--manifest", manifest, "--out", tmp_path / "x", "--seed", 7, "--bandwidth", 2.0
        )
        assert code != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "MissingInputError"

    def test_synth_subcommand_writes_dataset(self, tmp_path):
        out = tmp_path / "ds"
        assert run_cli("synth", "--out", out, "--seed", 5, "--n-videos", 1,
                       "--frames-per-video", 4) == 0
        assert (out / "manifest.json").exists()

    def test_vote_requires_seed(self, synth_dir, tmp_path, capsys):
        """Without a bandwidth vote trains detectors, so it takes the run's
        seed rather than defaulting one."""
        with pytest.raises(SystemExit) as exc:
            run_cli("vote", "--manifest", synth_dir / "manifest.json", "--out", tmp_path / "v")
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    def test_heatmaps_written_when_requested(self, synth_dir, tmp_path):
        manifest = synth_dir / "manifest.json"
        out = tmp_path / "o"
        common = ["--manifest", manifest, "--out", out,
                  "--target-cells", 30, "--frame-stride", 1]
        run_cli("mine", *common)
        run_cli("match", *common)
        run_cli("vote", *common, "--seed", 7, "--bandwidth", 2.0, "--heatmaps", out / "heat")
        pgms = list((out / "heat").glob("*.pgm"))
        assert pgms and pgms[0].read_bytes().startswith(b"P5\n")

    def test_heatmap_write_failure_is_an_io_failure(self, synth_dir, finished, tmp_path, capsys):
        """A heatmap that cannot be written fails like every other write."""
        out = shutil.copytree(finished, tmp_path / "o")
        for image_id in dataio.read_transfer_corners(out / pipeline.TRANSFERS):
            (out / "heat" / f"{image_id}.pgm").mkdir(parents=True)  # a directory in the way
        code = run_cli("vote", "--manifest", synth_dir / "manifest.json", "--out", out,
                       "--seed", 7, "--bandwidth", 2.0, "--heatmaps", out / "heat")
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "IoFailure"


# Each stage subcommand's input artifacts, the files under --out its stage
# reads (vote without a bandwidth).
ARTIFACTS = {
    "mine": [],
    "match": ["regions.jsonl"],
    "vote": ["selections.jsonl", "transfers.jsonl"],
    "train": ["pseudo_gt.jsonl"],
    "eval": [
        "pseudo_gt.jsonl", "pseudo_gt_updated.jsonl", "detections_initial.jsonl",
        "detections_updated.jsonl", "detections_bboxreg.jsonl",
    ],
}
HEATMAPS = ["vote", "pipeline"]  # the subcommands that take --heatmaps
STAGE_ARGS = {
    "vote": ["--seed", 7, "--bandwidth-grid", "1,2"],
    "train": ["--seed", 7],
}
READERS = (
    "read_regions", "read_selections", "read_transfer_corners", "read_pseudo_gts",
    "read_detections",
)


class TestCommandTable:
    """``cli.COMMANDS`` is the one list of subcommands and their flags, and a
    stage reads its input artifacts under ``--out`` and nowhere else."""

    @pytest.fixture(scope="class")
    def run_dir(self, synth_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("run")
        run_pipeline(PipelineConfig(
            manifest=str(synth_dir / "manifest.json"), out_dir=str(out), seed=7, **PROFILE
        ))
        return out

    @staticmethod
    def spy(monkeypatch) -> list[Path]:
        read = []
        for name in READERS:
            def recorded(path, *args, _original=getattr(dataio, name), **kwargs):
                read.append(Path(path))
                return _original(path, *args, **kwargs)

            monkeypatch.setattr(dataio, name, recorded)
        return read

    def test_table_pins_every_stage_flag(self):
        assert [c.name for c in cli.COMMANDS] == [*ARTIFACTS, "pipeline"]
        assert {c.name for c in cli.COMMANDS if c.heatmaps} == set(HEATMAPS)
        parser = cli.build_parser()
        for name in HEATMAPS:
            args = parser.parse_args([name, "--seed", "1", "--heatmaps", "given"])
            assert args.heatmaps == "given"

    def test_stage_keywords_are_its_flags(self):
        """A stage takes by keyword only ``heatmaps``, and only when its
        subcommand has the flag, so no stage takes another's result."""
        for command in cli.COMMANDS:
            params = inspect.signature(getattr(pipeline, command.stage)).parameters
            flags = {"heatmaps"} if command.heatmaps else set()
            assert set(params) - {"ds", "cfg"} == flags, command.name

    @pytest.mark.parametrize("name", sorted(ARTIFACTS))
    def test_stage_reads_its_input_files_under_out(
        self, name, synth_dir, run_dir, tmp_path, monkeypatch
    ):
        out = tmp_path / "out"
        shutil.copytree(run_dir, out)
        common = ["--manifest", synth_dir / "manifest.json", "--out", out,
                  "--target-cells", 30, "--frame-stride", 1, *STAGE_ARGS.get(name, [])]
        read = self.spy(monkeypatch)
        assert run_cli(name, *common) == 0
        assert sorted(read) == sorted(out / f for f in ARTIFACTS[name])

    def test_eval_scores_the_updated_pseudo_gt_when_it_exists(
        self, synth_dir, run_dir, tmp_path
    ):
        out = tmp_path / "out"
        shutil.copytree(run_dir, out)
        common = ["--manifest", synth_dir / "manifest.json", "--out", out]
        assert run_cli("eval", *common) == 0
        assert (out / pipeline.METRICS).read_bytes() == (run_dir / pipeline.METRICS).read_bytes()
        assert json.loads((out / pipeline.METRICS).read_text())["primary"]["pseudo_gt"] == "updated"

        (out / pipeline.PSEUDO_GT_UPDATED).unlink()
        assert run_cli("eval", *common) == 0
        doc = json.loads((out / pipeline.METRICS).read_text())
        assert doc["primary"]["pseudo_gt"] == "initial"
        assert "corloc_all" not in doc["ablation"]["updated"]

    @pytest.mark.parametrize("missing", ["--manifest", "--out"])
    @pytest.mark.parametrize("command", [c.name for c in cli.COMMANDS])
    def test_missing_manifest_or_out_is_a_missing_input(
        self, command, missing, synth_dir, tmp_path, capsys
    ):
        given = {"--manifest": synth_dir / "manifest.json", "--out": tmp_path / "o"}
        del given[missing]
        args = STAGE_ARGS.get(command, ["--seed", 7] if command == "pipeline" else [])
        assert run_cli(command, *[a for pair in given.items() for a in pair], *args) == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "MissingInputError"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("stage", [
        "run_mine", "run_match", "run_vote", "run_train", "run_eval",
    ])
    def test_stage_without_out_dir_is_refused(self, stage, synth_dir):
        ds = dataio.load_manifest(synth_dir / "manifest.json")
        with pytest.raises(MissingInputError, match="needs out_dir"):
            getattr(pipeline, stage)(ds, PipelineConfig(bandwidth=2.0))


class TestFmapChannels:
    """Every feature map of a dataset has one channel count; a map with
    another is refused naming its file."""

    @staticmethod
    def add_channel(data, relpath) -> tuple[Path, int]:
        path = data / relpath
        fmap = featmap.read_fmap(path)
        featmap.write_fmap(path, np.concatenate([fmap, fmap[:, :, :1]], axis=2))
        return path, fmap.shape[2]

    @staticmethod
    def refused(capsys, path, channels):
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigInvalidError"
        assert err["message"].startswith(f"{path}: {channels + 1} channels, but ")
        assert err["message"].endswith(f".fmap has {channels}")

    def test_image_map(self, synth_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        path, channels = self.add_channel(data, "fmaps/pos_003.fmap")
        code = run_cli("mine", "--manifest", data / "manifest.json", "--out", tmp_path / "o")
        assert code == 1
        self.refused(capsys, path, channels)

    def test_video_frame(self, synth_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        common = ["--manifest", data / "manifest.json", "--out", tmp_path / "o",
                  "--target-cells", 30, "--frame-stride", 1]
        assert run_cli("mine", *common) == 0
        capsys.readouterr()
        path, channels = self.add_channel(data, "fmaps/vid_000/frame_003.fmap")
        assert run_cli("match", *common) == 1
        self.refused(capsys, path, channels)


def test_non_finite_image_map_refused_naming_its_file(synth_dir, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    path = data / "fmaps/pos_002.fmap"
    raw = bytearray(path.read_bytes())
    raw[17:21] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    code = run_cli("mine", "--manifest", data / "manifest.json", "--out", tmp_path / "o")
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigInvalidError"
    assert err["message"] == f"{path}: feature map contains non-finite values"


class TestEvalCli:
    def test_empty_predictions_include_missed_corloc_zero(self, synth_dir, tmp_path):
        gt = dataio.read_gt(synth_dir / "gt.jsonl")["obj"]
        assert corloc({}, gt, include_missed=True) == 0.0

    def test_gt_row_without_boxes_refused(self, synth_dir, finished, tmp_path, capsys):
        """An image listed in gt.jsonl with no boxes is refused by name
        rather than scored."""
        data = shutil.copytree(synth_dir, tmp_path / "data")
        rows = list(dataio.read_jsonl(data / "gt.jsonl"))
        assert rows[0]["image_id"] == "pos_000"
        rows[0]["boxes"] = []
        dataio.write_jsonl(data / "gt.jsonl", rows)
        out = shutil.copytree(finished, tmp_path / "out")
        assert run_cli("eval", "--manifest", data / "manifest.json", "--out", out) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigInvalidError"
        assert err["message"].startswith(f"{data / 'gt.jsonl'} line 1: bad value for key 'boxes'")

    def test_gt_without_the_run_category_refused(self, synth_dir, finished, tmp_path, capsys):
        """A gt.jsonl with no row of the manifest's category is refused
        rather than scored against no box."""
        data = shutil.copytree(synth_dir, tmp_path / "data")
        rows = [{**row, "category": "other"} for row in dataio.read_jsonl(data / "gt.jsonl")]
        dataio.write_jsonl(data / "gt.jsonl", rows)
        out = shutil.copytree(finished, tmp_path / "out")
        assert run_cli("eval", "--manifest", data / "manifest.json", "--out", out) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {
            "error": "MissingInputError", "message": "gt.jsonl has no boxes for category 'obj'",
        }

    def test_eval_cli_on_empty_pseudo_gt(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        dataio.write_pseudo_gts(out / "pseudo_gt.jsonl", [])
        dataio.write_detections(out / "detections_initial.jsonl", [])
        code = run_cli(
            "eval", "--manifest", synth_dir / "manifest.json", "--out", out,
        )
        assert code == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["categories"]["obj"]["corloc_all"] == 0.0
        assert doc["categories"]["obj"]["corloc_found"] == 0.0

    def test_top_level_repeats_the_category_and_the_primary_ablation_rows(self, finished):
        doc = json.loads((finished / pipeline.METRICS).read_text())
        assert doc["primary"] == {"pseudo_gt": "updated", "detections": "updated_bboxreg"}
        [scores] = doc["categories"].values()
        pgt = doc["ablation"][doc["primary"]["pseudo_gt"]]
        det = doc["ablation"][doc["primary"]["detections"]]
        top = (doc["mean_corloc"], doc["mean_corloc_found"], doc["map"])
        assert top == (scores["corloc_all"], scores["corloc_found"], scores["ap"])
        assert top == (pgt["corloc_all"], pgt["corloc_found"], det["ap"])
        assert doc["error_histogram"] == scores["error_histogram"]
        assert sum(doc["error_histogram"].values()) == pgt["n_pseudo_gt"]


class TestTrainStage:
    """``train`` turns the pseudo GT it reads into every detector artifact in
    one call: it reads none of the files it writes, and its latent updates
    stop at the first round that changes no pseudo GT."""

    WRITTEN = (
        pipeline.MODEL_INITIAL, pipeline.DETECTIONS_INITIAL, pipeline.PSEUDO_GT_UPDATED,
        pipeline.MODEL_UPDATED, pipeline.DETECTIONS_UPDATED, pipeline.REGRESSOR,
        pipeline.DETECTIONS_BBOXREG,
    )

    @staticmethod
    def train(synth_dir, out, *flags):
        assert run_cli("train", "--manifest", synth_dir / "manifest.json", "--out", out,
                       "--seed", 0, "--target-cells", 30, "--frame-stride", 1, *flags) == 0

    def assert_written_as(self, out, finished):
        for name in self.WRITTEN:
            assert (out / name).read_bytes() == (finished / name).read_bytes(), name

    @pytest.mark.parametrize("stale", ["garbage", "absent"])
    def test_train_alone_writes_the_pipeline_bytes(self, synth_dir, finished, tmp_path, stale):
        out = shutil.copytree(finished, tmp_path / "out")
        for name in self.WRITTEN:
            if stale == "garbage":
                (out / name).write_bytes(b"\xff not an artifact\n")
            else:
                (out / name).unlink()
        self.train(synth_dir, out)
        self.assert_written_as(out, finished)

    def test_shuffled_pseudo_gt_gives_the_same_bytes(self, synth_dir, finished, tmp_path):
        rows = list(dataio.read_jsonl(finished / pipeline.PSEUDO_GT))
        shuffled = rows[:]
        random.Random(5).shuffle(shuffled)
        assert shuffled != rows
        out = tmp_path / "out"
        out.mkdir()
        dataio.write_jsonl(out / pipeline.PSEUDO_GT, shuffled)
        self.train(synth_dir, out)
        self.assert_written_as(out, finished)

    def test_training_on_the_updated_pseudo_gt_gives_the_updated_detector(
        self, synth_dir, finished, tmp_path
    ):
        """The detector depends on the pseudo GT alone, and the pipeline's
        updated pseudo GT is a fixed point of the update: trained on it,
        train's initial detector is the pipeline's updated one and its one
        update round changes nothing."""
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(finished / pipeline.PSEUDO_GT_UPDATED, out / pipeline.PSEUDO_GT)
        self.train(synth_dir, out)
        for ours, theirs in (
            (pipeline.MODEL_INITIAL, pipeline.MODEL_UPDATED),
            (pipeline.DETECTIONS_INITIAL, pipeline.DETECTIONS_UPDATED),
            *((name, name) for name in self.WRITTEN[2:]),
        ):
            assert (out / ours).read_bytes() == (finished / theirs).read_bytes(), ours
        update = json.loads((out / "reports" / "train.json").read_text())["update"]
        assert (update["n_rounds"], update["n_filled"], update["n_moved"]) == (1, 0, 0)

    @pytest.mark.parametrize("lsvm_rounds", [2, 3])
    def test_stage_chain_matches_pipeline_over_rounds(
        self, synth_dir, tmp_path, monkeypatch, lsvm_rounds
    ):
        """The pipeline runs every round inside its one ``train`` call."""
        manifest = synth_dir / "manifest.json"
        chained = tmp_path / "chained"
        run_stage_chain(manifest, chained, 1, lsvm_rounds=lsvm_rounds)
        trains = []
        TestEachIntermediateOnce.count(monkeypatch, pipeline, "run_train", trains)
        piped = tmp_path / "piped"
        run_pipeline(PipelineConfig(
            manifest=str(manifest), out_dir=str(piped), seed=7, lsvm_rounds=lsvm_rounds,
            **PROFILE,
        ))
        assert len(trains) == 1
        assert_same_outputs(chained, piped)

    def run_rounds(self, synth_dir, finished, tmp_path, monkeypatch, lsvm_rounds, update):
        """``run_train`` on the pipeline's pseudo GT with ``update`` in place
        of the latent update: its report, the pseudo-GT sets the update was
        given, and the number of detectors fit."""
        given, fits = [], []

        def counted(detections, positives, pseudo_gts):
            given.append(pseudo_gts)
            return update(pseudo_gts)

        monkeypatch.setattr(pipeline, "lsvm_update", counted)
        TestEachIntermediateOnce.count(monkeypatch, pipeline, "train_linear", fits)
        shutil.copy(finished / pipeline.PSEUDO_GT, tmp_path / pipeline.PSEUDO_GT)
        report = pipeline.run_train(
            dataio.load_manifest(synth_dir / "manifest.json"),
            PipelineConfig(out_dir=str(tmp_path), seed=0, lsvm_rounds=lsvm_rounds),
        )
        return report, given, len(fits)

    @pytest.mark.parametrize("lsvm_rounds", [1, 2, 3])
    def test_rounds_that_change_the_pseudo_gt_all_run(
        self, synth_dir, finished, tmp_path, monkeypatch, lsvm_rounds
    ):
        """An update that changes the pseudo GT every round runs all
        ``lsvm_rounds`` rounds, each on the last round's pseudo GT, and a
        detector is trained after each."""
        def bump(pseudo_gts):
            return {i: dataclasses.replace(g, vote=g.vote + 1.0) for i, g in pseudo_gts.items()}

        report, given, n_fits = self.run_rounds(
            synth_dir, finished, tmp_path, monkeypatch, lsvm_rounds, bump
        )
        before = dataio.read_pseudo_gts(finished / pipeline.PSEUDO_GT)
        assert [{i: g.vote - before[i].vote for i, g in gts.items()} for gts in given] == [
            dict.fromkeys(before, float(n)) for n in range(lsvm_rounds)
        ]
        assert n_fits == lsvm_rounds + 1
        assert report["update"]["n_rounds"] == lsvm_rounds
        after = dataio.read_pseudo_gts(tmp_path / pipeline.PSEUDO_GT_UPDATED)
        assert after == bump(given[-1])

    @pytest.mark.parametrize("lsvm_rounds", [1, 3])
    def test_a_round_that_changes_nothing_ends_the_rounds(
        self, synth_dir, finished, tmp_path, monkeypatch, lsvm_rounds
    ):
        """An update that keeps the pseudo GT ends the rounds at once: one
        detector is fit, and the updated artifacts are the initial ones."""
        report, given, n_fits = self.run_rounds(
            synth_dir, finished, tmp_path, monkeypatch, lsvm_rounds, dict
        )
        before = dataio.read_pseudo_gts(finished / pipeline.PSEUDO_GT)
        assert given == [before] and n_fits == 1
        assert report["update"] == {
            "n_rounds": 1, "n_before": len(before), "n_after": len(before),
            "n_filled": 0, "n_moved": 0,
        }
        assert report["updated"] == report["initial"]
        assert dataio.read_pseudo_gts(tmp_path / pipeline.PSEUDO_GT_UPDATED) == before
        for updated, initial in (
            (pipeline.MODEL_UPDATED, pipeline.MODEL_INITIAL),
            (pipeline.DETECTIONS_UPDATED, pipeline.DETECTIONS_INITIAL),
        ):
            assert (tmp_path / updated).read_bytes() == (tmp_path / initial).read_bytes()


class TestReports:
    def test_stage_reports_written(self, synth_dir, tmp_path):
        out = tmp_path / "rep"
        cfg = PipelineConfig(
            manifest=str(synth_dir / "manifest.json"), out_dir=str(out), seed=3, **PROFILE
        )
        run_pipeline(cfg)
        names = {p.name for p in (out / "reports").glob("*.json")}
        assert names == {"mine.json", "match.json", "vote.json", "train.json", "eval.json",
                         "pipeline.json"}
        for path in (out / "reports").glob("*.json"):
            assert json.loads(path.read_text())["stage"] == path.stem

    def test_train_report_counts_what_train_wrote(self, finished):
        """``train.json`` keeps the counts of the initial detector, the latent
        update, the updated detector and the box regression."""
        report = json.loads((finished / "reports" / "train.json").read_text())
        before = dataio.read_pseudo_gts(finished / pipeline.PSEUDO_GT)
        after = dataio.read_pseudo_gts(finished / pipeline.PSEUDO_GT_UPDATED)
        assert report["update"] == {
            "n_rounds": 1,
            "n_before": len(before),
            "n_after": len(after),
            "n_filled": len(set(after) - set(before)),
            "n_moved": sum(after[i].box != gt.box for i, gt in before.items()),
        }
        assert report["update"]["n_filled"] + report["update"]["n_moved"] > 0
        for section, name in (
            ("initial", pipeline.DETECTIONS_INITIAL),
            ("updated", pipeline.DETECTIONS_UPDATED),
            ("regress", pipeline.DETECTIONS_BBOXREG),
        ):
            assert report[section]["n_detections"] == len(dataio.read_detections(finished / name))
        assert report["initial"]["n_positives"] == len(before)
        assert report["updated"]["n_positives"] == len(after)
        assert report["regress"]["n_pairs"] > 0

    def test_rerun_overwrites_with_identical_semantics(self, synth_dir, tmp_path):
        out = tmp_path / "twice"
        cfg = PipelineConfig(
            manifest=str(synth_dir / "manifest.json"), out_dir=str(out), seed=3, **PROFILE
        )
        a = run_pipeline(cfg)
        b = run_pipeline(cfg)
        assert a == b


    def test_mine_report_counts_proposals_and_pairs(self, synth_dir, tmp_path):
        report = pipeline.run_mine(
            dataio.load_manifest(synth_dir / "manifest.json"),
            PipelineConfig(out_dir=str(tmp_path / "m")),
        )
        by_image = dataio.read_proposals(dataio.load_manifest(synth_dir / "manifest.json"))
        sizes = [len(props) for props in by_image.values()]
        total = sum(sizes)
        assert report["n_proposals"] == total == report["n_clusters"]
        # ordered cross-image pairs, counted independently of the closed form
        assert report["n_proposal_pairs"] == sum(
            len(by_image[a]) * len(by_image[b]) for a in by_image for b in by_image if a != b
        )
        saved = json.loads((tmp_path / "m" / "reports" / "mine.json").read_text())
        assert saved["n_proposal_pairs"] == report["n_proposal_pairs"] > 0

    def test_bandwidth_report_is_byte_reproducible(self, synth_dir, tmp_path):
        manifest = synth_dir / "manifest.json"
        out = tmp_path / "cv"
        common = ["--manifest", manifest, "--out", out,
                  "--target-cells", 30, "--frame-stride", 1]
        assert run_cli("mine", *common) == 0
        assert run_cli("match", *common) == 0
        runs = []
        for _ in range(2):
            assert run_cli("vote", *common, "--seed", 7, "--bandwidth-grid", "1,2") == 0
            runs.append((out / pipeline.BANDWIDTH_REPORT).read_bytes())
        assert runs[0] == runs[1]
        assert "elapsed_s" not in json.loads(runs[0])
        assert "elapsed_s" in json.loads((out / "reports" / "vote.json").read_text())


class TestEachIntermediateOnce:
    """A pipeline run with a bandwidth grid parses each input once, votes
    once per grid bandwidth and trains once per distinct pseudo-GT set."""

    GRID = (1.0, 2.0, 4.0)

    @staticmethod
    def count(monkeypatch, module, name, calls, record=None):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append(record(*args, result=result) if record else None)
            return result

        monkeypatch.setattr(module, name, counted)

    @pytest.mark.parametrize("lsvm_rounds", [1, 2, 3])
    def test_counts(self, synth_dir, tmp_path, monkeypatch, lsvm_rounds):
        parsed, manifests, votes, fits, videos = [], [], [], [], []
        scans, fmap_reads, updates = [], [], []
        self.count(monkeypatch, dataio, "read_proposals", parsed)
        self.count(monkeypatch, dataio, "load_manifest", manifests)
        self.count(monkeypatch, dataio.Dataset, "load_video_frames", videos)
        self.count(monkeypatch, dataio, "read_fmap", fmap_reads,
                   record=lambda path, result: Path(path))
        self.count(
            monkeypatch, transfer, "scan_queries", scans,
            record=lambda queries, fmap, top_n, result: len(queries),
        )
        self.count(
            monkeypatch, pipeline, "select_pseudo_gt", votes,
            record=lambda space, result: (space.bandwidth, result),
        )
        self.count(monkeypatch, pipeline, "train_linear", fits)
        self.count(
            monkeypatch, pipeline, "lsvm_update", updates,
            record=lambda detections, positives, before, result: result,
        )
        out = tmp_path / "run"
        cfg = PipelineConfig(
            manifest=str(synth_dir / "manifest.json"), out_dir=str(out), seed=7,
            target_cells=30, frame_stride=1, bandwidth_grid=self.GRID,
            lsvm_rounds=lsvm_rounds,
        )
        run_pipeline(cfg)
        assert len(parsed) == 1
        assert len(manifests) == 1
        n_images = len(dataio.read_transfer_corners(out / pipeline.TRANSFERS))
        assert n_images > 0
        assert len(votes) == len(self.GRID) * n_images
        # the synthetic data has negative images, so a bandwidth with any
        # pseudo GT has a training pool; the winner's set trains the initial
        # detector, and an update round that changes nothing trains no more
        voted = {b: {} for b in self.GRID}
        for b, gt in votes:
            if gt is not None:
                voted[b][gt.image_id] = gt
        assert all(voted.values())
        # on this data the first update round changes the pseudo GT and the
        # second changes nothing, which ends the rounds
        assert len(updates) == min(lsvm_rounds, 2)
        assert updates[0] != dataio.read_pseudo_gts(out / pipeline.PSEUDO_GT)
        assert all(gts == updates[0] for gts in updates)
        report = json.loads((out / "reports" / "train.json").read_text())
        assert report["update"]["n_rounds"] == len(updates)
        trained = {tuple(sorted(gts.items())) for gts in [*voted.values(), *updates]}
        assert len(fits) == len(trained)
        ds = dataio.load_manifest(synth_dir / "manifest.json")
        frames = [ds.root / p for paths in ds.videos.values() for p in paths]
        # one scan per sampled frame (stride 1: every frame) covers every
        # region, so each (region, frame) pair is scored exactly once
        n_regions = len(dataio.read_regions(out / pipeline.REGIONS))
        assert n_regions > 0
        assert scans == [n_regions] * len(frames)
        # match and cross-validation each open every video and read each of
        # its frames once; match selects each frame's track in its own scan
        assert len(videos) == 2 * len(ds.videos)
        assert Counter(p for p in fmap_reads if p in frames) == {p: 2 for p in frames}
        if lsvm_rounds > 1:
            # the rounds stopped at a fixed point, so one round writes the
            # same artifacts
            one = tmp_path / "one_round"
            run_pipeline(dataclasses.replace(cfg, out_dir=str(one), lsvm_rounds=1))

            def artifacts(root):
                files = (p for p in root.rglob("*") if p.is_file() and p.parent.name != "reports")
                return {p.relative_to(root): p.read_bytes() for p in files}

            assert artifacts(out) == artifacts(one)

    def test_stage_chain_reads_each_sampled_frame_once(self, synth_dir, tmp_path, monkeypatch):
        """``mine`` then ``match`` scan each sampled frame once: match
        selects the frame's track in the scan whose top hits it transfers."""
        reads = []
        self.count(monkeypatch, dataio, "read_fmap", reads, record=lambda path, result: Path(path))
        out = tmp_path / "o"
        common = ["--manifest", synth_dir / "manifest.json", "--out", out,
                  "--target-cells", 30, "--frame-stride", 2]
        assert run_cli("mine", *common) == 0
        assert run_cli("match", *common) == 0
        ds = dataio.load_manifest(synth_dir / "manifest.json")
        frames = {ds.root / p: i for paths in ds.videos.values() for i, p in enumerate(paths)}
        sampled = [p for p, i in frames.items() if i % 2 == 0]
        assert Counter(p for p in reads if p in frames) == {p: 1 for p in sampled}
        report = json.loads((out / "reports" / "match.json").read_text())
        selections = dataio.read_selections(out / pipeline.SELECTIONS)
        assert report["n_selections"] == len(selections) > 0
        assert {frame_idx for _, frame_idx in selections} <= {frames[p] for p in sampled}

    def test_match_writes_its_own_selections_over_another_stride(self, synth_dir, tmp_path):
        """``match`` after a stride-2 run in the same ``--out`` writes the
        selections and transfers of its own stride: what ``pipeline`` writes
        at that stride, not transfers through the stride-2 selections."""
        manifest = synth_dir / "manifest.json"
        out = tmp_path / "o"
        common = ["--manifest", manifest, "--out", out, "--target-cells", 30]
        assert run_cli("mine", *common) == 0
        assert run_cli("match", *common, "--frame-stride", 2) == 0
        stride_two = (out / pipeline.SELECTIONS).read_bytes()
        assert run_cli("match", *common, "--frame-stride", 1) == 0

        piped = tmp_path / "piped"
        run_pipeline(PipelineConfig(
            manifest=str(manifest), out_dir=str(piped), seed=7, **PROFILE
        ))
        for name in (pipeline.SELECTIONS, pipeline.TRANSFERS):
            assert (out / name).read_bytes() == (piped / name).read_bytes(), name
        assert (out / pipeline.SELECTIONS).read_bytes() != stride_two

    @pytest.mark.parametrize("match_stride", [2, 1])
    def test_cross_validation_scores_the_frames_match_selected(
        self, synth_dir, tmp_path, match_stride
    ):
        """After ``match``, ``vote`` cross-validates on the frames match
        selected, whatever its own ``--frame-stride``."""
        out = tmp_path / "o"
        common = ["--manifest", synth_dir / "manifest.json", "--out", out, "--target-cells", 30]
        assert run_cli("mine", *common) == 0
        assert run_cli("match", *common, "--frame-stride", match_stride) == 0
        written = {}
        for stride in (1, 2):
            assert run_cli("vote", *common, "--frame-stride", stride, "--seed", 7,
                           "--bandwidth-grid", "1,2,4,8") == 0
            report = json.loads((out / "reports" / "vote.json").read_text())
            report.pop("elapsed_s")
            files = (pipeline.BANDWIDTH_REPORT, pipeline.PSEUDO_GT)
            written[stride] = [report, *((out / name).read_bytes() for name in files)]
        assert written[1] == written[2]

    def test_no_sampled_frame(self, synth_dir, tmp_path, capsys):
        """A manifest without videos samples no frame: match fails with
        NoFramesError and writes neither selections.jsonl nor transfers.jsonl."""
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        doc = json.loads((data / "manifest.json").read_text())
        doc["videos"] = []
        (data / "manifest.json").write_text(json.dumps(doc))
        out = tmp_path / "o"
        common = ["--manifest", data / "manifest.json", "--out", out, "--target-cells", 30]
        assert run_cli("mine", *common) == 0
        assert dataio.read_regions(out / pipeline.REGIONS)
        capsys.readouterr()
        assert run_cli("match", *common) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "NoFramesError", "message": "no sampled frames in any video"}
        assert not (out / pipeline.SELECTIONS).exists()
        assert not (out / pipeline.TRANSFERS).exists()

    def test_winner_without_a_detector_trains_as_before(self, synth_dir, tmp_path):
        """No grid bandwidth finds a pseudo GT, so cross-validation trains
        nothing and the initial train stage fails on the empty pool itself."""
        cfg = PipelineConfig(
            manifest=str(synth_dir / "manifest.json"), out_dir=str(tmp_path / "run"),
            seed=7, target_cells=30, frame_stride=1, bandwidth_grid=(1.0, 2.0),
            theta=1e9,
        )
        with pytest.raises(EmptyPoolError, match="at least one positive"):
            run_pipeline(cfg)
        assert dataio.read_pseudo_gts(tmp_path / "run" / pipeline.PSEUDO_GT) == {}

    def test_grid_trials_equal_single_bandwidth_votes(self, synth_dir, tmp_path):
        """Cross-validation votes the whole grid in one ascent per image; each
        bandwidth's trial pseudo GT is what voting at that bandwidth alone
        finds, and the winner's is the pseudo GT vote writes."""
        grid = (1.0, 2.0, 4.0, 8.0)
        out = tmp_path / "run"
        cfg = PipelineConfig(
            manifest=str(synth_dir / "manifest.json"), out_dir=str(out), seed=7,
            target_cells=30, frame_stride=1, bandwidth_grid=grid,
        )
        ds = dataio.load_manifest(cfg.manifest)
        pipeline.run_mine(ds, cfg)
        pipeline.run_match(ds, cfg)
        best_b = pipeline.run_vote(ds, cfg)["bandwidth"]
        corners = dataio.read_transfer_corners(out / pipeline.TRANSFERS)
        voted = pipeline.vote_pseudo_gts(ds, corners, grid, cfg.theta)
        assert dataio.read_pseudo_gts(out / pipeline.PSEUDO_GT) == voted[best_b]
        trials = [voted[b] for b in grid]
        for b, trial in zip(grid, trials):
            alone = pipeline.vote_pseudo_gts(ds, corners, (b,), cfg.theta)
            assert trial == alone[b]
        # on this data every grid bandwidth votes differently
        assert all(trials[i] != trials[j] for i in range(len(grid)) for j in range(i))


class TestMemo:
    """``Dataset.memo`` reuses a result only for equal inputs."""

    def test_computed_once_per_distinct_args_and_failures_forgotten(self, synth_dir):
        ds = dataio.load_manifest(synth_dir / "manifest.json")
        calls = []

        def compute(dataset, x):
            calls.append(x)
            if x < 0:
                raise EmptyPoolError("negative")
            return [dataset, x]

        first = ds.memo(compute, 1)
        assert first == [ds, 1] and ds.memo(compute, 1) is first
        assert ds.memo(compute, 2) == [ds, 2]
        for _ in range(2):
            with pytest.raises(EmptyPoolError):
                ds.memo(compute, -1)
        assert calls == [1, 2, -1, -1]
        assert dataio.load_manifest(synth_dir / "manifest.json").memo(compute, 1) is not first

    def test_match_after_regions_change_scans_the_new_regions(self, synth_dir, tmp_path):
        cfg = PipelineConfig(
            manifest=str(synth_dir / "manifest.json"), out_dir=str(tmp_path / "run"),
            seed=7, **PROFILE,
        )
        ds = dataio.load_manifest(cfg.manifest)
        pipeline.run_mine(ds, cfg)
        regions = tmp_path / "run" / pipeline.REGIONS
        mined = dataio.read_regions(regions)
        pipeline.run_match(ds, cfg)
        all_regions = (tmp_path / "run" / pipeline.TRANSFERS).read_bytes()
        dataio.write_regions(regions, mined[: len(mined) // 2])
        pipeline.run_match(ds, cfg)

        fresh = tmp_path / "fresh"
        fresh.mkdir()
        shutil.copy(regions, fresh / pipeline.REGIONS)
        fresh_cfg = dataclasses.replace(cfg, out_dir=str(fresh))
        pipeline.run_match(dataio.load_manifest(cfg.manifest), fresh_cfg)
        for name in (pipeline.SELECTIONS, pipeline.TRANSFERS):
            assert (tmp_path / "run" / name).read_bytes() == (fresh / name).read_bytes()
        assert (tmp_path / "run" / pipeline.TRANSFERS).read_bytes() != all_regions


def per_proposal_images(ds):
    """image_id -> (label, [(prop_id, box, feature)]): proposals as the
    per-proposal stage code held them, parsed and pooled row by row."""
    images = {}
    for row in dataio.read_jsonl(ds.path("proposals")):
        label, props = images.setdefault(row["image_id"], (row["label"], []))
        box = BBox(*map(float, row["box"]))
        fmap = ds.load_image_fmap(row["image_id"])
        props.append((
            f"{row['image_id']}#{len(props)}",
            box,
            pool_one(fmap, box, ds.cell_stride),
        ))
    return {image_id: images[image_id] for image_id in sorted(images)}


def per_proposal_corpus(ds, images, pseudo_gts):
    feats, labels = [], []
    for image_id in sorted(images):
        label, props = images[image_id]
        if label == "pos":
            gt = pseudo_gts.get(image_id)
            if gt is None:
                continue
            fmap = ds.load_image_fmap(image_id)
            feats.append(pool_one(fmap, gt.box, ds.cell_stride))
            labels.append(1.0)
            for _pid, box, feature in props:
                if 0.1 <= iou(box, gt.box) <= 0.3:
                    feats.append(np.asarray(feature, dtype=np.float64))
                    labels.append(-1.0)
        else:
            for _pid, _box, feature in props:
                feats.append(np.asarray(feature, dtype=np.float64))
                labels.append(-1.0)
    return np.stack(feats), np.asarray(labels)


def per_proposal_detect(images, model, nms_iou):
    detections = []
    for image_id in sorted(images):
        _label, props = images[image_id]
        boxes = [box for _, box, _ in props]
        feats = np.stack([np.asarray(f, dtype=np.float64) for _, _, f in props])
        scores = model.score(feats)
        for i in nms(box_array(boxes), [float(s) for s in scores], nms_iou):
            detections.append((image_id, boxes[i], float(scores[i])))
    return detections


def per_proposal_lsvm_update(model, images, pseudo_gts, nms_iou):
    updated = {}
    for image_id in sorted(images):
        label, props = images[image_id]
        if label != "pos":
            continue
        existing = pseudo_gts.get(image_id)
        boxes = [box for _, box, _ in props]
        scores = model.score(np.stack([np.asarray(f, dtype=np.float64) for _, _, f in props]))
        keep = nms(box_array(boxes), [float(s) for s in scores], nms_iou)
        detections = [(boxes[i], float(scores[i])) for i in keep]
        if existing is None:
            box, score = detections[0]
            updated[image_id] = PseudoGT(image_id=image_id, box=box, vote=score, support=0,
                                         updated=True)
            continue
        eligible = [d for d in detections if iou(d[0], existing.box) >= 0.5]
        if not eligible or eligible[0][0] == existing.box:
            updated[image_id] = existing
        else:
            updated[image_id] = dataclasses.replace(existing, box=eligible[0][0], updated=True)
    for image_id, gt in pseudo_gts.items():
        updated.setdefault(image_id, gt)
    return updated


class TestArrayStagesMatchPerProposalCode:
    """Training, detection, latent update and regression read proposals as
    per-image arrays; they give exactly what the per-proposal loops gave."""

    @pytest.fixture()
    def inputs(self, synth_dir):
        ds = dataio.load_manifest(synth_dir / "manifest.json")
        gt = dataio.read_gt(synth_dir / "gt.jsonl")["obj"]
        # every other positive image gets its true box, shifted so that some
        # proposals fall in the hard-negative band; the rest have none
        pseudo_gts = {}
        for n, image_id in enumerate(sorted(gt)):
            if n % 2 == 0:
                b = gt[image_id][0]
                box = BBox(b.x_min + 0.5, b.y_min, b.x_max + 0.5, b.y_max + 0.25)
                pseudo_gts[image_id] = PseudoGT(image_id=image_id, box=box, vote=25.0, support=25)
        return ds, per_proposal_images(ds), pseudo_gts

    def test_corpus_detections_and_update(self, inputs):
        ds, images, pseudo_gts = inputs
        X, y = pipeline._training_corpus(ds, pseudo_gts)
        X_ref, y_ref = per_proposal_corpus(ds, images, pseudo_gts)
        assert X.dtype == X_ref.dtype and np.array_equal(X, X_ref)
        assert y.dtype == y_ref.dtype and np.array_equal(y, y_ref)
        assert 0 < np.sum(y > 0) < np.sum(y < 0)

        model = pipeline.fit_detector(ds, pseudo_gts, 50, 0.1, 1e-4, 3).model
        detections, indices = pipeline._detect(ds.images, model, 0.3)
        assert detections == per_proposal_detect(images, model, 0.3)
        assert [ds.images[i].box(j) for (i, _, _), j in zip(detections, indices)] == [
            box for _, box, _ in detections
        ]
        positives = [i for i, entry in ds.entries.items() if entry.label == "pos"]
        got = lsvm_update(detections, positives, pseudo_gts)
        want = per_proposal_lsvm_update(model, images, pseudo_gts, 0.3)
        assert got == want
        assert any(g.updated for g in got.values())

    def test_regressor_pairs(self, inputs, tmp_path):
        ds, images, pseudo_gts = inputs
        regressor, n_pairs, _ = pipeline._regress(ds, PipelineConfig(), pseudo_gts, [], [])
        pairs = [
            (np.asarray(feature, dtype=np.float64), box, pseudo_gts[image_id].box)
            for image_id in sorted(pseudo_gts)
            for _pid, box, feature in images[image_id][1]
            if iou(box, pseudo_gts[image_id].box) >= 0.6
        ]
        assert n_pairs == len(pairs) > 0
        dataio.write_regressor(tmp_path / "got.json", regressor)
        dataio.write_regressor(tmp_path / "want.json", fit_bbox_regressor(pairs, l2=1e-3))
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


def half_box(box):
    """The centered half-size sub-box, as the per-box frame pool built it."""
    cx, cy = box.center
    return BBox(
        cx - 0.25 * box.width, cy - 0.25 * box.height,
        cx + 0.25 * box.width, cy + 0.25 * box.height,
    )


def per_box_video_frames(ds, selections, frame_stride):
    """frame key -> (corner rows, features) of each scored frame's pool,
    built one ``BBox`` at a time and pooled box by box."""
    frames = {}
    for video_id in ds.videos:
        fmaps = ds.load_video_frames(video_id)
        for frame_idx in transfer.sampled_frame_indices(len(fmaps), frame_stride):
            candidates = candidates_at_frame(ds.tracks.get(video_id, []), frame_idx)
            if (video_id, frame_idx) not in selections or not candidates:
                continue
            boxes = [box for _, box in candidates]
            boxes.extend(half_box(box) for _, box in candidates)
            feats = [pool_one(fmaps[frame_idx], box, ds.cell_stride) for box in boxes]
            frames[f"{video_id}:{frame_idx}"] = (box_array(boxes), np.stack(feats))
    return frames


def test_video_frames_match_the_per_box_pool(synth_dir, finished):
    """Cross-validation's frame pools, built as corner rows and pooled in
    one call per frame, have the bits of the per-box construction."""
    ds = dataio.load_manifest(synth_dir / "manifest.json")
    selections = dataio.read_selections(finished / pipeline.SELECTIONS)
    frames, gt = pipeline._video_frames(ds, finished / pipeline.SELECTIONS)
    want = per_box_video_frames(ds, selections, 1)
    assert list(frames) == list(want) and len(want) > 0
    assert set(gt) == {f"{video_id}:{frame_idx}" for video_id, frame_idx in selections}
    for key, (coords, features) in want.items():
        assert frames[key].label == "pos"
        assert frames[key].coords.tobytes() == coords.tobytes()
        assert frames[key].features.tobytes() == features.tobytes()


def test_video_frames_open_each_video_once(tmp_path, monkeypatch):
    """Cross-validation's frames are the selection rows, read in any order:
    rows of two videos interleaved open each video once and pool the frames
    that rows in video order pool."""
    gen_dataset(SynthConfig(seed=0, n_videos=2, frames_per_video=7), tmp_path / "data")
    out = tmp_path / "o"
    cfg = PipelineConfig(manifest=str(tmp_path / "data" / "manifest.json"), out_dir=str(out),
                         target_cells=30, frame_stride=2, bandwidth=2.0)
    ds = dataio.load_manifest(cfg.manifest)
    pipeline.run_mine(ds, cfg)
    pipeline.run_match(ds, cfg)
    want, want_gt = pipeline._video_frames(ds, out / pipeline.SELECTIONS)
    rows = list(dataio.read_jsonl(out / pipeline.SELECTIONS))
    assert len({row["video_id"] for row in rows}) == 2
    dataio.write_jsonl(out / "shuffled.jsonl", sorted(rows, key=lambda r: r["frame_idx"]))
    opened = []
    original = dataio.Dataset.load_video_frames
    monkeypatch.setattr(dataio.Dataset, "load_video_frames",
                        lambda self, video_id: opened.append(video_id) or original(self, video_id))
    frames, gt = pipeline._video_frames(ds, out / "shuffled.jsonl")
    assert sorted(opened) == sorted(ds.videos)
    assert gt == want_gt and want and sorted(frames) == sorted(want)
    for key, pool in want.items():
        assert frames[key].coords.tobytes() == pool.coords.tobytes()
        assert frames[key].features.tobytes() == pool.features.tobytes()


@pytest.mark.parametrize("command", ["mine", "train"])
def test_empty_proposal_file_is_refused_naming_it(synth_dir, tmp_path, capsys, command):
    """An empty ``proposals.jsonl`` is refused when it is read, with a JSON
    error naming it, by every stage that reads proposals."""
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    (data / "proposals.jsonl").write_text("")
    out = tmp_path / "out"
    out.mkdir()
    dataio.write_pseudo_gts(out / pipeline.PSEUDO_GT, [])
    seed = ["--seed", 0] if command == "train" else []
    assert run_cli(command, "--manifest", data / "manifest.json", "--out", out, *seed) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {
        "error": "EmptyDatasetError", "message": f"{data / 'proposals.jsonl'}: no proposals",
    }


class TestMalformedJson:
    def copy_dataset(self, synth_dir, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        for path in synth_dir.iterdir():
            if path.is_file():
                (data / path.name).write_bytes(path.read_bytes())
        return data

    def test_malformed_manifest_is_a_config_error(self, synth_dir, tmp_path, capsys):
        data = self.copy_dataset(synth_dir, tmp_path)
        (data / "manifest.json").write_text("{\n  not json\n")
        code = run_cli("mine", "--manifest", data / "manifest.json", "--out", tmp_path / "o")
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigInvalidError"
        assert "manifest.json line 2" in err["message"]

    def test_truncated_jsonl_row_is_a_config_error(self, synth_dir, tmp_path, capsys):
        data = self.copy_dataset(synth_dir, tmp_path)
        lines = (data / "proposals.jsonl").read_text().splitlines(keepends=True)
        (data / "proposals.jsonl").write_text("".join(lines[:5]) + lines[5][: len(lines[5]) // 2])
        code = run_cli("mine", "--manifest", data / "manifest.json", "--out", tmp_path / "o")
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigInvalidError"
        assert "proposals.jsonl line 6" in err["message"]

    @pytest.mark.parametrize("name", ["proposals.jsonl", "manifest.json", "run.cfg"])
    def test_bytes_not_utf8_are_a_config_error(self, synth_dir, tmp_path, capsys, name):
        data = self.copy_dataset(synth_dir, tmp_path)
        (data / "run.cfg").write_text("# no settings\n")
        path = data / name
        n_lines = len(path.read_bytes().splitlines())
        path.write_bytes(path.read_bytes() + b"\xff\n")
        code = run_cli("mine", "--manifest", data / "manifest.json", "--out", tmp_path / "o",
                       "--config", data / "run.cfg")
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigInvalidError"
        where = f"{path} line {n_lines + 1}" if name.endswith(".jsonl") else str(path)
        assert err["message"].startswith(f"{where}: not UTF-8 text (")

    @settings(max_examples=25, derandomize=True)
    @given(st.data())
    def test_malformed_proposal_row_names_its_line(self, synth_dir, data):
        """Rows are checked as they stream; a bad one is still reported
        with its line number."""
        lines = (synth_dir / "proposals.jsonl").read_text().splitlines()
        n = data.draw(st.integers(1, len(lines)), label="line")
        row = json.loads(lines[n - 1])
        lines[n - 1] = data.draw(st.sampled_from([
            lines[n - 1][: len(lines[n - 1]) // 2],
            "[1, 2]",
            json.dumps({k: v for k, v in row.items() if k != "box"}),
            json.dumps({**row, "box": [0, 0, -1, 1]}),
            json.dumps({**row, "label": 3}),
        ]), label="row")
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(synth_dir / "manifest.json", tmp)
            Path(tmp, "proposals.jsonl").write_text("\n".join(lines) + "\n")
            with pytest.raises(ConfigInvalidError, match=rf"proposals.jsonl line {n}: "):
                dataio.read_proposals(dataio.load_manifest(Path(tmp) / "manifest.json"))

    @pytest.mark.parametrize("name,row,key,where", [
        ("proposals.jsonl", 2, "box", "proposals.jsonl line 3"),
        ("manifest.json", None, "cell_stride", "manifest.json"),
    ])
    def test_missing_field_is_a_config_error(
        self, synth_dir, tmp_path, capsys, name, row, key, where
    ):
        data = self.copy_dataset(synth_dir, tmp_path)
        path = data / name
        if row is None:
            doc = json.loads(path.read_text())
            del doc[key]
            path.write_text(json.dumps(doc))
        else:
            rows = list(dataio.read_jsonl(path))
            del rows[row][key]
            dataio.write_jsonl(path, rows)
        code = run_cli("mine", "--manifest", data / "manifest.json", "--out", tmp_path / "o")
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigInvalidError"
        assert err["message"].endswith(f"{where}: missing key {key!r}")

    @pytest.mark.parametrize("command,name,key,value,where", [
        ("mine", "proposals.jsonl", "box", [0, 0, "x", 4], "proposals.jsonl line 3"),
        ("mine", "proposals.jsonl", "box", [4, 0, 0, 4], "proposals.jsonl line 3"),
        ("mine", "proposals.jsonl", "box", ["1", 0, 4, 4], "proposals.jsonl line 3"),
        ("mine", "proposals.jsonl", "box", [True, 0, 4, 4], "proposals.jsonl line 3"),
        ("mine", "manifest.json", "cell_stride", True, "manifest.json"),
        ("mine", "manifest.json", "size", ["wide", 16], "manifest.json"),
        ("vote", pipeline.SELECTIONS, "frame_idx", "x", "selections.jsonl line 1"),
        ("train", pipeline.PSEUDO_GT, "vote", "high", "pseudo_gt.jsonl line 1"),
        ("mine", "manifest.json", "size", [True, 16], "manifest.json"),
        ("pipeline", "manifest.json", "cell_stride", 0, "manifest.json"),
        ("pipeline", "manifest.json", "cell_stride", -1, "manifest.json"),
        ("pipeline", "manifest.json", "categories", [], "manifest.json"),
    ])
    def test_wrong_type_field_is_a_config_error(
        self, synth_dir, tmp_path, capsys, command, name, key, value, where
    ):
        data = self.copy_dataset(synth_dir, tmp_path)
        out = tmp_path / "o"
        out.mkdir()
        box = [0, 0, 4, 4]
        dataio.write_jsonl(out / pipeline.REGIONS, [{
            "region_id": "r00000", "image_id": "pos_000", "box": box,
            "cluster_id": "pos_000#0", "cluster_rank": 0,
        }])
        dataio.write_jsonl(out / pipeline.SELECTIONS, [{
            "video_id": "vid_000", "frame_idx": 0, "track_id": 0, "box": box, "score": 1.0,
        }])
        dataio.write_jsonl(out / pipeline.TRANSFERS, [{
            "image_id": "pos_000", "box": box, "region_id": "r00000", "video_id": "vid_000",
            "frame_idx": 0, "sim": 1.0,
        }])
        dataio.write_jsonl(out / pipeline.PSEUDO_GT, [{
            "image_id": "pos_000", "box": box, "vote": 25.0, "support": 25, "updated": False,
        }])
        if name == "manifest.json":
            doc = json.loads((data / name).read_text())
            (doc if key in doc else doc["images"][0])[key] = value
            (data / name).write_text(json.dumps(doc))
        else:
            path = data / name if name == "proposals.jsonl" else out / name
            rows = list(dataio.read_jsonl(path))
            rows[2 if name == "proposals.jsonl" else 0][key] = value
            dataio.write_jsonl(path, rows)
        code = run_cli(command, "--manifest", data / "manifest.json", "--out", out, "--seed", 0)
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigInvalidError"
        assert f"{where}: bad value for key {key!r}" in err["message"]

    @pytest.mark.parametrize("reader,text,message", [
        (dataio.read_detections, '{"image_id": "a", "box": [0, 0, 1, 1]}', "line 1: missing key 'score'"),
        (dataio.read_pseudo_gts, '\n{"image_id": "a", "box": [0, 0, 1, 1]}', "line 2: missing key 'vote'"),
        (dataio.read_tracks,
         '{"video_id": "v", "track_id": 0, "rank": 0, "frames": [{"box": [0, 0, 1, 1]}]}',
         "line 1: missing key 't'"),
        (dataio.read_tracks,
         '{"video_id": "v", "track_id": 0, "rank": 0, "frames": [{"t": [1], "box": [0, 0, 1, 1]}]}',
         "line 1: bad value for key 't'"),
        (dataio.read_tracks,
         '{"video_id": "v", "track_id": 0, "rank": 0, "frames": [{"t": 0, "box": [0, 0, 1, 1]}]}\n'
         '{"video_id": "w", "track_id": 0, "rank": 0, "frames": [{"t": 0, "box": [0, 0, 1, 1]}]}\n'
         '{"video_id": "v", "track_id": 0, "rank": 1, "frames": [{"t": 0, "box": [0, 0, 2, 2]}]}',
         "line 3: video 'v' has track 0 twice"),
        (dataio.read_tracks,
         '{"video_id": "v", "track_id": 0, "rank": 0, "frames": [{"t": 0, "box": [0, 0, 1, 1]}]}\n'
         '{"video_id": "v", "track_id": 1, "rank": 1, "frames": '
         '[{"t": 2, "box": [0, 0, 1, 1]}, {"t": 2, "box": [0, 0, 2, 2]}]}',
         "line 2: track v/1 has non-increasing frame indices"),
        (dataio.read_detections, '{"image_id": 7, "box": [0, 0, 1, 1], "score": 1}',
         "line 1: bad value for key 'image_id'"),
        (dataio.read_detections, '[1, 2]', "line 1: expected a JSON object"),
        (dataio.read_pseudo_gts,
         '{"image_id": "a", "box": [0, 0, 1, 1], "vote": 1, "support": 1, "updated": "false"}',
         "line 1: bad value for key 'updated'"),
        (dataio.read_selections,
         '{"video_id": "v", "frame_idx": 1.5, "track_id": 0, "box": [0, 0, 1, 1], "score": 1}',
         "line 1: bad value for key 'frame_idx'"),
        (dataio.read_selections,
         '{"video_id": "v", "frame_idx": 1, "track_id": true, "box": [0, 0, 1, 1], "score": 1}',
         "line 1: bad value for key 'track_id'"),
        (dataio.read_selections,
         '{"video_id": "v", "frame_idx": 1, "track_id": 0, "box": [0, 0, 1, 1], "score": true}',
         "line 1: bad value for key 'score'"),
        (dataio.read_pseudo_gts,
         '{"image_id": "a", "box": [0, 0, 1, 1], "vote": "1.5", "support": 1, "updated": false}',
         "line 1: bad value for key 'vote'"),
        (dataio.read_detections, '{"image_id": "a", "box": ["1", 2, 3, 4], "score": 1}',
         "line 1: bad value for key 'box'"),
        (dataio.read_detections, '{"image_id": "a", "box": [true, 2, 3, 4], "score": 1}',
         "line 1: bad value for key 'box'"),
        (dataio.read_regions, '{"region_id": "r", "image_id": "a", "box": [true, 2, 3, 4], '
         '"cluster_id": "a#0", "cluster_rank": 0}', "line 1: bad value for key 'box'"),
        (dataio.read_selections, '{"video_id": "v", "frame_idx": 1, "track_id": 0, '
         '"box": ["1", 2, 3, 4], "score": 1}', "line 1: bad value for key 'box'"),
        (dataio.read_transfer_corners, '{"image_id": "a", "box": [true, 2, 3, 4]}',
         "line 1: bad value for key 'box'"),
        # a vote point must be finite
        (dataio.read_transfer_corners, '{"image_id": "a", "box": [0, 0, NaN, 4]}',
         "line 1: bad value for key 'box'"),
        (dataio.read_pseudo_gts, '{"image_id": "a", "box": ["1", 2, 3, 4], "vote": 1, '
         '"support": 1, "updated": false}', "line 1: bad value for key 'box'"),
        (dataio.read_tracks,
         '{"video_id": "v", "track_id": 0, "rank": 0, "frames": [{"t": 0, "box": ["1", 2, 3, 4]}]}',
         "line 1: bad value for key 'box'"),
        (dataio.read_tracks,
         '{"video_id": "v", "track_id": 0, "rank": 0, "frames": [{"t": 0, "box": [true, 2, 3, 4]}]}',
         "line 1: bad value for key 'box'"),
        (dataio.read_gt, '{"image_id": "a", "category": "c", "boxes": [[0, 0, 1, 1], ["1", 2, 3, 4]]}',
         "line 1: bad value for key 'boxes'"),
        (dataio.read_gt, '{"image_id": "a", "category": "c", "boxes": [[true, 2, 3, 4]]}',
         "line 1: bad value for key 'boxes'"),
        (dataio.read_gt, '{"image_id": "a", "category": "c", "boxes": []}',
         "line 1: bad value for key 'boxes'"),
        # a repeated key would silently take its last value
        (dataio.read_detections,
         '{"image_id": "pos_000", "image_id": "pos_001", "box": [0, 0, 1, 1], "score": 1}',
         "line 1: repeated key 'image_id'"),
        (dataio.read_pseudo_gts, '{"image_id": "a", "box": [0, 0, 1, 1], "vote": 1, '
         '"support": 1, "updated": false}\n{"image_id": "b", "box": [0, 0, 1, 1], "vote": 1, '
         '"vote": 2, "support": 1, "updated": false}', "line 2: repeated key 'vote'"),
        (dataio.read_tracks,
         '{"video_id": "v", "track_id": 0, "rank": 0, "frames": [{"t": 0, "t": 1, "box": [0, 0, 1, 1]}]}',
         "line 1: repeated key 't'"),
        (dataio.read_selections, '{"video_id": "v", "frame_idx": 1, "track_id": 0, '
         '"box": [0, 0, 1, 1], "score": 1, "score": 2}', "line 1: repeated key 'score'"),
        (dataio.read_regions, '{"region_id": "r", "image_id": "a", "box": [0, 0, 1, 1], '
         '"cluster_id": "a#0", "cluster_rank": 0, "region_id": "s"}',
         "line 1: repeated key 'region_id'"),
        (dataio.read_transfer_corners, '{"image_id": "a", "box": [0, 0, 1, 1], "box": [0, 0, 2, 2]}',
         "line 1: repeated key 'box'"),
        (dataio.read_gt, '{"image_id": "a", "category": "c", "category": "d", "boxes": [[0, 0, 1, 1]]}',
         "line 1: repeated key 'category'"),
    ])
    def test_readers_name_file_line_and_key(self, tmp_path, reader, text, message):
        path = tmp_path / "rows.jsonl"
        path.write_text(text + "\n")
        with pytest.raises(ConfigInvalidError, match=f"rows.jsonl {message}"):
            reader(path)

    @pytest.mark.parametrize("reader,rows,message", [
        (dataio.read_regions, [
            {"region_id": "r0", "image_id": "a", "box": [0, 0, 1, 1],
             "cluster_id": "a#0", "cluster_rank": 0},
            {"region_id": "r0", "image_id": "b", "box": [0, 0, 2, 2],
             "cluster_id": "b#0", "cluster_rank": 1},
        ], "line 2: region_id 'r0' repeats an earlier row"),
        (dataio.read_selections, [
            {"video_id": "v", "frame_idx": 1, "box": [0, 0, 1, 1], "score": 1, "track_id": 0},
            {"video_id": "v", "frame_idx": 2, "box": [0, 0, 1, 1], "score": 1, "track_id": 0},
            {"video_id": "v", "frame_idx": 1, "box": [0, 0, 2, 2], "score": 2, "track_id": 1},
        ], "line 3: video_id 'v', frame_idx 1 repeats an earlier row"),
        (dataio.read_pseudo_gts, [
            {"image_id": "a", "box": [0, 0, 1, 1], "vote": 1, "support": 1, "updated": False},
            {"image_id": "b", "box": [0, 0, 1, 1], "vote": 1, "support": 1, "updated": False},
            {"image_id": "a", "box": [0, 0, 2, 2], "vote": 2, "support": 2, "updated": True},
        ], "line 3: image_id 'a' repeats an earlier row"),
    ], ids=["regions", "selections", "pseudo_gt"])
    def test_repeated_key_is_refused(self, tmp_path, reader, rows, message):
        """A stage indexes these files by their key, so a later row would
        replace an earlier one, or two regions share one query."""
        path = tmp_path / "rows.jsonl"
        dataio.write_jsonl(path, rows)
        with pytest.raises(ConfigInvalidError, match=f"rows.jsonl {message}"):
            reader(path)
        dataio.write_jsonl(path, rows[:-1])
        assert len(reader(path)) == len(rows) - 1

    def test_repeated_manifest_key_is_refused(self, synth_dir, tmp_path, capsys):
        data = self.copy_dataset(synth_dir, tmp_path)
        text = (data / "manifest.json").read_text()
        key = '"cell_stride": '
        assert text.count(key) == 1
        (data / "manifest.json").write_text(text.replace(key, f"{key}2, {key}"))
        code = run_cli("mine", "--manifest", data / "manifest.json", "--out", tmp_path / "o")
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ConfigInvalidError",
                       "message": f"{data / 'manifest.json'}: repeated key 'cell_stride'"}
        assert not (tmp_path / "o").exists()

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n{"a": \n')
        with pytest.raises(ConfigInvalidError, match="rows.jsonl line 4"):
            list(dataio.read_jsonl(path))


# Each record file a subcommand reads, by that subcommand (vote without a
# bandwidth reads selections.jsonl); vote reads only `image_id` and `box` of
# transfers.jsonl.
RECORD_READERS = {
    pipeline.SELECTIONS: ("vote", dataio.SELECTION_SCHEMA),
    pipeline.PSEUDO_GT: ("train", dataio.PSEUDO_GT_SCHEMA),
    pipeline.DETECTIONS_INITIAL: ("eval", dataio.DETECTION_SCHEMA),
}
RECORD_SCHEMAS = {
    pipeline.SELECTIONS: dataio.SELECTION_SCHEMA,
    pipeline.TRANSFERS: dataio.TRANSFER_SCHEMA,
    pipeline.PSEUDO_GT: dataio.PSEUDO_GT_SCHEMA,
    pipeline.DETECTIONS_INITIAL: dataio.DETECTION_SCHEMA,
}
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteNumbers:
    """``json`` reads the ``NaN``, ``Infinity`` and ``-Infinity`` literals;
    every number read from an input file refuses them with a JSON error
    naming the file and the key."""

    # (command, (flag, file under --out), file, key); unrefused, the first
    # three give a wrong `map`, an OverflowError and a ValueError traceback
    CASES = [
        pytest.param(command, flag, name, key, id=f"{command}-{name}-{key}")
        for command, flag, name, key in (
            ("eval", (), pipeline.DETECTIONS_BBOXREG, "score"),
            ("pipeline", ("--heatmaps", "heatmaps"), "manifest.json", "size"),
            ("pipeline", (), "manifest.json", "cell_stride"),
            *(
                (command, (), name, key)
                for name, (command, schema) in RECORD_READERS.items()
                for key, read in schema.items() if read is dataio._real
            ),
        )
    ]

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    @pytest.mark.parametrize("command,flag,name,key", CASES)
    def test_cli_refuses_it(
        self, synth_dir, finished, tmp_path, capsys, command, flag, name, key, value
    ):
        data, out = tmp_path / "data", tmp_path / "out"
        shutil.copytree(synth_dir, data)
        shutil.copytree(finished, out)
        path = data / name if name == "manifest.json" else out / name
        if name.endswith(".jsonl"):
            rows = list(dataio.read_jsonl(path))
            rows[0][key] = value
            dataio.write_jsonl(path, rows)
        else:
            doc = json.loads(path.read_text())
            if key == "size":
                for image in doc["images"]:
                    image["size"] = [value, 16]
            elif key == "weights":
                doc["weights"][0] = value
            else:
                doc[key] = value
            path.write_text(json.dumps(doc))
        flags = (flag[0], out / flag[1]) if flag else ()
        code = run_cli(command, "--manifest", data / "manifest.json", "--out", out,
                       "--seed", 0, *flags)
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigInvalidError"
        where = f"{name} line 1" if name.endswith(".jsonl") else name
        assert f"{where}: bad value for key {key!r}" in err["message"]

    SAMPLE_ROW = {
        "video_id": "v", "frame_idx": 0, "box": [0, 0, 1, 1], "score": 1.0, "track_id": 0,
        "image_id": "a", "region_id": "r", "sim": 1.0, "vote": 1.0, "support": 1,
        "updated": False,
    }

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    @pytest.mark.parametrize("schema,key", [
        pytest.param(schema, key, id=f"{name}-{key}") for name, schema in RECORD_SCHEMAS.items()
        for key, read in schema.items() if read is dataio._real
    ])
    def test_every_real_record_key_refuses_it(self, tmp_path, schema, key, value):
        path = tmp_path / "rows.jsonl"
        row = {k: self.SAMPLE_ROW[k] for k in schema}
        dataio.write_jsonl(path, [row, {**row, key: value}])
        with pytest.raises(ConfigInvalidError, match=f"rows.jsonl line 2: bad value for key {key!r}"):
            dataio._read_rows(path, schema)


class TestProposalDescriptors:
    """Every proposal descriptor is pooled from its image's FMAP; a
    ``feature`` key in ``proposals.jsonl`` is not read."""

    def test_descriptors_are_pooled_from_the_fmap(self, synth_dir):
        ds = dataio.load_manifest(synth_dir / "manifest.json")
        assert list(ds.images) == sorted(ds.entries)
        for image_id, image in ds.images.items():
            fmap = ds.load_image_fmap(image_id)
            want = np.stack([
                pool_one(fmap, image.box(i), ds.cell_stride) for i in range(len(image))
            ])
            assert image.features.dtype == want.dtype
            assert image.features.tobytes() == want.tobytes()

    def test_rows_rebuild_the_boxes_of_the_file(self, synth_dir):
        """Each proposal is held as one corner row; the box made from it is
        the file's box, bit for bit."""
        ds = dataio.load_manifest(synth_dir / "manifest.json")
        listed = {}
        for row in dataio.read_jsonl(ds.path("proposals")):
            listed.setdefault(row["image_id"], []).append(BBox(*map(float, row["box"])))
        assert list(ds.images) == sorted(listed)
        for image_id, image in ds.images.items():
            rebuilt = [image.box(i) for i in range(len(image))]
            assert rebuilt == listed[image_id]
            assert [[c.hex() for c in b.as_list()] for b in rebuilt] == [
                [c.hex() for c in b.as_list()] for b in listed[image_id]
            ]
            assert image.coords.dtype == np.float64 and image.coords.shape == (len(rebuilt), 4)

    def test_feature_column_changes_no_output(self, synth_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        rows = list(dataio.read_jsonl(data / "proposals.jsonl"))
        for n, row in enumerate(rows):
            row["feature"] = [float("nan")] + [0.5] * (n % 3)
        dataio.write_jsonl(data / "proposals.jsonl", rows)
        assert "NaN" in (data / "proposals.jsonl").read_text()
        for root, out in ((synth_dir, tmp_path / "plain"), (data, tmp_path / "with_column")):
            assert run_cli("pipeline", "--manifest", root / "manifest.json", "--out", out,
                           "--seed", 0, "--target-cells", 30, "--frame-stride", 1,
                           "--bandwidth", 2.0) == 0
        # the pipeline report holds only the bandwidth and the run time
        (tmp_path / "with_column" / "reports" / "pipeline.json").unlink()
        assert_same_outputs(tmp_path / "with_column", tmp_path / "plain")


class TestImageLabels:
    """Each image's label is stored once: every proposal row of an image and
    its manifest entry must agree, or ``boxforge mine`` refuses the input."""

    @pytest.fixture()
    def data(self, synth_dir, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("manifest.json", "proposals.jsonl"):
            (data / name).write_bytes((synth_dir / name).read_bytes())
        return data

    def mine(self, data, tmp_path, capsys, relabel):
        rows = list(dataio.read_jsonl(data / "proposals.jsonl"))
        for n, row in enumerate(rows):
            relabel(n, row)
        dataio.write_jsonl(data / "proposals.jsonl", rows)
        code = run_cli("mine", "--manifest", data / "manifest.json", "--out", tmp_path / "o")
        assert code == 1
        return json.loads(capsys.readouterr().err.strip())

    def test_row_disagreeing_with_an_earlier_row_refused(self, data, tmp_path, capsys):
        def relabel(n, row):
            if n == 1:
                assert row["image_id"] == "pos_000"
                row["label"] = "neg"

        err = self.mine(data, tmp_path, capsys, relabel)
        assert err == {
            "error": "ConfigInvalidError",
            "message": f"{data / 'proposals.jsonl'} line 2 (image pos_000): label 'neg', "
                       "but 'pos' in the manifest",
        }

    def test_image_disagreeing_with_the_manifest_refused(self, data, tmp_path, capsys):
        def relabel(n, row):
            if row["image_id"] == "pos_003":
                row["label"] = "neg"

        err = self.mine(data, tmp_path, capsys, relabel)
        rows = list(dataio.read_jsonl(data / "proposals.jsonl"))
        line = 1 + next(n for n, row in enumerate(rows) if row["image_id"] == "pos_003")
        assert err == {
            "error": "ConfigInvalidError",
            "message": f"{data / 'proposals.jsonl'} line {line} (image pos_003): label 'neg', "
                       "but 'pos' in the manifest",
        }

    def test_image_missing_from_the_manifest_refused(self, data, tmp_path, capsys):
        def relabel(n, row):
            if row["image_id"] == "neg_001":
                row["image_id"] = "stray"

        err = self.mine(data, tmp_path, capsys, relabel)
        assert err == {"error": "MissingInputError", "message": "image stray not in manifest"}


class TestProposalBoxes:
    """Every proposal box lies inside the closed rectangle of its image's
    manifest ``size``; ``boxforge mine`` refuses any other box before it
    reads a feature map."""

    @pytest.fixture()
    def data(self, synth_dir, tmp_path):
        return shutil.copytree(synth_dir, tmp_path / "data")

    def mine(self, data, tmp_path, make_box):
        """Run ``mine`` with the third proposal's box replaced by
        ``make_box`` of its image's manifest entry."""
        rows = list(dataio.read_jsonl(data / "proposals.jsonl"))
        ds = dataio.load_manifest(data / "manifest.json")
        rows[2]["box"] = make_box(ds.image(rows[2]["image_id"]))
        dataio.write_jsonl(data / "proposals.jsonl", rows)
        return run_cli("mine", "--manifest", data / "manifest.json", "--out", tmp_path / "o")

    @pytest.mark.parametrize("box", [[-50, -50, -40, -40], [0, 0, 1e6, 1e6], [-1, 0, 4, 4]])
    def test_box_outside_its_image_refused(self, data, tmp_path, capsys, monkeypatch, box):
        reads = []
        monkeypatch.setattr(dataio, "read_fmap", reads.append)
        assert self.mine(data, tmp_path, lambda image: box) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigInvalidError"
        where = data / "proposals.jsonl"
        assert err["message"].startswith(f"{where} line 3: bad value for key 'box'")
        assert "lies outside" in err["message"]
        assert reads == []

    def test_box_touching_the_image_edges_accepted(self, data, tmp_path):
        assert self.mine(data, tmp_path, lambda image: [0, 0, *image.size]) == 0


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_bad_seed_refused_before_the_pipeline_writes(synth_dir, tmp_path, capsys, seed):
    out = tmp_path / "o"
    code = run_cli("pipeline", "--manifest", synth_dir / "manifest.json", "--out", out,
                   "--seed", seed, "--target-cells", 30, "--frame-stride", 1, "--bandwidth", 2.0)
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigInvalidError" and "seed" in err["message"]
    assert not out.exists()


def test_largest_seed_accepted():
    PipelineConfig(seed=(1 << 64) - 1)


@pytest.mark.parametrize("build", [
    lambda cls, fields: cls(**fields),
    lambda cls, fields: dataclasses.replace(cls(), **fields),
], ids=["constructor", "replace"])
@pytest.mark.parametrize("cls,fields,key", [
    (PipelineConfig, {"k": -1}, "k"),
    (PipelineConfig, {"n_matches": 0}, "n_matches"),
    (PipelineConfig, {"frame_stride": 0}, "frame_stride"),
    (PipelineConfig, {"target_cells": 0}, "target_cells"),
    (PipelineConfig, {"nms_iou": 1.5}, "nms_iou"),
    (PipelineConfig, {"bandwidth": 0.0}, "b"),
    (PipelineConfig, {"bandwidth_grid": (100.0, 0.0)}, "b_grid"),
    (PipelineConfig, {"bandwidth": 2.0, "bandwidth_grid": ()}, "b_grid"),
    (PipelineConfig, {"theta": 0.0}, "theta"),
    (PipelineConfig, {"seed": 1 << 64}, "seed"),
    (SynthConfig, {"channels": 0}, "channels"),
    (SynthConfig, {"noise_sigma": float("nan")}, "noise_sigma"),
], ids=[
    "k", "n", "frame_stride", "target_cells", "nms_iou", "b", "b_grid_entry", "b_grid_empty",
    "theta", "seed", "synth_channels", "synth_noise_sigma",
])
def test_config_built_in_code_is_refused_naming_the_key(build, cls, fields, key):
    """A config built in code, not through ``build_config`` or the CLI, is
    checked as it is built, so no stage is handed one of these values."""
    with pytest.raises(ConfigInvalidError, match=rf"^{key}\b"):
        build(cls, fields)


def test_negative_synth_seed_refused_before_anything_is_written(tmp_path, capsys):
    out = tmp_path / "data"
    assert run_cli("synth", "--out", out, "--seed", -1) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigInvalidError" and "seed" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--noise-sigma", "nan", "noise_sigma must be finite, got nan"),
    ("--signature-strength", "inf", "signature_strength must be finite, got inf"),
    ("--signature-strength", "-inf", "signature_strength must be finite, got -inf"),
    ("--multi-instance-prob", "nan", "multi_instance_prob must be finite, got nan"),
    ("--multi-instance-prob", "1.5", "multi_instance_prob must be in [0, 1], got 1.5"),
])
def test_bad_synth_float_refused_by_name_before_anything_is_written(
    tmp_path, capsys, flag, value, message
):
    out = tmp_path / "data"
    assert run_cli("synth", "--out", out, "--seed", 0, f"{flag}={value}") == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigInvalidError" and err["message"] == message
    assert not out.exists()


def test_pipeline_process_never_imports_numpy_random(synth_dir, tmp_path):
    """Training draws its minibatches from plain uint64 arithmetic, so a
    whole pipeline run leaves ``numpy.random`` (and the hashlib/OpenSSL
    chain it imports) unloaded."""
    env = {**os.environ, "PYTHONPATH": str(Path(boxforge.__file__).parents[1])}
    script = ("import sys; from boxforge import cli; code = cli.main(sys.argv[1:]); "
              "print('numpy.random' in sys.modules); sys.exit(code)")
    proc = subprocess.run(
        [sys.executable, "-c", script, "pipeline", "--manifest", str(synth_dir / "manifest.json"),
         "--out", str(tmp_path / "o"), "--seed", "0", "--target-cells", "30",
         "--frame-stride", "1", "--bandwidth", "2.0"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "o" / "metrics.json").is_file()


def test_info_log_has_one_line_per_stage_in_order(synth_dir, tmp_path):
    """``BOXFORGE_LOG=INFO`` logs each stage's report as it is written, and
    the default level logs nothing."""
    env = {**os.environ, "PYTHONPATH": str(Path(boxforge.__file__).parents[1])}
    argv = [sys.executable, "-m", "boxforge", "pipeline", "--manifest",
            str(synth_dir / "manifest.json"), "--seed", "0", "--target-cells", "30",
            "--frame-stride", "1", "--bandwidth", "2.0"]
    logged = {}
    for level in ("WARNING", "INFO"):
        out = tmp_path / level
        proc = subprocess.run([*argv, "--out", str(out)], env={**env, "BOXFORGE_LOG": level},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        logged[level] = proc.stderr.splitlines()
    assert logged["WARNING"] == []
    names = []
    for line in logged["INFO"]:
        level, logger, name, report = line.split(" ", 3)
        assert (level, logger) == ("INFO", "boxforge.pipeline:")
        written = (tmp_path / "INFO" / "reports" / f"{name}.json").read_text()
        assert json.loads(report) == json.loads(written)
        names.append(name)
    assert names == ["mine", "match", "vote", "train", "eval", "pipeline"]


@pytest.mark.parametrize("name", ["INF0", "BASIC_FORMAT"])
def test_log_level_that_is_not_a_level_refused(synth_dir, tmp_path, capsys, monkeypatch, name):
    monkeypatch.setenv("BOXFORGE_LOG", name)
    code = run_cli("mine", "--manifest", synth_dir / "manifest.json", "--out", tmp_path / "o")
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigInvalidError"
    assert f"BOXFORGE_LOG={name!r}" in err["message"]
    assert not (tmp_path / "o").exists()


def test_log_level_name_in_any_case_accepted(synth_dir, tmp_path, monkeypatch):
    levels = []
    monkeypatch.setattr(cli.logging, "basicConfig", lambda level, format: levels.append(level))
    monkeypatch.setenv("BOXFORGE_LOG", "debug")
    assert run_cli("mine", "--manifest", synth_dir / "manifest.json", "--out", tmp_path / "o") == 0
    assert levels == [logging.DEBUG]


SYNTH_FLAGS = [
    ("--seed", "seed", 9),
    ("--n-pos-images", "n_pos_images", 5),
    ("--n-neg-images", "n_neg_images", 6),
    ("--n-videos", "n_videos", 3),
    ("--frames-per-video", "frames_per_video", 7),
    ("--map-height", "map_height", 20),
    ("--map-width", "map_width", 21),
    ("--channels", "channels", 10),
    ("--signature-strength", "signature_strength", 2.5),
    ("--n-distractors", "n_distractors", 3),
    ("--multi-instance-prob", "multi_instance_prob", 0.25),
    ("--proposals-per-image", "proposals_per_image", 9),
    ("--noise-sigma", "noise_sigma", 0.125),
]


class TestSynthFlags:
    """``boxforge synth`` has one flag per :class:`SynthConfig` field."""

    @pytest.fixture()
    def configs(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "gen_dataset", lambda config, out: seen.append(config))
        return seen

    def test_flags_cover_every_field(self):
        assert [name for _, name, _ in SYNTH_FLAGS] == [
            f.name for f in dataclasses.fields(SynthConfig)
        ]

    @pytest.mark.parametrize("flag,name,value", SYNTH_FLAGS)
    def test_flag_reaches_the_config(self, configs, tmp_path, flag, name, value):
        argv = ["synth", "--out", tmp_path, "--seed", 1, flag, value]
        assert run_cli(*argv) == 0
        [config] = configs
        assert config == dataclasses.replace(SynthConfig(seed=1), **{name: value})
        assert type(getattr(config, name)) is type(value)

    def test_defaults_and_required_seed(self, configs, tmp_path):
        assert run_cli("synth", "--out", tmp_path, "--seed", 4) == 0
        assert configs == [SynthConfig(seed=4)]
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", "--out", tmp_path)
        assert exc.value.code == 2


def transfer_corner_lists(path):
    """``read_transfer_corners``, each image's corner rows as lists."""
    return {i: rows.tolist() for i, rows in dataio.read_transfer_corners(path).items()}


# Each record artifact's schema, writer, records (their fields all distinct,
# so a field read into the wrong place shows), reader and what it reads back.
BOX, BOX2 = BBox(0, 0, 4, 4), BBox(1, 1, 2, 3)
REGION = MinedRegion("r00000", "pos_000", BOX, "pos_000#0", 3)
SELECTION = FrameSelection("vid_000", 4, BOX, 0.5, 2)
PSEUDO_GT = PseudoGT("pos_000", BOX, 21.5, 20, True)
DETECTIONS = [("img", BOX, 0.75), ("img2", BOX2, -1.0)]
RECORD_FILES = {
    "regions.jsonl": (dataio.REGION_SCHEMA, dataio.write_regions, [REGION],
                      dataio.read_regions, [REGION]),
    "selections.jsonl": (dataio.SELECTION_SCHEMA, dataio.write_selections, [SELECTION],
                         dataio.read_selections, {("vid_000", 4): SELECTION}),
    "transfers.jsonl": (dataio.TRANSFER_SCHEMA, dataio.write_transfers,
                        [transfer.TransferredBox("pos_000", BOX, "r00000", "vid_000", 4, 0.25)],
                        transfer_corner_lists, {"pos_000": [BOX.as_list()]}),
    "pseudo_gt.jsonl": (dataio.PSEUDO_GT_SCHEMA, dataio.write_pseudo_gts, [PSEUDO_GT],
                        dataio.read_pseudo_gts, {"pos_000": PSEUDO_GT}),
    "detections*.jsonl": (dataio.DETECTION_SCHEMA, dataio.write_detections, DETECTIONS,
                          dataio.read_detections, DETECTIONS),
}
TRANSFER_KEYS_READ = ("image_id", "box")


class TestDataIoRoundTrips:
    def test_model_round_trip(self, tmp_path):
        from boxforge.detector import LinearModel

        model = LinearModel(weights=np.array([0.5, -1.25]), bias=3.0)
        dataio.write_model(tmp_path / "m.json", model, "obj")
        # no stage reads a model back, so the reader lives here
        doc = dataio.load_json(tmp_path / "m.json")
        assert sorted(doc) == ["bias", "category_id", "dim", "weights"]
        back = LinearModel(weights=np.asarray(doc["weights"], dtype=np.float64), bias=doc["bias"])
        assert np.array_equal(back.weights, model.weights)
        assert back.bias == model.bias
        assert (doc["category_id"], doc["dim"]) == ("obj", 2)

    def test_regressor_round_trip(self, tmp_path):
        from boxforge.detector import BoxRegressor

        reg = BoxRegressor(weights=np.arange(8, dtype=np.float64).reshape(4, 2),
                           biases=np.array([0.1, 0.2, 0.3, 0.4]))
        dataio.write_regressor(tmp_path / "r.json", reg)
        # no stage reads a regressor back, so the reader lives here
        doc = dataio.load_json(tmp_path / "r.json")
        back = BoxRegressor(weights=np.asarray(doc["weights"], dtype=np.float64),
                            biases=np.asarray(doc["biases"], dtype=np.float64))
        assert np.array_equal(back.weights, reg.weights)
        assert np.array_equal(back.biases, reg.biases)

    @pytest.mark.parametrize("name", RECORD_FILES)
    def test_record_round_trip(self, tmp_path, name):
        _, write, records, read, expected = RECORD_FILES[name]
        write(tmp_path / "rows.jsonl", records)
        assert read(tmp_path / "rows.jsonl") == expected

    @pytest.mark.parametrize("record,schema", [
        (MinedRegion, dataio.REGION_SCHEMA), (FrameSelection, dataio.SELECTION_SCHEMA),
        (transfer.TransferredBox, dataio.TRANSFER_SCHEMA), (PseudoGT, dataio.PSEUDO_GT_SCHEMA),
    ])
    def test_record_fields_are_the_schema_keys(self, record, schema):
        assert [f.name for f in dataclasses.fields(record)] == list(schema)

    @pytest.mark.parametrize("name,key", [
        (name, key) for name, (schema, *_) in RECORD_FILES.items() for key in schema
    ])
    def test_dropping_a_schema_key_is_refused(self, tmp_path, name, key):
        _, write, records, read, expected = RECORD_FILES[name]
        path = tmp_path / "rows.jsonl"
        write(path, records[:1])
        rows = list(dataio.read_jsonl(path))
        del rows[0][key]
        dataio.write_jsonl(path, rows)
        if name == "transfers.jsonl" and key not in TRANSFER_KEYS_READ:
            assert read(path) == expected  # voting reads only the image and the box
            return
        with pytest.raises(ConfigInvalidError) as exc:
            read(path)
        assert str(exc.value) == f"{path} line 1: missing key {key!r}"

    def test_readme_lists_each_schemas_keys(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme[readme.index("| file | schema |"):].split("\n\n")[0]
        listed = {}
        for line in table.splitlines()[2:]:
            name, keys = (cell.strip().strip("`") for cell in line.strip("|").split(" | "))
            listed[name] = keys
        for name, (schema, *_) in RECORD_FILES.items():
            assert listed[name] == "{" + ", ".join(schema) + "}"


class TestAtomicWrites:
    @staticmethod
    def rows_then_crash():
        yield {"a": 1}
        yield {"a": 2}
        raise RuntimeError("crashed mid-write")

    def test_failed_jsonl_write_keeps_previous_bytes(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        dataio.write_jsonl(path, [{"old": True}])
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            dataio.write_jsonl(path, self.rows_then_crash())
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["rows.jsonl"]

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            dataio.write_jsonl(tmp_path / "rows.jsonl", self.rows_then_crash())
        assert os.listdir(tmp_path) == []

    def test_failed_json_dump_keeps_previous_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "doc.json"
        dataio.dump_json({"old": 1}, path)
        before = path.read_bytes()

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(atomic.os, "replace", broken_replace)
        with pytest.raises(OSError):
            dataio.dump_json({"new": 2}, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_overwrite_replaces_bytes(self, tmp_path):
        path = tmp_path / "doc.json"
        dataio.dump_json({"old": 1}, path)
        dataio.dump_json({"new": 2}, path)
        assert json.loads(path.read_text()) == {"new": 2}
        assert os.listdir(tmp_path) == ["doc.json"]


def test_python_dash_m_boxforge_help():
    env = {**os.environ, "PYTHONPATH": str(Path(boxforge.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "boxforge", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "pipeline" in proc.stdout


class TestManifest:
    @pytest.mark.parametrize("section", ["images", "videos"])
    def test_duplicate_id_refused(self, synth_dir, tmp_path, section):
        doc = json.loads((synth_dir / "manifest.json").read_text())
        doc[section].append(dict(doc[section][0]))
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigInvalidError, match="twice"):
            dataio.load_manifest(path)

    @pytest.mark.parametrize("key,value", [
        ("cell_stride", 0), ("cell_stride", -1), ("categories", []),
        ("format_version", 9), ("format_version", 0), ("format_version", "1"),
        ("format_version", True), ("categories", ["dog", "obj"]), ("categories", ["obj", "dog"]),
        ("files", {"proposals": 5}), ("files", [["proposals", "proposals.jsonl"]]),
        ("categories", "x"), ("categories", "obj"),  # a name, not a list of names
        ("files", {"proposals": "proposals\0.jsonl"}),  # no file name holds a NUL byte
    ])
    def test_bad_value_refused_before_anything_is_written(
        self, synth_dir, tmp_path, capsys, key, value
    ):
        doc = json.loads((synth_dir / "manifest.json").read_text())
        doc[key] = value
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        (data / "manifest.json").write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = run_cli("mine", "--manifest", data / "manifest.json", "--out", out)
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigInvalidError"
        assert f"manifest.json: bad value for key {key!r}" in err["message"]
        assert not out.exists()

    def test_two_categories_refused_before_the_pipeline_writes(self, synth_dir, tmp_path, capsys):
        doc = json.loads((synth_dir / "manifest.json").read_text())
        doc["categories"] = ["obj", "dog"]
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        (data / "manifest.json").write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = run_cli("pipeline", "--manifest", data / "manifest.json", "--out", out, "--seed", 0)
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigInvalidError"
        assert "manifest.json: bad value for key 'categories'" in err["message"]
        assert not out.exists()

    def test_format_version_may_be_left_out(self, synth_dir, tmp_path):
        doc = json.loads((synth_dir / "manifest.json").read_text())
        assert doc.pop("format_version") == dataio.MANIFEST_VERSION
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        fields = lambda ds: (ds.cell_stride, ds.category, ds.entries, ds.videos, ds.files)
        assert fields(dataio.load_manifest(path)) == fields(
            dataio.load_manifest(synth_dir / "manifest.json")
        )

    @pytest.mark.parametrize("section,key,value", [
        ("images", "size", [0, 0]), ("images", "size", [-16, 16]), ("images", "size", [16]),
        ("videos", "frames", []), ("videos", "frames", "fmaps/vid_000/frame_000.fmap"),
        # unrefused, a NUL byte in a path is a ValueError traceback when the map is read
        ("images", "fmap", "fmaps/pos\0_000.fmap"),
        ("videos", "frames", ["fmaps/vid_000/frame_000.fmap", "fmaps/vid_000/frame\0_001.fmap"]),
    ])
    def test_bad_entry_refused_before_anything_is_written(
        self, synth_dir, tmp_path, capsys, section, key, value
    ):
        doc = json.loads((synth_dir / "manifest.json").read_text())
        doc[section][0][key] = value
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        (data / "manifest.json").write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = run_cli("mine", "--manifest", data / "manifest.json", "--out", out)
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigInvalidError"
        assert f"manifest.json: bad value for key {key!r}" in err["message"]
        assert not out.exists()

    def test_track_of_an_unlisted_video_refused(self, synth_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        rows = list(dataio.read_jsonl(data / "tracks.jsonl"))
        rows[-1]["video_id"] = "no_such_video"
        dataio.write_jsonl(data / "tracks.jsonl", rows)
        code = run_cli("pipeline", "--manifest", data / "manifest.json", "--out", tmp_path / "o",
                       "--seed", 7, "--target-cells", 30, "--frame-stride", 1, "--bandwidth", 2)
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {
            "error": "ConfigInvalidError",
            "message": f"{data / 'tracks.jsonl'}: video 'no_such_video' is not in the manifest",
        }

    def test_gt_of_an_unlisted_image_refused(self, synth_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        rows = list(dataio.read_jsonl(data / "gt.jsonl"))
        rows.append({**rows[-1], "image_id": "no_such_image"})
        dataio.write_jsonl(data / "gt.jsonl", rows)
        code = run_cli("pipeline", "--manifest", data / "manifest.json", "--out", tmp_path / "o",
                       "--seed", 0, "--target-cells", 30, "--frame-stride", 1, "--bandwidth", 2)
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {
            "error": "ConfigInvalidError",
            "message": f"{data / 'gt.jsonl'}: image 'no_such_image' is not in the manifest",
        }

    @staticmethod
    def ghost_row_refused(synth_dir, finished, tmp_path, capsys, command, name, *flags, **values):
        """``command`` (with ``flags``) on the finished run with a row of an
        image the manifest does not list appended to ``name`` is refused by
        name."""
        out = shutil.copytree(finished, tmp_path / "out")
        rows = list(dataio.read_jsonl(out / name))
        rows.append({**rows[-1], "image_id": "ghost_999", **values})
        dataio.write_jsonl(out / name, rows)
        code = run_cli(command, "--manifest", synth_dir / "manifest.json", "--out", out,
                       "--seed", 0, *flags)
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {
            "error": "ConfigInvalidError",
            "message": f"{out / name}: image 'ghost_999' is not in the manifest",
        }

    @pytest.mark.parametrize("command,name", [
        ("train", pipeline.PSEUDO_GT), ("eval", pipeline.PSEUDO_GT),
        ("eval", pipeline.PSEUDO_GT_UPDATED),
    ])
    def test_pseudo_gt_of_an_unlisted_image_refused(
        self, synth_dir, finished, tmp_path, capsys, command, name
    ):
        """Unrefused, train carries the row into the updated pseudo GT and
        the regression pairs, and eval counts it in ``n_pseudo_gt``."""
        self.ghost_row_refused(synth_dir, finished, tmp_path, capsys, command, name)

    @pytest.mark.parametrize("command,name", [
        ("eval", pipeline.DETECTIONS_INITIAL),
        ("eval", pipeline.DETECTIONS_UPDATED), ("eval", pipeline.DETECTIONS_BBOXREG),
    ])
    def test_detection_of_an_unlisted_image_refused(
        self, synth_dir, finished, tmp_path, capsys, command, name
    ):
        """Unrefused, a top-scoring detection of no image lowers eval's AP."""
        self.ghost_row_refused(synth_dir, finished, tmp_path, capsys, command, name, score=99.0)

    def test_region_of_an_unlisted_image_refused(self, synth_dir, finished, tmp_path, capsys):
        """Unrefused, the query window's map lookup fails naming no file."""
        self.ghost_row_refused(
            synth_dir, finished, tmp_path, capsys, "match", pipeline.REGIONS, region_id="r_ghost"
        )

    @pytest.mark.parametrize("command,flags", [
        ("vote", ("--bandwidth", 2.0)), ("vote", ()),
    ], ids=["vote", "vote-cross-validated"])
    def test_transfer_of_an_unlisted_image_refused(
        self, synth_dir, finished, tmp_path, capsys, command, flags
    ):
        """Unrefused, the vote's image-size lookup fails naming no file."""
        self.ghost_row_refused(
            synth_dir, finished, tmp_path, capsys, command, pipeline.TRANSFERS, *flags
        )

    @pytest.mark.parametrize("values,message", [
        ({"video_id": "ghost_vid"}, "video 'ghost_vid' is not in the manifest"),
        ({"frame_idx": -1}, "video 'vid_000' has no frame -1"),
        ({"frame_idx": 8}, "video 'vid_000' has no frame 8"),
    ], ids=["unlisted-video", "negative-frame", "frame-past-the-end"])
    def test_selection_the_manifest_lacks_refused(
        self, synth_dir, finished, tmp_path, capsys, values, message
    ):
        """A cross-validating vote refuses a selection of a video or frame
        the manifest does not list; unrefused, frame -1 scores the video's
        last frame and frame 8 of an 8-frame video is an IndexError."""
        out = shutil.copytree(finished, tmp_path / "out")
        path = out / pipeline.SELECTIONS
        rows = list(dataio.read_jsonl(path))
        rows.append({**rows[-1], **values})
        dataio.write_jsonl(path, rows)
        code = run_cli("vote", "--manifest", synth_dir / "manifest.json", "--out", out,
                       "--seed", 0, "--bandwidth-grid", "1,2")
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ConfigInvalidError", "message": f"{path}: {message}"}
        kept = (out / pipeline.PSEUDO_GT).read_bytes()
        assert kept == (finished / pipeline.PSEUDO_GT).read_bytes()

    @pytest.mark.parametrize("image_id", ["", ".", "..", "../pos_000", "hm/pos_000", "pos\0"],
                             ids=["empty", "dot", "dotdot", "parent", "slash", "nul"])
    def test_image_id_that_is_not_a_plain_name_refused(
        self, synth_dir, tmp_path, capsys, image_id
    ):
        """An image id names the image's heatmap file; unrefused, ``../pos_000``
        writes its heatmap outside ``--heatmaps``."""
        data = shutil.copytree(synth_dir, tmp_path / "data")
        doc = json.loads((data / "manifest.json").read_text())
        doc["images"][0]["id"] = image_id
        (data / "manifest.json").write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = run_cli("pipeline", "--manifest", data / "manifest.json", "--out", out,
                       "--seed", 0, "--heatmaps", out / "hm")
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigInvalidError"
        assert err["message"].startswith(f"{data / 'manifest.json'}: bad value for key 'id'")
        assert repr(image_id) in err["message"]
        assert not out.exists() and list(tmp_path.glob("**/*.pgm")) == []

    def test_lookups_by_id(self, synth_dir):
        ds = dataio.load_manifest(synth_dir / "manifest.json")
        for image_id, entry in ds.entries.items():
            assert entry.image_id == image_id and ds.image(image_id) is entry
        with pytest.raises(MissingInputError):
            ds.image("no_such_image")
        with pytest.raises(MissingInputError):
            ds.load_video_frames("no_such_video")


class TestRegressFallbacks:
    """``train``'s box regression, through the helper it calls."""

    @pytest.fixture()
    def regress_inputs(self, tmp_path):
        """A dataset, pseudo GT on its GT boxes, and as detections the first
        proposal of each pseudo GT's image, with their proposal indices."""
        data = tmp_path / "data"
        gen_dataset(SynthConfig(seed=0, n_videos=1, frames_per_video=2), data)
        gt = dataio.read_gt(data / "gt.jsonl")["obj"]
        gts = {
            image_id: PseudoGT(image_id=image_id, box=boxes[0], vote=30.0, support=30)
            for image_id, boxes in sorted(gt.items())
        }
        ds = dataio.load_manifest(data / "manifest.json")
        detections = [(image_id, ds.images[image_id].box(0), 1.0) for image_id in gts]
        return ds, gts, detections, [0] * len(detections)

    def test_detections_reuse_the_proposal_descriptors(self, regress_inputs, monkeypatch):
        """A detection is a proposal: ``_regress`` reads its descriptor from
        ``ds.images``, the bits pooling its box again gives, and pools none."""
        ds, gts, detections, indices = regress_inputs
        for (image_id, box, _), i in zip(detections, indices):
            [pooled] = featmap.pool_box_feature(
                ds.load_image_fmap(image_id), box_array([box]), ds.cell_stride
            )
            assert pooled.tobytes() == ds.images[image_id].features[i].tobytes()
        pools = []
        TestEachIntermediateOnce.count(monkeypatch, pipeline, "pool_box_feature", pools)
        _, n_pairs, refined = pipeline._regress(ds, PipelineConfig(), gts, detections, indices)
        assert n_pairs > 0 and len(refined) == len(detections)
        assert pools == []

    def test_unrelated_error_propagates(self, regress_inputs, monkeypatch):
        ds, gts, detections, indices = regress_inputs

        def broken(regressor, feature, box):
            raise RuntimeError("not a dimension mismatch")

        monkeypatch.setattr(pipeline, "apply_regressor", broken)
        with pytest.raises(RuntimeError):
            pipeline._regress(ds, PipelineConfig(), gts, detections, indices)

    def test_no_pairs_write_the_identity(self, synth_dir, finished, tmp_path, monkeypatch):
        """With no regression pair, ``train`` writes the identity regressor
        and keeps every updated detection's box."""
        monkeypatch.setattr(pipeline, "regression_pairs", lambda images, pseudo_gts: [])
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(finished / pipeline.PSEUDO_GT, out / pipeline.PSEUDO_GT)
        assert run_cli("train", "--manifest", synth_dir / "manifest.json", "--out", out,
                       "--seed", 0) == 0
        assert json.loads((out / "reports" / "train.json").read_text())["regress"]["n_pairs"] == 0
        regressor = json.loads((out / pipeline.REGRESSOR).read_text())
        assert regressor["weights"] == [[0.0] * regressor["dim"]] * 4
        assert regressor["biases"] == [0.0] * 4
        refined = dataio.read_detections(out / pipeline.DETECTIONS_BBOXREG)
        assert refined == dataio.read_detections(out / pipeline.DETECTIONS_UPDATED) != []

    def test_no_pairs_give_the_identity(self, regress_inputs):
        """With no pseudo GT there is no regression pair: the regressor is
        the identity and every detection keeps its box."""
        ds, _, detections, indices = regress_inputs
        regressor, n_pairs, refined = pipeline._regress(
            ds, PipelineConfig(), {}, detections, indices
        )
        assert n_pairs == 0
        assert regressor.weights.tolist() == [[0.0] * regressor.weights.shape[1]] * 4
        assert regressor.biases.tolist() == [0.0] * 4
        assert refined == detections

    def test_runs_without_numpy_linalg(self, regress_inputs, monkeypatch):
        """Box regression fits and applies its regressor with no LAPACK
        solver: each ``numpy.linalg`` solver raises here."""
        ds, gts, detections, indices = regress_inputs

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name in ("lstsq", "solve", "cholesky", "inv", "pinv"):
            monkeypatch.setattr(np.linalg, name, refuse)
        regressor, n_pairs, refined = pipeline._regress(
            ds, PipelineConfig(), gts, detections, indices
        )
        assert n_pairs > 0 and len(refined) == len(gts)
        assert np.any(regressor.weights != 0.0)
