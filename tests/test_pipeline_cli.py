import dataclasses
import inspect
import json
import logging
from collections import Counter
import os
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
from boxforge.featmap import pool_box_feature
from boxforge.geometry import BBox, iou, nms
from boxforge.metrics import corloc
from boxforge.mining import MinedRegion
from boxforge.pipeline import run_pipeline
from boxforge.synth import SynthConfig, gen_dataset
from boxforge.tracks import FrameSelection
from boxforge.voting import PseudoGT

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

    def test_removed_kernel_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pipeline", "--seed", "0", "--kernel", "gaussian"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --kernel gaussian" in capsys.readouterr().err

    def test_validation_catches_bad_values(self):
        with pytest.raises(ConfigInvalidError):
            PipelineConfig(theta=-1.0).validate()


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


def run_stage_chain(manifest, out, frame_stride):
    """Every stage subcommand in pipeline order at a fixed bandwidth of 2."""
    common = ["--manifest", manifest, "--out", out,
              "--target-cells", 30, "--frame-stride", frame_stride]
    assert run_cli("mine", *common) == 0
    assert run_cli("select-tracks", *common) == 0
    assert run_cli("match", *common) == 0
    assert run_cli("vote", *common, "--bandwidth", 2.0) == 0
    assert run_cli("train", *common, "--seed", 7) == 0
    assert run_cli("update", *common) == 0
    assert run_cli(
        "train", *common, "--seed", 7,
        "--pseudo-gt", out / "pseudo_gt_updated.jsonl", "--tag", "updated",
    ) == 0
    assert run_cli("regress", *common) == 0
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
        """The match stage run alone scans the frames again; its table equals
        the one select-tracks hands on in a pipeline run, which opens only
        the sampled frames."""
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
        frames = {tmp_path / "data" / p: i for video in videos for i, p in enumerate(video.frame_paths)}
        read_frames = [frames[p] for p in reads if p in frames]
        assert read_frames and all(i % 2 == 0 for i in read_frames)

    def test_cv_stage_chain_matches_pipeline(self, synth_dir, tmp_path, capsys):
        """cv-bandwidth, then the stages at its best bandwidth, write what a
        pipeline run that hands cross-validation's winner forward writes."""
        manifest = synth_dir / "manifest.json"
        chained = tmp_path / "chained"
        common = ["--manifest", manifest, "--out", chained,
                  "--target-cells", 30, "--frame-stride", 1]
        assert run_cli("mine", *common) == 0
        assert run_cli("select-tracks", *common) == 0
        assert run_cli("match", *common) == 0
        # on this data every grid bandwidth votes differently and the best is
        # neither end of the grid
        assert run_cli("cv-bandwidth", *common, "--seed", 7, "--bandwidth-grid", "1,2,4,8") == 0
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert printed["stage"] == "cv_bandwidth"
        best_b = json.loads((chained / pipeline.BANDWIDTH_REPORT).read_text())["best_b"]
        assert printed["best_b"] == best_b
        assert run_cli("vote", *common, "--bandwidth", best_b) == 0
        assert run_cli("train", *common, "--seed", 7) == 0
        assert run_cli("update", *common) == 0
        assert run_cli(
            "train", *common, "--seed", 7,
            "--pseudo-gt", chained / "pseudo_gt_updated.jsonl", "--tag", "updated",
        ) == 0
        assert run_cli("regress", *common) == 0
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
        assert run_cli("select-tracks", *common) == 0
        assert run_cli("match", *common) == 0
        assert run_cli("vote", *common, "--bandwidth", 2.0, "--theta", 1e9) == 0
        assert dataio.read_pseudo_gts(out / "pseudo_gt.jsonl") == {}

    def test_missing_input_gives_error_json_and_nonzero_exit(self, synth_dir, tmp_path, capsys):
        manifest = synth_dir / "manifest.json"
        code = run_cli(
            "vote", "--manifest", manifest, "--out", tmp_path / "x", "--bandwidth", 2.0
        )
        assert code != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "MissingInputError"

    def test_synth_subcommand_writes_dataset(self, tmp_path):
        out = tmp_path / "ds"
        assert run_cli("synth", "--out", out, "--seed", 5, "--n-videos", 1,
                       "--frames-per-video", 4) == 0
        assert (out / "manifest.json").exists()

    def test_vote_requires_bandwidth(self, synth_dir, tmp_path, capsys):
        code = run_cli(
            "vote", "--manifest", synth_dir / "manifest.json", "--out", tmp_path / "v"
        )
        assert code != 0
        assert "bandwidth" in json.loads(capsys.readouterr().err.strip())["message"]

    def test_heatmaps_written_when_requested(self, synth_dir, tmp_path):
        manifest = synth_dir / "manifest.json"
        out = tmp_path / "o"
        common = ["--manifest", manifest, "--out", out,
                  "--target-cells", 30, "--frame-stride", 1]
        run_cli("mine", *common)
        run_cli("select-tracks", *common)
        run_cli("match", *common)
        run_cli("vote", *common, "--bandwidth", 2.0, "--heatmaps", out / "heat")
        pgms = list((out / "heat").glob("*.pgm"))
        assert pgms and pgms[0].read_bytes().startswith(b"P5\n")


# Each stage subcommand's input-artifact flags, and the file under --out its
# stage reads when the flag is unset.
ARTIFACTS = {
    "mine": {},
    "select-tracks": {"--regions": "regions.jsonl"},
    "match": {"--regions": "regions.jsonl", "--selections": "selections.jsonl"},
    "vote": {"--transfers": "transfers.jsonl"},
    "train": {"--pseudo-gt": "pseudo_gt.jsonl"},
    "update": {"--pseudo-gt": "pseudo_gt.jsonl", "--model": "model_initial.json"},
    "regress": {
        "--pseudo-gt": "pseudo_gt_updated.jsonl", "--detections": "detections_updated.jsonl",
    },
    "eval": {
        "--initial-pseudo-gt": "pseudo_gt.jsonl",
        "--updated-pseudo-gt": "pseudo_gt_updated.jsonl",
        "--detections": "detections_initial.jsonl",
        "--detections-updated": "detections_updated.jsonl",
        "--detections-bboxreg": "detections_bboxreg.jsonl",
    },
    "cv-bandwidth": {"--selections": "selections.jsonl", "--transfers": "transfers.jsonl"},
}
OPTIONS = {"train": ["--tag"], "vote": ["--heatmaps"], "pipeline": ["--heatmaps"]}
STAGE_ARGS = {
    "vote": ["--bandwidth", 2.0],
    "train": ["--seed", 7],
    "cv-bandwidth": ["--seed", 7, "--bandwidth-grid", "1,2"],
}
READERS = (
    "read_regions", "read_selections", "read_transfer_boxes", "read_pseudo_gts",
    "read_model", "read_detections",
)


class TestCommandTable:
    """``cli.COMMANDS`` is the one list of subcommands and their flags, and a
    stage reads the file its subcommand's unset flag stands for."""

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
        table = {c.name: [f.flag for f in c.flags] for c in cli.COMMANDS}
        assert table == {
            name: list(ARTIFACTS.get(name, {})) + OPTIONS.get(name, [])
            for name in [*ARTIFACTS, "pipeline"]
        }
        parser = cli.build_parser()
        for command in cli.COMMANDS:
            for flag in command.flags:
                args = parser.parse_args([command.name, "--seed", "1", flag.flag, "given"])
                assert getattr(args, flag.dest) == "given"

    def test_stage_keywords_are_its_flags(self):
        """A stage takes by keyword only its subcommand's flags, plus the
        bandwidth cross-validation chose, so no stage takes another's result."""
        for command in cli.COMMANDS:
            params = inspect.signature(getattr(pipeline, command.stage)).parameters
            flags = {f.dest for f in command.flags}
            if command.stage == "run_vote":
                flags.add("bandwidth")
            assert set(params) - {"ds", "cfg"} == flags, command.name

    @pytest.mark.parametrize("name", sorted(ARTIFACTS))
    def test_unset_flag_reads_the_default_file(
        self, name, synth_dir, run_dir, tmp_path, monkeypatch
    ):
        out = tmp_path / "out"
        shutil.copytree(run_dir, out)
        common = ["--manifest", synth_dir / "manifest.json", "--out", out,
                  "--target-cells", 30, "--frame-stride", 1, *STAGE_ARGS.get(name, [])]
        read = self.spy(monkeypatch)
        assert run_cli(name, *common) == 0
        assert sorted(read) == sorted(out / f for f in ARTIFACTS[name].values())

        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        flags, given = [], []
        for flag, default in ARTIFACTS[name].items():
            path = elsewhere / flag.lstrip("-")
            shutil.copy(out / default, path)
            flags += [flag, path]
            given.append(path)
        read.clear()
        assert run_cli(name, *common, *flags) == 0
        assert sorted(read) == sorted(given)

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

    @pytest.mark.parametrize("flag", sorted(ARTIFACTS["eval"]))
    def test_eval_refuses_a_named_input_that_does_not_exist(
        self, flag, synth_dir, run_dir, tmp_path, capsys
    ):
        out = tmp_path / "out"
        shutil.copytree(run_dir, out)
        missing = tmp_path / "nonexistent" / "input.jsonl"
        code = run_cli("eval", "--manifest", synth_dir / "manifest.json", "--out", out,
                       flag, missing)
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "MissingInputError",
                       "message": f"missing input file: {missing}"}
        assert (out / pipeline.METRICS).read_bytes() == (run_dir / pipeline.METRICS).read_bytes()

    @pytest.mark.parametrize("stage", [
        "run_mine", "run_select_tracks", "run_match", "run_vote", "run_train",
        "run_update", "run_regress", "run_eval", "run_cv_bandwidth",
    ])
    def test_stage_without_out_dir_is_refused(self, stage, synth_dir):
        ds = dataio.open_dataset(synth_dir / "manifest.json")
        with pytest.raises(MissingInputError, match="needs out_dir"):
            getattr(pipeline, stage)(ds, PipelineConfig(bandwidth=2.0))


class TestFmapChannels:
    """Every feature map of a dataset has one channel count; a map with
    another is refused naming its file."""

    @staticmethod
    def add_channel(data, relpath) -> tuple[Path, int]:
        path = data / relpath
        fmap = featmap.read_fmap(path)
        featmap.write_fmap(path, featmap.FeatureMap(np.concatenate(
            [fmap.data, fmap.data[:, :, :1]], axis=2
        )))
        return path, fmap.channels

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
        assert run_cli("select-tracks", *common) == 1
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


class TestReports:
    def test_stage_reports_written(self, synth_dir, tmp_path):
        out = tmp_path / "rep"
        cfg = PipelineConfig(
            manifest=str(synth_dir / "manifest.json"), out_dir=str(out), seed=3, **PROFILE
        )
        run_pipeline(cfg)
        names = {p.name for p in (out / "reports").glob("*.json")}
        assert {"mine.json", "select_tracks.json", "match.json", "vote.json",
                "train_initial.json", "update.json", "train_updated.json",
                "regress.json", "eval.json", "pipeline.json"} <= names
        for path in (out / "reports").glob("*.json"):
            report = json.loads(path.read_text())
            if path.stem.startswith("train_"):
                assert (report["stage"], report["tag"]) == ("train", path.stem[len("train_"):])
            else:
                assert report["stage"] == path.stem

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
            dataio.open_dataset(synth_dir / "manifest.json"),
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
        assert run_cli("select-tracks", *common) == 0
        assert run_cli("match", *common) == 0
        runs = []
        for _ in range(2):
            assert run_cli("cv-bandwidth", *common, "--seed", 7,
                           "--bandwidth-grid", "1,2") == 0
            runs.append((out / pipeline.BANDWIDTH_REPORT).read_bytes())
        assert runs[0] == runs[1]
        assert "elapsed_s" not in json.loads(runs[0])
        assert "elapsed_s" in json.loads((out / "reports" / "cv_bandwidth.json").read_text())


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

    @pytest.mark.parametrize("lsvm_rounds", [1, 2])
    def test_counts(self, synth_dir, tmp_path, monkeypatch, lsvm_rounds):
        parsed, manifests, votes, fits, videos = [], [], [], [], []
        scans, fmap_reads, updates = [], [], []
        self.count(monkeypatch, dataio, "read_proposals", parsed)
        self.count(monkeypatch, dataio, "load_manifest", manifests)
        self.count(monkeypatch, dataio.Manifest, "load_video_frames", videos)
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
            record=lambda model, images, before, result: result,
        )
        out = tmp_path / "run"
        run_pipeline(PipelineConfig(
            manifest=str(synth_dir / "manifest.json"), out_dir=str(out), seed=7,
            target_cells=30, frame_stride=1, bandwidth_grid=self.GRID,
            lsvm_rounds=lsvm_rounds,
        ))
        assert len(parsed) == 1
        assert len(manifests) == 1
        n_images = len(dataio.read_transfer_boxes(out / pipeline.TRANSFERS))
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
        assert len(updates) == lsvm_rounds
        trained = {tuple(sorted(gts.items())) for gts in [*voted.values(), *updates]}
        assert len(fits) == len(trained)
        manifest = dataio.load_manifest(synth_dir / "manifest.json")
        frames = [manifest.root / p for video in manifest.videos for p in video.frame_paths]
        # one scan per sampled frame (stride 1: every frame) covers every
        # region, so each (region, frame) pair is scored exactly once
        n_regions = len(dataio.read_regions(out / pipeline.REGIONS))
        assert n_regions > 0
        assert scans == [n_regions] * len(frames)
        # select-tracks and cross-validation each open every video and read
        # each of its frames once; match takes the top hits of the scan that
        # select-tracks ran
        assert len(videos) == 2 * len(manifest.videos)
        assert Counter(p for p in fmap_reads if p in frames) == {p: 2 for p in frames}

    def test_no_sampled_frame(self, synth_dir, tmp_path, capsys):
        """A manifest without videos samples no frame: select-tracks writes
        an empty selections.jsonl and match fails with NoFramesError."""
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        doc = json.loads((data / "manifest.json").read_text())
        doc["videos"] = []
        (data / "manifest.json").write_text(json.dumps(doc))
        out = tmp_path / "o"
        common = ["--manifest", data / "manifest.json", "--out", out, "--target-cells", 30]
        assert run_cli("mine", *common) == 0
        assert dataio.read_regions(out / pipeline.REGIONS)
        assert run_cli("select-tracks", *common) == 0
        assert (out / pipeline.SELECTIONS).read_text() == ""
        capsys.readouterr()
        assert run_cli("match", *common) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "NoFramesError", "message": "no sampled frames in any video"}

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
        bandwidth's trial pseudo GT is what voting at that bandwidth alone finds."""
        grid = (1.0, 2.0, 4.0, 8.0)
        out = tmp_path / "run"
        cfg = PipelineConfig(
            manifest=str(synth_dir / "manifest.json"), out_dir=str(out), seed=7,
            target_cells=30, frame_stride=1, bandwidth_grid=grid,
        )
        ds = dataio.open_dataset(cfg.manifest)
        pipeline.run_mine(ds, cfg)
        pipeline.run_select_tracks(ds, cfg)
        pipeline.run_match(ds, cfg)
        pipeline.run_cv_bandwidth(ds, cfg)
        boxes = dataio.read_transfer_boxes(out / pipeline.TRANSFERS)
        pairs = tuple((i, tuple(boxes[i])) for i in sorted(boxes))
        voted = ds.memo(pipeline.vote_pseudo_gts, pairs, grid, cfg.theta)
        trials = [voted[b] for b in grid]
        for b, trial in zip(grid, trials):
            alone = pipeline.vote_pseudo_gts(ds, pairs, (b,), cfg.theta)
            assert trial == alone[b]
        # on this data every grid bandwidth votes differently
        assert all(trials[i] != trials[j] for i in range(len(grid)) for j in range(i))


class TestMemo:
    """``Dataset.memo`` reuses a result only for equal inputs."""

    def test_computed_once_per_distinct_args_and_failures_forgotten(self, synth_dir):
        ds = dataio.open_dataset(synth_dir / "manifest.json")
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
        assert dataio.open_dataset(synth_dir / "manifest.json").memo(compute, 1) is not first

    def test_match_after_regions_change_scans_the_new_regions(self, synth_dir, tmp_path):
        cfg = PipelineConfig(
            manifest=str(synth_dir / "manifest.json"), out_dir=str(tmp_path / "run"),
            seed=7, **PROFILE,
        )
        ds = dataio.open_dataset(cfg.manifest)
        pipeline.run_mine(ds, cfg)
        pipeline.run_select_tracks(ds, cfg)
        regions = tmp_path / "run" / pipeline.REGIONS
        mined = dataio.read_regions(regions)
        pipeline.run_match(ds, cfg)
        all_regions = (tmp_path / "run" / pipeline.TRANSFERS).read_bytes()
        dataio.write_regions(regions, mined[: len(mined) // 2])
        pipeline.run_match(ds, cfg)

        fresh = tmp_path / "fresh"
        fresh.mkdir()
        for name in (pipeline.REGIONS, pipeline.SELECTIONS):
            shutil.copy(tmp_path / "run" / name, fresh / name)
        fresh_cfg = dataclasses.replace(cfg, out_dir=str(fresh))
        pipeline.run_match(dataio.open_dataset(cfg.manifest), fresh_cfg)
        subset = (tmp_path / "run" / pipeline.TRANSFERS).read_bytes()
        assert subset == (fresh / pipeline.TRANSFERS).read_bytes()
        assert subset != all_regions


def per_proposal_images(manifest):
    """image_id -> (label, [(prop_id, box, feature)]): proposals as the
    per-proposal stage code held them, parsed and pooled row by row."""
    images = {}
    for row in dataio.read_jsonl(manifest.path("proposals")):
        label, props = images.setdefault(row["image_id"], (row["label"], []))
        box = BBox.from_list(row["box"])
        fmap = manifest.load_image_fmap(row["image_id"])
        props.append((
            f"{row['image_id']}#{len(props)}",
            box,
            pool_box_feature(fmap, box, manifest.cell_stride),
        ))
    return {image_id: images[image_id] for image_id in sorted(images)}


def per_proposal_corpus(manifest, images, pseudo_gts):
    feats, labels = [], []
    for image_id in sorted(images):
        label, props = images[image_id]
        if label == "pos":
            gt = pseudo_gts.get(image_id)
            if gt is None:
                continue
            fmap = manifest.load_image_fmap(image_id)
            feats.append(pool_box_feature(fmap, gt.box, manifest.cell_stride))
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
        for i in nms(boxes, [float(s) for s in scores], nms_iou):
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
        keep = nms(boxes, [float(s) for s in scores], nms_iou)
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
        ds = dataio.open_dataset(synth_dir / "manifest.json")
        gt = dataio.read_gt(synth_dir / "gt.jsonl")["obj"]
        # every other positive image gets its true box, shifted so that some
        # proposals fall in the hard-negative band; the rest have none
        pseudo_gts = {}
        for n, image_id in enumerate(sorted(gt)):
            if n % 2 == 0:
                b = gt[image_id][0]
                box = BBox(b.x_min + 0.5, b.y_min, b.x_max + 0.5, b.y_max + 0.25)
                pseudo_gts[image_id] = PseudoGT(image_id=image_id, box=box, vote=25.0, support=25)
        return ds, per_proposal_images(ds.manifest), pseudo_gts

    def test_corpus_detections_and_update(self, inputs):
        ds, images, pseudo_gts = inputs
        X, y = pipeline._training_corpus(ds, pseudo_gts)
        X_ref, y_ref = per_proposal_corpus(ds.manifest, images, pseudo_gts)
        assert X.dtype == X_ref.dtype and np.array_equal(X, X_ref)
        assert y.dtype == y_ref.dtype and np.array_equal(y, y_ref)
        assert 0 < np.sum(y > 0) < np.sum(y < 0)

        model = pipeline.fit_detector(ds, pseudo_gts, 50, 0.1, 1e-4, 3).model
        assert pipeline._detect(ds.images, model, 0.3) == per_proposal_detect(images, model, 0.3)
        got = lsvm_update(model, ds.images, pseudo_gts, nms_iou=0.3)
        want = per_proposal_lsvm_update(model, images, pseudo_gts, 0.3)
        assert got == want
        assert any(g.updated for g in got.values())

    def test_regressor_pairs(self, inputs, tmp_path):
        ds, images, pseudo_gts = inputs
        dataio.write_pseudo_gts(tmp_path / "pgt.jsonl", list(pseudo_gts.values()))
        dataio.write_detections(tmp_path / "det.jsonl", [])
        report = pipeline.run_regress(
            ds, PipelineConfig(out_dir=str(tmp_path)),
            pseudo_gt=tmp_path / "pgt.jsonl", detections=tmp_path / "det.jsonl",
        )
        pairs = [
            (np.asarray(feature, dtype=np.float64), box, pseudo_gts[image_id].box)
            for image_id in sorted(pseudo_gts)
            for _pid, box, feature in images[image_id][1]
            if iou(box, pseudo_gts[image_id].box) >= 0.6
        ]
        assert report["n_pairs"] == len(pairs) > 0
        dataio.write_regressor(tmp_path / "want.json", fit_bbox_regressor(pairs, l2=1e-3))
        assert (tmp_path / pipeline.REGRESSOR).read_bytes() == (tmp_path / "want.json").read_bytes()


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
        ("mine", "manifest.json", "cell_stride", True, "manifest.json"),
        ("mine", "manifest.json", "size", ["wide", 16], "manifest.json"),
        ("match", pipeline.SELECTIONS, "frame_idx", "x", "selections.jsonl line 1"),
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

    def test_model_bias_refuses_a_numeric_string(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"weights": [1.0], "bias": "0.5"}')
        with pytest.raises(ConfigInvalidError, match="model.json: bad value for key 'bias'"):
            dataio.read_model(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n{"a": \n')
        with pytest.raises(ConfigInvalidError, match="rows.jsonl line 4"):
            list(dataio.read_jsonl(path))


# Each record file a subcommand reads, by that subcommand; vote and
# cv-bandwidth read only `image_id` and `box` of transfers.jsonl.
RECORD_READERS = {
    pipeline.SELECTIONS: ("match", dataio.SELECTION_SCHEMA),
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

    @pytest.fixture(scope="class")
    def finished(self, synth_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("finished")
        code = run_cli("pipeline", "--manifest", synth_dir / "manifest.json", "--out", out,
                       "--seed", 0, "--target-cells", 30, "--frame-stride", 1, "--bandwidth", 2.0)
        assert code == 0
        return out

    # (command, (flag, file under --out), file, key); unrefused, the first
    # three give a wrong `map`, an OverflowError and a ValueError traceback
    CASES = [
        pytest.param(command, flag, name, key, id=f"{command}-{name}-{key}")
        for command, flag, name, key in (
            ("eval", ("--detections-bboxreg", pipeline.DETECTIONS_BBOXREG),
             pipeline.DETECTIONS_BBOXREG, "score"),
            ("pipeline", ("--heatmaps", "heatmaps"), "manifest.json", "size"),
            ("update", (), pipeline.MODEL_INITIAL, "weights"),
            ("update", (), pipeline.MODEL_INITIAL, "bias"),
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
        ds = dataio.open_dataset(synth_dir / "manifest.json")
        manifest = ds.manifest
        assert len(ds.images) == len(manifest.images)
        for image_id, image in ds.images.items():
            fmap = manifest.load_image_fmap(image_id)
            want = np.stack(
                [pool_box_feature(fmap, box, manifest.cell_stride) for box in image.boxes]
            )
            assert image.features.dtype == want.dtype and np.array_equal(image.features, want)

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
        assert err["error"] == "ConfigInvalidError"
        assert "proposals.jsonl line 2 (image pos_000): label 'neg'" in err["message"]

    def test_image_disagreeing_with_the_manifest_refused(self, data, tmp_path, capsys):
        def relabel(n, row):
            if row["image_id"] == "pos_003":
                row["label"] = "neg"

        err = self.mine(data, tmp_path, capsys, relabel)
        assert err["error"] == "ConfigInvalidError"
        assert err["message"].startswith("image pos_003 is labelled 'neg'")
        assert err["message"].endswith("but 'pos' in the manifest")

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
        manifest = dataio.load_manifest(data / "manifest.json")
        rows[2]["box"] = make_box(manifest.image(rows[2]["image_id"]))
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
    assert names == [
        "mine", "select_tracks", "match", "vote", "train_initial", "update", "train_updated",
        "regress", "eval", "pipeline",
    ]


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
                        dataio.read_transfer_boxes, {"pos_000": [BOX]}),
    "pseudo_gt.jsonl": (dataio.PSEUDO_GT_SCHEMA, dataio.write_pseudo_gts, [PSEUDO_GT],
                        dataio.read_pseudo_gts, {"pos_000": PSEUDO_GT}),
    "detections*.jsonl": (dataio.DETECTION_SCHEMA, dataio.write_detections, DETECTIONS,
                          dataio.read_detections, DETECTIONS),
}
TRANSFER_KEYS_READ = ("image_id", "box")


class TestDataIoRoundTrips:
    def test_model_round_trip(self, tmp_path):
        from boxforge.detector import LinearModel

        model = LinearModel(weights=np.array([0.5, -1.25]), bias=3.0, category_id="obj")
        dataio.write_model(tmp_path / "m.json", model)
        back = dataio.read_model(tmp_path / "m.json")
        assert np.array_equal(back.weights, model.weights)
        assert back.bias == model.bias and back.category_id == "obj"

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
        fields = lambda m: (m.cell_stride, m.categories, m.images, m.videos, m.files)
        assert fields(dataio.load_manifest(path)) == fields(
            dataio.load_manifest(synth_dir / "manifest.json")
        )

    @pytest.mark.parametrize("section,key,value", [
        ("images", "size", [0, 0]), ("images", "size", [-16, 16]), ("images", "size", [16]),
        ("videos", "frames", []),
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

    def test_lookups_by_id(self, synth_dir):
        manifest = dataio.load_manifest(synth_dir / "manifest.json")
        for entry in manifest.images:
            assert manifest.image(entry.image_id) is entry
        with pytest.raises(MissingInputError):
            manifest.image("no_such_image")
        with pytest.raises(MissingInputError):
            manifest.load_video_frames("no_such_video")


class TestRegressFallbacks:
    @pytest.fixture()
    def regress_inputs(self, tmp_path):
        """A dataset plus pseudo GT and detections on its GT boxes."""
        data = tmp_path / "data"
        gen_dataset(SynthConfig(seed=0, n_videos=1, frames_per_video=2), data)
        gt = dataio.read_gt(data / "gt.jsonl")["obj"]
        gts = [
            PseudoGT(image_id=image_id, box=boxes[0], vote=30.0, support=30)
            for image_id, boxes in sorted(gt.items())
        ]
        dataio.write_pseudo_gts(tmp_path / "pgt.jsonl", gts)
        dataio.write_detections(
            tmp_path / "det.jsonl", [(g.image_id, g.box, 1.0) for g in gts]
        )
        return data / "manifest.json", tmp_path / "pgt.jsonl", tmp_path / "det.jsonl", gts

    def test_unrelated_error_propagates(self, regress_inputs, tmp_path, monkeypatch):
        manifest, pgt, det, _ = regress_inputs

        def broken(regressor, feature, box):
            raise RuntimeError("not a dimension mismatch")

        monkeypatch.setattr(pipeline, "apply_regressor", broken)
        with pytest.raises(RuntimeError):
            pipeline.run_regress(
                dataio.open_dataset(manifest), PipelineConfig(out_dir=str(tmp_path / "out")),
                pseudo_gt=pgt, detections=det,
            )
