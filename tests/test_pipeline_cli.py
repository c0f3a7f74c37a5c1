import json

import numpy as np
import pytest

from boxforge import cli, dataio, pipeline
from boxforge.config import PipelineConfig, build_config, parse_config_file
from boxforge.errors import ConfigInvalidError, DimensionMismatchError, MissingInputError
from boxforge.geometry import BBox
from boxforge.metrics import corloc
from boxforge.pipeline import run_pipeline
from boxforge.synth import SynthConfig, gen_dataset
from boxforge.voting import PseudoGT

# Matching profile for the synthetic data: planted objects occupy ~30 cells
# on a stride-1 single-level map, every frame is cheap enough to sample.
PROFILE = dict(target_cells=30, frame_stride=1, bandwidth=2.0)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    gen_dataset(SynthConfig(seed=0, n_videos=1, frames_per_video=8), root)
    return root


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


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
            "kernel = epanechnikov\n"
        )
        cfg = build_config(str(cfg_file))
        assert cfg.k == 4
        assert cfg.top_clusters == 150
        assert cfg.n_matches == 10
        assert cfg.theta == 12.5
        assert cfg.bandwidth == 2.0
        assert cfg.kernel == "epanechnikov"

    def test_overrides_beat_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("n = 10\n")
        cfg = build_config(str(cfg_file), {"n_matches": 33})
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

    def test_validation_catches_bad_values(self):
        with pytest.raises(ConfigInvalidError):
            PipelineConfig(theta=-1.0).validate()
        with pytest.raises(ConfigInvalidError):
            PipelineConfig(kernel="box").validate()


class TestCliStages:
    def test_full_stage_chain_matches_pipeline(self, synth_dir, tmp_path):
        manifest = synth_dir / "manifest.json"
        chained = tmp_path / "chained"
        common = ["--manifest", manifest, "--out", chained,
                  "--target-cells", 30, "--frame-stride", 1]
        assert run_cli("mine", *common) == 0
        assert run_cli("select-tracks", *common) == 0
        assert run_cli("match", *common) == 0
        assert run_cli("vote", *common, "--bandwidth", 2.0) == 0
        assert run_cli("train", *common, "--seed", 7) == 0
        assert run_cli("update", *common) == 0
        assert run_cli(
            "train", *common, "--seed", 7,
            "--pseudo-gt", chained / "pseudo_gt_updated.jsonl", "--tag", "updated",
        ) == 0
        assert run_cli("regress", *common) == 0
        assert run_cli(
            "eval", *common, "--updated-pseudo-gt", chained / "pseudo_gt_updated.jsonl"
        ) == 0

        piped = tmp_path / "piped"
        cfg = PipelineConfig(
            manifest=str(manifest), out_dir=str(piped), seed=7, **PROFILE
        )
        doc = run_pipeline(cfg)
        chained_doc = json.loads((chained / "metrics.json").read_text())
        piped_doc = json.loads((piped / "metrics.json").read_text())
        assert chained_doc == piped_doc
        assert doc["mean_corloc"] == piped_doc["mean_corloc"]

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

    def test_rerun_overwrites_with_identical_semantics(self, synth_dir, tmp_path):
        out = tmp_path / "twice"
        cfg = PipelineConfig(
            manifest=str(synth_dir / "manifest.json"), out_dir=str(out), seed=3, **PROFILE
        )
        a = run_pipeline(cfg)
        b = run_pipeline(cfg)
        assert a == b


    def test_mine_report_counts_proposals_and_pairs(self, synth_dir, tmp_path):
        report = pipeline.run_mine(synth_dir / "manifest.json", tmp_path / "m")
        by_image, _ = dataio.read_proposals(synth_dir / "proposals.jsonl")
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


class TestProposalValidation:
    @staticmethod
    def write(path, features):
        dataio.write_jsonl(
            path,
            (
                {"image_id": f"im{i // 2}", "label": "pos", "box": [0, 0, 4, 4], "feature": f}
                for i, f in enumerate(features)
            ),
        )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_feature_refused_naming_row(self, tmp_path, bad):
        path = tmp_path / "proposals.jsonl"
        self.write(path, [[1.0, 0.0], [0.0, 1.0], [1.0, bad]])
        with pytest.raises(ConfigInvalidError, match=r"row 3 \(image im1\)"):
            dataio.read_proposals(path)

    def test_feature_length_mismatch_refused_naming_row(self, tmp_path):
        path = tmp_path / "proposals.jsonl"
        self.write(path, [[1.0, 0.0], [0.0, 1.0, 2.0], [1.0, 1.0]])
        with pytest.raises(DimensionMismatchError, match=r"row 2 \(image im0\).*length 3.*has 2"):
            dataio.read_proposals(path)

    def test_mine_cli_reports_bad_proposals(self, synth_dir, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("manifest.json", "proposals.jsonl"):
            (data / name).write_bytes((synth_dir / name).read_bytes())
        rows = dataio.read_jsonl(data / "proposals.jsonl")
        rows[4]["feature"][0] = float("nan")
        dataio.write_jsonl(data / "proposals.jsonl", rows)
        assert run_cli("mine", "--manifest", data / "manifest.json", "--out", tmp_path / "o") != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigInvalidError"
        assert "row 5" in err["message"]


class TestDataIoRoundTrips:
    def test_detections_round_trip(self, tmp_path):
        rows = [("img", BBox(0, 0, 4, 4), 0.75), ("img2", BBox(1, 1, 2, 3), -1.0)]
        dataio.write_detections(tmp_path / "d.jsonl", rows)
        assert dataio.read_detections(tmp_path / "d.jsonl") == rows

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
        back = dataio.read_regressor(tmp_path / "r.json")
        assert np.array_equal(back.weights, reg.weights)
        assert np.array_equal(back.biases, reg.biases)

    def test_pseudo_gt_round_trip(self, tmp_path):
        from boxforge.voting import PseudoGT

        gts = [PseudoGT(image_id="a", box=BBox(0, 0, 2, 2), vote=21.5, support=20, updated=True)]
        dataio.write_pseudo_gts(tmp_path / "p.jsonl", gts)
        assert dataio.read_pseudo_gts(tmp_path / "p.jsonl") == {"a": gts[0]}


class TestManifest:
    @pytest.mark.parametrize("section", ["images", "videos"])
    def test_duplicate_id_refused(self, synth_dir, tmp_path, section):
        doc = json.loads((synth_dir / "manifest.json").read_text())
        doc[section].append(dict(doc[section][0]))
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigInvalidError, match="twice"):
            dataio.load_manifest(path)

    def test_lookups_by_id(self, synth_dir):
        manifest = dataio.load_manifest(synth_dir / "manifest.json")
        for entry in manifest.images:
            assert manifest.image(entry.image_id) is entry
        with pytest.raises(MissingInputError):
            manifest.image("no_such_image")
        with pytest.raises(MissingInputError):
            manifest.load_video_pyramids("no_such_video")


class TestRegressFallbacks:
    @pytest.fixture()
    def regress_inputs(self, tmp_path):
        """A dataset whose proposal features are one entry longer than the
        pooled box features, plus pseudo GT and detections on its GT boxes."""
        data = tmp_path / "data"
        gen_dataset(SynthConfig(seed=0, n_videos=1, frames_per_video=2), data)
        rows = dataio.read_jsonl(data / "proposals.jsonl")
        for row in rows:
            row["feature"].append(0.0)
        dataio.write_jsonl(data / "proposals.jsonl", rows)
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

    def test_dimension_mismatch_counted_as_fallback(self, regress_inputs, tmp_path):
        manifest, pgt, det, gts = regress_inputs
        report = pipeline.run_regress(manifest, pgt, det, tmp_path / "out")
        assert report["n_regressor_fallbacks"] == len(gts) > 0
        refined = dataio.read_detections(tmp_path / "out" / pipeline.DETECTIONS_BBOXREG)
        assert [box for _, box, _ in refined] == [g.box for g in gts]

    def test_unrelated_error_propagates(self, regress_inputs, tmp_path, monkeypatch):
        manifest, pgt, det, _ = regress_inputs

        def broken(regressor, feature, box):
            raise RuntimeError("not a dimension mismatch")

        monkeypatch.setattr(pipeline, "apply_regressor", broken)
        with pytest.raises(RuntimeError):
            pipeline.run_regress(manifest, pgt, det, tmp_path / "out")
