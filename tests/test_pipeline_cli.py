import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import boxforge
from boxforge import cli, dataio, pipeline
from boxforge.config import PipelineConfig, build_config, parse_config_file
from boxforge.errors import (
    ConfigInvalidError,
    DimensionMismatchError,
    EmptyPoolError,
    MissingInputError,
)
from boxforge.detector import TrainConfig, fit_bbox_regressor, lsvm_update
from boxforge.featmap import pool_box_feature
from boxforge.geometry import BBox, iou, nms
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
        assert_same_outputs(chained, piped)

    def test_cv_stage_chain_matches_pipeline(self, synth_dir, tmp_path):
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
        best_b = json.loads((chained / pipeline.BANDWIDTH_REPORT).read_text())["best_b"]
        assert run_cli("vote", *common, "--bandwidth", best_b) == 0
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


class TestEachIntermediateOnce:
    """A pipeline run with a bandwidth grid parses each input once, votes
    once per grid bandwidth and trains once per detector it needs."""

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
        parsed, manifests, votes, fits, pyramids = [], [], [], [], []
        self.count(monkeypatch, dataio, "read_proposals", parsed)
        self.count(monkeypatch, dataio, "load_manifest", manifests)
        self.count(monkeypatch, dataio.Manifest, "load_video_pyramids", pyramids)
        self.count(
            monkeypatch, pipeline, "select_pseudo_gt", votes,
            record=lambda space, result, **kw: (space.bandwidth, result is not None),
        )
        self.count(monkeypatch, pipeline, "train_linear", fits)
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
        # pseudo GT has a training pool
        with_pool = {b for b, found in votes if found}
        assert with_pool
        assert len(fits) == len(with_pool) + lsvm_rounds
        # select-tracks, match and cross-validation each read every video once
        n_videos = len(dataio.load_manifest(synth_dir / "manifest.json").videos)
        assert len(pyramids) == 3 * n_videos

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


def per_proposal_images(manifest):
    """image_id -> (label, [(prop_id, box, feature)]): proposals as the
    per-proposal stage code held them."""
    by_image, labels = dataio.read_proposals(manifest.path("proposals"))
    return {
        image_id: (labels[image_id], [(p.prop_id, p.box, p.feature) for p in by_image[image_id]])
        for image_id in sorted(by_image)
    }


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

        model = pipeline.fit_detector(ds, pseudo_gts, TrainConfig(steps=50, seed=3)).model
        assert pipeline._detect(ds.images, model, 0.3) == per_proposal_detect(images, model, 0.3)
        got = lsvm_update(model, ds.images, pseudo_gts, nms_iou=0.3)
        want = per_proposal_lsvm_update(model, images, pseudo_gts, 0.3)
        assert got == want
        assert any(g.updated for g in got.values())

    def test_regressor_pairs(self, inputs, tmp_path):
        ds, images, pseudo_gts = inputs
        dataio.write_pseudo_gts(tmp_path / "pgt.jsonl", list(pseudo_gts.values()))
        dataio.write_detections(tmp_path / "det.jsonl", [])
        report = pipeline.run_regress(ds, tmp_path / "pgt.jsonl", tmp_path / "det.jsonl", tmp_path)
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

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n{"a": \n')
        with pytest.raises(ConfigInvalidError, match="rows.jsonl line 4"):
            dataio.read_jsonl(path)


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

        monkeypatch.setattr(dataio.os, "replace", broken_replace)
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
