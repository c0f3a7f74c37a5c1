import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from boxforge import dataio
from boxforge.errors import ConfigInvalidError
from boxforge.featmap import read_fmap
from boxforge.geometry import iou
from boxforge.mining import build_clusters, dedup_clusters, rank_clusters
from boxforge.synth import (
    CATEGORY,
    N_TRACKS,
    SynthConfig,
    gen_dataset,
)
from boxforge.tracks import candidates_at_frame

from test_featmap import scan_hits, window

SMALL = SynthConfig(seed=0, n_videos=1, frames_per_video=4)


def file_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        gen_dataset(SMALL, tmp_path / "a")
        gen_dataset(SMALL, tmp_path / "b")
        a, b = file_bytes(tmp_path / "a"), file_bytes(tmp_path / "b")
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], f"{name} differs between identical-seed runs"

    def test_different_seed_differs(self, tmp_path):
        gen_dataset(SMALL, tmp_path / "a")
        gen_dataset(replace(SMALL, seed=1), tmp_path / "b")
        a, b = file_bytes(tmp_path / "a"), file_bytes(tmp_path / "b")
        assert any(a[n] != b[n] for n in a if n.endswith(".fmap"))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_pos_images": 0},
            {"map_height": 8},
            {"noise_sigma": -0.1},
            {"signature_strength": 0.01},
            {"multi_instance_prob": 1.5},
            {"n_distractors": 9, "channels": 8},
            {"proposals_per_image": 3},
            {"multi_instance_prob": 0.5, "map_height": 13, "map_width": 13},
        ],
    )
    def test_invalid_configs_raise(self, kwargs):
        with pytest.raises(ConfigInvalidError):
            replace(SMALL, **kwargs)

    def test_default_is_valid(self):
        SynthConfig()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    truth = gen_dataset(SynthConfig(seed=3), root)
    return root, truth


class TestStructure:
    def test_manifest_references_exist(self, dataset):
        root, _ = dataset
        ds = dataio.load_manifest(root / "manifest.json")
        assert ds.category == CATEGORY
        for entry in ds.entries.values():
            assert (root / entry.fmap_path).exists()
        for frame_paths in ds.videos.values():
            for frame in frame_paths:
                assert (root / frame).exists()

    def test_every_planted_box_in_gt_jsonl(self, dataset):
        root, truth = dataset
        gt = dataio.read_gt(root / "gt.jsonl")[CATEGORY]
        for image_id, boxes in truth.gt_boxes.items():
            assert sorted(b.as_list() for b in gt[image_id]) == sorted(
                b.as_list() for b in boxes
            )

    def test_proposal_counts_and_planted_box_present(self, dataset):
        root, truth = dataset
        cfg = SynthConfig(seed=3)
        by_image = dataio.read_proposals(dataio.load_manifest(root / "manifest.json"))
        for image_id, props in by_image.items():
            assert len(props) == cfg.proposals_per_image
        for image_id, boxes in truth.gt_boxes.items():
            prop_boxes = {tuple(row) for row in by_image[image_id].coords.tolist()}
            for b in boxes:
                assert tuple(b.as_list()) in prop_boxes

    def test_nine_tracks_per_video_with_rank_permutation(self, dataset):
        root, _ = dataset
        tracks = dataio.read_tracks(root / "tracks.jsonl")
        for video_id, ts in tracks.items():
            assert len(ts) == N_TRACKS
            assert sorted(t.rank for t in ts) == list(range(1, N_TRACKS + 1))
            assert sorted(t.track_id for t in ts) == list(range(N_TRACKS))

    def test_true_track_upper_bound_is_one_everywhere(self, dataset):
        root, truth = dataset
        tracks = dataio.read_tracks(root / "tracks.jsonl")
        cfg = SynthConfig(seed=3)
        for video_id, true_id in truth.true_tracks.items():
            true = next(t for t in tracks[video_id] if t.track_id == true_id)
            for frame_idx in range(cfg.frames_per_video):
                gt = true.box_at(frame_idx)
                assert gt is not None
                cands = candidates_at_frame(tracks[video_id], frame_idx)
                assert max(iou(b, gt) for _, b in cands) == 1.0

    def test_signatures_orthonormal(self, dataset):
        _, truth = dataset
        sigs = np.vstack([truth.signature[None, :], truth.distractor_signatures])
        gram = sigs @ sigs.T
        assert np.allclose(gram, np.eye(len(sigs)), atol=1e-9)


def test_noiseless_identity_match(tmp_path):
    cfg = replace(SMALL, noise_sigma=0.0)
    truth = gen_dataset(cfg, tmp_path)
    ds = dataio.load_manifest(tmp_path / "manifest.json")
    image_id = sorted(truth.gt_boxes)[0]
    gt_box = truth.gt_boxes[image_id][0]
    fmap = ds.load_image_fmap(image_id)
    rect = tuple(int(c) for c in (gt_box.x_min, gt_box.y_min, gt_box.width, gt_box.height))
    q = window(fmap, rect)
    [(score, cell_y, cell_x)] = scan_hits(q, fmap, 1)
    assert score == pytest.approx(1.0, abs=1e-6)
    assert (cell_x, cell_y) == (rect[0], rect[1])


def test_rank_one_cluster_is_dominated_by_positives(tmp_path):
    gen_dataset(SynthConfig(seed=0), tmp_path)
    by_image = dataio.read_proposals(dataio.load_manifest(tmp_path / "manifest.json"))
    clusters = build_clusters(by_image, 4)
    top = dedup_clusters(clusters, rank_clusters(clusters))[0]
    size = clusters.regions([top]).shape[1]  # the seed plus its members
    assert clusters.positive[top] / size >= 0.9


def test_rank_one_cluster_members_localize_planted_boxes(tmp_path):
    truth = gen_dataset(SynthConfig(seed=0), tmp_path)
    by_image = dataio.read_proposals(dataio.load_manifest(tmp_path / "manifest.json"))
    clusters = build_clusters(by_image, 4)
    rows = clusters.regions(dedup_clusters(clusters, rank_clusters(clusters))[:1])[0]
    regions = [
        (clusters.image_ids[o], clusters.images[o].box(row - clusters.offsets[o]))
        for row, o in zip(rows, clusters.owners(rows))
    ]
    hits = sum(
        1
        for image_id, box in regions
        if max(iou(box, g) for g in truth.gt_boxes[image_id]) > 0.5
    )
    assert hits / len(regions) >= 0.8


def test_multi_instance_case_plants_two_separated_instances(tmp_path):
    truth = gen_dataset(SynthConfig(seed=1, multi_instance_prob=1.0), tmp_path)
    for image_id, boxes in truth.gt_boxes.items():
        assert len(boxes) == 2
        assert iou(boxes[0], boxes[1]) == 0.0
    gt = dataio.read_gt(tmp_path / "gt.jsonl")[CATEGORY]
    assert all(len(v) == 2 for v in gt.values())


def test_multi_instance_prob_zero_reduces_to_single(tmp_path):
    truth = gen_dataset(replace(SMALL, multi_instance_prob=0.0), tmp_path)
    assert all(len(b) == 1 for b in truth.gt_boxes.values())


def test_truth_json_names_true_tracks(tmp_path):
    truth = gen_dataset(SMALL, tmp_path)
    doc = json.loads((tmp_path / "truth.json").read_text())
    assert doc["category"] == CATEGORY
    assert doc["true_tracks"] == {k: v for k, v in truth.true_tracks.items()}


def test_fmap_files_parse_with_expected_shape(tmp_path):
    gen_dataset(SMALL, tmp_path)
    fm = read_fmap(tmp_path / "fmaps" / "pos_000.fmap")
    assert fm.shape == (16, 16, 8)
