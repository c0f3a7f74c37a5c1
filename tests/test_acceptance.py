"""Acceptance suite: oracle-equivalence, invariants, and the directional
qualitative claims, each with its runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from boxforge import dataio
from boxforge.config import PipelineConfig
from boxforge.detector import (
    ImageProposals,
    apply_box_targets,
    box_regression_targets,
    hard_negative_mask,
    lsvm_update,
    LinearModel,
    regression_pairs,
)
from boxforge.geometry import BBox, box_array, iou, transfer_box
from boxforge.metrics import average_precision, corloc
from boxforge.mining import (
    best_region_per_image,
    build_clusters,
    dedup_clusters,
    rank_clusters,
)
from boxforge.pipeline import (
    _detect,
    run_match,
    run_mine,
    run_pipeline,
    run_vote,
)
from boxforge.synth import SynthConfig, gen_dataset
from boxforge.tracks import evaluate_selection
from boxforge.voting import PseudoGT, VoteSpace, ranked_ascents, select_pseudo_gt

from test_featmap import scan_hits, window
from test_mining import (
    dataset as make_dataset,
    oracle_build,
    oracle_dedup,
    oracle_rank,
    oracle_signature,
    per_proposal,
    signature,
)

# Matching profile for the synthetic datasets: objects cover ~30 stride-1
# cells, frames are cheap enough to sample densely, and vote coordinates
# live on a 16-pixel image, so the bandwidth is a couple of pixels.
SYNTH_PROFILE = dict(target_cells=30, frame_stride=1, bandwidth=2.0)
TRAIN_SEED = 7


def report(name, detail):
    print(f"[acceptance] {name}: PASS ({detail})")


# --------------------------------------------------------------------------
# 1. Geometry oracle
# --------------------------------------------------------------------------


def pixel_iou(a: BBox, b: BBox, size: int = 64) -> float:
    xs = np.arange(size)[None, :]
    ys = np.arange(size)[:, None]
    in_a = (a.x_min <= xs) & (xs < a.x_max) & (a.y_min <= ys) & (ys < a.y_max)
    in_b = (b.x_min <= xs) & (xs < b.x_max) & (b.y_min <= ys) & (ys < b.y_max)
    union = np.count_nonzero(in_a | in_b)
    return np.count_nonzero(in_a & in_b) / union if union else 0.0


def random_int_box(rng, limit=64):
    x0 = int(rng.integers(0, limit - 1))
    y0 = int(rng.integers(0, limit - 1))
    w = int(rng.integers(1, limit - x0))
    h = int(rng.integers(1, limit - y0))
    return BBox(x0, y0, x0 + w, y0 + h)


def test_criterion_1_geometry_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        a, b = random_int_box(rng), random_int_box(rng)
        worst = max(worst, abs(iou(a, b) - pixel_iou(a, b)))
    assert worst <= 1e-9

    inverses = 0
    for _ in range(1000):
        r, v, t = (random_int_box(rng) for _ in range(3))
        try:
            forward = transfer_box(r, v, t)
            back = transfer_box(forward, t, v)
        except Exception:
            continue
        assert back == r
        inverses += 1
    assert inverses > 500
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report("criterion-1 geometry oracle",
           f"1000 IOU pairs max err {worst:.1e}, {inverses} exact inverses, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 2. Matching oracle
# --------------------------------------------------------------------------


def exhaustive_scan(query, fm, top_n):
    qf = query.reshape(-1)
    nq = float(np.linalg.norm(qf))
    h, w = query.shape[:2]
    hits = []
    for cy in range(fm.shape[0] - h + 1):
        for cx in range(fm.shape[1] - w + 1):
            wf = (
                fm[cy : cy + h, cx : cx + w, :]
                .astype(np.float64)
                .reshape(-1)
            )
            nw = float(np.linalg.norm(wf))
            score = 0.0 if nq < 1e-12 or nw < 1e-12 else min(1.0, max(-1.0, float(np.dot(qf, wf) / (nq * nw))))
            hits.append((score, cy, cx))
    hits.sort(key=lambda h: (-h[0], h[1], h[2]))
    return hits[:top_n]


def test_criterion_2_matching_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    for trial in range(50):
        h = int(rng.integers(5, 17))
        w = int(rng.integers(5, 17))
        c = int(rng.integers(1, 9))
        fm = rng.normal(size=(h, w, c)).astype(np.float32)
        if trial % 5 == 0:
            # duplicated content forces exact score ties
            fm[:, : w // 2, :] = fm[:, w - w // 2 :, :][:, : w // 2, :]
        qw = int(rng.integers(2, min(6, w) + 1))
        qh = int(rng.integers(2, min(6, h) + 1))
        if trial % 2 == 0:
            qx = int(rng.integers(0, w - qw + 1))
            qy = int(rng.integers(0, h - qh + 1))
            query = window(fm, (qx, qy, qw, qh))
        else:
            query = rng.normal(size=(qh, qw, c))
        got = scan_hits(query, fm, 5)
        want = exhaustive_scan(query, fm, 5)
        assert got == want, f"trial {trial} diverged from the exhaustive scan"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report("criterion-2 matching oracle", f"50 maps exact top-5 match, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 3. Voting oracle
# --------------------------------------------------------------------------


def grid_max_vote(points, b):
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    axes = [np.arange(lo[d], hi[d] + b / 4, b / 4) for d in range(4)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
    best = -np.inf
    for start in range(0, len(grid), 20000):
        chunk = grid[start : start + 20000]
        d2 = ((chunk[:, None, :] - points[None, :, :]) ** 2).sum(-1) / (b * b)
        votes = np.exp(-0.5 * d2).sum(-1)
        best = max(best, float(votes.max()))
    return best


def test_criterion_3_voting_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    for trial in range(30):
        b = float(rng.uniform(1.0, 3.0))
        base = np.array([10.0, 10.0, 10.0 + 8 * b, 10.0 + 8 * b])
        n1 = int(rng.integers(5, 25))
        cloud = [base + rng.normal(scale=0.5 * b, size=4) for _ in range(n1)]
        if trial % 3 == 0:
            shift = rng.uniform(1.5 * b, 2.5 * b)
            n2 = int(rng.integers(3, 40 - n1))
            cloud += [base + shift + rng.normal(scale=0.5 * b, size=4) for _ in range(n2)]
        points = np.array(cloud)
        space = VoteSpace(points=points, bandwidth=b)
        [ranking] = ranked_ascents(points, [b])
        gt = select_pseudo_gt(space, ranking, 0.0, (1e9, 1e9), "")
        assert gt is not None
        assert gt.vote >= grid_max_vote(points, b) * 0.99

    for m in (1, 7, 33):
        space = VoteSpace(points=np.tile([4.0, 4.0, 9.0, 9.0], (m, 1)), bandwidth=2.0)
        [ranking] = ranked_ascents(space.points, [2.0])
        gt = select_pseudo_gt(space, ranking, 0.0, (64, 64), "")
        assert gt.vote == float(m)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("criterion-3 voting oracle",
           f"30 clouds within 1% of grid max, coincident counts exact, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 4. Mining brute-force equivalence
# --------------------------------------------------------------------------


def test_criterion_4_mining_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    for trial in range(100):
        n_images = int(rng.integers(2, 7))
        layout = {}
        for j in range(n_images):
            n_props = int(rng.integers(1, 6))
            items = []
            for _ in range(n_props):
                feat = rng.normal(size=int(rng.integers(2, 5)) if j == 0 else 3)
                feat = rng.normal(size=3)
                x = float(rng.integers(0, 40))
                items.append((feat, BBox(x, 0.0, x + 10.0, 10.0)))
            layout[f"im{j}"] = ("pos" if rng.random() < 0.6 else "neg", items)
        by_image, labels = make_dataset(layout)
        k = int(rng.integers(0, n_images + 1))
        clusters = build_clusters(by_image, k)
        got = dedup_clusters(clusters, rank_clusters(clusters))
        want = oracle_dedup(oracle_rank(oracle_build(per_proposal(by_image), labels, k)))
        assert signature(clusters, got) == [
            oracle_signature(c) for c in want
        ], f"trial {trial} diverged from the exhaustive implementation"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report("criterion-4 mining equivalence", f"100 instances identical, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 5 & 6. Directional reproduction on the default synthetic dataset
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def synth_pipeline(tmp_path_factory):
    t0 = time.perf_counter()
    root = tmp_path_factory.mktemp("accept_synth")
    data = root / "data"
    truth = gen_dataset(SynthConfig(seed=0), data)
    out = root / "out"
    cfg = PipelineConfig(
        manifest=str(data / "manifest.json"), out_dir=str(out),
        seed=TRAIN_SEED, **SYNTH_PROFILE,
    )
    doc = run_pipeline(cfg)
    return {
        "data": data,
        "out": out,
        "truth": truth,
        "doc": doc,
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_5_directional_corloc(synth_pipeline):
    t0 = time.perf_counter()
    doc = synth_pipeline["doc"]
    initial = doc["ablation"]["initial"]
    updated = doc["ablation"]["updated"]

    # (a) found pseudo GTs localize accurately
    assert initial["corloc_found"] >= 0.8

    # (b) voting beats the single best mined region per image, strictly
    mined = dataio.read_regions(synth_pipeline["out"] / "regions.jsonl")
    baseline = {img: r.box for img, r in best_region_per_image(mined).items()}
    gt = dataio.read_gt(synth_pipeline["data"] / "gt.jsonl")["obj"]
    baseline_corloc = corloc(baseline, gt, include_missed=False)
    assert initial["corloc_found"] > baseline_corloc

    # (c) the latent update never loses ground or pseudo GTs
    assert updated["corloc_all"] >= initial["corloc_all"]
    assert updated["n_pseudo_gt"] >= initial["n_pseudo_gt"]

    elapsed = synth_pipeline["elapsed"] + (time.perf_counter() - t0)
    assert elapsed < 180.0
    report(
        "criterion-5 directional CorLoc",
        f"found={initial['corloc_found']:.3f} baseline={baseline_corloc:.3f} "
        f"all {initial['corloc_all']:.3f}->{updated['corloc_all']:.3f} "
        f"n {initial['n_pseudo_gt']}->{updated['n_pseudo_gt']}, {elapsed:.1f}s",
    )


def test_criterion_6_track_selection(synth_pipeline):
    t0 = time.perf_counter()
    truth = synth_pipeline["truth"]
    selections = dataio.read_selections(synth_pipeline["out"] / "selections.jsonl")
    tracks = dataio.read_tracks(synth_pipeline["data"] / "tracks.jsonl")
    gt_frames = {}
    correct = 0
    for (vid, frame_idx), sel in selections.items():
        true_id = truth.true_tracks[vid]
        true_track = next(t for t in tracks[vid] if t.track_id == true_id)
        gt_frames[(vid, frame_idx)] = true_track.box_at(frame_idx)
        correct += int(sel.track_id == true_id)
    mean_iou, upper = evaluate_selection(list(selections.values()), tracks, gt_frames)
    true_fraction = correct / len(selections)

    assert mean_iou >= 0.7
    assert mean_iou <= upper
    assert upper == pytest.approx(1.0)
    assert true_fraction >= 0.8
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(
        "criterion-6 track selection",
        f"mean IOU {mean_iou:.3f} <= upper {upper:.3f}, true-track {true_fraction:.0%}",
    )


# --------------------------------------------------------------------------
# 7. Detector / eval plumbing
# --------------------------------------------------------------------------


def test_criterion_7_detector_eval_plumbing():
    t0 = time.perf_counter()
    gt_box = BBox(0, 0, 10, 10)

    # 11-point AP on the hand-built 3-detection / 2-GT case
    gt = {"a": [gt_box], "b": [gt_box]}
    detections = [
        ("a", gt_box, 3.0),
        ("a", BBox(40, 40, 50, 50), 2.0),
        ("b", gt_box, 1.0),
    ]
    expected_ap = (6 * 1.0 + 5 * (2 / 3)) / 11
    assert average_precision(detections, gt) == pytest.approx(expected_ap, abs=1e-12)

    # label bands on boundary-value proposals (thresholds 0.1 / 0.3 / 0.6)
    def prop_at(iou_value):
        return BBox(0, 0, 10 * iou_value, 10)

    # the hard-negative band, as training applies it, is inclusive at both ends
    band = hard_negative_mask(
        box_array([prop_at(0.1), prop_at(0.3), prop_at(0.0999), prop_at(0.3001)]), gt_box
    )
    assert band.tolist() == [True, True, False, False]

    # box regression trains on the proposals at IOU >= 0.6 only
    props = [prop_at(0.6), prop_at(0.5999), prop_at(0.2)]
    images = {"img": ImageProposals("pos", box_array(props), np.ones((3, 2)))}
    gts = {"img": PseudoGT(image_id="img", box=gt_box, vote=20.0, support=20)}
    assert [p for _, p, _ in regression_pairs(images, gts)] == [prop_at(0.6)]
    assert hard_negative_mask(box_array(props), gt_box).tolist() == [False, False, True]

    # 0.5 threshold: CorLoc is strict, the latent-update leash is inclusive
    assert corloc({"a": prop_at(0.5)}, {"a": [gt_box]}) == 0.0
    assert corloc({"a": prop_at(0.5001)}, {"a": [gt_box]}) == 1.0
    images = {
        "img": ImageProposals("pos", box_array([prop_at(0.5)]), np.array([[1.0, 0.0]])),
    }
    existing = {"img": PseudoGT(image_id="img", box=gt_box, vote=20.0, support=20)}
    model = LinearModel(weights=np.array([1.0, 0.0]), bias=0.0)
    updated = lsvm_update(_detect(images, model, 0.3)[0], ["img"], existing)
    assert updated["img"].box == prop_at(0.5)  # IOU exactly 0.5 is eligible

    # bbox regressor round-trip identity
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(200):
        x0, y0 = rng.uniform(0, 50, 2)
        p = BBox(x0, y0, x0 + rng.uniform(1, 20), y0 + rng.uniform(1, 20))
        gx0, gy0 = rng.uniform(0, 50, 2)
        g = BBox(gx0, gy0, gx0 + rng.uniform(1, 20), gy0 + rng.uniform(1, 20))
        back = apply_box_targets(p, box_regression_targets(p, g))
        worst = max(worst, max(abs(a - b) for a, b in zip(back.as_list(), g.as_list())))
    assert worst <= 1e-9

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report("criterion-7 detector/eval plumbing",
           f"AP exact, bands exact, round-trip err {worst:.1e}, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 8. Determinism across reruns
# --------------------------------------------------------------------------


def test_criterion_8_pipeline_determinism(tmp_path):
    t0 = time.perf_counter()
    data = tmp_path / "data"
    gen_dataset(SynthConfig(seed=0), data)
    docs = []
    for run in range(3):
        out = tmp_path / f"out_{run}"
        cfg = PipelineConfig(
            manifest=str(data / "manifest.json"), out_dir=str(out),
            seed=TRAIN_SEED, **SYNTH_PROFILE,
        )
        run_pipeline(cfg)
        docs.append(json.loads((out / "metrics.json").read_text()))
    assert docs[0] == docs[1] == docs[2], "rerun with identical seed differs"
    elapsed = time.perf_counter() - t0
    assert elapsed < 360.0
    report("criterion-8 determinism", f"3 runs identical metrics.json, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 9. Bandwidth-sensitivity failure mode and its cross-validated fix
# --------------------------------------------------------------------------


def test_criterion_9_bandwidth_failure_mode(tmp_path):
    t0 = time.perf_counter()
    data = tmp_path / "data"
    truth = gen_dataset(SynthConfig(seed=0, multi_instance_prob=1.0), data)
    manifest = str(data / "manifest.json")
    out = tmp_path / "out"
    oversized = 12.0
    cfg = PipelineConfig(
        out_dir=str(out), frame_stride=1, target_cells=30, n_matches=20,
        bandwidth_grid=(2.0, oversized, 32.0), seed=TRAIN_SEED,
    )
    ds = dataio.load_manifest(manifest)
    run_mine(ds, cfg)
    run_match(ds, cfg)

    def localization_failures():
        """Failures of the pseudo GT the last vote wrote, and its size."""
        pgts = dataio.read_pseudo_gts(out / "pseudo_gt.jsonl")
        failures = sum(
            1
            for image_id, gt in pgts.items()
            if max(iou(gt.box, inst) for inst in truth.gt_boxes[image_id]) < 0.5
        )
        return failures, len(pgts)

    run_vote(ds, dataclasses.replace(cfg, bandwidth=oversized))
    fail_big, n_big = localization_failures()
    assert n_big > 0
    assert fail_big >= 1, "oversized bandwidth should merge instances"

    cv = run_vote(ds, cfg)  # no b: cross-validates the grid, writes the winner's vote
    best_b = cv["bandwidth"]
    assert best_b == 2.0
    assert cv["ap_per_b"]["2.0"] > cv["ap_per_b"][str(oversized)]

    fail_best, n_best = localization_failures()
    assert n_best > 0
    assert fail_best == 0, "cross-validated bandwidth should localize one instance"
    assert fail_big > fail_best

    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    report(
        "criterion-9 bandwidth failure mode",
        f"b={oversized}: {fail_big}/{n_big} merged between instances; "
        f"cv picked b={best_b} (AP {cv['ap_per_b']['2.0']:.2f} vs "
        f"{cv['ap_per_b'][str(oversized)]:.2f}) with 0/{n_best} failures, {elapsed:.1f}s",
    )
