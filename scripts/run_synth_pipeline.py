#!/usr/bin/env python3
"""Generate a synthetic dataset and run the full discovery pipeline on it.

Prints an ablation table (initial pseudo GT -> latent update -> box
regression) plus the track-selection quality, mirroring how the method is
evaluated on real data.

    python3 scripts/run_synth_pipeline.py --out /tmp/boxforge_demo --seed 0
"""

import argparse
from pathlib import Path

from boxforge import dataio
from boxforge.config import PipelineConfig
from boxforge.mining import best_region_per_image
from boxforge.metrics import corloc
from boxforge.pipeline import run_pipeline
from boxforge.synth import SynthConfig, gen_dataset
from boxforge.tracks import evaluate_selection


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="working directory")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--bandwidth", type=float, default=2.0)
    args = ap.parse_args()

    root = Path(args.out)
    data = root / "data"
    out = root / "run"
    truth = gen_dataset(SynthConfig(seed=args.seed), data)

    # Synthetic-scale profile: planted objects cover ~30 stride-1 cells and
    # vote coordinates live on a 16-pixel image.
    cfg = PipelineConfig(
        manifest=str(data / "manifest.json"),
        out_dir=str(out),
        target_cells=30,
        frame_stride=1,
        bandwidth=args.bandwidth,
        seed=args.seed + 1000,
    )
    doc = run_pipeline(cfg, heatmaps=out / "heatmaps")

    mined = dataio.read_regions(out / "regions.jsonl")
    baseline = {img: r.box for img, r in best_region_per_image(mined).items()}
    gt = dataio.read_gt(data / "gt.jsonl")["obj"]
    baseline_corloc = corloc(baseline, gt, include_missed=False)

    selections = dataio.read_selections(out / "selections.jsonl")
    tracks = dataio.read_tracks(data / "tracks.jsonl")
    gt_frames = {}
    for (vid, f), _sel in selections.items():
        true = next(t for t in tracks[vid] if t.track_id == truth.true_tracks[vid])
        gt_frames[(vid, f)] = true.box_at(f)
    mean_iou, upper = evaluate_selection(list(selections.values()), tracks, gt_frames)

    print(f"\ndataset: {data}  run: {out}")
    print(f"{'stage':28s} {'corloc_all':>10s} {'corloc_found':>12s} {'AP':>6s}")
    print(f"{'best mined region':28s} {'-':>10s} {baseline_corloc:12.3f} {'-':>6s}")
    for tag in ("initial", "updated"):
        row = doc["ablation"][tag]
        print(
            f"{tag + ' pseudo GT':28s} {row['corloc_all']:10.3f} "
            f"{row['corloc_found']:12.3f} {row.get('ap', float('nan')):6.3f}"
        )
    print(f"{'updated + bbox regression':28s} {'':>10s} {'':>12s} "
          f"{doc['ablation']['updated_bboxreg']['ap']:6.3f}")
    print(f"\ntrack selection: mean IOU {mean_iou:.3f} (upper bound {upper:.3f})")
    print(f"metrics: {out / 'metrics.json'}")


if __name__ == "__main__":
    main()
