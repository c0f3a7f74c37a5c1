#!/usr/bin/env python3
"""Demonstrate the mean-shift bandwidth sensitivity on multi-instance images.

Every positive image carries two well-separated object instances.  With an
oversized bandwidth the per-image vote modes merge and the pseudo GT lands
between the instances; cross-validating the bandwidth against the selected
video tracks recovers a value that localizes one instance.

    python3 scripts/bandwidth_failure_demo.py --out /tmp/boxforge_bw --seed 0
"""

import argparse
from pathlib import Path

from boxforge import dataio
from boxforge.detector import TrainConfig
from boxforge.geometry import iou
from boxforge.pipeline import (
    run_cv_bandwidth,
    run_match,
    run_mine,
    run_select_tracks,
    run_vote,
)
from boxforge.synth import SynthConfig, gen_multi_instance_case


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--oversized", type=float, default=12.0)
    ap.add_argument("--grid", type=lambda s: [float(x) for x in s.split(",")],
                    default=[2.0, 12.0, 32.0])
    args = ap.parse_args()

    root = Path(args.out)
    data = root / "data"
    out = root / "run"
    truth = gen_multi_instance_case(SynthConfig(seed=args.seed), data)
    manifest = str(data / "manifest.json")

    run_mine(manifest, out)
    run_select_tracks(manifest, out / "regions.jsonl", out, frame_stride=1, target_cells=30)
    run_match(manifest, out / "regions.jsonl", out / "selections.jsonl", out,
              n_matches=20, frame_stride=1, target_cells=30)

    def describe(bandwidth):
        run_vote(manifest, out / "transfers.jsonl", out, bandwidth=bandwidth, theta=20.0)
        pgts = dataio.read_pseudo_gts(out / "pseudo_gt.jsonl")
        print(f"\nbandwidth b = {bandwidth}")
        merged = 0
        for image_id in sorted(pgts):
            ious = [iou(pgts[image_id].box, inst) for inst in truth.gt_boxes[image_id]]
            status = "localized" if max(ious) > 0.5 else "merged between instances"
            merged += max(ious) <= 0.5
            print(f"  {image_id}: instance IOUs {[f'{v:.2f}' for v in ious]} -> {status}")
        print(f"  {merged}/{len(pgts)} pseudo GTs fail both instances")

    describe(args.oversized)

    cv = run_cv_bandwidth(
        manifest, out / "transfers.jsonl", out / "selections.jsonl", out,
        args.grid, TrainConfig(seed=args.seed + 1000), frame_stride=1,
    ).report
    print(f"\ncross-validation over {args.grid}: AP per b = {cv['ap_per_b']}")
    print(f"selected b = {cv['best_b']}")
    describe(cv["best_b"])


if __name__ == "__main__":
    main()
