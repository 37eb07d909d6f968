#!/usr/bin/env python3
"""Run the full pipeline on the built-in demo scene and print the report.

Writes cloud_raw.ply, cloud_filtered.ply, detections.json, metrics.json
and sparsity.json under --out.
"""

import argparse
import json

from pointscatter.pipeline import DetectorConfig, PipelineConfig, run_pipeline
from pointscatter.scene import demo_scene


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo_out", help="artifact directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--frames", type=int, default=20)
    parser.add_argument("--noise-sigma", type=float, default=0.0)
    parser.add_argument("--outlier-rate", type=float, default=0.0)
    parser.add_argument(
        "--detector", choices=["gt_passthrough", "score_cluster"], default="gt_passthrough"
    )
    args = parser.parse_args()

    scene = demo_scene(
        seed=args.seed, noise_sigma=args.noise_sigma, outlier_rate=args.outlier_rate
    )
    config = PipelineConfig(
        seed=args.seed, frames=args.frames, detector=DetectorConfig(mode=args.detector)
    )
    result = run_pipeline(scene, config, output_dir=args.out)

    report = result.report
    print(f"keyframes        {len(result.keyframes)}")
    print(f"points raw       {report['filter']['points_raw']}")
    print(f"points filtered  {report['filter']['points_filtered']}")
    print(f"detections       {len(result.detections)}")
    for key, value in sorted(report["mean"].items()):
        print(f"{key:<16} {value:.4f}")
    # chamfer and fscore are None when no detection matches a GT box
    for key, spec in (("chamfer", ".6f"), ("fscore", ".2f")):
        value = report[key]
        print(f"{key:<16} {'n/a' if value is None else format(value, spec)}")
    print(f"artifacts in     {args.out}")
    print(json.dumps(report["per_category"], sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
