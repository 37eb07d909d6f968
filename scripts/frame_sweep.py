#!/usr/bin/env python3
"""Sweep the keyframe budget and report detection and reconstruction quality.

Useful for seeing how many views the scattering stage needs before the
cloud covers every object well enough for clustering to localize boxes.
"""

import argparse

from pointscatter.pipeline import DetectorConfig, PipelineConfig, run_pipeline
from pointscatter.scene import demo_scene


def _fmt(value, spec: str) -> str:
    """``value`` formatted by ``spec``; None (no detection matched) as n/a."""
    return "n/a" if value is None else format(value, spec)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--frames", type=int, nargs="+", default=[2, 4, 8, 12, 16, 20])
    parser.add_argument("--noise-sigma", type=float, default=0.0)
    parser.add_argument("--outlier-rate", type=float, default=0.0)
    parser.add_argument(
        "--detector", choices=["gt_passthrough", "score_cluster"], default="score_cluster"
    )
    args = parser.parse_args()

    scene = demo_scene(
        seed=args.seed, noise_sigma=args.noise_sigma, outlier_rate=args.outlier_rate
    )
    print(f"{'frames':>6} {'points':>8} {'AP@0.25':>8} {'AP@0.5':>7} {'chamfer':>9} {'fscore':>7}")
    for frames in args.frames:
        config = PipelineConfig(
            seed=args.seed, frames=frames, detector=DetectorConfig(mode=args.detector)
        )
        result = run_pipeline(scene, config)
        mean = result.report["mean"]
        print(
            f"{len(result.keyframes):>6} {result.report['filter']['points_filtered']:>8} "
            f"{mean['AP@0.25']:>8.3f} {mean['AP@0.5']:>7.3f} "
            f"{_fmt(result.report['chamfer'], '.5f'):>9} {_fmt(result.report['fscore'], '.2f'):>7}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
