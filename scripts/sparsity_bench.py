#!/usr/bin/env python3
"""Compare scattered-point storage against dense grids over the scene bounds.

Sweeps fine voxel resolutions and prints one row per setting; optionally
writes the last report as JSON.
"""

import argparse

from pointscatter.fileio import write_json
from pointscatter.pipeline import PipelineConfig, run_sparsity_bench
from pointscatter.scatter import ScatterConfig
from pointscatter.scene import demo_scene


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--frames", type=int, default=20)
    parser.add_argument("--max-points", type=int, default=100_000)
    parser.add_argument(
        "--voxel-sizes", type=float, nargs="+", default=[0.04, 0.08, 0.16]
    )
    parser.add_argument("--out", default=None, help="write the last report as JSON")
    args = parser.parse_args()

    scene = demo_scene(seed=args.seed)
    header = f"{'voxel':>6} {'points':>8} {'occupied':>9} {'dense':>9} {'reduction':>10}"
    print(header)
    report = None
    for size in args.voxel_sizes:
        config = PipelineConfig(
            seed=args.seed,
            frames=args.frames,
            voxel_size=size,
            scatter=ScatterConfig(radius=size, max_points=args.max_points),
        )
        report = run_sparsity_bench(scene, config)
        print(
            f"{size:>6.2f} {report['scatter_points']:>8} {report['occupied_voxels']:>9} "
            f"{report['dense_cells']:>9} {report['reduction_factor']:>9.1f}x"
        )
    if args.out and report is not None:
        write_json(report, args.out)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
