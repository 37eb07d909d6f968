"""Command line front end.

Subcommands: ``gen-scene`` (write a scene JSON), ``run`` (full pipeline
with artifacts), ``bench`` (sparsity benchmark), ``eval`` (re-score a
detections file against a scene), ``export-ply`` (scatter a scene to a
PLY cloud, optionally dumping PGM/PPM frame images).

Exit codes: 0 success, 1 bad configuration or input files, 2 stage
failure inside the pipeline.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .fileio import read_detections, write_cloud_ply, write_json, write_pgm, write_ppm
from .pipeline import (
    ConfigError,
    PipelineConfig,
    StageError,
    evaluate,
    guarded,
    run_pipeline,
    run_sparsity_bench,
)
from .scene import demo_scene, load_scene, save_scene

logger = logging.getLogger(__name__)


def _load_config(args) -> PipelineConfig:
    if getattr(args, "config", None):
        try:
            with open(args.config) as f:
                config = PipelineConfig.from_dict(json.load(f))
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {args.config}: {e}") from e
    else:
        config = PipelineConfig()
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "frames", None) is not None:
        updates["frames"] = args.frames
    if getattr(args, "max_points", None) is not None:
        updates["scatter"] = dataclasses.replace(config.scatter, max_points=args.max_points)
    if getattr(args, "detector", None) is not None:
        updates["detector"] = dataclasses.replace(config.detector, mode=args.detector)
    return dataclasses.replace(config, **updates) if updates else config


def _load_scene(args):
    try:
        scene = load_scene(args.scene)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as e:
        raise ConfigError(f"cannot read scene {args.scene}: {e}") from e
    updates = {}
    if getattr(args, "noise_sigma", None) is not None:
        updates["depth_noise_sigma"] = args.noise_sigma
    if getattr(args, "outlier_rate", None) is not None:
        updates["outlier_rate"] = args.outlier_rate
    return dataclasses.replace(scene, **updates) if updates else scene


def _add_overrides(parser: argparse.ArgumentParser, scene_overrides: bool = True) -> None:
    parser.add_argument("--config", help="pipeline config JSON")
    parser.add_argument("--seed", type=int, help="root pipeline seed override")
    parser.add_argument("--frames", type=int, help="keyframe target override")
    parser.add_argument("--max-points", type=int, help="scatter point cap override")
    if scene_overrides:
        parser.add_argument("--noise-sigma", type=float, help="depth noise sigma override")
        parser.add_argument("--outlier-rate", type=float, help="depth outlier rate override")


def _cmd_gen_scene(args) -> int:
    scene = demo_scene(
        noise_sigma=args.noise_sigma if args.noise_sigma is not None else 0.0,
        outlier_rate=args.outlier_rate if args.outlier_rate is not None else 0.0,
        steps=args.steps,
        seed=args.seed if args.seed is not None else 0,
    )
    save_scene(scene, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_run(args) -> int:
    config = _load_config(args)
    scene = _load_scene(args)
    result = run_pipeline(scene, config, output_dir=args.out)
    mean = result.report["mean"]
    for key in sorted(mean):
        print(f"{key}: {mean[key]:.4f}")
    if result.report["chamfer"] is not None:
        print(f"chamfer: {result.report['chamfer']:.6f}")
        print(f"fscore: {result.report['fscore']:.2f}")
    print(f"artifacts: {args.out}")
    return 0


def _cmd_bench(args) -> int:
    config = _load_config(args)
    scene = _load_scene(args)
    report = run_sparsity_bench(scene, config)
    if args.out:
        write_json(report, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_eval(args) -> int:
    config = _load_config(args)
    scene = _load_scene(args)
    try:
        detections = read_detections(args.detections)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as e:
        raise ConfigError(f"cannot read detections {args.detections}: {e}") from e
    report = guarded("evaluate", evaluate, detections, scene, config)
    report["config"] = config.to_dict()
    if args.out:
        write_json(report, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_export_ply(args) -> int:
    config = _load_config(args)
    scene = _load_scene(args)
    result = run_pipeline(scene, config, output_dir=None)
    write_cloud_ply(result.cloud, args.out)
    print(f"wrote {args.out} ({len(result.cloud)} points)")
    if args.images:
        img_dir = Path(args.images)
        img_dir.mkdir(parents=True, exist_ok=True)
        for frame in result.frames:
            i = frame.camera_index
            write_pgm(frame.depth, img_dir / f"depth_{i:03d}.pgm", max_value=config.depth_range[1])
            write_ppm(frame.color, img_dir / f"color_{i:03d}.ppm")
        print(f"wrote {len(result.frames)} frame image pairs to {img_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointscatter",
        description="Multi-view point scattering pipeline on synthetic scenes",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log stage progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="write a preset scene JSON")
    p.add_argument("out", help="output scene path")
    p.add_argument("--preset", choices=["demo"], default="demo", help="scene preset")
    p.add_argument("--steps", type=int, default=20, help="orbit camera count")
    p.add_argument("--seed", type=int, help="scene rng seed")
    p.add_argument("--noise-sigma", type=float, help="depth noise sigma")
    p.add_argument("--outlier-rate", type=float, help="depth outlier rate")
    p.set_defaults(func=_cmd_gen_scene)

    p = sub.add_parser("run", help="run the full pipeline")
    p.add_argument("scene", help="scene JSON")
    p.add_argument("--out", required=True, help="artifact directory")
    p.add_argument("--detector", choices=["gt_passthrough", "score_cluster"])
    _add_overrides(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bench", help="sparsity benchmark")
    p.add_argument("scene", help="scene JSON")
    p.add_argument("--out", help="report JSON path (default: stdout)")
    _add_overrides(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("eval", help="evaluate a detections file against a scene")
    p.add_argument("scene", help="scene JSON")
    p.add_argument("detections", help="detections JSON")
    p.add_argument("--out", help="metrics JSON path (default: stdout)")
    _add_overrides(p, scene_overrides=False)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("export-ply", help="scatter a scene and write the cloud as PLY")
    p.add_argument("scene", help="scene JSON")
    p.add_argument("out", help="output PLY path")
    p.add_argument("--images", help="also dump keyframe depth/color as PGM/PPM here")
    _add_overrides(p)
    p.set_defaults(func=_cmd_export_ply)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except StageError as e:
        print(f"pipeline error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
