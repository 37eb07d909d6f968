"""Command line front end.

Subcommands: ``gen-scene`` (write a scene JSON), ``run`` (the full
pipeline, writing its artifacts and, with ``--images``, each keyframe's
depth and color as PGM/PPM) and ``eval`` (re-score a detections file
against a scene).

Every value is set in one file: the scene file, which ``gen-scene``
writes from its flags, holds the cameras, noise and outlier rate; the
config file (``--config``) holds the seed, the keyframe budget and every
other method setting. ``run --detector`` is the one override.

Exit codes: 0 success, 1 bad configuration, input files or command line
(an unknown flag too), 2 stage failure inside the pipeline.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .fileio import read_detections, write_json, write_pgm, write_ppm
from .pipeline import ConfigError, PipelineConfig, StageError, evaluate, guarded, run_pipeline
from .scene import DEPTH_RANGE, SceneSpec, demo_scene, load_scene, save_scene


def _load_inputs(args) -> tuple[PipelineConfig, SceneSpec]:
    """The config and the scene a command names."""
    if args.config:
        try:
            with open(args.config) as f:
                config = PipelineConfig.from_dict(json.load(f))
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {args.config}: {e}") from e
    else:
        config = PipelineConfig()
    if getattr(args, "detector", None) is not None:
        config = dataclasses.replace(
            config, detector=dataclasses.replace(config.detector, mode=args.detector)
        )
    try:
        return config, load_scene(args.scene)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"cannot read scene {args.scene}: {e}") from e


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error: exit 1, not argparse's 2,
    which is a stage failure's code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _cmd_gen_scene(args) -> int:
    scene = demo_scene(
        noise_sigma=args.noise_sigma,
        outlier_rate=args.outlier_rate,
        steps=args.steps,
        seed=args.seed,
    )
    save_scene(scene, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_run(args) -> int:
    config, scene = _load_inputs(args)
    result = run_pipeline(scene, config, output_dir=args.out)
    mean = result.report["mean"]
    for key in sorted(mean):
        print(f"{key}: {mean[key]:.4f}")
    if result.report["chamfer"] is not None:
        print(f"chamfer: {result.report['chamfer']:.6f}")
        print(f"fscore: {result.report['fscore']:.2f}")
    print(f"artifacts: {args.out}")
    if args.images:
        img_dir = Path(args.images)
        img_dir.mkdir(parents=True, exist_ok=True)
        for frame in result.frames:
            i = frame.camera_index
            write_pgm(frame.depth, img_dir / f"depth_{i:03d}.pgm", max_value=DEPTH_RANGE[1])
            write_ppm(frame.color, img_dir / f"color_{i:03d}.ppm")
        print(f"wrote {len(result.frames)} frame image pairs to {img_dir}")
    return 0


def _cmd_eval(args) -> int:
    config, scene = _load_inputs(args)
    try:
        detections = read_detections(args.detections)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"cannot read detections {args.detections}: {e}") from e
    report = guarded("evaluate", evaluate, detections, scene, config)
    report["config"] = config.to_dict()
    if args.out:
        write_json(report, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pointscatter",
        description="Multi-view point scattering pipeline on synthetic scenes",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log stage progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="write the demo scene JSON")
    p.add_argument("out", help="output scene path")
    p.add_argument("--steps", type=int, default=20, help="orbit camera count")
    p.add_argument("--seed", type=int, default=0, help="scene rng seed")
    p.add_argument("--noise-sigma", type=float, default=0.0, help="depth noise sigma")
    p.add_argument("--outlier-rate", type=float, default=0.0, help="depth outlier rate")
    p.set_defaults(func=_cmd_gen_scene)

    p = sub.add_parser("run", help="run the full pipeline")
    p.add_argument("scene", help="scene JSON")
    p.add_argument("--out", required=True, help="artifact directory")
    p.add_argument("--detector", choices=["gt_passthrough", "score_cluster"])
    p.add_argument("--images", help="also write keyframe depth/color as PGM/PPM here")
    p.add_argument("--config", help="pipeline config JSON")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", help="evaluate a detections file against a scene")
    p.add_argument("scene", help="scene JSON")
    p.add_argument("detections", help="detections JSON")
    p.add_argument("--out", help="metrics JSON path (default: stdout)")
    # evaluation reads only the config's seed, which seeds its surface samples
    p.add_argument("--config", help="pipeline config JSON")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except StageError as e:
        print(f"pipeline error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
