"""Workload definitions: scene and pipeline config for each named workload.

Each workload is built from a seed that sets both ``scene.rng_seed`` and
``config.seed``. ``reduced=True`` gives a smaller variant of the same
shape for the benchmark's self-test.
"""

from __future__ import annotations

import dataclasses

from pointscatter.camera import Intrinsics
from pointscatter.pipeline import DetectorConfig, PipelineConfig
from pointscatter.scene import SceneCamera, demo_scene

# The names are fixed; other documents refer to them. Why each exists:
# - demo_noisy: insert-heavy scatter (about 30% of candidates accepted);
#   the large cloud makes fileio, aggregate and clustering visible, and
#   it is the one workload whose quality is off its ceiling.
# - orbit80_clean: reject-heavy scatter (about 2% accepted over 80
#   views), the dedup lookup path, plus render; a small cloud.
# - hires_6view: render-bound 640x480 views with few scatter candidates;
#   renderer culling shows most here and a scatter change should not.
NAMES = ("demo_noisy", "orbit80_clean", "hires_6view")

# Workloads whose detections must be perfect (clean scenes).
PERFECT_AP = {"orbit80_clean", "hires_6view"}

HIRES_INTRINSICS = Intrinsics(fx=480.0, fy=480.0, cx=319.5, cy=239.5, width=640, height=480)
# Reduced hires keeps the field of view at a quarter of the pixels.
HIRES_REDUCED_INTRINSICS = Intrinsics(fx=240.0, fy=240.0, cx=159.5, cy=119.5, width=320, height=240)


def build(name: str, seed: int, reduced: bool = False):
    """Return ``(scene, config)`` for workload ``name``."""
    if name == "demo_noisy":
        steps = 6 if reduced else 20
        scene = demo_scene(noise_sigma=0.05, outlier_rate=0.1, steps=steps, seed=seed)
        config = PipelineConfig(
            seed=seed, frames=steps, detector=DetectorConfig(mode="score_cluster")
        )
    elif name == "orbit80_clean":
        steps = 16 if reduced else 80
        scene = demo_scene(steps=steps, seed=seed)
        config = PipelineConfig(
            seed=seed, frames=steps, detector=DetectorConfig(mode="score_cluster")
        )
    elif name == "hires_6view":
        intr = HIRES_REDUCED_INTRINSICS if reduced else HIRES_INTRINSICS
        scene = demo_scene(steps=6, seed=seed)
        scene = dataclasses.replace(
            scene, cameras=tuple(SceneCamera(intr, c.pose) for c in scene.cameras)
        )
        config = PipelineConfig(seed=seed, frames=6)
    else:
        raise KeyError(name)
    return scene, config
