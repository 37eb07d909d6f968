import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pointscatter.aggregate import reduce_views
from pointscatter.camera import look_at_pose
from pointscatter.pipeline import stage_rng
from pointscatter.scene import SceneCamera, demo_scene, make_frame, project_gt_boxes
# the sensor's depth range, for the tests that take it from here
from pointscatter.scene import DEPTH_RANGE  # noqa: F401

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    """A module of the benchmark directory, loaded from its file without
    putting that directory on the import path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def render_all(scene):
    return [
        make_frame(scene, i, stage_rng(scene.rng_seed, "perturb", i), boxes)
        for i, boxes in enumerate(project_gt_boxes(scene))
    ]


def uncovered_frame(scene):
    """A keyframe of ``scene`` from a camera 10 m out, looking away from
    every object: it covers no pixel."""
    cam = SceneCamera(scene.cameras[0].intrinsics, look_at_pose((10.0, 0.0, 1.0), (20.0, 0.0, 1.0)))
    frame = make_frame(dataclasses.replace(scene, cameras=(cam,)), 0, np.random.default_rng(0), ())
    assert frame.covered.shape == frame.covered_depth.shape == frame.covered_tri.shape == (0,)
    return frame


def reduce_rows(features, mask):
    """``(mean, variance)`` from ``reduce_views`` of one point whose
    samples are the masked rows of (F, C) ``features``, one view per row."""
    f = np.asarray(features, dtype=np.float64)
    views = [(np.zeros(1, dtype=np.int64), f[i : i + 1]) for i in np.flatnonzero(mask)]
    means, variances, _ = reduce_views(views, 1, f.shape[1])
    return means[0], variances[0]


@pytest.fixture(scope="session")
def clean_scene():
    """Noiseless three-box orbit scene shared across module tests."""
    return demo_scene()


@pytest.fixture(scope="session")
def clean_frames(clean_scene):
    return render_all(clean_scene)


@pytest.fixture(scope="session")
def noisy_scene():
    return demo_scene(noise_sigma=0.05, outlier_rate=0.1)


@pytest.fixture(scope="session")
def noisy_frames(noisy_scene):
    return render_all(noisy_scene)
