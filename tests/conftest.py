import pytest

from pointscatter.pipeline import stage_rng
from pointscatter.scene import demo_scene, make_frame, project_gt_boxes

# matches the pipeline default; scenes here fit comfortably inside it
DEPTH_RANGE = (0.2, 6.4)


def render_all(scene):
    return [
        make_frame(
            scene, i, stage_rng(scene.rng_seed, "perturb", i), DEPTH_RANGE,
            project_gt_boxes(scene, i),
        )
        for i in range(len(scene.cameras))
    ]


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
