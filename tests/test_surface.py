"""Tests for surface labeling, focal loss, and photometric filtering."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import load_perfbench
from oracles import brute_nn_distances, point_mesh_distance
from pointscatter.aggregate import aggregate_cloud
from pointscatter.boxes import OrientedBox
from pointscatter.camera import Intrinsics, Pose
from pointscatter.pipeline import TAU, run_front, stage_rng
from pointscatter.scatter import ScatterConfig, scatter_frames
from pointscatter.scene import SceneCamera, SceneObject, SceneSpec
from pointscatter.surface import (
    focal_loss,
    focal_loss_grad,
    label_points,
    photometric_score,
    sample_scene_surface,
    soft_weight,
)


def cube_scene():
    obj = SceneObject(OrientedBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
    cam = SceneCamera(
        Intrinsics(100.0, 100.0, 50.0, 50.0, 100, 100),
        Pose(np.eye(3), np.array([0.0, 0.0, -3.0])),
    )
    return SceneSpec(objects=(obj,), cameras=(cam,))


class TestLabelPoints:
    def test_near_point_is_inlier(self):
        surf = np.array([[0.0, 0.0, 0.0]])
        lab = label_points(np.array([[0.02, 0.0, 0.0]]), surf, 0.05)
        assert lab.labels[0]
        assert lab.distances[0] == pytest.approx(0.02, abs=1e-12)

    def test_exact_surface_point(self):
        surf = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        lab = label_points(np.array([[4.0, 5.0, 6.0]]), surf, 0.05)
        assert lab.labels[0]
        assert lab.distances[0] == 0.0

    def test_far_point_is_outlier(self):
        surf = np.array([[0.0, 0.0, 0.0]])
        lab = label_points(np.array([[1.0, 0.0, 0.0]]), surf, 0.05)
        assert not lab.labels[0]
        assert lab.distances[0] == pytest.approx(1.0, abs=1e-9)

    def test_distance_exactly_tau_is_outlier(self):
        # the inlier test is strict, so tau itself falls outside
        surf = np.array([[0.0, 0.0, 0.0]])
        lab = label_points(np.array([[0.05, 0.0, 0.0]]), surf, 0.05)
        assert lab.distances[0] == 0.05
        assert not lab.labels[0]

    def test_distance_just_below_tau_is_inlier(self):
        below = np.nextafter(0.05, 0.0)
        surf = np.array([[0.0, 0.0, 0.0]])
        lab = label_points(np.array([[below, 0.0, 0.0]]), surf, 0.05)
        assert lab.distances[0] == below
        assert lab.labels[0]

    def test_root_decides_not_the_square(self):
        # the offset's squared distance, 0.0025, lies below 0.05 * 0.05
        # (0.0025000000000000005), but its square root is 0.05: the label
        # tests the distance, as the KD-tree reference does
        offset = np.array([[-0.03952855627869432, 0.027462081673732732, 0.013539841530362485]])
        surf = np.array([[0.0, 0.0, 0.0]])
        lab = label_points(offset, surf, 0.05)
        assert lab.distances[0] == 0.05
        assert not lab.labels[0]
        assert not oracles.label_points(offset, surf, 0.05)[0][0]

    def test_nearest_of_many(self):
        surf = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        lab = label_points(np.array([[9.0, 0.0, 0.0]]), surf, 2.0)
        assert lab.distances[0] == pytest.approx(1.0, abs=1e-12)
        assert lab.labels[0]

    def test_inlier_fraction(self):
        surf = np.array([[0.0, 0.0, 0.0]])
        pts = np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0], [0.02, 0.0, 0.0], [9.0, 0.0, 0.0]])
        lab = label_points(pts, surf, 0.05)
        assert lab.inlier_fraction == 0.75

    def test_empty_points(self):
        lab = label_points(np.zeros((0, 3)), np.array([[0.0, 0.0, 0.0]]), 0.1)
        assert len(lab.labels) == 0
        assert lab.inlier_fraction == 0.0
        assert lab.distances.shape == (0,)

    def test_rejections(self):
        with pytest.raises(ValueError):
            label_points(np.zeros((1, 3)), np.zeros((0, 3)), 0.1)
        with pytest.raises(ValueError):
            label_points(np.zeros((1, 3)), np.zeros((1, 3)), 0.0)
        with pytest.raises(ValueError):
            label_points(np.zeros((1, 3)), np.zeros((1, 3)), -0.1)

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=25)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        # plus a sample far from the rest, with one point at exactly tau
        # from it and one a single ulp closer
        surf = np.vstack([rng.uniform(-1.0, 1.0, size=(60, 3)), [0.0, 0.0, 5.0]])
        edge = [[0.3, 0.0, 5.0], [np.nextafter(0.3, 0.0), 0.0, 5.0]]
        pts = np.vstack([rng.uniform(-1.2, 1.2, size=(40, 3)), edge])
        lab = label_points(pts, surf, 0.3)
        brute = brute_nn_distances(pts, surf)
        np.testing.assert_allclose(lab.distances, brute, atol=1e-12)
        np.testing.assert_array_equal(lab.labels, brute < 0.3)
        assert lab.labels[-2:].tolist() == [False, True]

    @pytest.mark.parametrize("seed", [11, 29])
    @pytest.mark.parametrize("name", ["demo_noisy", "orbit80_clean", "hires_6view"])
    def test_workload_clouds_match_oracle(self, name, seed):
        scene, config = load_perfbench("workloads").build(name, seed)
        cloud = run_front(scene, config)[2]
        surface = sample_scene_surface(scene, TAU, stage_rng(config.seed, "surface"))
        lab = label_points(cloud.positions, surface, TAU)
        labels, distances = oracles.label_points(cloud.positions, surface, TAU)
        np.testing.assert_array_equal(lab.labels, labels)
        # the labels alone never search past tau
        assert "distances" not in vars(lab)
        assert lab.distances.tobytes() == distances.tobytes()


class TestSampleSceneSurface:
    def test_default_density_count(self):
        # unit cube area 6, density 4 / 0.05^2 = 1600: 9600 samples
        pts = sample_scene_surface(cube_scene(), 0.05, np.random.default_rng(0))
        assert len(pts) == 9600

    def test_density_follows_tau(self):
        # density 4 / 0.5^2 = 16: 96 samples
        pts = sample_scene_surface(cube_scene(), 0.5, np.random.default_rng(0))
        assert len(pts) == 96

    def test_samples_lie_on_mesh(self):
        scene = cube_scene()
        pts = sample_scene_surface(scene, 0.5, np.random.default_rng(1))
        mesh = scene.objects[0].mesh()
        for p in pts:
            assert point_mesh_distance(p, mesh) < 1e-9

    def test_deterministic(self):
        a = sample_scene_surface(cube_scene(), 0.5, np.random.default_rng(9))
        b = sample_scene_surface(cube_scene(), 0.5, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            sample_scene_surface(cube_scene(), 0.0, np.random.default_rng(0))


class TestFocalLoss:
    def test_single_inlier(self):
        # (1 - 0.9)^2 * (-log 0.9) = 0.01 * 0.10536051565782628
        got = focal_loss(np.array([0.9]), np.array([1]), gamma=2.0)
        assert got == pytest.approx(0.0010536051565782628, rel=1e-12)

    def test_gamma_zero_is_log2_at_half(self):
        got = focal_loss(np.array([0.5]), np.array([1]), gamma=0.0)
        assert got == pytest.approx(math.log(2.0), rel=1e-12)

    def test_perfect_predictions_vanish(self):
        scores = np.array([1.0, 1.0, 0.0, 0.0])
        labels = np.array([1, 1, 0, 0])
        assert focal_loss(scores, labels, gamma=2.0) < 1e-5

    def test_gamma_zero_equals_cross_entropy(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(0.05, 0.95, size=30)
        labels = rng.integers(0, 2, size=30)
        p = np.clip(np.where(labels == 1, scores, 1.0 - scores), 1e-7, 1.0 - 1e-7)
        bce = float(-np.log(p).mean())
        assert focal_loss(scores, labels, gamma=0.0) == pytest.approx(bce, rel=1e-12)

    def test_monotone_in_correct_probability(self):
        grid = np.linspace(0.1, 0.9, 9)
        losses = [focal_loss(np.array([p]), np.array([1]), gamma=2.0) for p in grid]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_easy_points_downweighted(self):
        # gamma > 0 shrinks the confident-correct term relative to BCE
        easy = focal_loss(np.array([0.95]), np.array([1]), gamma=2.0)
        hard = focal_loss(np.array([0.55]), np.array([1]), gamma=2.0)
        bce_ratio = math.log(0.55) / math.log(0.95)
        assert hard / easy > bce_ratio

    def test_rejections(self):
        with pytest.raises(ValueError):
            focal_loss(np.array([0.5, 0.5]), np.array([1]), gamma=2.0)
        with pytest.raises(ValueError):
            focal_loss(np.array([0.5]), np.array([1]), gamma=-1.0)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
    def test_gradient_matches_finite_differences(self, gamma):
        rng = np.random.default_rng(12)
        scores = rng.uniform(0.05, 0.95, size=20)
        labels = rng.integers(0, 2, size=20)
        grad = focal_loss_grad(scores, labels, gamma=gamma)
        h = 1e-5
        for i in range(len(scores)):
            up = scores.copy()
            up[i] += h
            down = scores.copy()
            down[i] -= h
            fd = (focal_loss(up, labels, gamma) - focal_loss(down, labels, gamma)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-4)


class TestPhotometricScore:
    def test_zero_variance_scores_one(self):
        got = photometric_score(np.zeros((1, 3)), np.array([5]), k_sigma=0.01)
        assert got[0] == 1.0

    def test_k_sigma_sets_e_folding(self):
        got = photometric_score(np.full((1, 3), 0.01), np.array([5]), k_sigma=0.01)
        assert got[0] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_few_views_get_default(self):
        var = np.full((3, 3), 9.0)
        got = photometric_score(var, np.array([0, 1, 2]), k_sigma=0.01)
        assert got[0] == 0.5
        assert got[1] == 0.5
        assert got[2] < 1e-3

    def test_monotone_decreasing_in_variance(self):
        vs = np.linspace(0.0, 0.1, 11)[:, None] * np.ones((1, 3))
        got = photometric_score(vs, np.full(11, 4), k_sigma=0.01)
        assert all(a > b for a, b in zip(got, got[1:]))

    def test_rejects_bad_k_sigma(self):
        with pytest.raises(ValueError):
            photometric_score(np.zeros((1, 3)), np.array([5]), k_sigma=0.0)


class TestSoftWeight:
    def test_unit_scores_identity(self):
        f = np.array([[2.0, 4.0], [1.0, 3.0]])
        np.testing.assert_array_equal(soft_weight(f, np.ones(2), num_onehot=0), f)

    def test_zero_scores_zero_features(self):
        f = np.array([[2.0, 4.0]])
        np.testing.assert_array_equal(soft_weight(f, np.zeros(1), num_onehot=0), [[0.0, 0.0]])

    def test_half_score(self):
        f = np.array([[2.0, 4.0]])
        np.testing.assert_array_equal(soft_weight(f, np.array([0.5]), num_onehot=0), [[1.0, 2.0]])

    def test_onehot_block_untouched(self):
        f = np.array([[2.0, 4.0, 0.0, 1.0]])
        got = soft_weight(f, np.array([0.5]), num_onehot=2)
        np.testing.assert_array_equal(got, [[1.0, 2.0, 0.0, 1.0]])

    def test_input_not_mutated(self):
        f = np.array([[2.0, 4.0]])
        soft_weight(f, np.array([0.5]), num_onehot=0)
        np.testing.assert_array_equal(f, [[2.0, 4.0]])

    def test_all_onehot_passthrough(self):
        f = np.array([[0.0, 1.0, 1.0]])
        got = soft_weight(f, np.array([0.0]), num_onehot=3)
        np.testing.assert_array_equal(got, f)

    def test_rejections(self):
        with pytest.raises(ValueError):
            soft_weight(np.zeros((2, 3)), np.zeros(3), num_onehot=0)
        with pytest.raises(ValueError):
            soft_weight(np.zeros((2, 3)), np.zeros(2), num_onehot=4)


class TestPhotometricFiltering:
    def test_threshold_reduces_outlier_fraction(self, noisy_scene, noisy_frames):
        frames = noisy_frames[:6]
        cloud = scatter_frames(frames, ScatterConfig(radius=0.04, max_points=100_000))
        _, variances, counts = aggregate_cloud(cloud, frames, False, 0.0)
        scores = photometric_score(variances, counts, k_sigma=0.01)

        rng = np.random.default_rng(23)
        surface = sample_scene_surface(noisy_scene, 0.05, rng)
        before = label_points(cloud.positions, surface, 0.05)
        kept = scores >= 0.5
        after = label_points(cloud.positions[kept], surface, 0.05)

        assert kept.sum() > 0
        outlier_before = 1.0 - before.inlier_fraction
        outlier_after = 1.0 - after.inlier_fraction
        assert outlier_before > 0.0
        assert outlier_after < outlier_before
