"""Acceptance checks: one test per shipped guarantee, each timed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion. Every check verifies the implementation against an
independent oracle (closed forms, brute force, Monte Carlo, finite
differences) at the stated tolerance and within the stated budget.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from conftest import DEPTH_RANGE, reduce_rows
from oracles import brute_average_precision, brute_nn_distances, mc_iou, point_mesh_distance
from pointscatter import cli
from pointscatter.aggregate import aggregate_cloud
from pointscatter.boxes import OrientedBox, iou_3d
from pointscatter.camera import Intrinsics, Pose, backproject_pixels, project_points
from pointscatter.depth import DepthBins, decode_depth, ordinal_loss, ordinal_loss_grad, probs_for_label
from pointscatter.metrics import average_precision_11pt, chamfer_distance, fscore
from pointscatter.pipeline import PipelineConfig, run_sparsity_bench
from pointscatter.scatter import ScatterCloud, ScatterConfig, scatter_frames
from pointscatter.scene import demo_scene
from pointscatter.surface import (
    focal_loss,
    focal_loss_grad,
    label_points,
    photometric_score,
    sample_scene_surface,
)
from scipy.spatial import cKDTree

INTR = Intrinsics(fx=120.0, fy=120.0, cx=79.5, cy=59.5, width=160, height=120)


def _rotation(rng):
    ax, ay, az = rng.uniform(-np.pi, np.pi, size=3)
    cx, sx = np.cos(ax), np.sin(ax)
    cy, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


def _report(num, label, elapsed, budget=None):
    suffix = f" ({elapsed:.2f}s" + (f" < {budget:g}s)" if budget else ")")
    print(f"PASS [{num:>2}] {label}{suffix}")


def test_01_projection_round_trip():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        pose = Pose(_rotation(rng), rng.uniform(-5, 5, size=3))
        u = rng.uniform(0.0, INTR.width - 1, size=100)
        v = rng.uniform(0.0, INTR.height - 1, size=100)
        d = rng.uniform(*DEPTH_RANGE, size=100)
        points = backproject_pixels(u, v, d, INTR, pose)
        uv, z, in_front = project_points(points, INTR, pose)
        assert in_front.all()
        worst = max(
            worst,
            float(np.abs(uv[:, 0] - u).max()),
            float(np.abs(uv[:, 1] - v).max()),
            float(np.abs(z - d).max()),
        )
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 1.0
    _report(1, f"projection round trip, 10000 triples, max err {worst:.1e}", elapsed, 1)


def test_02_ordinal_depth_decode_and_gradients():
    t0 = time.perf_counter()
    for num_bins in range(2, 13):
        bins = DepthBins(0.2, 6.4, num_bins)
        edges = bins.edges
        for label in range(num_bins):
            got = decode_depth(probs_for_label(label, bins), bins)
            assert got == (edges[label] + edges[label + 1]) / 2.0

    rng = np.random.default_rng(202)
    h = 1e-5
    for _ in range(100):
        num_bins = int(rng.integers(2, 9))
        k = int(rng.integers(1, 4))
        probs = rng.uniform(0.05, 0.95, size=(k, num_bins))
        labels = rng.integers(0, num_bins, size=k)
        grad = ordinal_loss_grad(probs, labels)
        fd = np.zeros_like(probs)
        for i in range(k):
            for j in range(num_bins):
                up = probs.copy()
                up[i, j] += h
                down = probs.copy()
                down[i, j] -= h
                fd[i, j] = (ordinal_loss(up, labels) - ordinal_loss(down, labels)) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-8)

    for _ in range(100):
        n = int(rng.integers(2, 9))
        scores = rng.uniform(0.05, 0.95, size=n)
        labels = rng.integers(0, 2, size=n)
        gamma = float(rng.choice([0.0, 0.5, 2.0]))
        grad = focal_loss_grad(scores, labels, gamma)
        fd = np.zeros(n)
        for i in range(n):
            up = scores.copy()
            up[i] += h
            down = scores.copy()
            down[i] -= h
            fd[i] = (focal_loss(up, labels, gamma) - focal_loss(down, labels, gamma)) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-8)

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, "ordinal decode exact, 200 gradient checks vs finite differences", elapsed, 5)


def test_03_iou_vs_monte_carlo():
    assert iou_3d(
        OrientedBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        OrientedBox((0.5, 0.0, 0.0), (1.0, 1.0, 1.0)),
    ) == 1.0 / 3.0

    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        center_a = rng.uniform(-1, 1, size=3)
        box_a = OrientedBox(
            tuple(center_a), tuple(rng.uniform(0.3, 1.5, size=3)), yaw=rng.uniform(-np.pi, np.pi)
        )
        box_b = OrientedBox(
            tuple(center_a + rng.uniform(-0.3, 0.3, size=3)),
            tuple(rng.uniform(0.3, 1.5, size=3)),
            yaw=rng.uniform(-np.pi, np.pi),
        )
        exact = iou_3d(box_a, box_b)
        estimate = mc_iou(box_a, box_b, 1_000_000, np.random.default_rng(trial))
        worst = max(worst, abs(exact - estimate))
    elapsed = time.perf_counter() - t0
    assert worst < 0.005
    assert elapsed < 60.0
    _report(3, f"IoU vs 1e6-sample Monte Carlo on 100 pairs, max |err| {worst:.4f}", elapsed, 60)


def test_04_average_precision_vs_brute_force():
    assert average_precision_11pt([True], [0.9], 1) == 1.0
    assert average_precision_11pt([False, True], [0.9, 0.8], 1) == 0.5

    scores = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
    t0 = time.perf_counter()
    cases = 0
    for n in range(7):
        for flags in itertools.product([False, True], repeat=n):
            for gt in range(1, 4):
                if sum(flags) > gt:
                    continue
                got = average_precision_11pt(list(flags), scores[:n], gt)
                want = brute_average_precision(list(flags), scores[:n], gt)
                assert got == want
                if n:
                    rolled_flags = list(np.roll(flags, 1))
                    rolled_scores = list(np.roll(scores[:n], 1))
                    got_r = average_precision_11pt(rolled_flags, rolled_scores, gt)
                    want_r = brute_average_precision(rolled_flags, rolled_scores, gt)
                    assert got_r == want_r == got
                cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(4, f"AP bitwise equal to brute force on {cases} enumerated cases", elapsed, 10)


def test_05_scattering_fidelity(clean_scene, clean_frames):
    t0 = time.perf_counter()
    config = ScatterConfig(radius=0.04, max_points=100_000)
    cloud = scatter_frames(clean_frames, config)
    assert len(cloud) > 0

    mesh = np.concatenate([o.mesh() for o in clean_scene.objects], axis=0)
    distances = np.array([point_mesh_distance(p, mesh) for p in cloud.positions])
    on_surface = float(np.mean(distances < 1e-6))

    # spacing invariant: every point was accepted only because no earlier
    # point sat strictly within the dedup radius, so no such pair exists
    pairs = cKDTree(cloud.positions).query_pairs(config.radius * (1.0 - 1e-9))
    elapsed = time.perf_counter() - t0
    assert on_surface >= 0.99
    assert len(pairs) == 0
    assert elapsed < 30.0
    _report(
        5,
        f"scatter fidelity: {on_surface:.2%} on-surface, spacing holds for all {len(cloud)} points",
        elapsed,
        30,
    )


def test_06_surface_filter_discrimination(noisy_scene, noisy_frames):
    assert noisy_scene.depth_noise_sigma == 0.05
    assert noisy_scene.outlier_rate == 0.1
    t0 = time.perf_counter()
    cloud = scatter_frames(noisy_frames, ScatterConfig(radius=0.04, max_points=100_000))
    surface = sample_scene_surface(noisy_scene, 0.05, np.random.default_rng(606))

    labeling = label_points(cloud.positions, surface, 0.05)
    brute = brute_nn_distances(cloud.positions, surface)
    np.testing.assert_array_equal(labeling.labels, brute < 0.05)
    np.testing.assert_allclose(labeling.distances, brute, atol=1e-9)

    # scores computed the way the pipeline aggregates: occluded views
    # masked with the noise-scaled depth tolerance
    _, variances, counts = aggregate_cloud(
        cloud, noisy_frames, occlusion_check=True, depth_sigma=noisy_scene.depth_noise_sigma
    )
    scores = photometric_score(variances, counts, k_sigma=0.01)
    kept = scores >= 0.5
    assert kept.sum() > 0
    outlier_before = 1.0 - labeling.inlier_fraction
    outlier_after = 1.0 - float(labeling.labels[kept].mean())
    elapsed = time.perf_counter() - t0
    assert outlier_before > 0.0
    assert outlier_after < outlier_before
    assert elapsed < 60.0
    _report(
        6,
        f"filter reduces outlier fraction {outlier_before:.3f} -> {outlier_after:.3f}",
        elapsed,
        60,
    )


def test_07_aggregation_algebra():
    rng = np.random.default_rng(707)
    t0 = time.perf_counter()
    for _ in range(50):
        n = int(rng.integers(2, 12))
        f = rng.uniform(-10, 10, size=(n, 4))
        m = rng.random(n) < 0.7
        perm = rng.permutation(n)
        mean, variance = reduce_rows(f, m)
        mean_p, variance_p = reduce_rows(f[perm], m[perm])
        np.testing.assert_allclose(mean_p, mean, atol=1e-12)
        np.testing.assert_allclose(variance_p, variance, atol=1e-12)
        f2, m2 = np.vstack([f, f]), np.concatenate([m, m])
        mean_2, variance_2 = reduce_rows(f2, m2)
        np.testing.assert_allclose(mean_2, mean, atol=1e-12)
        np.testing.assert_allclose(variance_2, variance, atol=1e-12)

        second, _ = reduce_rows(f**2, m)
        np.testing.assert_allclose(variance, second - mean**2, atol=1e-9)

    consistent = np.tile(rng.uniform(-1, 1, size=3), (8, 1))
    np.testing.assert_array_equal(reduce_rows(consistent, np.ones(8, bool))[1], np.zeros(3))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(7, "mean/variance invariances and moment identity hold", elapsed, 5)


def test_08_sparsity_claim():
    t0 = time.perf_counter()
    report = run_sparsity_bench(demo_scene(), PipelineConfig(frames=20))
    elapsed = time.perf_counter() - t0
    assert report["dense_cells"] == 3_000_000
    assert report["scatter_points"] <= 100_000
    ratio = report["dense_cells"] / report["scatter_points"]
    assert ratio >= 30.0
    required = {
        "scatter_points",
        "occupied_voxels",
        "dense_cells",
        "reduction_factor",
        "bytes_scatter",
        "bytes_dense",
        "record_bytes",
        "voxel_size",
        "dense_voxel_size",
        "coarse_dense_cells",
        "metadata",
    }
    assert set(report) == required
    json.dumps(report)
    assert elapsed < 10.0
    _report(8, f"dense/scattered ratio {ratio:.0f}x (needs 30x), report schema valid", elapsed, 10)


def test_09_end_to_end_determinism(tmp_path):
    t0 = time.perf_counter()
    scene_path = tmp_path / "scene.json"
    assert cli.main(["gen-scene", str(scene_path)]) == 0
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(scene_path), "--out", str(out_a)]) == 0
    assert cli.main(["run", str(scene_path), "--out", str(out_b)]) == 0
    bytes_a = (out_a / "metrics.json").read_bytes()
    assert bytes_a == (out_b / "metrics.json").read_bytes()

    report = json.loads(bytes_a)
    elapsed = time.perf_counter() - t0
    assert report["mean"]["AP@0.5"] == 1.0
    assert report["mean"]["R@0.5"] == 1.0
    _report(9, "byte-identical reruns; demo AP@0.5 = R@0.5 = 1.0", elapsed)


def test_10_reconstruction_metric_fixtures():
    t0 = time.perf_counter()
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[1.0, 0.0, 0.0]])
    assert chamfer_distance(a, b) == 2.0

    pts = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0]])
    assert fscore(pts, pts) == 100.0
    assert fscore(a, b) == 0.0
    assert fscore(a, np.array([[0.05, 0.0, 0.0]])) == 100.0

    gt = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0]])
    values = [fscore(gt, gt + np.array([d, 0.0, 0.0])) for d in np.linspace(0.0, 0.2, 10)]
    assert values[0] == 100.0
    assert values[-1] == 0.0
    assert all(x >= y for x, y in zip(values, values[1:]))
    elapsed = time.perf_counter() - t0
    _report(10, "chamfer/f-score closed-form fixtures exact, f-score monotone", elapsed)
