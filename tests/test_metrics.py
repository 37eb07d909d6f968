"""Tests for detection matching, AP, and reconstruction metrics."""

import dataclasses
import itertools

import numpy as np
import pytest

import oracles
from oracles import brute_average_precision, brute_nn_distances
from pointscatter import pipeline
from pointscatter.boxes import OrientedBox
from pointscatter.camera import Intrinsics
from pointscatter.meshes import box_shell, sample_surface_points
from pointscatter.metrics import (
    average_precision_11pt,
    chamfer_distance,
    chamfer_fscore,
    evaluate_detections,
    fscore,
    match_detections,
    recall_at,
)
from pointscatter.pipeline import DetectorConfig, PipelineConfig
from pointscatter.scene import SceneCamera, demo_scene


def box(x=0.0, score=1.0, category=0, size=(1.0, 1.0, 1.0)):
    return OrientedBox((x, 0.0, 0.0), size, category=category, score=score)


class TestMatchDetections:
    def test_perfect_match(self):
        flags = match_detections([box()], [box()], 0.5)
        np.testing.assert_array_equal(flags, [True])

    def test_duplicate_detection_is_fp(self):
        # the higher-scoring duplicate takes the only GT
        dets = [box(score=0.9), box(score=0.8)]
        flags = match_detections(dets, [box()], 0.5)
        np.testing.assert_array_equal(flags, [True, False])

    def test_flags_follow_input_order_not_rank(self):
        dets = [box(score=0.8), box(score=0.9)]
        flags = match_detections(dets, [box()], 0.5)
        np.testing.assert_array_equal(flags, [False, True])

    def test_low_overlap_is_fp(self):
        # unit cubes offset 0.7: IoU = 0.3/1.7 = 0.176 < 0.25
        flags = match_detections([box(x=0.7)], [box()], 0.25)
        np.testing.assert_array_equal(flags, [False])

    def test_threshold_is_inclusive(self):
        # offset 0.5 cubes have IoU exactly 1/3
        flags = match_detections([box(x=0.5)], [box()], 1.0 / 3.0)
        np.testing.assert_array_equal(flags, [True])

    def test_each_gt_matched_once(self):
        dets = [box(x=0.0, score=0.9), box(x=5.0, score=0.8)]
        gts = [box(x=0.0), box(x=5.0)]
        np.testing.assert_array_equal(match_detections(dets, gts, 0.5), [True, True])

    def test_detection_takes_highest_iou_gt(self):
        # det overlaps gt0 with IoU 1/3 and gt1 with IoU 1.0
        dets = [box(x=0.5, score=0.9)]
        gts = [box(x=0.0), box(x=0.5)]
        flags = match_detections(dets, gts, 0.25)
        np.testing.assert_array_equal(flags, [True])
        second = match_detections([box(x=0.5, score=0.9), box(x=0.5, score=0.1)], gts, 0.25)
        # the weaker duplicate falls back to the remaining gt0
        np.testing.assert_array_equal(second, [True, True])

    def test_empty_inputs(self):
        assert len(match_detections([], [box()], 0.5)) == 0
        np.testing.assert_array_equal(match_detections([box()], [], 0.5), [False])


class TestAveragePrecision:
    def test_single_true_positive(self):
        assert average_precision_11pt([True], [0.9], 1) == 1.0

    def test_fp_ranked_first_halves_ap(self):
        # ranked curve: (r=0, p=0) then (r=1, p=0.5); every level reads 0.5
        assert average_precision_11pt([False, True], [0.9, 0.8], 1) == 0.5

    def test_tp_ranked_first_gives_full_ap(self):
        assert average_precision_11pt([True, False], [0.9, 0.8], 1) == 1.0

    def test_partial_recall(self):
        # recall stops at 0.5: levels 0..0.5 read precision 1, rest 0 -> 6/11
        got = average_precision_11pt([True], [0.9], 2)
        assert got == pytest.approx(6.0 / 11.0, abs=0.0)

    def test_no_detections(self):
        assert average_precision_11pt([], [], 3) == 0.0

    def test_score_ties_broken_by_input_order(self):
        assert average_precision_11pt([False, True], [0.8, 0.8], 1) == 0.5
        assert average_precision_11pt([True, False], [0.8, 0.8], 1) == 1.0

    def test_rejections(self):
        with pytest.raises(ValueError):
            average_precision_11pt([True], [0.9], 0)
        with pytest.raises(ValueError):
            average_precision_11pt([True, False], [0.9], 1)

    def test_matches_brute_force_bitwise(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(0, 7))
            gt = int(rng.integers(1, 4))
            flags = list(rng.random(n) < 0.5)
            while sum(flags) > gt:
                flags[flags.index(True)] = False
            scores = list(rng.random(n))
            got = average_precision_11pt(flags, scores, gt)
            want = brute_average_precision(flags, scores, gt)
            assert got == want

    def test_exhaustive_small_cases_bitwise(self):
        # every flag pattern for up to 4 detections at fixed scores
        scores4 = [0.9, 0.7, 0.5, 0.3]
        for n in range(5):
            for flags in itertools.product([False, True], repeat=n):
                for gt in range(max(1, sum(flags)), 4):
                    got = average_precision_11pt(list(flags), scores4[:n], gt)
                    want = brute_average_precision(list(flags), scores4[:n], gt)
                    assert got == want


class TestRecall:
    def test_half(self):
        assert recall_at([True, False], 2) == 0.5

    def test_full(self):
        assert recall_at([True, True], 2) == 1.0

    def test_none(self):
        assert recall_at([], 2) == 0.0

    def test_rejects_zero_gt(self):
        with pytest.raises(ValueError):
            recall_at([True], 0)


class TestChamferDistance:
    def test_identical_sets(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        assert chamfer_distance(pts, pts) == 0.0

    def test_two_points_one_meter(self):
        # 1^2 + 1^2 = 2
        a = np.array([[0.0, 0.0, 0.0]])
        b = np.array([[1.0, 0.0, 0.0]])
        assert chamfer_distance(a, b) == 2.0

    def test_hand_computed_asymmetric_sets(self):
        # a->b: min(1, 4) = 1; b->a: (1 + 4)/2 = 2.5
        a = np.array([[0.0, 0.0, 0.0]])
        b = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert chamfer_distance(a, b) == pytest.approx(3.5, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(40, 3))
        b = rng.normal(size=(60, 3))
        assert chamfer_distance(a, b) == chamfer_distance(b, a)

    def test_positive_when_sets_differ(self):
        a = np.array([[0.0, 0.0, 0.0]])
        b = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        assert chamfer_distance(a, b) > 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-1, 1, size=(50, 3))
        b = rng.uniform(-1, 1, size=(70, 3))
        want = float(np.mean(brute_nn_distances(a, b) ** 2) + np.mean(brute_nn_distances(b, a) ** 2))
        assert chamfer_distance(a, b) == pytest.approx(want, rel=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            chamfer_distance(np.zeros((0, 3)), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            chamfer_distance(np.zeros((1, 3)), np.zeros((0, 3)))

    def test_resampling_stability(self):
        # two independent samplings of the same unit cube shell; expected
        # nearest-neighbor spacing for 4000 samples over area 6 is about
        # 0.02 m, so the symmetric squared measure stays tiny
        mesh = box_shell(OrientedBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
        a = sample_surface_points(mesh, 4000, np.random.default_rng(0))
        b = sample_surface_points(mesh, 4000, np.random.default_rng(1))
        assert chamfer_distance(a, b) < 0.001


class TestFscore:
    def test_identical_sets(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert fscore(pts, pts) == 100.0

    def test_far_apart_is_zero(self):
        a = np.array([[0.0, 0.0, 0.0]])
        b = np.array([[1.0, 0.0, 0.0]])
        assert fscore(a, b) == 0.0

    def test_within_squared_threshold(self):
        # 0.05^2 = 0.0025 < 0.004
        a = np.array([[0.0, 0.0, 0.0]])
        b = np.array([[0.05, 0.0, 0.0]])
        assert fscore(a, b) == 100.0

    def test_partial_coverage(self):
        # precision 1, recall 0.5 -> 100 * 2*0.5/1.5
        gt = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        pred = np.array([[0.0, 0.0, 0.0]])
        assert fscore(gt, pred) == pytest.approx(200.0 / 3.0, rel=1e-12)

    def test_monotone_in_offset(self):
        gt = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0]])
        values = []
        for d in np.linspace(0.0, 0.2, 10):
            values.append(fscore(gt, gt + np.array([d, 0.0, 0.0])))
        assert values[0] == 100.0
        assert values[-1] == 0.0
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_rejections(self):
        with pytest.raises(ValueError):
            fscore(np.zeros((0, 3)), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            fscore(np.zeros((1, 3)), np.zeros((1, 3)), threshold=0.0)


def assert_matches_oracle(gt, pred, threshold=0.004):
    want = (oracles.chamfer_distance(gt, pred), oracles.fscore(gt, pred, threshold))
    assert chamfer_fscore(gt, pred, threshold) == want
    assert chamfer_distance(gt, pred) == want[0]
    assert fscore(gt, pred, threshold) == want[1]


def error_message(fn, *args) -> str:
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


def workload(name, seed=11):
    """Reduced forms of the three benchmark workloads."""
    if name == "demo_noisy":
        scene = demo_scene(noise_sigma=0.05, outlier_rate=0.1, steps=6, seed=seed)
        return scene, PipelineConfig(seed=seed, frames=6, detector=DetectorConfig(mode="score_cluster"))
    if name == "orbit80_clean":
        scene = demo_scene(steps=16, seed=seed)
        return scene, PipelineConfig(seed=seed, frames=16, detector=DetectorConfig(mode="score_cluster"))
    intr = Intrinsics(fx=240.0, fy=240.0, cx=159.5, cy=119.5, width=320, height=240)
    scene = demo_scene(steps=6, seed=seed)
    scene = dataclasses.replace(
        scene, cameras=tuple(SceneCamera(intr, c.pose) for c in scene.cameras)
    )
    return scene, PipelineConfig(seed=seed, frames=6)


class TestChamferFscoreMatchesOracle:
    """One nearest-neighbour pass gives the scores of the two separate ones, bit for bit."""

    @pytest.mark.parametrize("name", ["demo_noisy", "orbit80_clean", "hires_6view"])
    def test_evaluated_pairs_of_workloads(self, monkeypatch, name):
        self.assert_evaluated_pairs_match(monkeypatch, name, 11)

    @pytest.mark.parametrize("name", ["demo_noisy", "orbit80_clean", "hires_6view"])
    def test_evaluated_pairs_of_workloads_at_seed_29(self, monkeypatch, name):
        self.assert_evaluated_pairs_match(monkeypatch, name, 29)

    @staticmethod
    def assert_evaluated_pairs_match(monkeypatch, name, seed):
        calls = []

        def record(*args):
            result = chamfer_fscore(*args)
            calls.append((args, result))
            return result

        monkeypatch.setattr(pipeline, "chamfer_fscore", record)
        scene, config = workload(name, seed)
        report = pipeline.run_pipeline(scene, config).report
        assert calls
        # evaluation takes chamfer_fscore's default threshold, 0.004
        for (gt, pred), result in calls:
            assert len(gt) == len(pred) == pipeline.SAMPLE_COUNT
            assert result == (
                oracles.chamfer_distance(gt, pred),
                oracles.fscore(gt, pred, 0.004),
            )
        assert report["chamfer"] == float(np.mean([r[0] for _, r in calls]))
        assert report["fscore"] == float(np.mean([r[1] for _, r in calls]))

    def test_identical_sets(self):
        pts = np.random.default_rng(3).normal(size=(200, 3))
        assert_matches_oracle(pts, pts)
        assert chamfer_fscore(pts, pts) == (0.0, 100.0)

    def test_disjoint_sets(self):
        rng = np.random.default_rng(4)
        gt = rng.uniform(0.0, 1.0, size=(150, 3))
        assert_matches_oracle(gt, gt + 5.0)
        assert chamfer_fscore(gt, gt + 5.0)[1] == 0.0

    def test_duplicated_points(self):
        rng = np.random.default_rng(5)
        base = rng.uniform(-0.1, 0.1, size=(30, 3))
        gt = np.concatenate([base, base, base[:7]])
        pred = np.concatenate([base[::2] + 0.03, base[::2] + 0.03, base[1::3]])
        assert_matches_oracle(gt, pred)
        assert_matches_oracle(pred, gt)

    @pytest.mark.parametrize("threshold", [0.004, 0.05, 0.2])
    def test_overlapping_sets(self, threshold):
        rng = np.random.default_rng(6)
        gt = rng.uniform(-0.5, 0.5, size=(300, 3))
        pred = np.concatenate([gt[:200] + rng.normal(scale=0.05, size=(200, 3)), gt[:50]])
        assert_matches_oracle(gt, pred, threshold)
        assert_matches_oracle(pred, gt, threshold)

    def test_single_points(self):
        assert_matches_oracle(np.zeros(3), np.array([0.05, 0.0, 0.0]))
        assert_matches_oracle(np.zeros((1, 3)), np.array([[0.05, 0.0, 0.0]]), 0.002)

    @pytest.mark.parametrize("sizes", [(0, 1), (1, 0), (0, 0)])
    def test_empty_sets_raise_the_same_messages(self, sizes):
        gt, pred = np.zeros((sizes[0], 3)), np.zeros((sizes[1], 3))
        assert error_message(chamfer_distance, gt, pred) == error_message(
            oracles.chamfer_distance, gt, pred
        )
        for threshold in (0.004, 0.0):
            assert error_message(fscore, gt, pred, threshold) == error_message(
                oracles.fscore, gt, pred, threshold
            )
        assert "non-empty" in error_message(chamfer_fscore, gt, pred)

    def test_rejects_nonpositive_threshold(self):
        pts = np.zeros((2, 3))
        assert error_message(chamfer_fscore, pts, pts, 0.0) == error_message(
            oracles.fscore, pts, pts, 0.0
        )


class TestEvaluateDetections:
    def gt(self):
        return [box(x=0.0, category=0), box(x=5.0, category=1)]

    def test_perfect_detections(self):
        dets = [box(x=0.0, category=0, score=0.9), box(x=5.0, category=1, score=0.8)]
        report = evaluate_detections(dets, self.gt())
        assert set(report) == {"per_category", "mean"}
        assert set(report["per_category"]) == {"0", "1"}
        for cat in ("0", "1"):
            entry = report["per_category"][cat]
            assert set(entry) == {"AP@0.25", "R@0.25", "AP@0.5", "R@0.5"}
            assert entry["AP@0.5"] == 1.0
            assert entry["R@0.5"] == 1.0
        assert report["mean"]["AP@0.5"] == 1.0

    def test_missing_category_detections(self):
        report = evaluate_detections([box(x=0.0, category=0, score=0.9)], self.gt())
        assert report["per_category"]["0"]["AP@0.5"] == 1.0
        assert report["per_category"]["1"]["AP@0.5"] == 0.0
        assert report["mean"]["AP@0.5"] == 0.5

    def test_unknown_category_detection_ignored(self):
        dets = [
            box(x=0.0, category=0, score=0.9),
            box(x=5.0, category=1, score=0.8),
            box(x=9.0, category=7, score=0.99),
        ]
        report = evaluate_detections(dets, self.gt())
        assert report["mean"]["AP@0.5"] == 1.0
        assert "7" not in report["per_category"]

    def test_threshold_key_format(self):
        dets = [box(x=0.0, category=0, score=0.9)]
        report = evaluate_detections(dets, [box(x=0.0, category=0)], iou_thresholds=(0.75,))
        assert set(report["per_category"]["0"]) == {"AP@0.75", "R@0.75"}

    def test_mean_is_category_average(self):
        dets = [box(x=0.0, category=0, score=0.9)]
        report = evaluate_detections(dets, self.gt())
        for key, value in report["mean"].items():
            per = [report["per_category"][c][key] for c in ("0", "1")]
            assert value == pytest.approx(np.mean(per), abs=0.0)

    def test_rejects_empty_gt(self):
        with pytest.raises(ValueError):
            evaluate_detections([box()], [])
