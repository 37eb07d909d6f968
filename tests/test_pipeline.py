"""Tests for the staged pipeline, its config, and the CLI."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from conftest import load_perfbench
from oracles import read_cloud_ply, union_find_components
from pointscatter import cli
from pointscatter.fileio import (
    read_detections,
    write_detections,
    write_json,
    write_pgm,
    write_ppm,
)
from pointscatter.pipeline import (
    ConfigError,
    DetectorConfig,
    PipelineConfig,
    StageError,
    _connected_components,
    run_pipeline,
    run_sparsity_bench,
    stage_rng,
)
from pointscatter.camera import look_at_pose
from pointscatter.scatter import ScatterConfig
from pointscatter.scene import (
    DEPTH_RANGE,
    SceneCamera,
    demo_scene,
    load_scene,
    make_frame,
    project_gt_boxes,
    save_scene,
    scene_to_dict,
)


# an orbit trajectory of the former camera object form, less its steps
ORBIT = {"type": "orbit", "radius": 3.0, "height": 1.7}
# what a scene file in that object form exits with
DICT_CAMERAS = "cameras must be a JSON list, got dict"
# the override flags run no longer takes
REMOVED_FLAGS = ["--seed", "--frames", "--max-points", "--noise-sigma", "--outlier-rate"]
# a scene-file edit that deletes its key
MISSING = object()
# a detections file of one box, with one more entry filled in
DETECTION = '[{"center": [0, 0, 0.3], "size": [1, 1, 1], %s}]'


def small_scene(**kwargs):
    return demo_scene(steps=8, **kwargs)


def small_config(**kwargs):
    return PipelineConfig(frames=8, **kwargs)


class TestPipelineConfig:
    def test_dict_round_trip(self):
        config = PipelineConfig(
            seed=3,
            frames=12,
            scatter=ScatterConfig(radius=0.05, max_points=5000),
            detector=DetectorConfig(mode="score_cluster", cluster_eps=0.2),
        )
        assert PipelineConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"fames": 10})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"detector": {"mode": "gt_passthrough", "x": 1}})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(frames=0)
        with pytest.raises(ConfigError):
            PipelineConfig(k_sigma=-1.0)

    def test_invalid_nested_value_is_config_error(self):
        with pytest.raises(ConfigError, match="radius"):
            PipelineConfig.from_dict({"scatter": {"radius": -1}})
        with pytest.raises(ConfigError, match="max_points"):
            PipelineConfig.from_dict({"scatter": {"max_points": 0}})

    @pytest.mark.parametrize(
        "data, field",
        [
            # none of gamma, occlusion_check, scatter.rng_seed and
            # scatter.dedup_radius is a setting, nor is any value of the
            # measurement protocol (tau, depth_range, the bench grid, the
            # former eval values): each is an unknown key, even at the value
            # in use, and so is the eval part itself
            ({"gamma": -1.0}, "gamma"),
            ({"k_sigma": "x"}, "k_sigma"),
            ({"min_rotation_deg": float("nan")}, "min_rotation_deg"),
            ({"occlusion_check": "yes"}, "occlusion_check"),
            ({"depth_range": [0.2, 6.4]}, "depth_range"),
            ({"bench_origin": [-4.0, -4.0, 0.0]}, "bench_origin"),
            ({"bench_extent": [8.0, 8.0, 3.0]}, "bench_extent"),
            ({"nms_iou": 1.5}, "nms_iou"),
            ({"recon_iou": 0.25}, "recon_iou"),
            ({"iou_thresholds": [0.25, 0.5]}, "iou_thresholds"),
            ({"fscore_threshold": 0.004}, "fscore_threshold"),
            ({"fscore_squared": True}, "fscore_squared"),
            ({"rng_seed": 0}, "rng_seed"),
            ({"sample_count": 2048}, "sample_count"),
            ({"detector": {"score_threshold": float("nan")}}, "score_threshold"),
            ({"detector": {"min_cluster_points": 2.5}}, "min_cluster_points"),
            ({"scatter": {"rng_seed": "x"}}, "rng_seed"),
            ({"scatter": {"dedup_radius": 0}}, "dedup_radius"),
            ({"scatter": {"radius": True}}, "radius"),
            ({"tau": 0.05}, "tau"),
            ({"scatter": {"max_points": True}}, "max_points"),
            ({"detector": {"min_cluster_points": 0}}, "min_cluster_points"),
            ({"detector": {"min_cluster_points": -5}}, "min_cluster_points"),
            ({"eval": {"sample_count": 2048}}, "eval"),
        ],
    )
    def test_field_kinds_checked(self, data, field):
        with pytest.raises(ConfigError, match=field):
            PipelineConfig.from_dict(data)

    def test_field_kinds_accept_numpy_and_int_values(self):
        config = PipelineConfig(seed=np.int64(3), k_sigma=1, nms_iou=np.float64(0.5))
        assert config.seed == 3
        with pytest.raises(ConfigError, match="scatter"):
            PipelineConfig(scatter={"radius": 0.04})

    def test_bad_detector_rejected(self):
        with pytest.raises(ConfigError):
            DetectorConfig(mode="votenet")
        with pytest.raises(ConfigError):
            DetectorConfig(cluster_eps=0.0)


class TestStageRng:
    def test_deterministic(self):
        a = stage_rng(7, "cap").random(5)
        b = stage_rng(7, "cap").random(5)
        np.testing.assert_array_equal(a, b)

    def test_labels_separate_streams(self):
        a = stage_rng(7, "cap").random(5)
        b = stage_rng(7, "surface").random(5)
        assert not np.array_equal(a, b)

    def test_index_separates_streams(self):
        a = stage_rng(7, "perturb", 0).random(5)
        b = stage_rng(7, "perturb", 1).random(5)
        assert not np.array_equal(a, b)

    def test_seed_separates_streams(self):
        a = stage_rng(7, "cap").random(5)
        b = stage_rng(8, "cap").random(5)
        assert not np.array_equal(a, b)


@pytest.fixture(scope="module")
def result():
    return run_pipeline(small_scene(), small_config())


class TestRunPipeline:
    def test_gt_passthrough_is_perfect(self, result):
        assert result.report["mean"]["AP@0.5"] == 1.0
        assert result.report["mean"]["R@0.5"] == 1.0

    def test_one_detection_per_object(self, result):
        assert len(result.detections) == 3
        assert sorted(d.category for d in result.detections) == [0, 1, 2]

    def test_reconstruction_metrics(self, result):
        assert result.report["chamfer"] < 0.005
        assert result.report["fscore"] == 100.0

    def test_every_camera_is_a_keyframe(self, result):
        assert result.keyframes == list(range(8))

    def test_config_echoed(self, result):
        assert result.report["config"] == small_config().to_dict()

    def test_report_schema(self, result):
        assert set(result.report) == {
            "per_category",
            "mean",
            "chamfer",
            "fscore",
            "filter",
            "config",
        }
        filter_stats = result.report["filter"]
        assert filter_stats["points_raw"] >= filter_stats["points_filtered"] > 0
        assert filter_stats["outlier_fraction_raw"] == 0.0

    def test_sparsity_metadata(self, result):
        # the coarse reference and the timings belong to the bench report
        assert "metadata" not in result.sparsity
        assert result.sparsity["dense_cells"] == 3_000_000

    def test_artifacts_written(self, tmp_path):
        result = run_pipeline(small_scene(), small_config(), output_dir=tmp_path)
        for name in (
            "cloud_raw.ply",
            "cloud_filtered.ply",
            "detections.json",
            "metrics.json",
            "sparsity.json",
        ):
            assert (tmp_path / name).exists()
        back = read_detections(tmp_path / "detections.json")
        assert back == result.detections
        raw = read_cloud_ply(tmp_path / "cloud_raw.ply")
        assert len(raw) == len(result.cloud)
        filtered = read_cloud_ply(tmp_path / "cloud_filtered.ply")
        assert len(filtered) == len(result.filtered_indices)
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["mean"] == result.report["mean"]

    # one camera inside the first demo box, which keeps every triangle of
    # that box and covers every pixel, and one 10 m out looking away from
    # every object, which covers none
    @pytest.mark.parametrize(
        "eye, target, covered",
        [
            ((-1.1, 0.0, 0.35), (0.9, -0.7, 0.45), 160 * 120),
            ((10.0, 0.0, 1.0), (20.0, 0.0, 1.0), 0),
        ],
    )
    @pytest.mark.parametrize("mode", ["gt_passthrough", "score_cluster"])
    def test_degenerate_view_writes_artifacts(self, tmp_path, eye, target, covered, mode):
        scene = small_scene()
        camera = SceneCamera(scene.cameras[0].intrinsics, look_at_pose(eye, target))
        scene = dataclasses.replace(scene, cameras=(camera,))
        config = small_config(detector=DetectorConfig(mode=mode))
        result = run_pipeline(scene, config, output_dir=tmp_path)
        assert [len(frame.covered) for frame in result.frames] == [covered]
        names = ["cloud_filtered.ply", "cloud_raw.ply", "detections.json", "metrics.json", "sparsity.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names


class TestScoreClusterDetector:
    def test_recovers_demo_boxes(self):
        # recorded value on this fixture: mean AP@0.25 = 1.0 (bound: 0.9)
        scene = demo_scene()
        config = PipelineConfig(frames=20, detector=DetectorConfig(mode="score_cluster"))
        result = run_pipeline(scene, config)
        assert result.report["mean"]["AP@0.25"] >= 0.9
        assert result.report["mean"]["AP@0.25"] == 1.0
        for entry in result.report["per_category"].values():
            assert entry["AP@0.25"] == 1.0
        gt_sizes = {o.box.category: o.box.size for o in scene.objects}
        for det in result.detections:
            np.testing.assert_allclose(det.size, gt_sizes[det.category], atol=0.15)


@pytest.fixture(scope="module")
def noisy_kept_points():
    """The noisy demo's points at or above the score threshold, and the
    detector config that clusters them."""
    scene = demo_scene(noise_sigma=0.05, outlier_rate=0.1)
    config = PipelineConfig(frames=20, detector=DetectorConfig(mode="score_cluster"))
    cloud = run_pipeline(scene, config).cloud
    return cloud.positions[cloud.scores >= config.detector.score_threshold], config.detector


class TestConnectedComponents:
    def assert_matches_union_find(self, points, eps, min_size=1):
        """The oracle's groups of at least ``min_size`` points, in the
        oracle's order (by smallest member); returns the groups."""
        groups = _connected_components(points, eps, min_size)
        expected = [g for g in union_find_components(points, eps) if len(g) >= min_size]
        assert len(groups) == len(expected)
        for got, want in zip(groups, expected):
            assert got.tolist() == want.tolist()
        return groups

    @pytest.mark.parametrize("seed", range(5))
    def test_random_points(self, seed):
        rng = np.random.default_rng(seed)
        # sparse enough for many groups, dense enough for chains
        points = rng.uniform(0.0, 1.0, size=(400, 3))
        self.assert_matches_union_find(points, 0.06)
        self.assert_matches_union_find(points, 0.06, 3)

    def test_single_point(self):
        self.assert_matches_union_find(np.zeros((1, 3)), 0.1)

    def test_min_size_above_every_group(self):
        points = np.random.default_rng(5).uniform(0.0, 1.0, size=(400, 3))
        assert self.assert_matches_union_find(points, 0.06, 401) == []

    def test_noisy_demo_cloud(self, noisy_kept_points):
        kept, detector = noisy_kept_points
        self.assert_matches_union_find(kept, detector.cluster_eps)

    def test_noisy_demo_cloud_kept_groups(self, noisy_kept_points):
        kept, detector = noisy_kept_points
        assert self.assert_matches_union_find(kept, detector.cluster_eps, detector.min_cluster_points)


class TestDeterminism:
    def test_metrics_bytes_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_pipeline(small_scene(), small_config(), output_dir=out_a)
        run_pipeline(small_scene(), small_config(), output_dir=out_b)
        for name in ("metrics.json", "sparsity.json", "cloud_raw.ply", "detections.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestStageErrors:
    def test_stage_failure_names_stage(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("broken renderer")

        monkeypatch.setattr("pointscatter.pipeline.make_frame", boom)
        with pytest.raises(StageError) as err:
            run_pipeline(small_scene(), small_config())
        assert err.value.stage == "render"
        assert "render" in str(err.value)

    def test_config_error_passes_through(self):
        with pytest.raises(ConfigError):
            run_pipeline(small_scene(), PipelineConfig(frames=-1))


class TestSparsityBench:
    def test_report_contents(self):
        report = run_sparsity_bench(small_scene(), small_config())
        assert report["dense_cells"] == 3_000_000
        # 8x8x3 m at the 0.16 m reference: 50 * 50 * 19 cells
        assert report["coarse_dense_cells"] == 47_500
        assert report["scatter_points"] <= 100_000
        assert report["reduction_factor"] >= 30.0
        timings = report["metadata"]["timings_s"]
        assert list(timings) == ["keyframes", "render", "scatter", "aggregate", "voxelize"]
        assert all(t >= 0 for t in timings.values())
        assert report["metadata"]["keyframes"] == 8

    def test_same_cloud_as_pipeline(self, result):
        report = run_sparsity_bench(small_scene(), small_config())
        assert report["scatter_points"] == len(result.cloud)
        assert report["occupied_voxels"] == len(result.grid)

    def test_same_report_as_pipeline(self, result):
        # bench runs the pipeline's front, aggregation included, so its
        # byte model counts the feature channels that run's report counts
        report = run_sparsity_bench(small_scene(), small_config())
        shared = sorted(set(report) & set(result.sparsity))
        assert "record_bytes" in shared
        assert {k: report[k] for k in shared} == {k: result.sparsity[k] for k in shared}

    @pytest.mark.parametrize(
        "name, stage",
        [
            ("make_frame", "render"),
            ("scatter_frames", "scatter"),
            ("aggregate_cloud", "aggregate"),
            ("voxelize", "voxelize"),
        ],
    )
    def test_stage_failure_names_stage(self, monkeypatch, name, stage):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(f"pointscatter.pipeline.{name}", boom)
        with pytest.raises(StageError) as err:
            run_sparsity_bench(small_scene(), small_config())
        assert err.value.stage == stage


class TestTracerTargets:
    def test_only_stale_targets_are_unresolved(self, tmp_path):
        # the benchmark's tracer wraps names of pointscatter.pipeline; a
        # name the module no longer binds records nothing
        tracer_module = load_perfbench("tracer")
        scene, config = load_perfbench("workloads").build("demo_noisy", 3, reduced=True)
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            tracer.run(run_pipeline, scene, config, output_dir=tmp_path)
        finally:
            tracer.restore()
        # scatter dedups every run of frames inside one stateless
        # scatter_frames call, and the accumulator class is gone
        assert sorted(tracer.missing) == [
            "ScatterAccumulator.add_frame",
            "pipeline.boxes_to_list",
            "pipeline.chamfer_distance",
            "pipeline.fscore",
        ]
        _, _, calls = tracer.last_summary()
        names = {tracer_module.span_name(owner, attr) for owner, attr, _ in tracer_module.TARGETS}
        assert sorted(n for n in names - set(tracer.missing) if not calls.get(n)) == []


class TestCli:
    def gen(self, tmp_path, name="scene.json", extra=()):
        scene_path = tmp_path / name
        assert cli.main(["gen-scene", str(scene_path), "--steps", "8", *extra]) == 0
        return scene_path

    def test_gen_scene_writes_loadable_spec(self, tmp_path):
        scene_path = self.gen(tmp_path, extra=["--noise-sigma", "0.05", "--outlier-rate", "0.1"])
        data = json.loads(scene_path.read_text())
        assert data["depth_noise_sigma"] == 0.05
        assert data["outlier_rate"] == 0.1

    def test_gen_scene_has_no_preset(self, tmp_path):
        # the demo scene is the only one gen-scene writes
        assert cli.main(["gen-scene", str(tmp_path / "scene.json"), "--preset", "demo"]) == 1

    @pytest.mark.parametrize("flag", ["--frames", "--max-points", "--noise-sigma"])
    def test_eval_takes_no_front_flags(self, flag):
        # evaluation reads only the seed of a config, so eval takes --config
        # but no flag of the stages before it: a usage error
        assert cli.main(["eval", "scene.json", "detections.json", flag, "8"]) == 1

    def test_run_and_eval_agree(self, tmp_path, capsys):
        scene_path = self.gen(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["run", str(scene_path), "--out", str(out)]) == 0
        capsys.readouterr()

        eval_out = tmp_path / "eval.json"
        code = cli.main(
            [
                "eval",
                str(scene_path),
                str(out / "detections.json"),
                "--out",
                str(eval_out),
            ]
        )
        assert code == 0
        run_report = json.loads((out / "metrics.json").read_text())
        eval_report = json.loads(eval_out.read_text())
        # the standalone evaluator lacks the filter block but must agree
        # on every metric it recomputes from the artifacts
        for key in ("per_category", "mean", "chamfer", "fscore"):
            assert eval_report[key] == run_report[key]

    def test_run_with_no_matched_detection(self, tmp_path, capsys):
        # every depth pixel an outlier: clusters match no object, so the
        # report's chamfer and fscore are None and the run prints neither
        scene_path = self.gen(tmp_path, extra=["--outlier-rate", "1.0"])
        config_path = tmp_path / "config.json"
        config_path.write_text('{"frames": 1}\n')
        out = tmp_path / "run"
        argv = ["run", str(scene_path), "--out", str(out), "--config", str(config_path)]
        assert cli.main([*argv, "--detector", "score_cluster"]) == 0
        printed = capsys.readouterr().out
        assert "AP@0.5: " in printed and "chamfer" not in printed and "fscore" not in printed
        report = json.loads((out / "metrics.json").read_text())
        assert report["chamfer"] is None and report["fscore"] is None

    def test_eval_writes_run_report_entries(self, tmp_path):
        # eval writes exactly the report entries run_pipeline computes, plus
        # the config, byte for byte
        scene_path = self.gen(tmp_path)
        result = run_pipeline(load_scene(scene_path), PipelineConfig())
        write_detections(result.detections, tmp_path / "detections.json")
        eval_out = tmp_path / "eval.json"
        argv = ["eval", str(scene_path), str(tmp_path / "detections.json")]
        assert cli.main([*argv, "--out", str(eval_out)]) == 0
        keys = ("per_category", "mean", "chamfer", "fscore", "config")
        write_json({k: result.report[k] for k in keys}, tmp_path / "expected.json")
        assert eval_out.read_bytes() == (tmp_path / "expected.json").read_bytes()

    def test_run_overrides_echoed(self, tmp_path):
        scene_path = self.gen(tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text('{"frames": 5, "seed": 7, "scatter": {"max_points": 500}}\n')
        out = tmp_path / "run"
        argv = ["run", str(scene_path), "--out", str(out), "--config", str(config_path)]
        assert cli.main(argv) == 0
        config = json.loads((out / "metrics.json").read_text())["config"]
        assert config["frames"] == 5
        assert config["seed"] == 7
        assert config["scatter"]["max_points"] == 500

    def test_run_noise_override_changes_cloud(self, tmp_path):
        scene_path = self.gen(tmp_path, extra=["--noise-sigma", "0.05", "--outlier-rate", "0.1"])
        out = tmp_path / "noisy"
        assert cli.main(["run", str(scene_path), "--out", str(out)]) == 0
        report = json.loads((out / "metrics.json").read_text())
        assert report["filter"]["outlier_fraction_raw"] > 0.0

    def test_bench_report(self, tmp_path):
        # the bench report of the scene file run reads holds run's
        # sparsity.json, the coarse reference count and the stage times
        scene_path = self.gen(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["run", str(scene_path), "--out", str(out)]) == 0
        sparsity = json.loads((out / "sparsity.json").read_text())
        bench_path = tmp_path / "bench.json"
        write_json(run_sparsity_bench(load_scene(scene_path), PipelineConfig()), bench_path)
        report = json.loads(bench_path.read_text())
        assert {k: report[k] for k in sparsity} == sparsity
        assert report["coarse_dense_cells"] == 47_500
        assert "timings_s" in report["metadata"]

    def test_bench_report_prints_one_voxel_size(self, tmp_path):
        # run's sparsity.json comes from the bench report's sparsity_report
        scene_path = self.gen(tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text('{"voxel_size": 1}\n')
        out = tmp_path / "run"
        argv = ["run", str(scene_path), "--config", str(config_path), "--out", str(out)]
        assert cli.main(argv) == 0
        report = json.loads((out / "sparsity.json").read_text())
        assert json.dumps(report["voxel_size"]) == json.dumps(report["dense_voxel_size"]) == "1"

    def test_run_with_images(self, tmp_path):
        scene_path = self.gen(tmp_path)
        out = tmp_path / "run"
        img_dir = tmp_path / "frames"
        assert cli.main(["run", str(scene_path), "--out", str(out), "--images", str(img_dir)]) == 0
        assert len(read_cloud_ply(out / "cloud_raw.ply")) > 0
        pgms = sorted(p.name for p in img_dir.glob("*.pgm"))
        ppms = sorted(p.name for p in img_dir.glob("*.ppm"))
        assert pgms == [f"depth_{i:03d}.pgm" for i in range(8)]
        assert ppms == [f"color_{i:03d}.ppm" for i in range(8)]
        # the files match frames rendered afresh with the same perturbation seeds
        scene = load_scene(scene_path)
        for i, boxes in enumerate(project_gt_boxes(scene)[:8]):
            rng = stage_rng(scene.rng_seed, "perturb", i)
            frame = make_frame(scene, i, rng, boxes)
            write_pgm(frame.depth, tmp_path / "depth.pgm", max_value=DEPTH_RANGE[1])
            write_ppm(frame.color, tmp_path / "color.ppm")
            assert (img_dir / pgms[i]).read_bytes() == (tmp_path / "depth.pgm").read_bytes()
            assert (img_dir / ppms[i]).read_bytes() == (tmp_path / "color.ppm").read_bytes()

    def test_detector_flag(self, tmp_path):
        scene_path = self.gen(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["run", str(scene_path), "--out", str(out), "--detector", "score_cluster"]) == 0
        config = json.loads((out / "metrics.json").read_text())["config"]
        assert config["detector"]["mode"] == "score_cluster"


class TestCliExitCodes:
    def test_missing_scene_is_config_error(self, tmp_path, capsys):
        code = cli.main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--images"])
    @pytest.mark.parametrize("nested", [False, True])
    def test_output_path_through_a_file_is_config_error(self, tmp_path, capsys, flag, nested):
        # checked before the first stage: exit 1 naming the flag, nothing written
        scene_path = tmp_path / "scene.json"
        assert cli.main(["gen-scene", str(scene_path), "--steps", "6"]) == 0
        blocker = tmp_path / "afile"
        blocker.write_text("x")
        bad = blocker / "sub" if nested else blocker
        paths = {"--out": tmp_path / "out", "--images": tmp_path / "imgs", flag: bad}
        before = sorted(tmp_path.rglob("*"))
        argv = ["run", str(scene_path), "--out", str(paths["--out"]), "--images", str(paths["--images"])]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and flag in err and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before
        assert blocker.read_text() == "x"

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        assert cli.main(["gen-scene", str(scene_path), "--steps", "6"]) == 0
        config_path = tmp_path / "config.json"
        config_path.write_text('{"fames": 3}\n')
        code = cli.main(
            ["run", str(scene_path), "--out", str(tmp_path / "o"), "--config", str(config_path)]
        )
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen-scene", "{out}", "--outlier-rate", "2"], "outlier_rate"),
            (["gen-scene", "{out}", "--steps", "0"], "steps"),
            (["run", "{scene}", "--out", "{out}", "--config", "{config}"], "radius"),
        ],
        ids=[
            "argv4-outlier rate",
            "argv5-steps",
            "argv6-radius",
        ],
    )
    def test_invalid_values_are_config_errors(self, tmp_path, capsys, argv, message):
        scene_path = tmp_path / "scene.json"
        assert cli.main(["gen-scene", str(scene_path), "--steps", "6"]) == 0
        config_path = tmp_path / "config.json"
        config_path.write_text('{"scatter": {"radius": -1}}\n')
        paths = {"scene": scene_path, "out": tmp_path / "o", "config": config_path}
        capsys.readouterr()
        assert cli.main([arg.format(**paths) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            pytest.param(argv, flag, id=f"{argv[0]}{flag}")
            for argv, flags in [
                (["run", "{scene}", "--out", "{out}"], REMOVED_FLAGS),
                (["eval", "{scene}", "{scene}", "--out", "{out}"], ["--seed"]),
            ]
            for flag in flags
        ],
    )
    def test_removed_override_flags_are_usage_errors(self, tmp_path, capsys, argv, flag):
        # the seed and frames are set in the config file, the point cap in
        # its scatter part, the noise and outliers in the scene file
        scene_path = tmp_path / "scene.json"
        assert cli.main(["gen-scene", str(scene_path), "--steps", "6"]) == 0
        paths = {"scene": scene_path, "out": tmp_path / "o"}
        capsys.readouterr()
        assert cli.main([arg.format(**paths) for arg in argv] + [flag, "1"]) == 1
        captured = capsys.readouterr()
        assert f"config error: unrecognized arguments: {flag} 1" in captured.err
        assert captured.out == "" and not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv", [["bench", "{scene}", "--out", "{out}"], ["export-ply", "{scene}", "{out}"]],
        ids=lambda argv: argv[0],
    )
    def test_removed_subcommands_are_usage_errors(self, tmp_path, capsys, argv):
        # run is the one command that runs the pipeline
        scene_path = tmp_path / "scene.json"
        assert cli.main(["gen-scene", str(scene_path), "--steps", "6"]) == 0
        paths = {"scene": scene_path, "out": tmp_path / "o"}
        capsys.readouterr()
        assert cli.main([arg.format(**paths) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert f"config error: argument command: invalid choice: '{argv[0]}'" in captured.err
        assert captured.out == "" and not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("objects", 0, "center"), [float("nan"), 0.0, 0.35], "center"),
            (("objects", 0, "albedo"), [0.5], "albedo"),
            (("objects", 0, "category"), -1, "category"),
            (("cameras", 0, "fx"), float("nan"), "fx must be a finite positive number, got nan"),
            (("cameras", 0, "fy"), float("inf"), "fy must be a finite positive number, got inf"),
            (("cameras", 0, "translation"), [float("nan"), 0.0, 1.0], "translation"),
            (("depth_noise_sigma",), float("nan"), "depth_noise_sigma must be a finite non-negative"),
            (("depth_noise_sigma",), float("inf"), "depth_noise_sigma must be a finite non-negative"),
            (("objects",), 5, "objects must be a JSON list, got int"),
            (("objects", 0, "yaw"), [1], "yaw must be a finite number, got [1]"),
            (("cameras", 0, "width"), 160.9, "width must be a positive integer, got 160.9"),
            (("rng_seed",), 3.9, "rng_seed must be an integer, got 3.9"),
            (("objects", 0, "category"), 1.5, "category must be a non-negative integer, got 1.5"),
            (("cameras", 0, "fx"), True, "fx must be a finite positive number, got True"),
            (("cameras", 0, "fx"), "120", "fx must be a finite positive number, got '120'"),
            (("outlier_rate",), True, "outlier_rate must be a number in [0, 1], got True"),
            (("depth_noise_sigma",), True, "depth_noise_sigma must be a finite non-negative"),
            (("objects", 0, "yaw"), True, "yaw must be a finite number, got True"),
            (("objects", 0, "center"), ["1", "0", "0.3"], "center must be 3 values"),
            (("cameras", 0, "cx"), "79.5", "cx must be a finite number, got '79.5'"),
            (("cameras", 0, "translation"), [True, 0.0, 1.0], "translation must be 3 values"),
            (("cameras",), 7, "cameras must be a JSON list, got int"),
            (("objects", 0), [1, 2], "objects[0] must be a JSON object, got list"),
            (("cameras", 1), [1], "cameras[1] must be a JSON object, got list"),
            (("cameras", 2, "translation"), MISSING, "cameras[2] lacks 'translation'"),
            (("objects", 1, "size"), MISSING, "objects[1] lacks 'size'"),
            (("objects",), MISSING, "scene lacks 'objects'"),
            (("cameras", 0, "fy"), MISSING, "cameras[0] lacks 'fy'"),
            (("depth_noise_sgma",), 0.5, "scene has unknown key 'depth_noise_sgma'"),
            (("objects", 0, "yawn"), 1.0, "objects[0] has unknown key 'yawn'"),
            (("cameras", 0, "fz"), 120.0, "cameras[0] has unknown key 'fz'"),
            (
                ("intrinsics",),
                {"fx": 120, "fy": 120, "cx": 79.5, "cy": 59.5, "width": 160, "height": 120},
                "scene has unknown key 'intrinsics'",
            ),
            # cameras are listed one by one: every file in the former orbit
            # object form, well formed or not, is rejected for its cameras
            (("cameras",), {"trajectory": [1]}, DICT_CAMERAS),
            (("cameras",), {"trajectory": ORBIT | {"steps": 6.7}}, DICT_CAMERAS),
            (("cameras",), {"trajectory": ORBIT | {"steps": True}}, DICT_CAMERAS),
            (("cameras",), {"trajectory": ORBIT | {"steps": 6, "radius": True}}, DICT_CAMERAS),
            (("cameras",), {"trajectory": ORBIT | {"steps": 6, "look_at": ["0", 0, 0]}}, DICT_CAMERAS),
            (("cameras",), {"trajectory": {"type": "orbit", "radius": 3.0, "steps": 6}}, DICT_CAMERAS),
            (("cameras",), {"trajectory": ORBIT | {"steps": 6, "lookat": [0, 0, 0]}}, DICT_CAMERAS),
            (("cameras",), {"trajectory": ORBIT | {"steps": 6}, "steps": 6}, DICT_CAMERAS),
            (("outlier_rate",), 2, "outlier_rate must be a number in [0, 1], got 2"),
            (("depth_noise_sigma",), -1, "depth_noise_sigma must be a finite non-negative"),
        ],
        ids=[
            "nan_center",
            "short_albedo",
            "negative_category",
            "nan_fx",
            "inf_fy",
            "nan_translation",
            "nan_noise_sigma",
            "inf_noise_sigma",
            "number_objects",
            "list_yaw",
            "fractional_width",
            "fractional_rng_seed",
            "fractional_category",
            "bool_fx",
            "string_fx",
            "bool_outlier_rate",
            "bool_noise_sigma",
            "bool_yaw",
            "string_center",
            "string_cx",
            "bool_translation",
            "number_cameras",
            "list_object",
            "list_camera",
            "missing_translation",
            "missing_size",
            "missing_objects",
            "missing_fy",
            "misspelled_noise_sigma",
            "misspelled_yaw",
            "misspelled_camera_key",
            "intrinsics_beside_camera_list",
            "list_trajectory",
            "fractional_steps",
            "bool_steps",
            "bool_radius",
            "string_look_at",
            "missing_orbit_height",
            "misspelled_look_at",
            "unknown_cameras_key",
            "outlier_rate_2",
            "negative_sigma",
        ],
    )
    def test_invalid_scene_values_are_config_errors(self, tmp_path, capsys, path, value, message):
        data = scene_to_dict(demo_scene(steps=6))
        *parents, field = path
        entry = data
        for key in parents:
            entry = entry[key]
        if value is MISSING:
            del entry[field]
        else:
            entry[field] = value
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(data))
        assert cli.main(["run", str(scene_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read scene {scene_path}: ")
        assert message in err and not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, content, message",
        [
            (["run", "{bad}", "--out", "{out}"], "[1, 2]", "scene must be a JSON object"),
            (["eval", "{scene}", "{bad}"], '{"center": [0, 0, 0]}', "must be a JSON list"),
            (["eval", "{scene}", "{bad}"], '[{"center": 5, "size": [1, 1, 1]}]', "center must be 3"),
            (["eval", "{scene}", "{bad}"], DETECTION % '"score": NaN', "score must be a finite"),
            (["eval", "{scene}", "{bad}"], DETECTION % '"score": Infinity', "score must be a finite"),
            (["eval", "{scene}", "{bad}"], DETECTION % '"category": true', "category must be"),
            (["eval", "{scene}", "{bad}"], DETECTION % '"category": 1.5', "category must be"),
            (
                ["eval", "{scene}", "{bad}"],
                '[{"center": ["1", "0", "0.3"], "size": [1, 1, 1]}]',
                "center must be 3 values",
            ),
            (["eval", "{scene}", "{bad}"], "[[0, 0, 0.3]]", "detections[0] must be a JSON object, got list"),
            (["eval", "{scene}", "{bad}"], '[{"center": [0, 0, 0.3]}]', "detections[0] lacks 'size'"),
            (
                ["eval", "{scene}", "{bad}"],
                DETECTION % '"scroe": 0.2',
                "detections[0] has unknown key 'scroe'",
            ),
        ],
        ids=[
            "list_scene",
            "object_detections",
            "number_center",
            "nan_score",
            "inf_score",
            "bool_category",
            "fractional_category",
            "string_center",
            "list_entry",
            "missing_size",
            "misspelled_score",
        ],
    )
    def test_malformed_files_are_config_errors(self, tmp_path, capsys, argv, content, message):
        scene_path = tmp_path / "scene.json"
        assert cli.main(["gen-scene", str(scene_path), "--steps", "6"]) == 0
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(content + "\n")
        paths = {"scene": scene_path, "bad": bad_path, "out": tmp_path / "o"}
        capsys.readouterr()
        assert cli.main([arg.format(**paths) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: cannot read ") and message in captured.err
        assert captured.out == "" and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "eval"])
    @pytest.mark.parametrize(
        "config, message",
        [
            ('{"voxel_size": -1}', "voxel_size"),
            ('{"seed": "x"}', "seed"),
            ('{"dense_voxel_size": 0}', "unknown key 'dense_voxel_size'"),
            ('{"frames": 2.5}', "frames"),
            ("[1, 2]", "config must be a JSON object"),
            ("5", "config must be a JSON object"),
            ('{"scatter": {"max_points": 0}}', "max_points"),
            ('{"scatter": {"max_points": -3}}', "max_points"),
        ],
        ids=[
            "voxel_size",
            "seed",
            "dense_voxel_size",
            "frames",
            "list_config",
            "number_config",
            "zero_max_points",
            "negative_max_points",
        ],
    )
    def test_invalid_config_values_are_config_errors(
        self, tmp_path, capsys, command, config, message
    ):
        scene_path = tmp_path / "scene.json"
        assert cli.main(["gen-scene", str(scene_path), "--steps", "6"]) == 0
        config_path = tmp_path / "config.json"
        config_path.write_text(config + "\n")
        # eval reads its config before its detections, which it never reaches
        detections = [str(scene_path)] if command == "eval" else []
        argv = [command, str(scene_path), *detections, "--config", str(config_path)]
        argv += ["--out", str(tmp_path / "o")]
        capsys.readouterr()
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and message in captured.err
        assert captured.out == "" and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "eval"])
    @pytest.mark.parametrize(
        "config, message",
        [
            # bench_extent, depth_range and the eval part are no settings:
            # each is an unknown key, whatever its value
            ('{"bench_extent": [0, 0, 0]}', "unknown key 'bench_extent'"),
            ('{"bench_extent": [8, 8]}', "unknown key 'bench_extent'"),
            ('{"nms_iou": "x"}', "nms_iou"),
            ('{"eval": {"iou_thresholds": [2.0]}}', "unknown key 'eval'"),
            ('{"min_translation": "x"}', "min_translation"),
            ('{"eval": {"sample_count": 0}}', "unknown key 'eval'"),
            ('{"detector": {"min_cluster_points": "x"}}', "min_cluster_points"),
            ('{"scatter": {"max_points": 1.5}}', "max_points"),
            ('{"depth_range": 5}', "unknown key 'depth_range'"),
            ('{"eval": {"iou_thresholds": 0.5}}', "unknown key 'eval'"),
        ],
        ids=[
            "bench_extent_zero",
            "bench_extent_short",
            "nms_iou",
            "iou_thresholds",
            "min_translation",
            "sample_count",
            "min_cluster_points",
            "max_points",
            "number_depth_range",
            "number_iou_thresholds",
        ],
    )
    def test_invalid_field_kinds_are_config_errors(
        self, tmp_path, capsys, command, config, message
    ):
        scene_path = tmp_path / "scene.json"
        assert cli.main(["gen-scene", str(scene_path), "--steps", "6"]) == 0
        config_path = tmp_path / "config.json"
        config_path.write_text(config + "\n")
        # eval reads its config before its detections, which it never reaches
        detections = [str(scene_path)] if command == "eval" else []
        argv = [command, str(scene_path), *detections, "--config", str(config_path)]
        argv += ["--out", str(tmp_path / "o")]
        capsys.readouterr()
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and message in captured.err
        assert captured.out == "" and not (tmp_path / "o").exists()

    def test_sparsity_report_failure_names_voxelize(self, tmp_path, capsys, monkeypatch):
        scene_path = tmp_path / "scene.json"
        assert cli.main(["gen-scene", str(scene_path), "--steps", "6"]) == 0

        def boom(*args, **kwargs):
            raise ValueError("extent must be positive per axis")

        monkeypatch.setattr("pointscatter.pipeline.dense_cell_count", boom)
        capsys.readouterr()
        assert cli.main(["run", str(scene_path), "--out", str(tmp_path / "o")]) == 2
        assert "stage 'voxelize' failed: extent" in capsys.readouterr().err

    def test_bench_stage_failure_names_stage(self, tmp_path, monkeypatch):
        # the bench report names a failed stage as run's exit-2 message does
        scene_path = tmp_path / "scene.json"
        assert cli.main(["gen-scene", str(scene_path), "--steps", "6"]) == 0

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("pointscatter.pipeline.voxelize", boom)
        with pytest.raises(StageError) as err:
            run_sparsity_bench(load_scene(scene_path), PipelineConfig())
        assert err.value.stage == "voxelize"
        assert str(err.value) == "stage 'voxelize' failed: boom"

    def test_scene_without_cameras_runs_warning_free(self, tmp_path, capsys):
        # no frame means no color channel to score; numpy's empty-mean
        # warning would fail the aggregate stage here
        scene_path = tmp_path / "nocam.json"
        save_scene(dataclasses.replace(demo_scene(steps=6), cameras=()), scene_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["run", str(scene_path), "--out", str(tmp_path / "o")])
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "o" / "metrics.json").exists()

    def test_stage_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        scene_path = tmp_path / "scene.json"
        assert cli.main(["gen-scene", str(scene_path), "--steps", "6"]) == 0

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("pointscatter.pipeline.voxelize", boom)
        assert cli.main(["run", str(scene_path), "--out", str(tmp_path / "o")]) == 2
        assert "voxelize" in capsys.readouterr().err

    def test_scene_without_objects_fails_evaluate(self, tmp_path, capsys):
        # run and eval share the evaluate stage, so both report its failure;
        # run writes its artifacts and frame images only after evaluating
        scene_path = tmp_path / "empty.json"
        save_scene(dataclasses.replace(demo_scene(steps=6), objects=()), scene_path)
        dets_path = tmp_path / "detections.json"
        write_detections([], dets_path)
        assert cli.main(["eval", str(scene_path), str(dets_path)]) == 2
        assert "stage 'evaluate' failed" in capsys.readouterr().err
        argv = ["run", str(scene_path), "--out", str(tmp_path / "o"), "--images", str(tmp_path / "i")]
        assert cli.main(argv) == 2
        assert "stage 'evaluate' failed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists() and not (tmp_path / "i").exists()
