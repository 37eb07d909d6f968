"""Tests for the staged pipeline, its config, and the CLI."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from oracles import union_find_components
from pointscatter import cli
from pointscatter.fileio import (
    read_cloud_ply,
    read_detections,
    write_detections,
    write_json,
    write_pgm,
    write_ppm,
)
from pointscatter.pipeline import (
    ConfigError,
    DetectorConfig,
    EvalSettings,
    PipelineConfig,
    StageError,
    _connected_components,
    run_pipeline,
    run_sparsity_bench,
    stage_rng,
)
from pointscatter.scatter import ScatterConfig
from pointscatter.scene import (
    demo_scene,
    load_scene,
    make_frame,
    project_gt_boxes,
    save_scene,
    scene_to_dict,
)


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
            eval=EvalSettings(iou_thresholds=(0.1, 0.3), rng_seed=9),
        )
        assert PipelineConfig.from_dict(config.to_dict()) == config

    def test_from_dict_restores_tuples(self):
        data = PipelineConfig().to_dict()
        back = PipelineConfig.from_dict(json.loads(json.dumps(data)))
        assert isinstance(back.depth_range, tuple)
        assert isinstance(back.bench_origin, tuple)
        assert isinstance(back.eval.iou_thresholds, tuple)
        assert back == PipelineConfig()

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
            PipelineConfig(depth_range=(2.0, 1.0))
        with pytest.raises(ConfigError):
            PipelineConfig(depth_range=(0.0, 1.0))
        with pytest.raises(ConfigError):
            PipelineConfig(tau=0.0)
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
            # neither gamma nor scatter.rng_seed is a setting: both are unknown keys
            ({"gamma": -1.0}, "gamma"),
            ({"k_sigma": "x"}, "k_sigma"),
            ({"min_rotation_deg": float("nan")}, "min_rotation_deg"),
            ({"occlusion_check": "yes"}, "occlusion_check"),
            ({"depth_range": [0.2]}, "depth_range"),
            ({"bench_origin": [0.0, 0.0]}, "bench_origin"),
            ({"bench_extent": [8.0, float("inf"), 3.0]}, "bench_extent"),
            ({"nms_iou": 1.5}, "nms_iou"),
            ({"eval": {"recon_iou": -0.1}}, "recon_iou"),
            ({"eval": {"iou_thresholds": []}}, "iou_thresholds"),
            ({"eval": {"fscore_threshold": 0}}, "fscore_threshold"),
            ({"eval": {"fscore_squared": 1}}, "fscore_squared"),
            ({"eval": {"rng_seed": 1.5}}, "rng_seed"),
            ({"eval": {"sample_count": True}}, "sample_count"),
            ({"detector": {"score_threshold": float("nan")}}, "score_threshold"),
            ({"detector": {"min_cluster_points": 2.5}}, "min_cluster_points"),
            ({"scatter": {"rng_seed": "x"}}, "rng_seed"),
            ({"scatter": {"dedup_radius": 0}}, "dedup_radius"),
            ({"scatter": {"radius": True}}, "radius"),
            ({"tau": float("inf")}, "tau"),
            ({"scatter": {"max_points": True}}, "max_points"),
        ],
    )
    def test_field_kinds_checked(self, data, field):
        with pytest.raises(ConfigError, match=field):
            PipelineConfig.from_dict(data)

    def test_field_kinds_accept_numpy_and_int_values(self):
        config = PipelineConfig(
            seed=np.int64(3), tau=1, nms_iou=np.float64(0.5), bench_extent=(8, 8, 3)
        )
        assert config.seed == 3
        assert PipelineConfig.from_dict({"eval": {"rng_seed": None}}).eval.rng_seed is None
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
        assert result.sparsity["metadata"]["gs_reference_proposals"] == 8192
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


class TestConnectedComponents:
    def assert_matches_union_find(self, points, eps):
        groups = _connected_components(points, eps)
        expected = union_find_components(points, eps)
        assert len(groups) == len(expected)
        for got, want in zip(groups, expected):
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("seed", range(5))
    def test_random_points(self, seed):
        rng = np.random.default_rng(seed)
        # sparse enough for many groups, dense enough for chains
        points = rng.uniform(0.0, 1.0, size=(400, 3))
        self.assert_matches_union_find(points, 0.06)

    def test_single_point(self):
        self.assert_matches_union_find(np.zeros((1, 3)), 0.1)

    def test_noisy_demo_cloud(self):
        scene = demo_scene(noise_sigma=0.05, outlier_rate=0.1)
        config = PipelineConfig(frames=20, detector=DetectorConfig(mode="score_cluster"))
        cloud = run_pipeline(scene, config).cloud
        kept = cloud.positions[cloud.scores >= config.detector.score_threshold]
        self.assert_matches_union_find(kept, config.detector.cluster_eps)


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
        assert set(timings) == {"render", "scatter", "voxelize"}
        assert all(t >= 0 for t in timings.values())
        assert report["metadata"]["keyframes"] == 8

    def test_same_cloud_as_pipeline(self, result):
        report = run_sparsity_bench(small_scene(), small_config())
        assert report["scatter_points"] == len(result.cloud)
        assert report["occupied_voxels"] == len(result.grid)


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

    def test_run_and_eval_agree(self, tmp_path, capsys):
        scene_path = self.gen(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["run", str(scene_path), "--out", str(out), "--frames", "8"]) == 0
        capsys.readouterr()

        eval_out = tmp_path / "eval.json"
        code = cli.main(
            [
                "eval",
                str(scene_path),
                str(out / "detections.json"),
                "--out",
                str(eval_out),
                "--frames",
                "8",
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
        out = tmp_path / "run"
        argv = ["run", str(scene_path), "--out", str(out), "--frames", "1"]
        assert cli.main([*argv, "--detector", "score_cluster"]) == 0
        printed = capsys.readouterr().out
        assert "AP@0.5: " in printed and "chamfer" not in printed and "fscore" not in printed
        report = json.loads((out / "metrics.json").read_text())
        assert report["chamfer"] is None and report["fscore"] is None

    def test_eval_writes_run_report_entries(self, tmp_path):
        # eval writes exactly the report entries run_pipeline computes, plus
        # the config, byte for byte
        scene_path = self.gen(tmp_path)
        result = run_pipeline(load_scene(scene_path), small_config())
        write_detections(result.detections, tmp_path / "detections.json")
        eval_out = tmp_path / "eval.json"
        argv = ["eval", str(scene_path), str(tmp_path / "detections.json"), "--frames", "8"]
        assert cli.main([*argv, "--out", str(eval_out)]) == 0
        keys = ("per_category", "mean", "chamfer", "fscore", "config")
        write_json({k: result.report[k] for k in keys}, tmp_path / "expected.json")
        assert eval_out.read_bytes() == (tmp_path / "expected.json").read_bytes()

    def test_run_overrides_echoed(self, tmp_path):
        scene_path = self.gen(tmp_path)
        out = tmp_path / "run"
        code = cli.main(
            [
                "run",
                str(scene_path),
                "--out",
                str(out),
                "--frames",
                "5",
                "--seed",
                "7",
                "--max-points",
                "500",
            ]
        )
        assert code == 0
        config = json.loads((out / "metrics.json").read_text())["config"]
        assert config["frames"] == 5
        assert config["seed"] == 7
        assert config["scatter"]["max_points"] == 500

    def test_run_noise_override_changes_cloud(self, tmp_path):
        scene_path = self.gen(tmp_path)
        out = tmp_path / "noisy"
        code = cli.main(
            [
                "run",
                str(scene_path),
                "--out",
                str(out),
                "--frames",
                "8",
                "--noise-sigma",
                "0.05",
                "--outlier-rate",
                "0.1",
            ]
        )
        assert code == 0
        report = json.loads((out / "metrics.json").read_text())
        assert report["filter"]["outlier_fraction_raw"] > 0.0

    def test_bench_report(self, tmp_path):
        scene_path = self.gen(tmp_path)
        bench_path = tmp_path / "bench.json"
        assert cli.main(["bench", str(scene_path), "--out", str(bench_path), "--frames", "8"]) == 0
        report = json.loads(bench_path.read_text())
        assert report["coarse_dense_cells"] == 47_500
        assert "timings_s" in report["metadata"]

    def test_export_ply_with_images(self, tmp_path):
        scene_path = self.gen(tmp_path)
        ply_path = tmp_path / "cloud.ply"
        img_dir = tmp_path / "frames"
        code = cli.main(
            [
                "export-ply",
                str(scene_path),
                str(ply_path),
                "--images",
                str(img_dir),
                "--frames",
                "8",
            ]
        )
        assert code == 0
        assert len(read_cloud_ply(ply_path)) > 0
        pgms = sorted(p.name for p in img_dir.glob("*.pgm"))
        ppms = sorted(p.name for p in img_dir.glob("*.ppm"))
        assert pgms == [f"depth_{i:03d}.pgm" for i in range(8)]
        assert ppms == [f"color_{i:03d}.ppm" for i in range(8)]
        # the files match frames rendered afresh with the same perturbation seeds
        scene = load_scene(scene_path)
        config = small_config()
        for i in range(8):
            rng = stage_rng(scene.rng_seed, "perturb", i)
            frame = make_frame(scene, i, rng, config.depth_range, project_gt_boxes(scene, i))
            write_pgm(frame.depth, tmp_path / "depth.pgm", max_value=config.depth_range[1])
            write_ppm(frame.color, tmp_path / "color.ppm")
            assert (img_dir / pgms[i]).read_bytes() == (tmp_path / "depth.pgm").read_bytes()
            assert (img_dir / ppms[i]).read_bytes() == (tmp_path / "color.ppm").read_bytes()

    def test_detector_flag(self, tmp_path):
        scene_path = self.gen(tmp_path)
        out = tmp_path / "run"
        code = cli.main(
            [
                "run",
                str(scene_path),
                "--out",
                str(out),
                "--frames",
                "8",
                "--detector",
                "score_cluster",
            ]
        )
        assert code == 0
        config = json.loads((out / "metrics.json").read_text())["config"]
        assert config["detector"]["mode"] == "score_cluster"


class TestCliExitCodes:
    def test_missing_scene_is_config_error(self, tmp_path, capsys):
        code = cli.main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

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
            (["run", "{scene}", "--out", "{out}", "--outlier-rate", "2"], "outlier rate"),
            (["run", "{scene}", "--out", "{out}", "--noise-sigma", "-1"], "noise sigma"),
            (["run", "{scene}", "--out", "{out}", "--max-points", "0"], "max_points"),
            (["bench", "{scene}", "--max-points", "-3"], "max_points"),
            (["gen-scene", "{out}", "--outlier-rate", "2"], "outlier rate"),
            (["gen-scene", "{out}", "--steps", "0"], "steps"),
            (["run", "{scene}", "--out", "{out}", "--config", "{config}"], "radius"),
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
        "path, value, message",
        [
            (("objects", 0, "center"), [float("nan"), 0.0, 0.35], "center"),
            (("objects", 0, "albedo"), [0.5], "albedo"),
            (("objects", 0, "category"), -1, "category"),
            (("cameras", 0, "fx"), float("nan"), "fx=nan"),
            (("cameras", 0, "fy"), float("inf"), "fy=inf"),
            (("cameras", 0, "translation"), [float("nan"), 0.0, 1.0], "translation"),
            (("depth_noise_sigma",), float("nan"), "noise sigma"),
            (("depth_noise_sigma",), float("inf"), "noise sigma"),
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
        ],
    )
    def test_invalid_scene_values_are_config_errors(self, tmp_path, capsys, path, value, message):
        data = scene_to_dict(demo_scene(steps=6))
        *parents, field = path
        entry = data
        for key in parents:
            entry = entry[key]
        entry[field] = value
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(data))
        assert cli.main(["run", str(scene_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read scene {scene_path}: ")
        assert message in err and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "bench"])
    @pytest.mark.parametrize(
        "config, message",
        [
            ('{"voxel_size": -1}', "voxel_size"),
            ('{"seed": "x"}', "seed"),
            ('{"dense_voxel_size": 0}', "dense_voxel_size"),
            ('{"frames": 2.5}', "frames"),
        ],
        ids=["voxel_size", "seed", "dense_voxel_size", "frames"],
    )
    def test_invalid_config_values_are_config_errors(
        self, tmp_path, capsys, command, config, message
    ):
        scene_path = tmp_path / "scene.json"
        assert cli.main(["gen-scene", str(scene_path), "--steps", "6"]) == 0
        config_path = tmp_path / "config.json"
        config_path.write_text(config + "\n")
        argv = [command, str(scene_path), "--config", str(config_path)]
        if command == "run":
            argv += ["--out", str(tmp_path / "o")]
        capsys.readouterr()
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and message in captured.err
        assert captured.out == "" and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "bench"])
    @pytest.mark.parametrize(
        "config, message",
        [
            ('{"bench_extent": [0, 0, 0]}', "bench_extent"),
            ('{"bench_extent": [8, 8]}', "bench_extent"),
            ('{"nms_iou": "x"}', "nms_iou"),
            ('{"eval": {"iou_thresholds": [2.0]}}', "iou_thresholds"),
            ('{"min_translation": "x"}', "min_translation"),
            ('{"eval": {"sample_count": 0}}', "sample_count"),
            ('{"detector": {"min_cluster_points": "x"}}', "min_cluster_points"),
            ('{"scatter": {"max_points": 1.5}}', "max_points"),
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
        ],
    )
    def test_invalid_field_kinds_are_config_errors(
        self, tmp_path, capsys, command, config, message
    ):
        scene_path = tmp_path / "scene.json"
        assert cli.main(["gen-scene", str(scene_path), "--steps", "6"]) == 0
        config_path = tmp_path / "config.json"
        config_path.write_text(config + "\n")
        argv = [command, str(scene_path), "--config", str(config_path)]
        if command == "run":
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

        monkeypatch.setattr("pointscatter.pipeline.DenseGridSpec", boom)
        run = ["run", str(scene_path), "--out", str(tmp_path / "o")]
        for argv in (run, ["bench", str(scene_path)]):
            capsys.readouterr()
            assert cli.main(argv + ["--frames", "6"]) == 2
            assert "stage 'voxelize' failed: extent" in capsys.readouterr().err

    def test_bench_stage_failure_names_stage(self, tmp_path, capsys, monkeypatch):
        scene_path = tmp_path / "scene.json"
        assert cli.main(["gen-scene", str(scene_path), "--steps", "6"]) == 0

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("pointscatter.pipeline.voxelize", boom)
        capsys.readouterr()
        assert cli.main(["bench", str(scene_path), "--frames", "6"]) == 2
        assert "stage 'voxelize' failed: boom" in capsys.readouterr().err

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
        code = cli.main(["run", str(scene_path), "--out", str(tmp_path / "o"), "--frames", "6"])
        assert code == 2
        assert "voxelize" in capsys.readouterr().err

    def test_scene_without_objects_fails_evaluate(self, tmp_path, capsys):
        # run and eval share the evaluate stage, so both report its failure
        scene_path = tmp_path / "empty.json"
        save_scene(dataclasses.replace(demo_scene(steps=6), objects=()), scene_path)
        dets_path = tmp_path / "detections.json"
        write_detections([], dets_path)
        assert cli.main(["eval", str(scene_path), str(dets_path)]) == 2
        assert "stage 'evaluate' failed" in capsys.readouterr().err
        code = cli.main(["run", str(scene_path), "--out", str(tmp_path / "o"), "--frames", "6"])
        assert code == 2
        assert "stage 'evaluate' failed" in capsys.readouterr().err
