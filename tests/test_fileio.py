"""Tests for PLY, PGM/PPM, and JSON artifact formats."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from pointscatter import fileio
from pointscatter.boxes import OrientedBox
from pointscatter.fileio import (
    boxes_from_list,
    boxes_to_list,
    read_detections,
    write_cloud_ply,
    write_detections,
    write_json,
    write_pgm,
    write_ppm,
)
from pointscatter.pipeline import DetectorConfig, PipelineConfig, run_pipeline
from pointscatter.scatter import ScatterCloud, empty_cloud
from pointscatter.scene import demo_scene

import oracles


def split_ply(path):
    """The header lines and the body bytes of a PLY file."""
    data = path.read_bytes()
    end = data.index(b"end_header\n") + len(b"end_header\n")
    return data[:end].decode("ascii").splitlines(), data[end:]


def sample_cloud(with_features=True, with_scores=True):
    rng = np.random.default_rng(6)
    n = 17
    cloud = ScatterCloud(
        positions=rng.normal(size=(n, 3)),
        frame_ids=rng.integers(0, 20, size=n),
        pixels=rng.integers(0, 160, size=(n, 2)).astype(np.float64),
        categories=rng.integers(0, 3, size=n),
    )
    features, scores = rng.normal(size=(n, 4)), rng.random(n)
    return dataclasses.replace(
        cloud, features=features if with_features else None, scores=scores if with_scores else None
    )


class TestPlyRoundTrip:
    def test_positions_exact(self, tmp_path):
        cloud = sample_cloud()
        path = tmp_path / "cloud.ply"
        write_cloud_ply(cloud, path)
        back = oracles.read_cloud_ply(path)
        np.testing.assert_array_equal(back.positions, cloud.positions)

    def test_provenance_exact(self, tmp_path):
        cloud = sample_cloud()
        path = tmp_path / "cloud.ply"
        write_cloud_ply(cloud, path)
        back = oracles.read_cloud_ply(path)
        np.testing.assert_array_equal(back.frame_ids, cloud.frame_ids)
        np.testing.assert_array_equal(back.categories, cloud.categories)
        np.testing.assert_array_equal(back.pixels, cloud.pixels)

    def test_features_and_scores_exact(self, tmp_path):
        cloud = sample_cloud()
        path = tmp_path / "cloud.ply"
        write_cloud_ply(cloud, path)
        back = oracles.read_cloud_ply(path)
        np.testing.assert_array_equal(back.features, cloud.features)
        np.testing.assert_array_equal(back.scores, cloud.scores)

    def test_bare_cloud_round_trip(self, tmp_path):
        cloud = sample_cloud(with_features=False, with_scores=False)
        path = tmp_path / "bare.ply"
        write_cloud_ply(cloud, path)
        back = oracles.read_cloud_ply(path)
        assert back.features is None
        assert back.scores is None
        np.testing.assert_array_equal(back.positions, cloud.positions)

    def test_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.ply"
        write_cloud_ply(empty_cloud(), path)
        back = oracles.read_cloud_ply(path)
        assert len(back) == 0

    def test_identical_inputs_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.ply", tmp_path / "b.ply"
        write_cloud_ply(sample_cloud(), a)
        write_cloud_ply(sample_cloud(), b)
        assert a.read_bytes() == b.read_bytes()


class TestPlyHeader:
    def test_table_names_every_cloud_field_once(self):
        named = [field for field, _, _ in fileio._PLY_COLUMNS]
        assert sorted(named) == sorted(f.name for f in dataclasses.fields(ScatterCloud))

    def test_header_layout(self, tmp_path):
        path = tmp_path / "cloud.ply"
        write_cloud_ply(sample_cloud(), path)
        lines, _ = split_ply(path)
        assert lines[0] == "ply"
        assert lines[1] == "format binary_little_endian 1.0"
        assert "element vertex 17" in lines
        props = [l.split()[2] for l in lines if l.startswith("property")]
        assert props == ["x", "y", "z", "frame", "category", "pu", "pv", "score", "f0", "f1", "f2", "f3"]

    def test_vertex_line_width(self, tmp_path):
        path = tmp_path / "cloud.ply"
        write_cloud_ply(sample_cloud(), path)
        _, body = split_ply(path)
        # 3 + 2 + 1 + 4 doubles and 2 ints a vertex
        assert len(body) == 17 * 88

    def test_rejects_non_ply(self, tmp_path):
        path = tmp_path / "bogus.ply"
        path.write_text("off\n")
        with pytest.raises(ValueError):
            oracles.read_cloud_ply(path)

    def test_rejects_missing_required_property(self, tmp_path):
        path = tmp_path / "partial.ply"
        path.write_bytes(
            b"ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
            b"property double x\nproperty double y\nproperty double z\n"
            b"end_header\n" + bytes(24)
        )
        with pytest.raises(ValueError, match="missing property"):
            oracles.read_cloud_ply(path)

    @pytest.mark.parametrize(
        "case, match",
        [("truncated", "body"), ("trailing_bytes", "body"), ("ascii", "format"), ("big_endian", "format")],
    )
    def test_rejects_malformed_body_or_format(self, tmp_path, case, match):
        path = tmp_path / "cloud.ply"
        write_cloud_ply(sample_cloud(), path)
        oracles.read_cloud_ply(path)
        data = path.read_bytes()
        if case == "truncated":
            data = data[:-1]
        elif case == "trailing_bytes":
            data += b"\n"
        else:
            fmt = b"ascii" if case == "ascii" else b"binary_big_endian"
            data = data.replace(b"binary_little_endian", fmt, 1)
        path.write_bytes(data)
        with pytest.raises(ValueError, match=match):
            oracles.read_cloud_ply(path)


@pytest.fixture(scope="module")
def noisy_demo_result():
    config = PipelineConfig(frames=20, detector=DetectorConfig(mode="score_cluster"))
    return run_pipeline(demo_scene(noise_sigma=0.05, outlier_rate=0.1), config)


class TestWritersMatchOracle:
    """The column-wise writers give the bytes of the row-by-row ones."""

    @staticmethod
    def assert_same_bytes(tmp_path, write, oracle_write, *args, **kwargs):
        got, want = tmp_path / "got", tmp_path / "want"
        write(*args, got, **kwargs)
        oracle_write(*args, want, **kwargs)
        assert got.read_bytes() == want.read_bytes()

    @staticmethod
    def assert_same_bits_read_back(path, cloud):
        """Every float column reads back bit for bit: NaN payloads and signed zeros too."""
        back = oracles.read_cloud_ply(path)
        for field in ("positions", "pixels", "scores", "features"):
            got, want = getattr(back, field), getattr(cloud, field)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), field
        np.testing.assert_array_equal(back.frame_ids, cloud.frame_ids)
        np.testing.assert_array_equal(back.categories, cloud.categories)

    @pytest.mark.parametrize("part", ["raw", "filtered"])
    @pytest.mark.parametrize("with_features", [True, False])
    @pytest.mark.parametrize("with_scores", [True, False])
    def test_demo_clouds(self, tmp_path, noisy_demo_result, part, with_features, with_scores):
        cloud = noisy_demo_result.cloud
        if part == "filtered":
            cloud = cloud.select(noisy_demo_result.filtered_indices)
        assert len(cloud) > 0 and cloud.features is not None and cloud.scores is not None
        cloud = dataclasses.replace(
            cloud,
            features=cloud.features if with_features else None,
            scores=cloud.scores if with_scores else None,
        )
        self.assert_same_bytes(tmp_path, write_cloud_ply, oracles.write_cloud_ply, cloud)
        back = oracles.read_cloud_ply(tmp_path / "got")
        for field in dataclasses.fields(ScatterCloud):
            want, got = getattr(cloud, field.name), getattr(back, field.name)
            assert (got is None) if want is None else np.array_equal(got, want), field.name

    def test_special_values(self, tmp_path):
        special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e22, -1e22, 0.1])
        n = len(special)
        cloud = ScatterCloud(
            positions=np.stack([special, special[::-1], np.roll(special, 3)], axis=1),
            frame_ids=np.arange(n) - 4,
            pixels=np.stack([special, -special], axis=1),
            categories=np.full(n, 2),
            features=np.stack([special] * 3, axis=1),
            scores=special,
        )
        self.assert_same_bytes(tmp_path, write_cloud_ply, oracles.write_cloud_ply, cloud)
        self.assert_same_bits_read_back(tmp_path / "got", cloud)

    def test_repeated_and_special_values(self, tmp_path):
        # NaNs with three payloads, both zeros, infinities, subnormals and
        # plain values, each repeated, mixed within every float column
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000001, 0x7FF0000000000ABC], dtype=np.uint64)
        special = np.concatenate([
            nans.view(np.float64),
            [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072e-308, 0.1, 0.30000000000000004],
        ])
        values = np.random.default_rng(8).choice(special, size=(97, 9))
        values[:2] = [[0.0] * 9, [-0.0] * 9]
        cloud = ScatterCloud(
            positions=values[:, :3],
            frame_ids=np.arange(97) % 5,
            pixels=values[:, 3:5],
            categories=np.zeros(97, dtype=np.int64),
            features=values[:, 6:],
            scores=values[:, 5],
        )
        self.assert_same_bytes(tmp_path, write_cloud_ply, oracles.write_cloud_ply, cloud)
        self.assert_same_bits_read_back(tmp_path / "got", cloud)

    def test_empty_cloud(self, tmp_path):
        self.assert_same_bytes(tmp_path, write_cloud_ply, oracles.write_cloud_ply, empty_cloud())

    def test_demo_frames(self, tmp_path, noisy_frames):
        for frame in noisy_frames[:4]:
            self.assert_same_bytes(
                tmp_path, write_pgm, oracles.write_pgm, frame.depth, max_value=float(frame.depth.max())
            )
            self.assert_same_bytes(
                tmp_path, write_pgm, oracles.write_pgm, frame.depth, max_value=6.4
            )
            self.assert_same_bytes(tmp_path, write_ppm, oracles.write_ppm, frame.color)


class TestFilteredPlyFromRawRows:
    """cloud_filtered.ply holds the rows of cloud_raw.ply at the filtered indices."""

    @pytest.mark.parametrize("case", ["noisy", "none_kept", "clean"])
    def test_pipeline_artifacts_match_oracle(self, tmp_path, case):
        scene = demo_scene() if case == "clean" else demo_scene(noise_sigma=0.05, outlier_rate=0.1)
        # scores lie in [0, 1], so a threshold of 1.5 keeps no point
        threshold = 1.5 if case == "none_kept" else 0.5
        config = PipelineConfig(
            frames=20, detector=DetectorConfig(mode="score_cluster", score_threshold=threshold)
        )
        result = run_pipeline(scene, config, output_dir=tmp_path / "run")
        kept = len(result.filtered_indices)
        if case == "none_kept":
            assert kept == 0
        else:
            assert 0 < kept < len(result.cloud)
        for name, cloud in [
            ("cloud_raw.ply", result.cloud),
            ("cloud_filtered.ply", result.cloud.select(result.filtered_indices)),
        ]:
            oracles.write_cloud_ply(cloud, tmp_path / name)
            got = (tmp_path / "run" / name).read_bytes()
            assert got == (tmp_path / name).read_bytes(), name
        if case == "none_kept":
            assert b"element vertex 0\n" in got and got.endswith(b"end_header\n")

    def test_demo_write_peak_memory(self, tmp_path, noisy_demo_result):
        # the writer holds one packed row table, as large as the file's
        # vertex rows, and little else
        path = tmp_path / "cloud_raw.ply"
        tracemalloc.start()
        try:
            write_cloud_ply(noisy_demo_result.cloud, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _, body = split_ply(path)
        assert peak <= len(body) + 64 * 1024


class TestPgm:
    def test_header_and_scale(self, tmp_path):
        depth = np.array([[0.0, 1.0], [2.0, 4.0]])
        path = tmp_path / "depth.pgm"
        write_pgm(depth, path, max_value=4.0)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1].startswith("# scale: ")
        assert lines[2] == "2 2"
        assert lines[3] == "65535"
        # 65535 / 4 per unit: 1.0 -> 16384 (rounded)
        assert lines[4].split() == ["0", "16384"]
        assert lines[5].split() == ["32768", "65535"]

    def test_max_value_override(self, tmp_path):
        depth = np.array([[1.0]])
        path = tmp_path / "depth.pgm"
        write_pgm(depth, path, max_value=2.0)
        body = path.read_text().splitlines()[4]
        assert body == "32768"

    def test_values_clamped(self, tmp_path):
        depth = np.array([[3.0, 1.0]])
        path = tmp_path / "depth.pgm"
        write_pgm(depth, path, max_value=1.0)
        assert path.read_text().splitlines()[4].split() == ["65535", "65535"]

    def test_all_zero_map(self, tmp_path):
        path = tmp_path / "zero.pgm"
        write_pgm(np.zeros((1, 2)), path, max_value=6.4)
        assert path.read_text().splitlines()[4].split() == ["0", "0"]

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(np.zeros((2, 2, 3)), tmp_path / "bad.pgm", max_value=1.0)


class TestPpm:
    def test_header_and_pixels(self, tmp_path):
        img = np.zeros((1, 2, 3))
        img[0, 0] = [1.0, 0.0, 0.5]
        path = tmp_path / "c.ppm"
        write_ppm(img, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P3"
        assert lines[1] == "2 1"
        assert lines[2] == "255"
        # 0.5 * 255 = 127.5 rounds to even: 128
        assert lines[3].split() == ["255", "0", "128", "0", "0", "0"]

    def test_values_clamped(self, tmp_path):
        img = np.full((1, 1, 3), 2.0)
        path = tmp_path / "c.ppm"
        write_ppm(img, path)
        assert path.read_text().splitlines()[3].split() == ["255", "255", "255"]

    def test_rejects_gray(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(np.zeros((2, 2)), tmp_path / "bad.ppm")


class TestDetectionsJson:
    def boxes(self):
        return [
            OrientedBox((1.0, 2.0, 3.0), (0.5, 0.6, 0.7), yaw=0.3, category=2, score=0.85),
            OrientedBox((-1.0, 0.0, 0.25), (1.0, 1.0, 1.0)),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "detections.json"
        write_detections(self.boxes(), path)
        back = read_detections(path)
        assert back == self.boxes()

    def test_schema(self, tmp_path):
        path = tmp_path / "detections.json"
        write_detections(self.boxes(), path)
        items = json.loads(path.read_text())
        assert isinstance(items, list)
        assert set(items[0]) == {"center", "size", "yaw", "category", "score"}

    def test_defaults_on_read(self):
        boxes = boxes_from_list([{"center": [0, 0, 0], "size": [1, 1, 1]}])
        assert boxes[0].yaw == 0.0
        assert boxes[0].category == 0
        assert boxes[0].score == 1.0

    def test_list_round_trip_without_files(self):
        items = boxes_to_list(self.boxes())
        assert boxes_from_list(items) == self.boxes()


class TestWriteJson:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        data = {"b": [1, 2], "a": {"z": 1.5, "y": None}}
        write_json(data, a)
        write_json(dict(reversed(data.items())), b)
        assert a.read_bytes() == b.read_bytes()

    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        path = tmp_path / "r.json"
        write_json({"beta": 1, "alpha": 2}, path)
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"alpha"') < text.index('"beta"')

    def test_parseable(self, tmp_path):
        path = tmp_path / "r.json"
        write_json({"x": [1.25, 2.5]}, path)
        assert json.loads(path.read_text()) == {"x": [1.25, 2.5]}
