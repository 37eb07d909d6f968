"""Tests for sparse voxelization and the dense-grid comparison."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pack_index, unpack_index
from pointscatter.scatter import ScatterCloud, empty_cloud
from pointscatter.voxel import INDEX_RANGE, DenseGridSpec, sparsity_report, voxel_indices, voxelize


def cloud_at(positions, features=None, scores=None):
    positions = np.asarray(positions, dtype=np.float64)
    n = len(positions)
    cloud = ScatterCloud(
        positions=positions,
        frame_ids=np.zeros(n, dtype=np.int64),
        pixels=np.zeros((n, 2), dtype=np.int64),
        categories=np.zeros(n, dtype=np.int64),
    )
    if features is not None:
        cloud = cloud.with_features(np.asarray(features, dtype=np.float64))
    if scores is not None:
        cloud = cloud.with_scores(np.asarray(scores, dtype=np.float64))
    return cloud


def grid_row(grid, ix, iy, iz):
    """Row of voxel (ix, iy, iz) in ``grid``, or None when unoccupied."""
    key = pack_index(ix, iy, iz)
    row = int(np.searchsorted(grid.keys, key))
    return row if row < len(grid) and grid.keys[row] == key else None


class TestPackedKeys:
    """The scalar key oracle, and ``voxelize``'s keys against it."""

    def test_round_trip_examples(self):
        for triple in [(0, 0, 0), (1, 2, 3), (-5, 7, -9), (100, -200, 300)]:
            assert unpack_index(pack_index(*triple)) == triple

    def test_boundaries(self):
        lo, hi = INDEX_RANGE
        assert unpack_index(pack_index(lo, lo, lo)) == (lo, lo, lo)
        assert unpack_index(pack_index(hi, hi, hi)) == (hi, hi, hi)
        corners = cloud_at([[lo, lo, lo], [hi + 0.5, hi + 0.5, hi + 0.5]])
        np.testing.assert_array_equal(
            voxelize(corners, 1.0).keys, [pack_index(lo, lo, lo), pack_index(hi, hi, hi)]
        )

    def test_out_of_range_rejected(self):
        lo, hi = INDEX_RANGE
        with pytest.raises(ValueError):
            pack_index(hi + 1, 0, 0)
        with pytest.raises(ValueError):
            pack_index(0, lo - 1, 0)

    @given(
        st.integers(*INDEX_RANGE),
        st.integers(*INDEX_RANGE),
        st.integers(*INDEX_RANGE),
    )
    @settings(deadline=None, max_examples=200)
    def test_round_trip_property(self, ix, iy, iz):
        assert unpack_index(pack_index(ix, iy, iz)) == (ix, iy, iz)

    def test_keys_are_unique_per_cell(self):
        cells = [(ix, iy, iz) for ix in range(-3, 4) for iy in range(-3, 4) for iz in range(-3, 4)]
        grid = voxelize(cloud_at((np.array(cells) + 0.5) * 0.1), 0.1)
        assert len(grid) == 7**3
        np.testing.assert_array_equal(grid.keys, sorted(pack_index(*c) for c in cells))


class TestVoxelIndices:
    def test_floor_semantics(self):
        pts = np.array(
            [
                [0.01, 0.03, 0.0],
                [0.05, 0.0, 0.0],
                [-0.01, 0.0, 0.0],
            ]
        )
        idx = voxel_indices(pts, 0.05, (0.0, 0.0, 0.0))
        np.testing.assert_array_equal(idx[0], [0, 0, 0])
        np.testing.assert_array_equal(idx[1], [1, 0, 0])
        np.testing.assert_array_equal(idx[2], [-1, 0, 0])

    def test_origin_shift(self):
        idx = voxel_indices(np.array([[1.06, 1.01, 0.99]]), 0.05, (1.0, 1.0, 1.0))
        np.testing.assert_array_equal(idx[0], [1, 0, -1])

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            voxel_indices(np.zeros((1, 3)), 0.0, (0.0, 0.0, 0.0))


class TestVoxelize:
    def test_two_points_one_cell(self):
        grid = voxelize(cloud_at([[0.01, 0.01, 0.01], [0.03, 0.02, 0.04]]), 0.05)
        assert len(grid) == 1
        np.testing.assert_array_equal(grid.counts, [2])

    def test_straddling_points_two_cells(self):
        grid = voxelize(cloud_at([[0.01, 0.0, 0.0], [0.06, 0.0, 0.0]]), 0.05)
        assert len(grid) == 2

    def test_empty_cloud(self):
        grid = voxelize(empty_cloud(), 0.05)
        assert len(grid) == 0
        assert grid.features is None

    def test_counts_sum_to_point_count(self):
        rng = np.random.default_rng(3)
        grid = voxelize(cloud_at(rng.uniform(-1, 1, size=(500, 3))), 0.1)
        assert int(grid.counts.sum()) == 500

    def test_mean_pooling_matches_brute_force(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1, 1, size=(200, 3))
        feats = rng.normal(size=(200, 4))
        grid = voxelize(cloud_at(pts, feats), 0.25)

        groups = {}
        for p, f in zip(pts, feats):
            key = tuple(int(np.floor(c / 0.25)) for c in p)
            groups.setdefault(key, []).append(f)
        assert len(grid) == len(groups)
        for key, rows in groups.items():
            row = grid_row(grid, *key)
            assert row is not None
            np.testing.assert_allclose(grid.features[row], np.mean(rows, axis=0), atol=1e-9)
            assert grid.counts[row] == len(rows)

    def test_score_mean(self):
        grid = voxelize(
            cloud_at([[0.01, 0.0, 0.0], [0.02, 0.0, 0.0]], scores=[0.2, 0.4]), 0.05
        )
        assert grid.scores[0] == pytest.approx(0.3, abs=1e-15)

    def test_point_order_invariance(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(100, 3))
        feats = rng.normal(size=(100, 3))
        cloud = cloud_at(pts, feats)
        perm = rng.permutation(100)
        shuffled = cloud_at(pts[perm], feats[perm])
        a = voxelize(cloud, 0.2)
        b = voxelize(shuffled, 0.2)
        np.testing.assert_array_equal(a.keys, b.keys)
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_allclose(a.features, b.features, atol=1e-12)

    def test_indices_and_centers(self):
        grid = voxelize(cloud_at([[0.07, 0.0, -0.01]]), 0.05)
        assert unpack_index(grid.keys[0]) == (1, 0, -1)
        center = grid.origin + (np.array(unpack_index(grid.keys[0])) + 0.5) * grid.voxel_size
        np.testing.assert_allclose(center, [0.075, 0.025, -0.025], atol=1e-12)
        assert grid_row(grid, 1, 0, -1) == 0
        assert grid_row(grid, 0, 0, 0) is None

    def test_origin_translation_consistency(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 1, size=(50, 3))
        shift = np.array([3.0, -2.0, 1.0]) * 0.2
        a = voxelize(cloud_at(pts), 0.2, origin=(0.0, 0.0, 0.0))
        b = voxelize(cloud_at(pts + shift), 0.2, origin=tuple(shift))
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_array_equal(a.keys, b.keys)

    def test_unpackable_points_rejected(self):
        with pytest.raises(ValueError):
            voxelize(cloud_at([[2e6, 0.0, 0.0]]), 1.0)


class TestDenseGridSpec:
    def test_cell_counts(self):
        # 6.4 / 0.16 = 40 per axis
        spec = DenseGridSpec((0.0, 0.0, 0.0), (6.4, 6.4, 6.4), 0.16)
        assert spec.cells_per_axis == (40, 40, 40)
        assert spec.cell_count == 64000

    def test_bench_region(self):
        spec = DenseGridSpec((-4.0, -4.0, 0.0), (8.0, 8.0, 3.0), 0.04)
        assert spec.cells_per_axis == (200, 200, 75)
        assert spec.cell_count == 3_000_000

    def test_ceil_rounds_partial_cells_up(self):
        spec = DenseGridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.3)
        assert spec.cells_per_axis == (4, 4, 4)

    def test_rejections(self):
        with pytest.raises(ValueError):
            DenseGridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            DenseGridSpec((0.0, 0.0, 0.0), (1.0, -1.0, 1.0), 0.1)


class TestSparsityReport:
    SCHEMA = {
        "scatter_points",
        "occupied_voxels",
        "dense_cells",
        "reduction_factor",
        "bytes_scatter",
        "bytes_dense",
        "record_bytes",
        "voxel_size",
        "dense_voxel_size",
    }

    def test_reduction_factor(self):
        cloud = cloud_at(np.zeros((100_000, 3)))
        grid = voxelize(cloud, 0.04)
        dense = DenseGridSpec((-4.0, -4.0, 0.0), (8.0, 8.0, 3.0), 0.04)
        report = sparsity_report(cloud, grid, dense)
        assert report["reduction_factor"] == pytest.approx(30.0, rel=1e-12)
        assert report["scatter_points"] == 100_000
        assert report["dense_cells"] == 3_000_000

    def test_schema(self):
        cloud = cloud_at([[0.0, 0.0, 0.0]])
        report = sparsity_report(cloud, voxelize(cloud, 0.1), DenseGridSpec((0, 0, 0), (1, 1, 1), 0.1))
        assert set(report) == self.SCHEMA

    def test_byte_model_with_features(self):
        # 12 B position + 4 B * 9 channels + 12 B bookkeeping = 60 B/point;
        # dense cells store features only: 36 B
        cloud = cloud_at(np.zeros((10, 3)), features=np.zeros((10, 9)))
        dense = DenseGridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.5)
        report = sparsity_report(cloud, voxelize(cloud, 0.5), dense)
        assert report["bytes_scatter"] == 600
        assert report["bytes_dense"] == 8 * 36
        assert report["record_bytes"]["dense_cell"] == 36

    def test_featureless_dense_cell_floor(self):
        cloud = cloud_at([[0.0, 0.0, 0.0]])
        dense = DenseGridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 1.0)
        report = sparsity_report(cloud, voxelize(cloud, 1.0), dense)
        assert report["record_bytes"]["dense_cell"] == 4
        assert report["bytes_scatter"] == 24

    def test_empty_cloud(self):
        dense = DenseGridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.5)
        report = sparsity_report(empty_cloud(), voxelize(empty_cloud(), 0.5), dense)
        assert report["scatter_points"] == 0
        assert report["occupied_voxels"] == 0
        assert report["reduction_factor"] == 8.0

    def test_deterministic(self):
        cloud = cloud_at(np.linspace(0, 1, 30).reshape(10, 3))
        dense = DenseGridSpec((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.2)
        a = sparsity_report(cloud, voxelize(cloud, 0.2), dense)
        b = sparsity_report(cloud, voxelize(cloud, 0.2), dense)
        assert a == b
