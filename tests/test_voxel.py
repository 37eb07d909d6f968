"""Tests for the occupied voxels' keys and the dense-grid comparison."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pack_index, unpack_index
from pointscatter.scatter import ScatterCloud, empty_cloud
from pointscatter.voxel import INDEX_RANGE, dense_cell_count, sparsity_report, voxel_indices, voxelize


def cloud_at(positions, features=None):
    positions = np.asarray(positions, dtype=np.float64)
    n = len(positions)
    return ScatterCloud(
        positions=positions,
        frame_ids=np.zeros(n, dtype=np.int64),
        pixels=np.zeros((n, 2), dtype=np.int64),
        categories=np.zeros(n, dtype=np.int64),
        features=None if features is None else np.asarray(features, dtype=np.float64),
        scores=None,
    )


def key_row(keys, ix, iy, iz):
    """Row of voxel (ix, iy, iz) in ``keys``, or None when unoccupied."""
    key = pack_index(ix, iy, iz)
    row = int(np.searchsorted(keys, key))
    return row if row < len(keys) and keys[row] == key else None


class TestPackedKeys:
    """The scalar key oracle, and ``voxelize``'s keys against it."""

    def test_round_trip_examples(self):
        for triple in [(0, 0, 0), (1, 2, 3), (-5, 7, -9), (100, -200, 300)]:
            assert unpack_index(pack_index(*triple)) == triple

    def test_boundaries(self):
        lo, hi = INDEX_RANGE
        assert unpack_index(pack_index(lo, lo, lo)) == (lo, lo, lo)
        assert unpack_index(pack_index(hi, hi, hi)) == (hi, hi, hi)
        corners = np.array([[lo, lo, lo], [hi + 0.5, hi + 0.5, hi + 0.5]], dtype=np.float64)
        np.testing.assert_array_equal(
            voxelize(corners, 1.0), [pack_index(lo, lo, lo), pack_index(hi, hi, hi)]
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
        keys = voxelize((np.array(cells) + 0.5) * 0.1, 0.1)
        assert len(keys) == 7**3
        np.testing.assert_array_equal(keys, sorted(pack_index(*c) for c in cells))


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
        keys = voxelize(np.array([[0.01, 0.01, 0.01], [0.03, 0.02, 0.04]]), 0.05)
        np.testing.assert_array_equal(keys, [pack_index(0, 0, 0)])

    def test_straddling_points_two_cells(self):
        keys = voxelize(np.array([[0.01, 0.0, 0.0], [0.06, 0.0, 0.0]]), 0.05)
        assert len(keys) == 2

    def test_empty_cloud(self):
        keys = voxelize(empty_cloud().positions, 0.05)
        assert keys.dtype == np.int64 and keys.shape == (0,)

    def test_keys_match_brute_force(self):
        rng = np.random.default_rng(3)
        origin = np.array([-0.3, 0.2, 0.05])
        points = rng.uniform(-1, 1, size=(500, 3))
        keys = voxelize(points, 0.1, tuple(origin))
        expected = sorted(
            {pack_index(*(int(np.floor(c)) for c in (p - origin) / 0.1)) for p in points}
        )
        assert keys.dtype == np.int64
        assert keys.tolist() == expected

    def test_point_order_invariance(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(100, 3))
        perm = rng.permutation(100)
        np.testing.assert_array_equal(voxelize(pts, 0.2), voxelize(pts[perm], 0.2))

    def test_indices_and_centers(self):
        keys = voxelize(np.array([[0.07, 0.0, -0.01]]), 0.05)
        assert unpack_index(keys[0]) == (1, 0, -1)
        assert key_row(keys, 1, 0, -1) == 0
        assert key_row(keys, 0, 0, 0) is None

    def test_origin_translation_consistency(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 1, size=(50, 3))
        shift = np.array([3.0, -2.0, 1.0]) * 0.2
        a = voxelize(pts, 0.2, origin=(0.0, 0.0, 0.0))
        b = voxelize(pts + shift, 0.2, origin=tuple(shift))
        np.testing.assert_array_equal(a, b)

    def test_unpackable_points_rejected(self):
        with pytest.raises(ValueError):
            voxelize(np.array([[2e6, 0.0, 0.0]]), 1.0)


class TestDenseGridSpec:
    """The dense grid's cell count."""

    def test_cell_counts(self):
        # 6.4 / 0.16 = 40 per axis
        assert dense_cell_count((6.4, 6.4, 6.4), 0.16) == 64000

    def test_bench_region(self):
        # 200 x 200 x 75
        assert dense_cell_count((8.0, 8.0, 3.0), 0.04) == 3_000_000

    def test_ceil_rounds_partial_cells_up(self):
        assert dense_cell_count((1.0, 1.0, 1.0), 0.3) == 4**3
        assert dense_cell_count((1.0, 0.5, 0.2), 0.3) == 4 * 2 * 1


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
        occupied = len(voxelize(cloud.positions, 0.04))
        report = sparsity_report(cloud, occupied, dense_cell_count((8.0, 8.0, 3.0), 0.04), 0.04)
        assert report["reduction_factor"] == pytest.approx(30.0, rel=1e-12)
        assert report["scatter_points"] == 100_000
        assert report["dense_cells"] == 3_000_000

    def test_schema(self):
        cloud = cloud_at([[0.0, 0.0, 0.0]])
        report = sparsity_report(cloud, 1, dense_cell_count((1, 1, 1), 0.1), 0.1)
        assert set(report) == self.SCHEMA

    def test_byte_model_with_features(self):
        # 12 B position + 4 B * 9 channels + 12 B bookkeeping = 60 B/point;
        # dense cells store features only: 36 B
        cloud = cloud_at(np.zeros((10, 3)), features=np.zeros((10, 9)))
        dense = dense_cell_count((1.0, 1.0, 1.0), 0.5)
        report = sparsity_report(cloud, 1, dense, 0.5)
        assert report["bytes_scatter"] == 600
        assert report["bytes_dense"] == 8 * 36
        assert report["record_bytes"]["dense_cell"] == 36

    def test_featureless_dense_cell_floor(self):
        cloud = cloud_at([[0.0, 0.0, 0.0]])
        dense = dense_cell_count((1.0, 1.0, 1.0), 1.0)
        report = sparsity_report(cloud, 1, dense, 1.0)
        assert report["record_bytes"]["dense_cell"] == 4
        assert report["bytes_scatter"] == 24

    def test_empty_cloud(self):
        dense = dense_cell_count((1.0, 1.0, 1.0), 0.5)
        report = sparsity_report(empty_cloud(), 0, dense, 0.5)
        assert report["scatter_points"] == 0
        assert report["occupied_voxels"] == 0
        assert report["reduction_factor"] == 8.0

    def test_deterministic(self):
        cloud = cloud_at(np.linspace(0, 1, 30).reshape(10, 3))
        dense = dense_cell_count((2.0, 2.0, 2.0), 0.2)
        a = sparsity_report(cloud, len(voxelize(cloud.positions, 0.2)), dense, 0.2)
        b = sparsity_report(cloud, len(voxelize(cloud.positions, 0.2)), dense, 0.2)
        assert a == b
