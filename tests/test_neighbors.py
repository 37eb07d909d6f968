"""Cell-grid neighbour queries against brute-force scans and the KD-tree
references they replaced."""

import numpy as np
import pytest

import oracles
from conftest import load_perfbench
from pointscatter import neighbors
from pointscatter.neighbors import CellGrid, component_labels, mutual_nearest_sq, nearest_sq
from pointscatter.pipeline import _connected_components, _filter, run_front


def brute_sq(queries, points):
    """(Q, M) squared distances summed x, y, z, the grid's own sum."""
    q, p = np.atleast_2d(queries), np.atleast_2d(points)
    return (
        (q[:, None, 0] - p[None, :, 0]) ** 2
        + (q[:, None, 1] - p[None, :, 1]) ** 2
        + (q[:, None, 2] - p[None, :, 2]) ** 2
    )


def brute_pairs(points, bound):
    d2 = brute_sq(points, points)
    i, j = np.nonzero(d2 < bound)
    keep = i < j
    return sorted(zip(i[keep].tolist(), j[keep].tolist()))


def scattered(seed, count=300):
    """Points around negative coordinates, with outliers metres away."""
    rng = np.random.default_rng(seed)
    cloud = rng.normal(-2.0, 0.3, size=(count, 3))
    outliers = rng.uniform(-40.0, 40.0, size=(count // 20, 3))
    return np.vstack([cloud, outliers])


class TestCellGrid:
    def test_rejects_nonpositive_radius(self):
        for radius in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                CellGrid(radius, np.zeros((0, 3)))

    def test_empty_grid(self):
        grid = CellGrid(0.1, np.zeros((0, 3)))
        assert len(grid) == 0
        assert grid.near_any(np.zeros((3, 3)), 0.01).tolist() == [False] * 3
        assert [a.tolist() for a in grid.pairs(0.01)] == [[], []]
        to_points, to_queries = grid.nearest_sq(np.zeros((2, 3)))
        assert to_points.tolist() == [np.inf, np.inf] and len(to_queries) == 0

    def test_no_queries(self):
        grid = CellGrid(0.1, np.zeros((4, 3)))
        assert grid.near_any(np.zeros((0, 3)), 0.01).shape == (0,)
        assert nearest_sq(np.zeros((0, 3)), grid).shape == (0,)

    def test_single_point(self):
        grid = CellGrid(0.1, np.array([[1.0, -2.0, 3.0]]))
        queries = np.array([[1.0, -2.0, 3.05], [1.0, -2.0, 3.1], [1.0, -2.0, 30.0]])
        assert grid.near_any(queries, 0.01).tolist() == [True, False, False]
        assert [a.tolist() for a in grid.pairs(0.01)] == [[], []]
        assert nearest_sq(queries, grid).tolist() == brute_sq(queries, grid.xyz.T)[:, 0].tolist()

    def test_exactly_r_apart_across_a_cell_face_is_not_near(self):
        # exact coordinates 0.5 apart on each axis, on both sides of a
        # face of the cells, at negative coordinates too
        r = 0.5
        points = np.array([[-0.25, 0.25, 0.25]])
        queries = np.array([[0.25, 0.25, 0.25], [-0.25, -0.25, 0.25], [-0.25, 0.25, -0.25], [-0.25, 0.25, 0.7]])
        assert CellGrid(r, points).near_any(queries, r * r).tolist() == [False, False, False, True]

    def test_built_grid_is_in_key_order(self):
        # the keys ascend, each point lies once under its own key, and
        # its coordinates are its row's; the order within a key is free
        for count in (0, 1, None):
            points = scattered(1)[:count]
            grid = CellGrid(0.2, points)
            assert len(grid) == len(points)
            assert (np.diff(grid.keys) >= 0).all()
            assert sorted(grid.ids.tolist()) == list(range(len(points)))
            assert grid.keys.tobytes() == neighbors._keys(points[grid.ids], grid.cell).tobytes()
            assert points[grid.ids].tobytes() == np.ascontiguousarray(grid.xyz.T).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("radius", [0.05, 0.3])
    def test_near_any_and_pairs_match_brute_force(self, seed, radius):
        points = scattered(seed)
        queries = scattered(seed + 10)
        grid = CellGrid(radius, points)
        bound = radius * radius
        want = (brute_sq(queries, points) < bound).any(axis=1)
        assert grid.near_any(queries, bound).tolist() == want.tolist()
        i, j = grid.pairs(bound)
        assert sorted(zip(i.tolist(), j.tolist())) == brute_pairs(points, bound)

    def test_small_blocks_give_the_same_answers(self, monkeypatch):
        points, queries = scattered(4), scattered(5)
        grid = CellGrid(0.3, points)

        def answers():
            return (
                grid.near_any(queries, 0.09),
                *grid.pairs(0.09),
                *grid.nearest_sq(queries),
                nearest_sq(queries, grid),
                *mutual_nearest_sq(queries, points + 0.5, 0.3),
            )

        want = answers()
        # blocks of a few pairs, and leaf searches a leaf of queries at a time
        monkeypatch.setattr(neighbors, "BLOCK", 7)
        got = answers()
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        d2 = brute_sq(queries, points + 0.5)
        assert [a.tobytes() for a in got[-2:]] == [d2.min(axis=1).tobytes(), d2.min(axis=0).tobytes()]

    def test_coordinates_past_the_key_range(self):
        # cell indices beyond 2**20 are clipped; far points then share
        # cells with others but are still decided by their distances
        points = np.array([[0.0, 0.0, 0.0], [1e7, 0.0, 0.0], [1e7 + 0.01, 0.0, 0.0], [-1e9, 5.0, 5.0]])
        grid = CellGrid(0.04, points)
        queries = np.array([[1e7 + 0.03, 0.0, 0.0], [-1e9, 5.0, 5.03], [2e7, 0.0, 0.0]])
        bound = 0.04 * 0.04
        assert grid.near_any(queries, bound).tolist() == (brute_sq(queries, points) < bound).any(axis=1).tolist()
        assert [a.tolist() for a in grid.pairs(bound)] == [[1], [2]]
        assert nearest_sq(queries, grid).tolist() == brute_sq(queries, points).min(axis=1).tolist()


class TestNearest:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("radius", [0.01, 0.2, 5.0])
    def test_nearest_matches_brute_force(self, seed, radius):
        points, queries = scattered(seed), scattered(seed + 20)
        want = brute_sq(queries, points).min(axis=1)
        assert nearest_sq(queries, CellGrid(radius, points)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shift", [0.0, 0.05, 0.4, 3.0])
    def test_mutual_matches_brute_force(self, shift):
        # two noisy shells that coincide, overlap or lie apart
        rng = np.random.default_rng(7)
        a = rng.normal(size=(500, 3))
        a /= np.linalg.norm(a, axis=1)[:, None]
        b = a[rng.permutation(500)[:300]] * 1.1 + shift + rng.normal(0.0, 0.01, size=(300, 3))
        d2 = brute_sq(a, b)
        to_b, to_a = mutual_nearest_sq(a, b, 0.063)
        assert to_b.tobytes() == d2.min(axis=1).tobytes()
        assert to_a.tobytes() == d2.min(axis=0).tobytes()

    def test_single_points_and_duplicates(self):
        a = np.array([[1.0, 1.0, 1.0]])
        b = np.array([[4.0, 5.0, 1.0], [4.0, 5.0, 1.0], [1.0, 1.0, 1.0]])
        assert [x.tolist() for x in mutual_nearest_sq(a, b, 0.1)] == [[0.0], [25.0, 25.0, 0.0]]
        assert [x.tolist() for x in mutual_nearest_sq(a, b[:1], 0.1)] == [[25.0], [25.0]]


class TestComponents:
    def test_points_exactly_eps_apart_are_linked(self):
        # the link test is closed, as the KD-tree's query_pairs is
        points = np.array([[0.25, 0.0, 0.0], [0.75, 0.0, 0.0], [1.25 + 1e-9, 0.0, 0.0], [-0.25, 0.0, 0.0]])
        assert component_labels(points, 0.5).tolist() == [0, 0, 2, 0]

    def test_single_point(self):
        assert component_labels(np.array([[-5.0, 3.0, 1.0]]), 0.1).tolist() == [0]

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_union_find(self, seed):
        points = scattered(seed)
        groups = _connected_components(points, 0.1, 1)
        want = sorted(oracles.union_find_components(points, 0.1), key=lambda g: g[0])
        assert [g.tolist() for g in groups] == [sorted(g.tolist()) for g in want]


@pytest.fixture(scope="module")
def workload_clouds():
    """The filtered clouds of the two clustered reduced workloads."""
    out = {}
    for name in ("demo_noisy", "orbit80_clean"):
        for seed in (11, 29):
            scene, config = load_perfbench("workloads").build(name, seed, reduced=True)
            cloud = run_front(scene, config)[2]
            kept, _ = _filter(cloud, scene, config)
            out[name, seed] = cloud.positions[kept], config.detector
    return out


@pytest.mark.parametrize("seed", [11, 29])
@pytest.mark.parametrize("name", ["demo_noisy", "orbit80_clean"])
def test_workload_components_match_union_find(workload_clouds, name, seed):
    points, detector = workload_clouds[name, seed]
    groups = _connected_components(points, detector.cluster_eps, 1)
    want = sorted(oracles.union_find_components(points, detector.cluster_eps), key=lambda g: g[0])
    assert len(groups) > 1
    assert [g.tolist() for g in groups] == [sorted(g.tolist()) for g in want]
