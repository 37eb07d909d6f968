"""Triangle shells, surface sampling and point-to-mesh distances."""

import numpy as np
import pytest

from oracles import choice_sample_surface_points, point_mesh_distance, point_triangle_distance
from pointscatter.boxes import OrientedBox, box_corners
from pointscatter.meshes import box_shell, sample_surface_points, triangle_areas, triangle_normals

RIGHT_TRIANGLE = np.array([[[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 4.0, 0.0]]])


class TestShell:
    def test_twelve_triangles(self):
        shell = box_shell(OrientedBox((0, 0, 0), (1, 1, 1)))
        assert shell.shape == (12, 3, 3)

    def test_unit_cube_area(self):
        shell = box_shell(OrientedBox((0, 0, 0), (1, 1, 1)))
        assert triangle_areas(shell).sum() == pytest.approx(6.0, abs=1e-12)

    def test_vertices_are_box_corners(self):
        box = OrientedBox((1.0, -0.5, 2.0), (0.8, 1.2, 0.6), yaw=0.4)
        shell = box_shell(box)
        corners = {tuple(np.round(c, 12)) for c in box_corners(box)}
        used = {tuple(np.round(v, 12)) for tri in shell for v in tri}
        assert used == corners

    def test_normals_point_outward(self):
        box = OrientedBox((0.5, 0.5, 0.5), (1.0, 2.0, 0.5), yaw=0.9)
        shell = box_shell(box)
        normals = triangle_normals(shell)
        centroids = shell.mean(axis=1)
        outward = ((centroids - np.asarray(box.center)) * normals).sum(axis=1)
        assert (outward > 0).all()


class TestAreasAndNormals:
    def test_right_triangle_area(self):
        # legs 3 and 4, area 6
        assert triangle_areas(RIGHT_TRIANGLE)[0] == pytest.approx(6.0)

    def test_planar_normal(self):
        assert np.allclose(triangle_normals(RIGHT_TRIANGLE)[0], [0, 0, 1])

    def test_degenerate_triangle(self):
        collinear = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]])
        assert triangle_areas(collinear)[0] == 0.0
        assert np.array_equal(triangle_normals(collinear)[0], [0.0, 0.0, 0.0])


class TestSampling:
    def test_samples_lie_on_surface(self):
        shell = box_shell(OrientedBox((0.2, 0.1, 0.9), (1.0, 0.7, 1.3), yaw=0.3))
        pts = sample_surface_points(shell, 500, np.random.default_rng(0))
        assert pts.shape == (500, 3)
        assert point_mesh_distance(pts, shell).max() < 1e-9

    def test_deterministic_given_seed(self):
        shell = box_shell(OrientedBox((0, 0, 0), (1, 1, 1)))
        a = sample_surface_points(shell, 100, np.random.default_rng(42))
        b = sample_surface_points(shell, 100, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_area_weighting(self):
        # areas 0.5 and 4.5: the second triangle should receive about
        # 90% of the samples (binomial std ~0.95%, allow 4 sigma)
        small = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        big = np.array([[10.0, 0.0, 0.0], [13.0, 0.0, 0.0], [10.0, 3.0, 0.0]])
        pts = sample_surface_points(np.stack([small, big]), 1000, np.random.default_rng(1))
        frac_big = (pts[:, 0] > 5.0).mean()
        assert abs(frac_big - 0.9) < 0.04


def random_triangles(seed, count=36):
    """``count`` triangles of random vertices in a 2 m cube, as many as
    the demo scene's three box shells."""
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(count, 3, 3))


class TestSamplingMatchesChoiceOracle:
    """The sampler draws its triangles as ``rng.choice(p=...)`` does and
    interpolates a coordinate at a time: the points are the bits of the
    ``rng.choice`` sampler's, and the generator is left in the same state."""

    # the surface sampler's count on the demo scene
    COUNT = 11328

    @pytest.mark.parametrize("seed", range(6))
    def test_box_shells(self, seed):
        rng = np.random.default_rng(100 + seed)
        center, size = rng.uniform(-1, 1, 3).tolist(), rng.uniform(0.1, 1.5, 3).tolist()
        box = OrientedBox(tuple(center), tuple(size), yaw=float(rng.uniform(-3, 3)))
        self.assert_same(box_shell(box), seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_triangles(self, seed):
        self.assert_same(random_triangles(seed), seed)

    def test_degenerate_triangles_are_never_drawn(self):
        # zero-area triangles between and at the ends of the others
        tri = random_triangles(7, 4)
        flat = np.zeros((1, 3, 3))
        self.assert_same(np.concatenate([flat, tri[:2], flat, flat, tri[2:], flat]), 7)

    @staticmethod
    def assert_same(triangles, seed, count=COUNT):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_surface_points(triangles, count, got_rng)
        want = choice_sample_surface_points(triangles, count, want_rng)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()
        assert got_rng.random() == want_rng.random()


class TestSamplingErrors:
    def test_zero_area(self):
        collinear = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]] * 3)
        with pytest.raises(ValueError, match="area"):
            sample_surface_points(collinear, 10, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertex(self, bad):
        # the area of a triangle with such a vertex is NaN; numpy's
        # invalid-value warning on the way is not what this checks
        tri = random_triangles(3, 4)
        tri[2, 1, 0] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="area"):
            sample_surface_points(tri, 10, np.random.default_rng(0))

    def test_infinite_area(self):
        # finite vertices whose area overflows to inf
        tri = RIGHT_TRIANGLE * 1e154
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="area"):
            sample_surface_points(tri, 10, np.random.default_rng(0))

    def test_non_positive_count(self):
        with pytest.raises(ValueError, match="count"):
            sample_surface_points(RIGHT_TRIANGLE, 0, np.random.default_rng(0))


class TestPointTriangleDistance:
    def test_above_interior(self):
        d = point_triangle_distance(np.array([[0.5, 0.5, 2.0]]), RIGHT_TRIANGLE[0])
        assert d[0] == pytest.approx(2.0, abs=1e-12)

    def test_inside_plane_is_zero(self):
        d = point_triangle_distance(np.array([[0.5, 0.5, 0.0]]), RIGHT_TRIANGLE[0])
        assert d[0] == pytest.approx(0.0, abs=1e-12)

    def test_beyond_vertex(self):
        # nearest feature is the vertex at the origin
        d = point_triangle_distance(np.array([[-3.0, -4.0, 0.0]]), RIGHT_TRIANGLE[0])
        assert d[0] == pytest.approx(5.0, abs=1e-12)

    def test_beside_edge(self):
        # nearest feature is the edge along x
        d = point_triangle_distance(np.array([[1.0, -2.0, 0.0]]), RIGHT_TRIANGLE[0])
        assert d[0] == pytest.approx(2.0, abs=1e-12)

    def test_vertex_distance_zero(self):
        d = point_triangle_distance(np.array([[3.0, 0.0, 0.0]]), RIGHT_TRIANGLE[0])
        assert d[0] == 0.0


class TestPointMeshDistance:
    def test_minimum_over_triangles(self):
        far = np.array([[5.0, 0.0, 0.0], [8.0, 0.0, 0.0], [5.0, 3.0, 0.0]])
        mesh = np.stack([RIGHT_TRIANGLE[0], far])
        d = point_mesh_distance(np.array([[4.0, 0.0, 0.0]]), mesh)
        # one unit from either triangle's nearest edge point
        assert d[0] == pytest.approx(1.0, abs=1e-12)

    def test_center_of_unit_cube(self):
        shell = box_shell(OrientedBox((0, 0, 0), (1, 1, 1)))
        d = point_mesh_distance(np.zeros((1, 3)), shell)
        assert d[0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("chunk", [4096, 7])
    def test_matches_per_triangle_loop(self, clean_scene, chunk):
        # the demo meshes plus a collinear and a point-like triangle
        degenerate = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [[1.0] * 3] * 3])
        mesh = np.concatenate([o.mesh() for o in clean_scene.objects] + [degenerate])
        rng = np.random.default_rng(12)
        on_surface = sample_surface_points(mesh[:-2], 100, rng)
        pts = np.concatenate([rng.uniform(-2.5, 2.5, size=(300, 3)), on_surface])
        want = point_triangle_distance(pts, mesh[0])
        for triangle in mesh[1:]:
            np.minimum(want, point_triangle_distance(pts, triangle), out=want)
        # the same arithmetic summed in another order: float64 rounding on
        # coordinates of a few metres
        np.testing.assert_allclose(point_mesh_distance(pts, mesh, chunk), want, rtol=0, atol=1e-12)
