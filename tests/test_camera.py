"""Projection, back-projection and pose plumbing.

The worked values below are computed by hand from the pinhole equations
u = fx*x/z + cx, v = fy*y/z + cy with poses stored world-from-camera.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointscatter.camera import (
    BEHIND_CAMERA_EPS,
    Intrinsics,
    Pose,
    backproject_pixels,
    look_at_pose,
    project_points,
)

SIMPLE = Intrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100)


def rotation_zyx(yaw, pitch, roll):
    cz, sz = np.cos(yaw), np.sin(yaw)
    cy, sy = np.cos(pitch), np.sin(pitch)
    cx, sx = np.cos(roll), np.sin(roll)
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    return rz @ ry @ rx


class TestIntrinsics:
    def test_rejects_nonpositive_focal(self):
        with pytest.raises(ValueError):
            Intrinsics(fx=0.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100)
        with pytest.raises(ValueError):
            Intrinsics(fx=100.0, fy=-1.0, cx=50.0, cy=50.0, width=100, height=100)

    def test_rejects_principal_point_outside_image(self):
        with pytest.raises(ValueError):
            Intrinsics(fx=100.0, fy=100.0, cx=100.0, cy=50.0, width=100, height=100)
        with pytest.raises(ValueError):
            Intrinsics(fx=100.0, fy=100.0, cx=50.0, cy=-0.5, width=100, height=100)


class TestPose:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 2.0, np.zeros(3))

    def test_rejects_reflection(self):
        # orthonormal but det = -1
        flip = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Pose(flip, np.zeros(3))

    def test_world_camera_round_trip(self):
        pose = Pose(rotation_zyx(0.3, -0.2, 0.7), np.array([1.0, -2.0, 0.5]))
        pts = np.random.default_rng(0).normal(size=(50, 3))
        back = pose.camera_to_world(pose.world_to_camera(pts))
        assert np.abs(back - pts).max() < 1e-12

    def test_camera_center_is_translation(self):
        pose = Pose(rotation_zyx(0.3, -0.2, 0.7), np.array([3.0, 1.0, -4.0]))
        # the camera center maps to the camera-frame origin
        assert np.abs(pose.world_to_camera(pose.translation)).max() == 0.0
        assert np.array_equal(pose.camera_to_world(np.zeros(3)), [3.0, 1.0, -4.0])

    def test_arrays_frozen(self):
        pose = Pose.identity()
        with pytest.raises(ValueError):
            pose.rotation[0, 0] = 2.0


def project_one(point, pose=None):
    """``(u, v, depth)`` of one point under SIMPLE, or None when behind."""
    pose = Pose.identity() if pose is None else pose
    uv, z, ok = project_points(np.array([point], dtype=np.float64), SIMPLE, pose)
    return (float(uv[0, 0]), float(uv[0, 1]), float(z[0])) if ok[0] else None


class TestProject:
    def test_principal_point_ray(self):
        # point on the optical axis lands on the principal point
        assert project_one((0.0, 0.0, 2.0)) == (50.0, 50.0, 2.0)

    def test_offset_point(self):
        # u = 100*1/2 + 50 = 100
        assert project_one((1.0, 0.0, 2.0)) == (100.0, 50.0, 2.0)

    def test_behind_camera_is_absent(self):
        uv, z, ok = project_points(np.array([[0.0, 0.0, -1.0]]), SIMPLE, Pose.identity())
        assert not ok[0]
        assert np.isnan(uv[0]).all()
        assert z[0] == -1.0

    def test_absent_iff_z_at_most_eps(self):
        assert project_one((0.0, 0.0, BEHIND_CAMERA_EPS)) is None
        assert project_one((0.0, 0.0, BEHIND_CAMERA_EPS * 2)) is not None

    def test_no_bounds_clamping(self):
        # projections may land far outside the image; the caller masks
        u, v, _ = project_one((10.0, 0.0, 1.0))
        assert u == 1050.0 and v == 50.0

    def test_project_points_matches_scalar_path(self):
        # the pinhole equations evaluated one point at a time
        rng = np.random.default_rng(3)
        pose = Pose(rotation_zyx(1.0, 0.2, -0.4), np.array([0.5, 1.5, -0.3]))
        pts = rng.normal(scale=2.0, size=(200, 3))
        uv, z, ok = project_points(pts, SIMPLE, pose)
        assert 0 < ok.sum() < len(pts)
        for i in range(len(pts)):
            x, y, depth = pose.rotation.T @ (pts[i] - pose.translation)
            assert ok[i] == (depth > BEHIND_CAMERA_EPS)
            assert z[i] == pytest.approx(depth, abs=1e-12)
            if ok[i]:
                assert uv[i, 0] == pytest.approx(100.0 * x / depth + 50.0, abs=1e-9)
                assert uv[i, 1] == pytest.approx(100.0 * y / depth + 50.0, abs=1e-9)
            else:
                assert np.isnan(uv[i]).all()

    def test_pose_composition(self):
        # projecting through P equals projecting the P-inverse-mapped
        # point through the identity
        pose = Pose(rotation_zyx(0.9, -0.3, 0.2), np.array([2.0, 0.0, 1.0]))
        pts = np.random.default_rng(7).normal(scale=3.0, size=(100, 3))
        uv_pose, z_pose, ok_pose = project_points(pts, SIMPLE, pose)
        uv_id, z_id, ok_id = project_points(
            pose.world_to_camera(pts), SIMPLE, Pose.identity()
        )
        assert np.array_equal(ok_pose, ok_id)
        assert np.allclose(uv_pose[ok_pose], uv_id[ok_id], atol=1e-9)
        assert np.allclose(z_pose[ok_pose], z_id[ok_id], atol=1e-9)


def backproject_one(u, v, depth, pose=None):
    pose = Pose.identity() if pose is None else pose
    return backproject_pixels(np.array([u]), np.array([v]), np.array([depth]), SIMPLE, pose)[0]


class TestBackproject:
    def test_principal_inverse(self):
        assert np.allclose(backproject_one(50.0, 50.0, 2.0), [0, 0, 2])

    def test_offset_inverse(self):
        # x = (100-50)*2/100 = 1
        assert np.allclose(backproject_one(100.0, 50.0, 2.0), [1, 0, 2])

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError):
            backproject_one(50.0, 50.0, 0.0)
        with pytest.raises(ValueError):
            backproject_pixels(
                np.array([50.0]), np.array([50.0]), np.array([-1.0]), SIMPLE, Pose.identity()
            )

    def test_round_trip_thousand_samples(self):
        rng = np.random.default_rng(11)
        pose = Pose(rotation_zyx(0.4, 0.8, -1.1), np.array([-1.0, 2.0, 0.7]))
        u = rng.uniform(0, 99, size=1000)
        v = rng.uniform(0, 99, size=1000)
        d = rng.uniform(0.1, 50.0, size=1000)
        world = backproject_pixels(u, v, d, SIMPLE, pose)
        uv, z, ok = project_points(world, SIMPLE, pose)
        assert ok.all()
        err = max(
            np.abs(uv[:, 0] - u).max(), np.abs(uv[:, 1] - v).max(), np.abs(z - d).max()
        )
        assert err < 1e-9

    @settings(deadline=None)
    @given(
        u=st.floats(0.0, 99.0),
        v=st.floats(0.0, 99.0),
        d=st.floats(1e-3, 100.0),
        yaw=st.floats(-np.pi, np.pi),
        pitch=st.floats(-1.2, 1.2),
    )
    def test_round_trip_property(self, u, v, d, yaw, pitch):
        pose = Pose(rotation_zyx(yaw, pitch, 0.3), np.array([0.4, -0.2, 1.0]))
        world = backproject_one(u, v, d, pose)
        got = project_one(world, pose)
        assert got is not None
        assert abs(got[0] - u) < 1e-6 and abs(got[1] - v) < 1e-6 and abs(got[2] - d) < 1e-6


class TestLookAt:
    def test_forward_axis_points_at_target(self):
        pose = look_at_pose(eye=(0.0, -5.0, 0.0), target=(0.0, 0.0, 0.0))
        assert np.allclose(pose.rotation[:, 2], [0, 1, 0], atol=1e-12)

    def test_target_projects_to_principal_point(self):
        pose = look_at_pose(eye=(3.0, -2.0, 1.5), target=(0.5, 0.5, 0.5))
        u, v, depth = project_one((0.5, 0.5, 0.5), pose)
        assert abs(u - 50.0) < 1e-9 and abs(v - 50.0) < 1e-9
        assert abs(depth - np.linalg.norm([2.5, -2.5, 1.0])) < 1e-12

    def test_rejects_degenerate_directions(self):
        with pytest.raises(ValueError):
            look_at_pose((0, 0, 0), (0, 0, 0))
        with pytest.raises(ValueError):
            look_at_pose((0, 0, 1), (0, 0, 2))  # looking straight up

    def test_image_up_follows_world_up(self):
        # camera y grows downward in the image, so it must oppose world z
        pose = look_at_pose(eye=(4.0, 0.0, 1.0), target=(0.0, 0.0, 1.0))
        assert pose.rotation[:, 1] @ np.array([0.0, 0.0, 1.0]) < 0
