"""Scene simulator: rendering, noise injection, GT boxes, keyframes."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from pointscatter import scene as scene_module
from pointscatter.boxes import OrientedBox
from pointscatter.camera import Intrinsics, Pose, backproject_pixels, look_at_pose, project_points
from pointscatter.checks import ConfigError
from pointscatter.pipeline import run_front, stage_rng
from pointscatter.scene import (
    SceneCamera,
    SceneObject,
    DEFAULT_INTRINSICS,
    SceneSpec,
    _back_faces,
    _screen_boxes,
    _view_constants,
    _shade_triangles,
    demo_scene,
    orbit_trajectory,
    perturb_depth,
    project_gt_boxes,
    project_scene,
    scene_from_dict,
    scene_to_dict,
    select_keyframes,
)

from conftest import DEPTH_RANGE, IDENTITY, cast, caster_of, frame_of, gt_boxes, load_perfbench, uncovered_frame
from oracles import (
    _scene_triangles as oracle_scene_triangles,
    back_faces as oracle_back_faces,
    cast_rays,
    perturb_depth as oracle_perturb_depth,
    point_mesh_distance,
    project_gt_boxes as oracle_project_gt_boxes,
    select_keyframes as oracle_select_keyframes,
)

SIMPLE = Intrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100)


HIRES = Intrinsics(fx=480.0, fy=480.0, cx=319.5, cy=239.5, width=640, height=480)


def hires_scene():
    """The six orbit poses of the hires_6view benchmark workload at 640x480."""
    scene = demo_scene(steps=6)
    cameras = tuple(SceneCamera(HIRES, c.pose) for c in scene.cameras)
    return dataclasses.replace(scene, cameras=cameras)


def hires_inside_box_scene():
    """A 640x480 camera inside a unit cube: every window is the whole image."""
    return dataclasses.replace(
        frontal_cube_scene(center=(0.0, 0.0, 0.2)),
        cameras=(SceneCamera(HIRES, IDENTITY),),
    )


def render_color(scene, camera_index=0):
    """One view's color image, as ``CameraFrame.color`` builds it."""
    return frame_of(scene, camera_index, np.random.default_rng(0)).color


def frontal_cube_scene(center=(0.0, 0.0, 2.5), camera_z=0.0):
    """Unit cube ahead of an identity-orientation camera."""
    obj = SceneObject(OrientedBox(center, (1.0, 1.0, 1.0)))
    cam = SceneCamera(SIMPLE, Pose(np.eye(3), np.array([0.0, 0.0, camera_z])))
    return SceneSpec(objects=(obj,), cameras=(cam,))


class TestSceneObject:
    @pytest.mark.parametrize(
        "albedo",
        [(0.5,), (0.5, 0.5, 0.5, 0.5), (0.5, np.nan, 0.5), (0.5, 0.5, np.inf), (1.5, 0, 0),
         (0, -0.1, 0), ("a", 0, 0), (None, 0, 0), "abc"],
    )
    def test_rejects_bad_albedo(self, albedo):
        with pytest.raises(ValueError, match="albedo"):
            SceneObject(OrientedBox((0, 0, 0), (1, 1, 1)), albedo)

    def test_albedo_stored_as_floats(self):
        obj = SceneObject(OrientedBox((0, 0, 0), (1, 1, 1)), [1, 0, np.float32(0.5)])
        assert obj.albedo == (1.0, 0.0, 0.5)
        assert all(type(a) is float for a in obj.albedo)


class TestRenderDepth:
    def test_frontal_face_depth(self):
        # near face of the cube sits at z=2
        depth = cast(frontal_cube_scene(), 0)[0]
        assert depth[50, 50] == pytest.approx(2.0, abs=1e-12)

    def test_translated_camera(self):
        depth = cast(frontal_cube_scene(camera_z=0.5), 0)[0]
        assert depth[50, 50] == pytest.approx(1.5, abs=1e-12)

    def test_empty_scene_is_all_invalid(self):
        cam = SceneCamera(SIMPLE, IDENTITY)
        scene = SceneSpec(objects=(), cameras=(cam,))
        assert not cast(scene, 0)[0].any()

    def test_background_pixels_are_zero(self):
        depth = cast(frontal_cube_scene(), 0)[0]
        # corner rays miss the cube
        assert depth[0, 0] == 0.0

    def test_rejects_invalid_camera_index(self):
        with pytest.raises(IndexError):
            cast(frontal_cube_scene(), 3)

    def test_deterministic(self):
        a = cast(frontal_cube_scene(), 0)[0]
        b = cast(frontal_cube_scene(), 0)[0]
        assert np.array_equal(a, b)

    def test_occlusion_keeps_nearest(self):
        near = SceneObject(OrientedBox((0.0, 0.0, 1.5), (0.4, 0.4, 0.4)))
        far = SceneObject(OrientedBox((0.0, 0.0, 3.0), (1.0, 1.0, 1.0)))
        cam = SceneCamera(SIMPLE, IDENTITY)
        depth = cast(SceneSpec(objects=(near, far), cameras=(cam,)), 0)[0]
        assert depth[50, 50] == pytest.approx(1.3, abs=1e-12)


class TestRenderColor:
    def test_shading_range_and_background(self):
        frame = frame_of(frontal_cube_scene(), 0, np.random.default_rng(0))
        tri_index, shades = frame.tri_index, frame.shades
        assert tri_index.shape == (100, 100) and tri_index.dtype == np.int32
        # one shade per cube triangle plus the black row index -1 picks
        assert shades.shape == (13, 3) and not shades[-1].any()
        color = render_color(frontal_cube_scene())
        assert color.shape == (100, 100, 3)
        assert np.array_equal(color[0, 0], [0.0, 0.0, 0.0])
        assert color[50, 50].min() > 0.0 and color.max() <= 1.0

    def test_flat_faces_shade_uniformly(self):
        color = render_color(frontal_cube_scene())
        # pixels on the same planar face share one Lambert value
        assert np.array_equal(color[50, 50], color[45, 55])

    def test_empty_scene_is_black(self):
        cam = SceneCamera(SIMPLE, IDENTITY)
        color = render_color(SceneSpec(objects=(), cameras=(cam,)))
        assert color.shape == (100, 100, 3) and not color.any()


class TestCastRaysMatchesOracle:
    """The culled caster gives the same bits as the full-image oracle,
    on every workload view and on each rig where no back face ties a
    front face. On the others it gives the bits of the oracle that skips
    the oracle's back faces, and the test names the pixels that differ
    from the full oracle."""

    @staticmethod
    def assert_matches(scene, views):
        for i in views:
            cam = scene.cameras[i]
            depth, index = cast(scene, i)
            ref_depth, ref_index, _, _ = cast_rays(scene, cam.intrinsics, cam.pose)
            assert depth.shape == ref_depth.shape, f"view {i}"
            assert depth.tobytes() == ref_depth.tobytes(), f"view {i}"
            assert np.array_equal(index, ref_index), f"view {i}"

    @staticmethod
    def culled_changes(scene):
        """Assert that view 0's depth and index maps are the bits of the
        oracle that skips the oracle's back faces; return the full
        oracle's index and the caster's at each pixel where they differ."""
        cam = scene.cameras[0]
        depth, index = cast(scene, 0)
        skip = oracle_back_faces(scene, cam.pose)
        ref_depth, ref_index, _, _ = cast_rays(scene, cam.intrinsics, cam.pose, skip=skip)
        assert depth.tobytes() == ref_depth.tobytes()
        assert np.array_equal(index, ref_index)
        full_index = cast_rays(scene, cam.intrinsics, cam.pose)[1]
        changed = index != full_index
        return full_index[changed], index[changed]

    @staticmethod
    def windows(scene):
        cam = scene.cameras[0]
        triangles = np.concatenate([o.mesh() for o in scene.objects])
        uv, _, in_front = project_points(triangles.reshape(-1, 3), cam.intrinsics, cam.pose)
        corner = [cam.intrinsics.width - 1, cam.intrinsics.height - 1]
        lo, hi = _screen_boxes(uv, in_front, np.add(corner, 1))
        full = (lo == 0).all(axis=1) & (hi == corner).all(axis=1)
        empty = (lo > hi).any(axis=1)
        return full, empty

    def test_demo_views(self):
        self.assert_matches(demo_scene(), range(20))

    def test_demo_views_color(self, clean_scene, clean_frames):
        # a frame's color is the shade gather over the oracle's index map
        for i, frame in enumerate(clean_frames):
            cam = clean_scene.cameras[i]
            _, ref_index, triangles, owner = cast_rays(clean_scene, cam.intrinsics, cam.pose)
            shades = np.concatenate(
                [_shade_triangles(clean_scene, triangles, owner), np.zeros((1, 3))]
            )
            assert frame.color.tobytes() == shades[ref_index].tobytes(), f"view {i}"

    def test_orbit80_subset(self):
        self.assert_matches(demo_scene(steps=80), range(0, 80, 9))

    def test_320x240_views(self):
        intr = Intrinsics(fx=240.0, fy=240.0, cx=159.5, cy=119.5, width=320, height=240)
        scene = demo_scene(steps=6)
        cameras = tuple(SceneCamera(intr, c.pose) for c in scene.cameras)
        self.assert_matches(dataclasses.replace(scene, cameras=cameras), range(6))

    def test_640x480_views(self):
        # two poses of the hires_6view benchmark workload
        scene = hires_scene()
        for i in (0, 3):
            cam = scene.cameras[i]
            ref_depth, ref_index, triangles, owner = cast_rays(scene, cam.intrinsics, cam.pose)
            depth, index = cast(scene, i)
            assert depth.tobytes() == ref_depth.tobytes(), f"view {i}"
            assert np.array_equal(index, ref_index), f"view {i}"
            # a frame's colour is the shade gather over the oracle's index map
            shades = np.concatenate([_shade_triangles(scene, triangles, owner), np.zeros((1, 3))])
            depth = cast(scene, i)[0]
            color = render_color(scene, i)
            assert depth.tobytes() == ref_depth.tobytes(), f"view {i}"
            assert color.tobytes() == shades[ref_index].tobytes(), f"view {i}"

    def test_resolution_switch(self):
        # one caster casts every view in turn, reusing its maps and blocks
        # across image sizes
        large = Intrinsics(fx=240.0, fy=240.0, cx=159.5, cy=119.5, width=320, height=240)
        wide = dataclasses.replace(DEFAULT_INTRINSICS, fx=90.0, fy=90.0)
        poses = [c.pose for c in demo_scene(steps=6).cameras[::2]]
        sizes = (DEFAULT_INTRINSICS, large, DEFAULT_INTRINSICS, wide)
        cameras = [SceneCamera(intr, pose) for intr in sizes for pose in poses]
        scene = dataclasses.replace(demo_scene(steps=6), cameras=tuple(cameras))
        caster = caster_of(scene, range(len(cameras)))
        for i, cam in enumerate(cameras):
            depth, index = caster.cast(i)
            ref_depth, ref_index, _, _ = cast_rays(scene, cam.intrinsics, cam.pose)
            assert depth.shape == (cam.intrinsics.height, cam.intrinsics.width)
            assert depth.tobytes() == ref_depth.tobytes(), f"view {i}"
            assert np.array_equal(index, ref_index), f"view {i}"

    def test_off_centre_principal_point(self):
        # fx != fy and a principal point off the image centre and off the
        # pixel grid; a box over each image corner and one inside it
        intr = Intrinsics(fx=90.0, fy=130.0, cx=10.25, cy=100.75, width=160, height=120)
        centers = [(-0.3, -2.3), (4.9, -2.3), (-0.3, 0.4), (4.9, 0.4), (2.3, -1.0)]
        boxes = [OrientedBox((x, y, 3.0), (0.6, 0.6, 0.6), yaw=0.3) for x, y in centers]
        cam = SceneCamera(intr, IDENTITY)
        scene = SceneSpec(objects=tuple(SceneObject(b) for b in boxes), cameras=(cam,))
        full, empty = self.windows(scene)
        assert not full.any() and not empty.all()
        uv, _, in_front = project_points(scene.geometry.triangles.reshape(-1, 3), intr, cam.pose)
        lo, hi = _screen_boxes(uv, in_front, np.array([intr.width, intr.height]))
        corner = [intr.width - 1, intr.height - 1]
        # some window reaches each of the four image borders
        assert (lo[~empty] == 0).any(axis=0).all() and (hi[~empty] == corner).any(axis=0).all()
        self.assert_matches(scene, [0])
        depth = cast(scene, 0)[0]
        assert all(edge.any() for edge in (depth[0], depth[-1], depth[:, 0], depth[:, -1]))

    def test_one_pixel_windows(self):
        # a box projecting about 1.5 px beyond the top-left image corner:
        # its windows clip to the single pixel (0, 0), whose products run
        # with a spare row like every other window's
        box = SceneObject(OrientedBox((-1.545, -1.545, 3.0), (0.005, 0.005, 0.005)))
        scene = SceneSpec(objects=(box,), cameras=(SceneCamera(SIMPLE, IDENTITY),))
        uv, _, in_front = project_points(scene.geometry.triangles.reshape(-1, 3), SIMPLE, IDENTITY)
        lo, hi = _screen_boxes(uv, in_front, np.array([SIMPLE.width, SIMPLE.height]))
        assert (lo == 0).all() and (hi == 0).all()
        self.assert_matches(scene, [0])

    def test_camera_inside_box_falls_back(self):
        scene = frontal_cube_scene(center=(0.0, 0.0, 0.2))
        full, _ = self.windows(scene)
        assert full.any()
        self.assert_matches(scene, [0])
        assert cast(scene, 0)[0].all()

    def test_640x480_camera_inside_box(self):
        # whole-image windows of 307,200 rays, cast in bands of whole rows
        scene = hires_inside_box_scene()
        full, _ = self.windows(scene)
        assert full.all() and HIRES.width * HIRES.height > scene_module._RAY_BLOCK
        self.assert_matches(scene, [0])
        assert cast(scene, 0)[0].all()

    @pytest.mark.parametrize("block", [1, 7, 500])
    def test_banded_windows(self, monkeypatch, block):
        # caps below and above the window widths: one-row bands of the
        # wide windows, several rows of the narrow ones, each band with
        # its spare row
        monkeypatch.setattr(scene_module, "_RAY_BLOCK", block)
        self.assert_matches(demo_scene(steps=6), range(6))
        self.assert_matches(frontal_cube_scene(center=(0.0, 0.0, 0.2)), [0])

    def test_box_partly_off_screen(self):
        scene = frontal_cube_scene(center=(1.0, 0.0, 2.5))
        full, empty = self.windows(scene)
        assert not full.any() and not empty.all()
        # 16 pixel rays run exactly through silhouette edges, where the
        # full oracle's back faces 5 and 8 tie the front faces 10 and 11
        was, now = self.culled_changes(scene)
        assert len(was) == 16 and set(was.tolist()) == {5, 8} and set(now.tolist()) == {10, 11}
        depth = cast(scene, 0)[0]
        assert depth[:, -1].any() and not depth[:, 0].any()

    def test_box_fully_off_screen(self):
        scene = frontal_cube_scene(center=(5.0, 0.0, 2.5))
        _, empty = self.windows(scene)
        assert empty.all()
        self.assert_matches(scene, [0])

    def test_box_behind_camera(self):
        scene = frontal_cube_scene(center=(0.0, 0.0, -3.0))
        full, _ = self.windows(scene)
        assert full.all()
        self.assert_matches(scene, [0])
        assert not cast(scene, 0)[0].any()

    def test_no_objects(self):
        scene = SceneSpec(objects=(), cameras=(SceneCamera(SIMPLE, IDENTITY),))
        self.assert_matches(scene, [0])


def cull_mask(scene, camera_index):
    """The triangles one view skips, from the constants the caster uses."""
    cam = scene.cameras[camera_index]
    triangles = scene.geometry.triangles
    projection = project_points(triangles.reshape(-1, 3), cam.intrinsics, cam.pose)
    edge1 = triangles[:, 1] - triangles[:, 0]
    edge2 = triangles[:, 2] - triangles[:, 0]
    tvecs = cam.pose.translation - triangles[:, 0]
    qvecs = np.cross(tvecs, edge1)
    return _back_faces(edge1, edge2, tvecs, qvecs, projection[2])


def looking_scene(objects, eyes, target, intrinsics=SIMPLE):
    """``objects`` seen from each of ``eyes``, every camera aimed at ``target``."""
    cameras = tuple(SceneCamera(intrinsics, look_at_pose(eye, target)) for eye in eyes)
    return SceneSpec(objects=tuple(objects), cameras=cameras)


class TestBackFaceCulling:
    """A view skips the strictly back-facing triangles of every box wholly
    in front of the camera. Each rig is byte-checked against an oracle
    and says which triangles it skips: the full-image oracle where no
    back face ties a front face, else the oracle that skips the oracle's
    back faces, naming the pixels that differ from the full one."""

    assert_matches = staticmethod(TestCastRaysMatchesOracle.assert_matches)
    culled_changes = staticmethod(TestCastRaysMatchesOracle.culled_changes)

    def test_demo_views_cull_every_view(self, clean_scene):
        culled_total = 0
        for i, cam in enumerate(clean_scene.cameras):
            skip = cull_mask(clean_scene, i)
            assert skip.any() and np.array_equal(skip, oracle_back_faces(clean_scene, cam.pose))
            culled_total += int(skip.sum())
        assert culled_total == 384

    def test_partly_off_screen_box_ties_go_to_front_faces(self):
        # pixel rays run exactly through silhouette edges: there the back
        # faces (triangles 5 and 8) give the front faces' (10 and 11)
        # bit-equal depth and win the full oracle's tie by their lower
        # index; skipped, they hand those pixels to the front faces
        scene = frontal_cube_scene(center=(1.0, 0.0, 2.5))
        skip = cull_mask(scene, 0)
        assert skip[[5, 8]].all() and not skip[[10, 11]].any()
        was, now = self.culled_changes(scene)
        assert len(was) == 16 and set(was.tolist()) == {5, 8} and set(now.tolist()) == {10, 11}
        cam = scene.cameras[0]
        full_depth = cast_rays(scene, cam.intrinsics, cam.pose)[0]
        depth = cast(scene, 0)[0]
        assert depth.tobytes() == full_depth.tobytes()

    @pytest.mark.parametrize("offset", [1e-13, 1e-11, 1e-9])
    def test_guard_covers_rays_just_off_the_silhouette(self, offset):
        # the edges between the box's -x face and its +-y faces project
        # within 100 * offset / 3.2 px (at most 3.2e-8) of the pixel-center
        # diagonals u + v = 100 and u - v = 0; the full oracle's back
        # faces hit inside the caster's barycentric tolerance there. At
        # 1e-13 and 1e-11 the front faces take those pixels, at 1e-9 no
        # front face reaches them and they become background
        scene = frontal_cube_scene(center=(1.0 + offset, 0.0, 3.7))
        assert cull_mask(scene, 0)[[5, 8]].all()
        was, now = self.culled_changes(scene)
        if offset < 1e-9:
            assert len(was) == 8 and set(was.tolist()) == {5, 8} and set(now.tolist()) == {10, 11}
        else:
            assert was.tolist() == [8, 8] and now.tolist() == [-1, -1]

    def test_culling_is_per_object(self):
        # each box skips its own back faces; only the partly-off-screen
        # box has silhouette ties, so only its pixels differ from the
        # full oracle
        other = SceneObject(OrientedBox((-0.8, 0.0, 3.0), (0.5, 0.5, 0.5), yaw=0.4))
        scene = frontal_cube_scene(center=(1.0, 0.0, 2.5))
        scene = dataclasses.replace(scene, objects=scene.objects + (other,))
        skip = cull_mask(scene, 0)
        assert skip[:12].any() and skip[12:].any()
        was, now = self.culled_changes(scene)
        assert len(was) == 16 and set(was.tolist()) == {5, 8} and set(now.tolist()) == {10, 11}

    def test_yawed_boxes_at_generic_poses(self):
        objects = [
            SceneObject(OrientedBox((0.3, -0.2, 0.1), (0.7, 0.4, 0.5), yaw=0.37)),
            SceneObject(OrientedBox((-0.6, 0.5, -0.1), (0.3, 0.9, 0.6), yaw=-2.1)),
            SceneObject(OrientedBox((0.1, 0.9, 0.4), (0.5, 0.5, 0.2), yaw=1.234)),
        ]
        eyes = [(2.7, 1.1, 0.9), (-1.3, -2.9, 1.7), (0.4, 3.1, -0.8), (-2.2, 0.3, 0.05)]
        scene = looking_scene(objects, eyes, (0.05, 0.1, 0.0))
        for i in range(len(eyes)):
            assert cull_mask(scene, i).any(), f"view {i}"
        self.assert_matches(scene, range(len(eyes)))

    def test_intersecting_boxes(self):
        objects = [
            SceneObject(OrientedBox((0.0, 0.0, 0.0), (1.0, 0.6, 0.6), yaw=0.2)),
            SceneObject(OrientedBox((0.3, 0.2, 0.1), (0.6, 1.0, 0.5), yaw=-0.5)),
        ]
        eyes = [(2.5, -1.0, 1.0), (-2.0, -2.0, 0.5), (0.5, 2.8, 1.5)]
        scene = looking_scene(objects, eyes, (0.1, 0.1, 0.0))
        for i in range(len(eyes)):
            assert cull_mask(scene, i).reshape(2, 12).any(axis=1).all(), f"view {i}"
        self.assert_matches(scene, range(len(eyes)))

    @pytest.mark.parametrize("x", [0.1, 0.5 - 1.234e-4])
    def test_camera_just_outside_a_face(self, x):
        # the near face (z = 2) is 1e-3 ahead of the camera and fills the
        # view; at x = 0.5 - 1.234e-4 its edge with the +x face crosses
        # the image at u = 62.34, so the other five faces are culled
        box = SceneObject(OrientedBox((0.0, 0.0, 2.5), (1.0, 1.0, 1.0)))
        cam = SceneCamera(SIMPLE, Pose(np.eye(3), np.array([x, 0.05, 2.0 - 1e-3])))
        scene = SceneSpec(objects=(box,), cameras=(cam,))
        assert cull_mask(scene, 0).sum() == 10
        self.assert_matches(scene, [0])

    @pytest.mark.parametrize("offset", [1e-3, -1e-3, 3e-4, -3e-4, 0.0])
    def test_face_nearly_edge_on(self, offset):
        # the camera sits within 1e-3 rad of the plane x = 0.5 of the +x
        # face, or in it
        box = SceneObject(OrientedBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
        eye = (0.5 + 3.0 * math.tan(offset), -3.0, 0.2)
        scene = looking_scene([box], [eye], (0.5, 0.0, 0.0))
        back = cull_mask(scene, 0)
        # the +x face (triangles 6 and 7) is back-facing only from inside
        # its plane, and not when seen exactly edge-on
        assert back[6:8].all() == (offset < 0) and back.any()
        self.assert_matches(scene, [0])

    def test_object_straddling_camera_plane_is_not_culled(self):
        straddling = SceneObject(OrientedBox((0.6, 0.0, 0.2), (0.8, 1.0, 1.0)))
        ahead = SceneObject(OrientedBox((-0.5, 0.0, 3.0), (0.6, 0.6, 0.6), yaw=0.3))
        cam = SceneCamera(SIMPLE, IDENTITY)
        scene = SceneSpec(objects=(straddling, ahead), cameras=(cam,))
        skip = cull_mask(scene, 0)
        assert not skip[:12].any() and skip[12:].any()
        self.assert_matches(scene, [0])
        assert cast(scene, 0)[0][:, -1].any()

    def test_every_orbit80_view(self):
        # the views test_orbit80_subset leaves out
        self.assert_matches(demo_scene(steps=80), [i for i in range(80) if i % 9])

    @pytest.mark.parametrize(
        "steps, view", [(51, 22), (51, 29), (101, 92), (102, 44), (102, 58), (103, 60), (111, 1)]
    )
    def test_demo_orbit_views_near_a_silhouette(self, steps, view):
        # the views of demo orbits of 1 to 120 steps with a pixel center
        # near an edge between a box's skipped and kept triangles: within
        # ten times the caster's barycentric tolerance, scaled to pixels by
        # the box's longest edge at its nearest vertex. No back face wins
        # a pixel there
        scene = demo_scene(steps=steps)
        assert cull_mask(scene, view).any()
        self.assert_matches(scene, [view])

    def test_every_hires_6view_view(self):
        # the poses test_640x480_views leaves out
        scene = hires_scene()
        for i in range(6):
            assert cull_mask(scene, i).any(), f"view {i}"
        self.assert_matches(scene, [1, 2, 4, 5])


def perturb_image(depth, sigma, outlier_rate, rng, depth_range):
    """``perturb_depth`` over a dense image: its valid (> 0) pixels
    perturbed, every other pixel 0."""
    d = np.asarray(depth, dtype=np.float64)
    valid = np.flatnonzero(d > 0)
    out = np.zeros(d.shape)
    out.ravel()[valid] = perturb_depth(
        d.ravel()[valid], valid, d.size, sigma, outlier_rate, rng, depth_range
    )
    return out


class TestPerturbDepth:
    def test_noiseless_identity(self):
        depth = np.full((20, 20), 2.0)
        out = perturb_image(depth, 0.0, 0.0, np.random.default_rng(0), DEPTH_RANGE)
        assert np.array_equal(out, depth)

    def test_gaussian_moments(self):
        depth = np.full((100, 100), 2.0)
        out = perturb_image(depth, 0.05, 0.0, np.random.default_rng(1), DEPTH_RANGE)
        # 3-sigma estimator bounds for 10^4 samples at sigma 0.05
        assert abs(out.mean() - 2.0) < 0.002
        assert abs(out.std() - 0.05) < 0.005

    def test_full_outlier_replacement(self):
        depth = np.full((100, 100), 2.0)
        out = perturb_image(depth, 0.0, 1.0, np.random.default_rng(2), DEPTH_RANGE)
        assert (out == 2.0).mean() < 0.01
        assert out.min() >= DEPTH_RANGE[0] and out.max() <= DEPTH_RANGE[1]

    def test_invalid_pixels_untouched(self):
        depth = np.full((50, 50), 3.0)
        depth[:10] = 0.0
        out = perturb_image(depth, 0.1, 0.5, np.random.default_rng(3), DEPTH_RANGE)
        assert not out[:10].any()

    def test_valid_pixels_clipped_to_range(self):
        depth = np.full((40, 40), 6.39)
        out = perturb_image(depth, 0.5, 0.0, np.random.default_rng(4), DEPTH_RANGE)
        assert out.max() <= DEPTH_RANGE[1] and out.min() >= DEPTH_RANGE[0]

    @pytest.mark.parametrize("shape", [(120, 160), (480, 640)])
    @pytest.mark.parametrize("outlier_rate", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_matches_oracle(self, sigma, outlier_rate, shape):
        # depths beyond both ends of the range, and about a fifth invalid
        depth = np.random.default_rng(shape[0]).uniform(0.1, 7.0, size=shape)
        depth[depth < 1.5] = 0.0
        for image in (depth, np.zeros(shape)):
            for seed in range(3):
                args = (image, sigma, outlier_rate)
                got = perturb_image(*args, np.random.default_rng(seed), DEPTH_RANGE)
                want = oracle_perturb_depth(*args, np.random.default_rng(seed), DEPTH_RANGE)
                assert got.tobytes() == want.tobytes(), f"seed {seed}"

    @pytest.mark.parametrize("outlier_rate", [0.0, 0.1])
    def test_noiseless_special_values_match_oracle(self, outlier_rate):
        special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 0.1, 2.0, 7.0, -1.0]
        depth = np.resize(np.array(special), (24, 30))
        for seed in range(3):
            args = (depth, 0.0, outlier_rate)
            got = perturb_image(*args, np.random.default_rng(seed), DEPTH_RANGE)
            want = oracle_perturb_depth(*args, np.random.default_rng(seed), DEPTH_RANGE)
            assert got.tobytes() == want.tobytes(), f"seed {seed}"
        assert (np.signbit(depth) & (depth == 0)).any() and np.isnan(depth).any()

    def test_deterministic_given_generator_seed(self):
        depth = np.full((30, 30), 2.0)
        a = perturb_image(depth, 0.05, 0.1, np.random.default_rng(9), DEPTH_RANGE)
        b = perturb_image(depth, 0.05, 0.1, np.random.default_rng(9), DEPTH_RANGE)
        assert np.array_equal(a, b)


class TestProjectGtBoxes:
    def test_frontal_cube_box(self):
        # near-face corners (+-0.5, +-0.5, 2) project to 50 +- 25
        boxes = gt_boxes(frontal_cube_scene())[0]
        assert len(boxes) == 1
        box = boxes[0]
        assert (box.u_min, box.v_min, box.u_max, box.v_max) == pytest.approx(
            (25.0, 25.0, 75.0, 75.0), abs=1e-9
        )

    def test_behind_camera_dropped(self):
        boxes = gt_boxes(frontal_cube_scene(center=(0.0, 0.0, -3.0)))[0]
        assert boxes == []

    def test_partially_outside_clipped(self):
        boxes = gt_boxes(frontal_cube_scene(center=(0.0, 0.0, 1.0)))[0]
        assert len(boxes) == 1
        box = boxes[0]
        assert box.u_min >= 0.0 and box.v_min >= 0.0
        assert box.u_max <= 99.0 and box.v_max <= 99.0

    def test_small_area_dropped(self, monkeypatch):
        monkeypatch.setattr(scene_module, "MIN_BOX_PIXELS", 1e9)
        assert gt_boxes(frontal_cube_scene()) == [[]]

    def test_matches_vertex_hull_recomputation(self, clean_scene):
        # re-derive each box from the projected mesh vertices
        from pointscatter.camera import project_points

        cam = clean_scene.cameras[4]
        w, h = cam.intrinsics.width, cam.intrinsics.height
        got = gt_boxes(clean_scene)[4]
        expected = []
        for obj in clean_scene.objects:
            uv, _, ok = project_points(obj.mesh().reshape(-1, 3), cam.intrinsics, cam.pose)
            if not ok.any():
                continue
            u0, v0 = np.maximum(uv[ok].min(axis=0), 0.0)
            u1, v1 = np.minimum(uv[ok].max(axis=0), [w - 1, h - 1])
            if u1 <= u0 or v1 <= v0 or (u1 - u0) * (v1 - v0) < 16.0:
                continue
            expected.append((obj.box.category, u0, v0, u1, v1))
        assert len(got) == len(expected)
        for box, exp in zip(got, expected):
            assert box.category == exp[0]
            assert (box.u_min, box.v_min, box.u_max, box.v_max) == pytest.approx(exp[1:])


class TestProjectGtBoxesMatchesOracle:
    """One projection of all vertices per camera gives the boxes of one
    projection per object, to the bit."""

    @staticmethod
    def assert_matches(scene):
        boxes = gt_boxes(scene)
        assert len(boxes) == len(scene.cameras)
        for i, got in enumerate(boxes):
            assert got == oracle_project_gt_boxes(scene, i, scene_module.MIN_BOX_PIXELS), f"view {i}"

    def test_demo_scenes(self, clean_scene, monkeypatch):
        self.assert_matches(clean_scene)
        self.assert_matches(demo_scene(steps=80))
        monkeypatch.setattr(scene_module, "MIN_BOX_PIXELS", 0.0)
        self.assert_matches(clean_scene)

    def test_640x480_views(self):
        self.assert_matches(hires_scene())

    def test_off_screen_and_partly_behind_objects(self):
        objects = (
            SceneObject(OrientedBox((0.0, 0.0, 2.5), (1.0, 1.0, 1.0), category=0)),
            # straddles the camera plane: some vertices behind, some in front
            SceneObject(OrientedBox((0.2, 0.1, 0.3), (0.6, 0.6, 1.0), category=1)),
            SceneObject(OrientedBox((6.0, 0.0, 2.5), (0.5, 0.5, 0.5), category=2)),
            SceneObject(OrientedBox((0.0, 0.0, -3.0), (1.0, 1.0, 1.0), category=3)),
            SceneObject(OrientedBox((-1.2, 0.9, 4.0), (0.4, 0.7, 0.3), yaw=0.4, category=4)),
        )
        cam = SceneCamera(SIMPLE, IDENTITY)
        scene = SceneSpec(objects=objects, cameras=(cam,))
        got = gt_boxes(scene)[0]
        assert [b.category for b in got] == [0, 1, 4]
        self.assert_matches(scene)

    def test_no_objects(self):
        scene = SceneSpec(objects=(), cameras=(SceneCamera(SIMPLE, IDENTITY),))
        assert gt_boxes(scene)[0] == oracle_project_gt_boxes(scene, 0) == []


class TestBatchedProjectionMatchesPerView:
    """One stacked projection of the scene's vertices gives each camera
    the bytes of its own ``project_points`` call, and the GT boxes,
    caster windows, ``tvec``/``qvec`` and back faces derived from it for
    all cameras at once are those of the per-view computations."""

    @staticmethod
    def assert_matches(scene):
        triangles = scene.geometry.triangles
        vertices = triangles.reshape(-1, 3)
        projection = project_scene(scene)
        uv, depth, in_front = projection
        assert uv.shape == (len(scene.cameras), len(vertices), 2)
        boxes = project_gt_boxes(scene, projection)
        edge1 = triangles[:, 1] - triangles[:, 0]
        edge2 = triangles[:, 2] - triangles[:, 0]
        batched = _view_constants(triangles, edge1, edge2, scene.cameras, projection)
        for i, cam in enumerate(scene.cameras):
            ref_uv, ref_depth, ref_front = project_points(vertices, cam.intrinsics, cam.pose)
            for got, want in [(uv[i], ref_uv), (depth[i], ref_depth), (in_front[i], ref_front)]:
                assert (got.dtype, got.shape) == (want.dtype, want.shape), f"view {i}"
                assert got.tobytes() == want.tobytes(), f"view {i}"
            assert boxes[i] == oracle_project_gt_boxes(scene, i), f"view {i}"
            size = np.array([cam.intrinsics.width, cam.intrinsics.height])
            tvecs = cam.pose.translation - triangles[:, 0]
            qvecs = np.cross(tvecs, edge1)
            per_view = (
                *_screen_boxes(ref_uv, ref_front, size),
                tvecs,
                qvecs,
                _back_faces(edge1, edge2, tvecs, qvecs, ref_front),
            )
            for name, got, want in zip(("lo", "hi", "tvecs", "qvecs", "back"), batched, per_view):
                assert (got[i].dtype, got[i].shape) == (want.dtype, want.shape), (i, name)
                assert got[i].tobytes() == want.tobytes(), (i, name)
            assert np.array_equal(batched[4][i], oracle_back_faces(scene, cam.pose)), f"view {i}"
        return projection

    @pytest.mark.parametrize("seed", [11, 29])
    @pytest.mark.parametrize("name", ["demo_noisy", "orbit80_clean", "hires_6view"])
    def test_workload_cameras(self, name, seed):
        scene, _ = load_perfbench("workloads").build(name, seed, reduced=True)
        self.assert_matches(scene)

    def test_cameras_with_different_intrinsics(self):
        large = Intrinsics(fx=240.0, fy=240.0, cx=159.5, cy=119.5, width=320, height=240)
        off_centre = Intrinsics(fx=90.0, fy=130.0, cx=10.25, cy=100.75, width=160, height=120)
        scene = demo_scene(steps=6)
        intrinsics = [DEFAULT_INTRINSICS, large, off_centre, SIMPLE, HIRES, large]
        cameras = tuple(SceneCamera(intr, c.pose) for intr, c in zip(intrinsics, scene.cameras))
        self.assert_matches(dataclasses.replace(scene, cameras=cameras))

    def test_camera_inside_a_box(self):
        # every vertex of the box around the camera is behind it or in
        # front of it, so its windows are the whole image
        scene = frontal_cube_scene(center=(0.0, 0.0, 0.2))
        other = SceneObject(OrientedBox((0.3, 0.0, 3.0), (0.4, 0.4, 0.4)))
        scene = dataclasses.replace(scene, objects=scene.objects + (other,))
        _, _, in_front = self.assert_matches(scene)
        assert in_front[0, :36].any() and not in_front[0, :36].all() and in_front[0, 36:].all()

    def test_every_object_behind_the_camera(self):
        objects = tuple(
            SceneObject(OrientedBox((x, 0.0, -2.5), (0.5, 0.5, 0.5))) for x in (-1.0, 0.0, 1.0)
        )
        scene = SceneSpec(objects=objects, cameras=(SceneCamera(SIMPLE, IDENTITY),))
        uv, _, in_front = self.assert_matches(scene)
        assert not in_front.any() and np.isnan(uv).all()
        assert gt_boxes(scene) == [[]]


class TestSceneGeometry:
    def test_arrays_are_read_only_and_shared(self, clean_scene, clean_frames):
        geometry = clean_scene.geometry
        assert geometry is clean_scene.geometry
        for array in geometry:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        assert all(frame.shades is geometry.shades for frame in clean_frames)

    def test_matches_per_object_shells(self, clean_scene):
        triangles, owner, shades = clean_scene.geometry
        ref_triangles, ref_owner = oracle_scene_triangles(clean_scene)
        assert triangles.tobytes() == ref_triangles.tobytes()
        assert np.array_equal(owner, ref_owner)
        ref_shades = _shade_triangles(clean_scene, ref_triangles, ref_owner)
        assert shades.tobytes() == np.concatenate([ref_shades, np.zeros((1, 3))]).tobytes()

    def test_zero_object_scene_renders(self):
        scene = SceneSpec(objects=(), cameras=(SceneCamera(SIMPLE, IDENTITY),))
        triangles, owner, shades = scene.geometry
        assert triangles.shape == (0, 3, 3) and owner.shape == (0,)
        assert shades.shape == (1, 3) and not shades.any()
        depth, tri_index = cast(scene, 0)
        assert not depth.any() and (tri_index == -1).all()

    def test_replaced_scene_gets_its_own_geometry(self, clean_scene):
        moved = dataclasses.replace(clean_scene, objects=clean_scene.objects[:1])
        assert len(moved.geometry.triangles) == 12
        assert len(clean_scene.geometry.triangles) == 36


def held(a):
    """Bytes an array keeps alive: a view keeps its whole base buffer."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.nbytes


class TestMakeFrame:
    def test_noiseless_surface_consistency(self, clean_scene, clean_frames):
        frame = clean_frames[0]
        triangles = np.concatenate([o.mesh() for o in clean_scene.objects])
        vs, us = np.nonzero(frame.depth > 0)
        sel = slice(None, None, 11)
        world = backproject_pixels(
            us[sel].astype(float), vs[sel].astype(float),
            frame.depth[vs[sel], us[sel]], frame.intrinsics, frame.pose,
        )
        assert point_mesh_distance(world, triangles).max() < 1e-6

    def test_boxes_within_image_bounds(self, clean_frames):
        for frame in clean_frames:
            w, h = frame.intrinsics.width, frame.intrinsics.height
            for box in frame.boxes_2d:
                assert 0.0 <= box.u_min <= box.u_max <= w - 1
                assert 0.0 <= box.v_min <= box.v_max <= h - 1

    def test_bit_identical_rerender(self, clean_scene, clean_frames):
        from pointscatter.pipeline import stage_rng

        again = frame_of(
            clean_scene,
            3,
            stage_rng(clean_scene.rng_seed, "perturb", 3),
            gt_boxes(clean_scene)[3],
        )
        assert np.array_equal(again.depth, clean_frames[3].depth)
        assert np.array_equal(again.color, clean_frames[3].color)
        assert again.boxes_2d == clean_frames[3].boxes_2d

    def test_640x480_frame_memory(self):
        # depth (8 bytes) and the int32 triangle index (4 bytes) per pixel
        # plus the shade table; no (H, W, 3) float image is kept
        scene = hires_scene()
        frame = frame_of(scene, 0, np.random.default_rng(0))
        arrays = [getattr(frame, f.name) for f in dataclasses.fields(frame)]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        assert sum(held(a) for a in arrays) <= 12 * HIRES.width * HIRES.height + held(frame.shades)
        assert not any(a.ndim == 3 and a.dtype.kind == "f" for a in arrays)
        assert frame.color.shape == (HIRES.height, HIRES.width, 3)

    @staticmethod
    def assert_cast_peak_under_maps_plus(scene):
        """The first view's traced peak stays under its depth and index
        maps plus 1.5 MB: the caster, its projection and bands of at most
        ``_RAY_BLOCK`` rays, about 100 bytes a ray."""
        scene.geometry  # built once per scene, outside the measured call
        tracemalloc.start()
        try:
            depth, index = cast(scene, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < depth.nbytes + index.nbytes + 1.5e6

    def test_640x480_cast_peak_memory(self):
        # rays are built per window in reused blocks; a full (H*W, 3)
        # float64 ray grid alone is twice the maps
        self.assert_cast_peak_under_maps_plus(hires_scene())

    def test_inside_box_cast_peak_memory(self):
        # every window of this view is the whole image; its rays are built
        # in bands of at most _RAY_BLOCK rays, not in whole-image blocks
        self.assert_cast_peak_under_maps_plus(hires_inside_box_scene())

    def test_depth_values_zero_or_in_range(self, noisy_frames):
        for frame in noisy_frames[:5]:
            valid = frame.depth[frame.depth > 0]
            assert valid.min() >= DEPTH_RANGE[0] and valid.max() <= DEPTH_RANGE[1]


class TestDenseMapOracle:
    """A frame keeps the covered pixels of the dense maps that render and
    the dense perturbation oracle give, and rebuilds those maps bit for
    bit."""

    @pytest.mark.parametrize("seed", [11, 29])
    @pytest.mark.parametrize("name", ["demo_noisy", "orbit80_clean", "hires_6view"])
    def test_workload_frames(self, name, seed):
        scene, _ = load_perfbench("workloads").build(name, seed, reduced=True)
        for i in range(len(scene.cameras)):
            frame = frame_of(scene, i, stage_rng(scene.rng_seed, "perturb", i))
            depth, tri_index = cast(scene, i)
            rng = stage_rng(scene.rng_seed, "perturb", i)
            sigma, rate = scene.depth_noise_sigma, scene.outlier_rate
            depth = oracle_perturb_depth(depth, sigma, rate, rng, DEPTH_RANGE)
            for got, want in [(frame.depth, depth), (frame.tri_index, tri_index)]:
                assert (got.dtype, got.shape) == (want.dtype, want.shape), i
                assert got.tobytes() == want.tobytes(), i
            # the covered pixels are exactly those of valid depth
            np.testing.assert_array_equal(frame.covered, np.flatnonzero(depth > 0))

    def test_uncovered_frame(self, clean_scene):
        frame = uncovered_frame(clean_scene)
        assert not frame.depth.any() and (frame.tri_index == -1).all()
        assert frame.depth.shape == frame.tri_index.shape == (120, 160)

    @pytest.mark.parametrize("seed", [11, 29])
    def test_hires_frames_hold_16_bytes_per_covered_pixel(self, seed):
        # an int32 flat index, a depth and an int32 triangle index per
        # covered pixel, nothing per uncovered pixel, and the scene's
        # shared shade table; counted in bytes held, not measured, so the
        # bound cannot flake
        scene, config = load_perfbench("workloads").build("hires_6view", seed, reduced=True)
        _, frames, _ = run_front(scene, config)
        for frame in frames:
            # every array the frame holds, declared as a field or not
            arrays = [a for a in vars(frame).values() if isinstance(a, np.ndarray)]
            assert len(frame.covered) > 0
            assert sum(held(a) for a in arrays) == 16 * len(frame.covered) + held(frame.shades)


class TestSelectKeyframes:
    def test_identical_poses_relax_to_target(self):
        poses = [IDENTITY] * 100
        picked = select_keyframes(poses, [1] * 100, 50, 0.1, 10.0)
        assert picked == list(range(50))

    def test_translating_sequence(self):
        poses = [Pose(np.eye(3), np.array([0.2 * i, 0.0, 0.0])) for i in range(10)]
        assert select_keyframes(poses, [1] * 10, 3, 0.1, 10.0) == [0, 1, 2]

    def test_alternating_detections(self):
        poses = [Pose(np.eye(3), np.array([1.0 * i, 0.0, 0.0])) for i in range(6)]
        detections = [1, 0, 1, 0, 1, 0]
        assert select_keyframes(poses, detections, 2, 0.1, 10.0) == [0, 2]

    def test_motion_gate_skips_static_frames(self):
        # frames 1 and 2 barely move; frame 3 moves enough
        offsets = [0.0, 0.01, 0.02, 0.5]
        poses = [Pose(np.eye(3), np.array([o, 0.0, 0.0])) for o in offsets]
        assert select_keyframes(poses, [1] * 4, 2, 0.1, 10.0) == [0, 3]

    def test_rotation_counts_as_motion(self):
        c, s = np.cos(np.radians(15)), np.sin(np.radians(15))
        turned = Pose(np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]]), np.zeros(3))
        poses = [IDENTITY, turned]
        assert select_keyframes(poses, [1, 1], 2, 0.1, 10.0) == [0, 1]

    def test_output_sorted_unique_bounded(self):
        rng = np.random.default_rng(0)
        poses = [Pose(np.eye(3), rng.uniform(-1, 1, 3)) for _ in range(30)]
        detections = rng.integers(0, 2, 30).tolist()
        picked = select_keyframes(poses, detections, 12, 0.1, 10.0)
        assert picked == sorted(set(picked))
        assert len(picked) <= 12

    @pytest.mark.parametrize("steps", [20, 80])
    def test_orbit_matches_three_pass_oracle(self, steps):
        scene = demo_scene(steps=steps)
        poses = [c.pose for c in scene.cameras]
        counts = [len(boxes) for boxes in gt_boxes(scene)]
        # every third frame without detections makes the first pass fall short
        for detections in (counts, [c if i % 3 else 0 for i, c in enumerate(counts)]):
            for target in (1, 7, steps // 2, steps, steps + 3):
                for thresholds in ((0.1, 10.0), (2.0, 60.0), (0.0, 0.0), (100.0, 360.0)):
                    got = select_keyframes(poses, detections, target, *thresholds)
                    assert got == oracle_select_keyframes(poses, detections, target, *thresholds)

    def test_random_inputs_match_three_pass_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            n = int(rng.integers(1, 41))
            poses = [
                look_at_pose(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3) + [0.0, 0.0, 5.0])
                for _ in range(n)
            ]
            detections = rng.integers(0, 3, n) * (rng.random(n) < rng.random())
            target = int(rng.integers(1, n + 4))
            thresholds = (float(rng.uniform(0, 3)), float(rng.uniform(0, 90)))
            got = select_keyframes(poses, detections.tolist(), target, *thresholds)
            assert got == oracle_select_keyframes(poses, detections.tolist(), target, *thresholds)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            select_keyframes([IDENTITY], [1, 2], 1, 0.1, 10.0)
        with pytest.raises(ValueError):
            select_keyframes([IDENTITY], [1], 0, 0.1, 10.0)


class TestOrbitAndSerialization:
    def test_orbit_geometry(self):
        poses = orbit_trajectory(radius=3.0, height=1.7, steps=8, look_at=(0.0, 0.0, 0.35))
        assert len(poses) == 8
        for pose in poses:
            assert np.linalg.norm(pose.translation[:2]) == pytest.approx(3.0)
            assert pose.translation[2] == pytest.approx(1.7)
            to_target = np.array([0.0, 0.0, 0.35]) - pose.translation
            to_target /= np.linalg.norm(to_target)
            assert np.allclose(pose.rotation[:, 2], to_target, atol=1e-9)

    def test_dict_round_trip(self, tmp_path, clean_scene):
        from pointscatter.scene import load_scene, save_scene

        path = tmp_path / "scene.json"
        save_scene(clean_scene, path)
        back = load_scene(path)
        assert len(back.objects) == len(clean_scene.objects)
        assert len(back.cameras) == len(clean_scene.cameras)
        assert back.rng_seed == clean_scene.rng_seed
        for a, b in zip(back.objects, clean_scene.objects):
            assert a.box == b.box and a.albedo == b.albedo
        for a, b in zip(back.cameras, clean_scene.cameras):
            assert a.intrinsics == b.intrinsics
            assert np.allclose(a.pose.rotation, b.pose.rotation, atol=1e-12)
            assert np.allclose(a.pose.translation, b.pose.translation, atol=1e-12)

    def test_trajectory_form_expands_to_cameras(self):
        # an orbit is written out as its explicit camera list; the orbit
        # description itself is no longer a scene file's camera form
        intr = Intrinsics(fx=200, fy=200, cx=159.5, cy=119.5, width=320, height=240)
        poses = orbit_trajectory(radius=2.5, height=1.2, steps=6, look_at=(0.0, 0.0, 0.5))
        spec = SceneSpec(
            objects=(SceneObject(OrientedBox((0, 0, 0.5), (1, 1, 1), 0.0, 2)),),
            cameras=tuple(SceneCamera(intr, pose) for pose in poses),
            rng_seed=7,
        )
        data = json.loads(json.dumps(scene_to_dict(spec)))
        scene = scene_from_dict(data)
        assert len(scene.cameras) == 6 and scene.rng_seed == 7
        # integer fields load unchanged
        intr = scene.cameras[0].intrinsics
        assert (intr.width, intr.height, scene.objects[0].box.category) == (320, 240, 2)
        data["cameras"] = {"trajectory": {"type": "orbit", "radius": 2.5, "height": 1.2, "steps": 6}}
        with pytest.raises(ConfigError, match="^cameras must be a JSON list, got dict$"):
            scene_from_dict(data)

    def test_intrinsics_block_lacks_key(self, clean_scene):
        # each camera carries its own intrinsics
        data = scene_to_dict(clean_scene)
        del data["cameras"][0]["fy"]
        with pytest.raises(ConfigError, match=r"^cameras\[0\] lacks 'fy'$"):
            scene_from_dict(data)

    def test_intrinsics_block_unknown_key(self, clean_scene):
        data = scene_to_dict(clean_scene)
        assert scene_from_dict(data).cameras[0].intrinsics.fy == clean_scene.cameras[0].intrinsics.fy
        data["cameras"][0]["skew"] = 0.0
        with pytest.raises(ConfigError, match=r"^cameras\[0\] has unknown key 'skew'$"):
            scene_from_dict(data)
        # a top-level block beside the list is not read as shared intrinsics
        del data["cameras"][0]["skew"]
        data["intrinsics"] = dict(fx=200, fy=200, cx=159.5, cy=119.5, width=320, height=240)
        with pytest.raises(ConfigError, match="^scene has unknown key 'intrinsics'$"):
            scene_from_dict(data)

    def test_to_dict_lists_cameras_explicitly(self, clean_scene):
        data = scene_to_dict(clean_scene)
        assert len(data["cameras"]) == len(clean_scene.cameras)
        assert "rotation" in data["cameras"][0]


class TestDemoScene:
    def test_composition(self, clean_scene):
        assert len(clean_scene.objects) == 3
        assert len(clean_scene.cameras) == 20
        assert clean_scene.num_categories() == 3

    def test_every_object_visible_in_every_frame(self, clean_scene):
        assert [len(boxes) for boxes in gt_boxes(clean_scene)] == [3] * len(clean_scene.cameras)

    def test_noise_parameters_plumb_through(self):
        scene = demo_scene(noise_sigma=0.05, outlier_rate=0.1)
        assert scene.depth_noise_sigma == 0.05 and scene.outlier_rate == 0.1

    def test_rejects_invalid_noise(self):
        with pytest.raises(ValueError):
            demo_scene(outlier_rate=1.5)
