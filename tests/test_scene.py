"""Scene simulator: rendering, noise injection, GT boxes, keyframes."""

import dataclasses

import numpy as np
import pytest

from pointscatter.boxes import OrientedBox
from pointscatter.camera import Intrinsics, Pose, backproject_pixels
from pointscatter.meshes import point_mesh_distance
from pointscatter.scene import (
    SceneCamera,
    SceneObject,
    DEFAULT_INTRINSICS,
    SceneSpec,
    _camera_rays,
    _cast_rays,
    _screen_boxes,
    _shade_triangles,
    demo_scene,
    make_frame,
    orbit_trajectory,
    perturb_depth,
    project_gt_boxes,
    render,
    scene_from_dict,
    scene_to_dict,
    select_keyframes,
)

from conftest import DEPTH_RANGE
from oracles import (
    _scene_triangles as oracle_scene_triangles,
    cast_rays,
    perturb_depth as oracle_perturb_depth,
    project_gt_boxes as oracle_project_gt_boxes,
)

SIMPLE = Intrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100)


HIRES = Intrinsics(fx=480.0, fy=480.0, cx=319.5, cy=239.5, width=640, height=480)


def hires_scene():
    """The six orbit poses of the hires_6view benchmark workload at 640x480."""
    scene = demo_scene(steps=6)
    cameras = tuple(SceneCamera(HIRES, c.pose) for c in scene.cameras)
    return dataclasses.replace(scene, cameras=cameras)


def render_color(scene, camera_index=0):
    """One view's color image, as ``CameraFrame.color`` builds it."""
    frame = make_frame(scene, camera_index, np.random.default_rng(0), DEPTH_RANGE, ())
    return frame.color


def frontal_cube_scene(center=(0.0, 0.0, 2.5), camera_z=0.0):
    """Unit cube ahead of an identity-orientation camera."""
    obj = SceneObject(OrientedBox(center, (1.0, 1.0, 1.0)))
    cam = SceneCamera(SIMPLE, Pose(np.eye(3), np.array([0.0, 0.0, camera_z])))
    return SceneSpec(objects=(obj,), cameras=(cam,))


class TestRenderDepth:
    def test_frontal_face_depth(self):
        # near face of the cube sits at z=2
        depth = render(frontal_cube_scene(), 0)[0]
        assert depth[50, 50] == pytest.approx(2.0, abs=1e-12)

    def test_translated_camera(self):
        depth = render(frontal_cube_scene(camera_z=0.5), 0)[0]
        assert depth[50, 50] == pytest.approx(1.5, abs=1e-12)

    def test_empty_scene_is_all_invalid(self):
        cam = SceneCamera(SIMPLE, Pose.identity())
        scene = SceneSpec(objects=(), cameras=(cam,))
        assert not render(scene, 0)[0].any()

    def test_background_pixels_are_zero(self):
        depth = render(frontal_cube_scene(), 0)[0]
        # corner rays miss the cube
        assert depth[0, 0] == 0.0

    def test_rejects_invalid_camera_index(self):
        with pytest.raises(IndexError):
            render(frontal_cube_scene(), 3)

    def test_deterministic(self):
        a = render(frontal_cube_scene(), 0)[0]
        b = render(frontal_cube_scene(), 0)[0]
        assert np.array_equal(a, b)

    def test_occlusion_keeps_nearest(self):
        near = SceneObject(OrientedBox((0.0, 0.0, 1.5), (0.4, 0.4, 0.4)))
        far = SceneObject(OrientedBox((0.0, 0.0, 3.0), (1.0, 1.0, 1.0)))
        cam = SceneCamera(SIMPLE, Pose.identity())
        depth = render(SceneSpec(objects=(near, far), cameras=(cam,)), 0)[0]
        assert depth[50, 50] == pytest.approx(1.3, abs=1e-12)


class TestRenderColor:
    def test_shading_range_and_background(self):
        _, tri_index, shades = render(frontal_cube_scene(), 0)
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
        cam = SceneCamera(SIMPLE, Pose.identity())
        color = render_color(SceneSpec(objects=(), cameras=(cam,)))
        assert color.shape == (100, 100, 3) and not color.any()


class TestCastRaysMatchesOracle:
    """The culled caster gives the same bits as the full-image oracle."""

    @staticmethod
    def assert_matches(scene, views):
        for i in views:
            cam = scene.cameras[i]
            depth, index = _cast_rays(scene, cam.intrinsics, cam.pose)
            ref_depth, ref_index, _, _ = cast_rays(scene, cam.intrinsics, cam.pose)
            assert depth.shape == ref_depth.shape, f"view {i}"
            assert depth.tobytes() == ref_depth.tobytes(), f"view {i}"
            assert np.array_equal(index, ref_index), f"view {i}"

    @staticmethod
    def windows(scene):
        cam = scene.cameras[0]
        triangles = np.concatenate([o.mesh() for o in scene.objects])
        lo, hi = _screen_boxes(triangles, cam.intrinsics, cam.pose)
        corner = [cam.intrinsics.width - 1, cam.intrinsics.height - 1]
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
            depth, index = _cast_rays(scene, cam.intrinsics, cam.pose)
            assert depth.tobytes() == ref_depth.tobytes(), f"view {i}"
            assert np.array_equal(index, ref_index), f"view {i}"
            # a frame's colour is the shade gather over the oracle's index map
            shades = np.concatenate([_shade_triangles(scene, triangles, owner), np.zeros((1, 3))])
            depth = render(scene, i)[0]
            color = render_color(scene, i)
            assert depth.tobytes() == ref_depth.tobytes(), f"view {i}"
            assert color.tobytes() == shades[ref_index].tobytes(), f"view {i}"

    def test_camera_inside_box_falls_back(self):
        scene = frontal_cube_scene(center=(0.0, 0.0, 0.2))
        full, _ = self.windows(scene)
        assert full.any()
        self.assert_matches(scene, [0])
        assert render(scene, 0)[0].all()

    def test_box_partly_off_screen(self):
        scene = frontal_cube_scene(center=(1.0, 0.0, 2.5))
        full, empty = self.windows(scene)
        assert not full.any() and not empty.all()
        self.assert_matches(scene, [0])
        depth = render(scene, 0)[0]
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
        assert not render(scene, 0)[0].any()

    def test_no_objects(self):
        scene = SceneSpec(objects=(), cameras=(SceneCamera(SIMPLE, Pose.identity()),))
        self.assert_matches(scene, [0])


class TestCameraRayCache:
    def test_resolution_switch_matches_oracle(self):
        large = Intrinsics(fx=240.0, fy=240.0, cx=159.5, cy=119.5, width=320, height=240)
        wide = dataclasses.replace(DEFAULT_INTRINSICS, fx=90.0, fy=90.0)
        scene = demo_scene(steps=6)
        for intr in (DEFAULT_INTRINSICS, large, DEFAULT_INTRINSICS, wide):
            for cam in scene.cameras[::2]:
                depth, index = _cast_rays(scene, intr, cam.pose)
                ref_depth, ref_index, _, _ = cast_rays(scene, intr, cam.pose)
                assert depth.shape == (intr.height, intr.width)
                assert depth.tobytes() == ref_depth.tobytes()
                assert np.array_equal(index, ref_index)
        assert _camera_rays(DEFAULT_INTRINSICS) is _camera_rays(DEFAULT_INTRINSICS)

    def test_cached_rays_are_read_only(self):
        rays = _camera_rays(SIMPLE)
        with pytest.raises(ValueError):
            rays[0, 0] = 1.0
        assert rays.shape == (SIMPLE.height * SIMPLE.width, 3)


class TestPerturbDepth:
    def test_noiseless_identity(self):
        depth = np.full((20, 20), 2.0)
        out = perturb_depth(depth, 0.0, 0.0, np.random.default_rng(0), DEPTH_RANGE)
        assert np.array_equal(out, depth)

    def test_gaussian_moments(self):
        depth = np.full((100, 100), 2.0)
        out = perturb_depth(depth, 0.05, 0.0, np.random.default_rng(1), DEPTH_RANGE)
        # 3-sigma estimator bounds for 10^4 samples at sigma 0.05
        assert abs(out.mean() - 2.0) < 0.002
        assert abs(out.std() - 0.05) < 0.005

    def test_full_outlier_replacement(self):
        depth = np.full((100, 100), 2.0)
        out = perturb_depth(depth, 0.0, 1.0, np.random.default_rng(2), DEPTH_RANGE)
        assert (out == 2.0).mean() < 0.01
        assert out.min() >= DEPTH_RANGE[0] and out.max() <= DEPTH_RANGE[1]

    def test_invalid_pixels_untouched(self):
        depth = np.full((50, 50), 3.0)
        depth[:10] = 0.0
        out = perturb_depth(depth, 0.1, 0.5, np.random.default_rng(3), DEPTH_RANGE)
        assert not out[:10].any()

    def test_valid_pixels_clipped_to_range(self):
        depth = np.full((40, 40), 6.39)
        out = perturb_depth(depth, 0.5, 0.0, np.random.default_rng(4), DEPTH_RANGE)
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
                got = perturb_depth(*args, np.random.default_rng(seed), DEPTH_RANGE)
                want = oracle_perturb_depth(*args, np.random.default_rng(seed), DEPTH_RANGE)
                assert got.tobytes() == want.tobytes(), f"seed {seed}"

    @pytest.mark.parametrize("outlier_rate", [0.0, 0.1])
    def test_noiseless_special_values_match_oracle(self, outlier_rate):
        special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 0.1, 2.0, 7.0, -1.0]
        depth = np.resize(np.array(special), (24, 30))
        for seed in range(3):
            args = (depth, 0.0, outlier_rate)
            got = perturb_depth(*args, np.random.default_rng(seed), DEPTH_RANGE)
            want = oracle_perturb_depth(*args, np.random.default_rng(seed), DEPTH_RANGE)
            assert got.tobytes() == want.tobytes(), f"seed {seed}"
        assert (np.signbit(depth) & (depth == 0)).any() and np.isnan(depth).any()

    def test_deterministic_given_generator_seed(self):
        depth = np.full((30, 30), 2.0)
        a = perturb_depth(depth, 0.05, 0.1, np.random.default_rng(9), DEPTH_RANGE)
        b = perturb_depth(depth, 0.05, 0.1, np.random.default_rng(9), DEPTH_RANGE)
        assert np.array_equal(a, b)


class TestProjectGtBoxes:
    def test_frontal_cube_box(self):
        # near-face corners (+-0.5, +-0.5, 2) project to 50 +- 25
        boxes = project_gt_boxes(frontal_cube_scene(), 0)
        assert len(boxes) == 1
        box = boxes[0]
        assert (box.u_min, box.v_min, box.u_max, box.v_max) == pytest.approx(
            (25.0, 25.0, 75.0, 75.0), abs=1e-9
        )

    def test_behind_camera_dropped(self):
        boxes = project_gt_boxes(frontal_cube_scene(center=(0.0, 0.0, -3.0)), 0)
        assert boxes == []

    def test_partially_outside_clipped(self):
        boxes = project_gt_boxes(frontal_cube_scene(center=(0.0, 0.0, 1.0)), 0)
        assert len(boxes) == 1
        box = boxes[0]
        assert box.u_min >= 0.0 and box.v_min >= 0.0
        assert box.u_max <= 99.0 and box.v_max <= 99.0

    def test_small_area_dropped(self):
        scene = frontal_cube_scene()
        assert project_gt_boxes(scene, 0, min_pixels=1e9) == []

    def test_matches_vertex_hull_recomputation(self, clean_scene):
        # re-derive each box from the projected mesh vertices
        from pointscatter.camera import project_points

        cam = clean_scene.cameras[4]
        w, h = cam.intrinsics.width, cam.intrinsics.height
        got = project_gt_boxes(clean_scene, 4, min_pixels=16.0)
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
    def assert_matches(scene, min_pixels=16.0):
        for i in range(len(scene.cameras)):
            got = project_gt_boxes(scene, i, min_pixels)
            assert got == oracle_project_gt_boxes(scene, i, min_pixels), f"view {i}"

    def test_demo_scenes(self, clean_scene):
        self.assert_matches(clean_scene)
        self.assert_matches(demo_scene(steps=80))
        self.assert_matches(clean_scene, min_pixels=0.0)

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
        cam = SceneCamera(SIMPLE, Pose.identity())
        scene = SceneSpec(objects=objects, cameras=(cam,))
        got = project_gt_boxes(scene, 0)
        assert [b.category for b in got] == [0, 1, 4]
        self.assert_matches(scene)

    def test_no_objects(self):
        scene = SceneSpec(objects=(), cameras=(SceneCamera(SIMPLE, Pose.identity()),))
        assert project_gt_boxes(scene, 0) == oracle_project_gt_boxes(scene, 0) == []


class TestSceneGeometry:
    def test_arrays_are_read_only_and_shared(self, clean_scene):
        geometry = clean_scene.geometry
        assert geometry is clean_scene.geometry
        for array in geometry:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        assert render(clean_scene, 0)[2] is geometry.shades

    def test_matches_per_object_shells(self, clean_scene):
        triangles, owner, shades = clean_scene.geometry
        ref_triangles, ref_owner = oracle_scene_triangles(clean_scene)
        assert triangles.tobytes() == ref_triangles.tobytes()
        assert np.array_equal(owner, ref_owner)
        ref_shades = _shade_triangles(clean_scene, ref_triangles, ref_owner)
        assert shades.tobytes() == np.concatenate([ref_shades, np.zeros((1, 3))]).tobytes()

    def test_zero_object_scene_renders(self):
        scene = SceneSpec(objects=(), cameras=(SceneCamera(SIMPLE, Pose.identity()),))
        triangles, owner, shades = scene.geometry
        assert triangles.shape == (0, 3, 3) and owner.shape == (0,)
        assert shades.shape == (1, 3) and not shades.any()
        depth, tri_index, _ = render(scene, 0)
        assert not depth.any() and (tri_index == -1).all()

    def test_replaced_scene_gets_its_own_geometry(self, clean_scene):
        moved = dataclasses.replace(clean_scene, objects=clean_scene.objects[:1])
        assert len(moved.geometry.triangles) == 12
        assert len(clean_scene.geometry.triangles) == 36


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

        again = make_frame(
            clean_scene,
            3,
            stage_rng(clean_scene.rng_seed, "perturb", 3),
            DEPTH_RANGE,
            project_gt_boxes(clean_scene, 3),
        )
        assert np.array_equal(again.depth, clean_frames[3].depth)
        assert np.array_equal(again.color, clean_frames[3].color)
        assert again.boxes_2d == clean_frames[3].boxes_2d

    def test_640x480_frame_memory(self):
        # depth (8 bytes) and the int32 triangle index (4 bytes) per pixel
        # plus the shade table; no (H, W, 3) float image is kept
        scene = hires_scene()
        frame = make_frame(scene, 0, np.random.default_rng(0), DEPTH_RANGE, ())
        arrays = [getattr(frame, f.name) for f in dataclasses.fields(frame)]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]

        def held(a):
            # a view keeps its whole base buffer alive
            while isinstance(a.base, np.ndarray):
                a = a.base
            return a.nbytes

        assert sum(held(a) for a in arrays) <= 12 * HIRES.width * HIRES.height + held(frame.shades)
        assert not any(a.ndim == 3 and a.dtype.kind == "f" for a in arrays)
        assert frame.color.shape == (HIRES.height, HIRES.width, 3)

    def test_depth_values_zero_or_in_range(self, noisy_frames):
        for frame in noisy_frames[:5]:
            valid = frame.depth[frame.depth > 0]
            assert valid.min() >= DEPTH_RANGE[0] and valid.max() <= DEPTH_RANGE[1]


class TestSelectKeyframes:
    def test_identical_poses_relax_to_target(self):
        poses = [Pose.identity()] * 100
        picked = select_keyframes(poses, [1] * 100, target_count=50)
        assert picked == list(range(50))

    def test_translating_sequence(self):
        poses = [Pose(np.eye(3), np.array([0.2 * i, 0.0, 0.0])) for i in range(10)]
        assert select_keyframes(poses, [1] * 10, target_count=3) == [0, 1, 2]

    def test_alternating_detections(self):
        poses = [Pose(np.eye(3), np.array([1.0 * i, 0.0, 0.0])) for i in range(6)]
        detections = [1, 0, 1, 0, 1, 0]
        assert select_keyframes(poses, detections, target_count=2) == [0, 2]

    def test_motion_gate_skips_static_frames(self):
        # frames 1 and 2 barely move; frame 3 moves enough
        offsets = [0.0, 0.01, 0.02, 0.5]
        poses = [Pose(np.eye(3), np.array([o, 0.0, 0.0])) for o in offsets]
        assert select_keyframes(poses, [1] * 4, target_count=2) == [0, 3]

    def test_rotation_counts_as_motion(self):
        c, s = np.cos(np.radians(15)), np.sin(np.radians(15))
        turned = Pose(np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]]), np.zeros(3))
        poses = [Pose.identity(), turned]
        assert select_keyframes(poses, [1, 1], target_count=2) == [0, 1]

    def test_output_sorted_unique_bounded(self):
        rng = np.random.default_rng(0)
        poses = [Pose(np.eye(3), rng.uniform(-1, 1, 3)) for _ in range(30)]
        detections = rng.integers(0, 2, 30).tolist()
        picked = select_keyframes(poses, detections, target_count=12)
        assert picked == sorted(set(picked))
        assert len(picked) <= 12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            select_keyframes([Pose.identity()], [1, 2], 1)
        with pytest.raises(ValueError):
            select_keyframes([Pose.identity()], [1], 0)


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
        data = {
            "objects": [{"center": [0, 0, 0.5], "size": [1, 1, 1], "yaw": 0.0, "category": 0}],
            "cameras": {
                "trajectory": {
                    "type": "orbit",
                    "radius": 2.5,
                    "height": 1.2,
                    "steps": 6,
                    "look_at": [0.0, 0.0, 0.5],
                }
            },
            "rng_seed": 7,
            "depth_noise_sigma": 0.0,
            "outlier_rate": 0.0,
        }
        scene = scene_from_dict(data)
        assert len(scene.cameras) == 6 and scene.rng_seed == 7

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
        for i in range(len(clean_scene.cameras)):
            assert len(project_gt_boxes(clean_scene, i)) == 3

    def test_noise_parameters_plumb_through(self):
        scene = demo_scene(noise_sigma=0.05, outlier_rate=0.1)
        assert scene.depth_noise_sigma == 0.05 and scene.outlier_rate == 0.1

    def test_rejects_invalid_noise(self):
        with pytest.raises(ValueError):
            demo_scene(outlier_rate=1.5)
