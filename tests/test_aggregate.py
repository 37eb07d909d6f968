"""Tests for multi-view feature aggregation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_perfbench, reduce_rows, uncovered_frame
import oracles
from oracles import aggregate_point, append_onehot, project_point_views
from pointscatter import aggregate
from pointscatter.aggregate import aggregate_cloud, compose_features, reduce_views
from pointscatter.boxes import OrientedBox
from pointscatter.camera import Intrinsics, Pose, look_at_pose, project_points
from pointscatter.pipeline import run_front, stage_rng
from pointscatter.scatter import ScatterCloud, ScatterConfig, scatter_frames
from pointscatter.scene import (
    DEFAULT_INTRINSICS,
    CameraFrame,
    SceneCamera,
    SceneObject,
    SceneSpec,
    demo_scene,
    make_frame,
    project_gt_boxes,
)
from pointscatter.surface import label_points, sample_scene_surface

TINY = Intrinsics(10.0, 10.0, 2.0, 2.0, 5, 5)
SIMPLE = Intrinsics(100.0, 100.0, 50.0, 50.0, 100, 100)

# channel 0 is the column index, channel 1 the row, channel 2 their sum,
# so bilinear sampling of any channel is an affine function of (u, v)
RAMP = np.stack(
    [
        np.tile(np.arange(5.0), (5, 1)),
        np.tile(np.arange(5.0)[:, None], (1, 5)),
        np.add.outer(np.arange(5.0), np.arange(5.0)),
    ],
    axis=2,
)


def flat_frame(translation, rotation=None):
    """Synthetic palette frame whose color image is RAMP: every pixel is
    covered, at a depth of 100 beyond every test point, and indexes its
    own row of the shade table."""
    rot = np.eye(3) if rotation is None else rotation
    pose = Pose(rot, np.asarray(translation, dtype=np.float64))
    return CameraFrame(
        camera_index=0,
        intrinsics=TINY,
        pose=pose,
        covered=np.arange(25),
        covered_depth=np.full(25, 100.0),
        covered_tri=np.arange(25, dtype=np.int32),
        shades=RAMP.reshape(-1, 3),
        boxes_2d=(),
    )


def position_map(frame):
    """The frame's int32 map from flat pixel to position in ``covered``,
    -1 where it covers nothing, as ``aggregate_cloud`` fills it."""
    pos = np.full(frame.intrinsics.width * frame.intrinsics.height, -1, dtype=np.int32)
    pos[frame.covered] = np.arange(len(frame.covered), dtype=np.int32)
    return pos


def sample_image(image, u, v):
    """``aggregate._sample_colors`` on a frame whose color image is the
    plain (H, W) or (H, W, C) ``image``: every pixel is covered and
    indexes its own row of the shade table. Scalars in, scalar (or (C,))
    out. The samples must have the bits of ``oracles.palette_sample`` on
    the same palette image."""
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape[:2]
    shades = img.reshape(h * w, -1)
    frame = CameraFrame(
        camera_index=0,
        intrinsics=Intrinsics(1.0, 1.0, 0.0, 0.0, w, h),
        pose=Pose.identity(),
        covered=np.arange(h * w, dtype=np.int32),
        covered_depth=np.ones(h * w),
        covered_tri=np.arange(h * w, dtype=np.int32),
        shades=shades,
        boxes_2d=(),
    )
    got = aggregate._sample_colors(frame, position_map(frame), np.atleast_1d(u), np.atleast_1d(v))
    want = oracles.palette_sample(np.arange(h * w).reshape(h, w), shades, u, v)
    if img.ndim == 2:
        got = got[:, 0]
    if np.ndim(u) == 0:
        got = got[0]
    assert got.tobytes() == np.reshape(want, np.shape(got)).tobytes()
    return got


def as_cloud(positions):
    positions = np.asarray(positions, dtype=np.float64)
    n = len(positions)
    return ScatterCloud(
        positions=positions,
        frame_ids=np.zeros(n, dtype=np.int64),
        pixels=np.zeros((n, 2), dtype=np.int64),
        categories=np.zeros(n, dtype=np.int64),
    )


def assert_same_bytes(got, ref):
    """``(means, variances, counts)`` with the dtypes, shapes and bits of
    the reference's."""
    for name, a, b in zip(("means", "variances", "counts"), got, ref):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def valid_views(point, frames, **kwargs):
    """Per-frame visibility of one point as ``aggregate_cloud`` counts it."""
    cloud = as_cloud([point])
    return [int(aggregate_cloud(cloud, [f], **kwargs)[2][0]) for f in frames]


class TestBilinearSample:
    def test_cell_center(self):
        img = np.array([[0.0, 1.0], [2.0, 3.0]])
        # all four corners weighted 0.25: (0+1+2+3)/4 = 1.5
        assert sample_image(img, 0.5, 0.5) == pytest.approx(1.5, abs=1e-15)

    def test_integer_coordinates_return_texels(self):
        img = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert sample_image(img, 1.0, 0.0) == 1.0
        assert sample_image(img, 0.0, 1.0) == 2.0
        assert sample_image(img, 1.0, 1.0) == 3.0

    def test_edge_interpolation(self):
        img = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert sample_image(img, 0.5, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert sample_image(img, 0.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_reproduces_affine_images_exactly(self):
        # img[y, x] = x + 2y, and bilinear interpolation is exact on
        # functions affine in each coordinate
        img = np.add.outer(2.0 * np.arange(4), np.arange(4))
        for u in np.linspace(0.0, 3.0, 7):
            for v in np.linspace(0.0, 3.0, 7):
                assert sample_image(img, u, v) == pytest.approx(u + 2 * v, abs=1e-12)

    def test_multichannel(self):
        got = sample_image(RAMP, 1.25, 2.75)
        assert got.shape == (3,)
        np.testing.assert_allclose(got, [1.25, 2.75, 4.0], atol=1e-12)

    def test_array_input_matches_scalar_loop(self):
        rng = np.random.default_rng(7)
        u = rng.uniform(0.0, 4.0, size=20)
        v = rng.uniform(0.0, 4.0, size=20)
        batch = sample_image(RAMP, u, v)
        single = np.array([sample_image(RAMP, ui, vi) for ui, vi in zip(u, v)])
        np.testing.assert_array_equal(batch, single)

    def test_out_of_bounds_rejected(self):
        # the package's sampler takes only the coordinates that
        # _frame_projection kept inside the image (TestProjectionSet);
        # the oracle rejects the others itself
        img = np.zeros((2, 2))
        for u, v in [(-0.01, 0.0), (1.01, 0.0), (0.0, -0.01), (0.0, 1.01)]:
            with pytest.raises(ValueError):
                oracles.palette_sample(np.arange(4).reshape(2, 2), img.ravel(), u, v)

    def test_single_column_image(self):
        img = np.array([[4.0], [5.0], [6.0]])
        assert sample_image(img, 0.0, 1.5) == pytest.approx(5.5, abs=1e-15)

    def test_single_row_image(self):
        img = np.array([[4.0, 5.0, 6.0]])
        assert sample_image(img, 1.5, 0.0) == pytest.approx(5.5, abs=1e-15)

    def test_single_pixel_image(self):
        assert sample_image(np.array([[[0.25, 0.5, 1.0]]]), 0.0, 0.0).tolist() == [0.25, 0.5, 1.0]

    def test_palette_matches_image_oracle(self, clean_frames):
        # the package's sampler, which reads the corners among the
        # covered pixels through the position map, gives the bits of the image sampler on the
        # frame's color image, at integer, edge and interior coordinates
        rng = np.random.default_rng(3)
        for frame in clean_frames[::4]:
            w, h = frame.intrinsics.width, frame.intrinsics.height
            u = np.concatenate([rng.uniform(0.0, w - 1, 200), [0.0, w - 1.0, 7.0, 0.0]])
            v = np.concatenate([rng.uniform(0.0, h - 1, 200), [0.0, h - 1.0, 5.0, h - 1.0]])
            got = aggregate._sample_colors(frame, position_map(frame), u, v)
            assert got.tobytes() == oracles.bilinear_sample(frame.color, u, v).tobytes()


class TestProjectionSet:
    """Visibility through ``aggregate_cloud``; pixels, depths and sampled
    rows through the per-point oracle."""

    def rig(self):
        # three cameras behind the origin see it, two in front do not
        offsets = [-2.0, -3.0, -4.0, 2.0, 3.0]
        return [flat_frame((0.0, 0.0, z)) for z in offsets]

    def test_visibility_mask(self):
        assert valid_views((0.0, 0.0, 0.0), self.rig()) == [1, 1, 1, 0, 0]
        _, _, counts = aggregate_cloud(as_cloud([[0.0, 0.0, 0.0]]), self.rig())
        np.testing.assert_array_equal(counts, [3])
        _, mask, _, _ = project_point_views((0.0, 0.0, 0.0), self.rig())
        np.testing.assert_array_equal(mask, [True, True, True, False, False])

    def test_behind_camera_pixels_are_nan(self):
        _, _, pixels, _ = project_point_views((0.0, 0.0, 0.0), self.rig())
        assert np.isnan(pixels[3:]).all()
        assert not np.isnan(pixels[:3]).any()

    def test_depths_are_camera_frame_z(self):
        _, _, _, depths = project_point_views((0.0, 0.0, 0.0), self.rig())
        np.testing.assert_allclose(depths, [2.0, 3.0, 4.0, -2.0, -3.0], atol=1e-12)

    def test_principal_ray_feature(self):
        # the origin projects to the principal point (2, 2) for a camera
        # looking straight at it, so the feature is the exact texel there
        frame = flat_frame((0.0, 0.0, -2.0))
        features, _, pixels, _ = project_point_views((0.0, 0.0, 0.0), [frame])
        np.testing.assert_allclose(pixels[0], [2.0, 2.0], atol=1e-12)
        np.testing.assert_array_equal(features[0], RAMP[2, 2])
        means, _, _ = aggregate_cloud(as_cloud([[0.0, 0.0, 0.0]]), [frame])
        np.testing.assert_array_equal(means[0], RAMP[2, 2])

    def test_out_of_bounds_projection_invalid(self):
        # u = 10 * (-1/2) + 2 = -3, outside [0, 4]
        frame = flat_frame((1.0, 0.0, -2.0))
        assert valid_views((0.0, 0.0, 0.0), [frame]) == [0]
        _, mask, pixels, _ = project_point_views((0.0, 0.0, 0.0), [frame])
        assert not mask[0]
        assert pixels[0, 0] == pytest.approx(-3.0, abs=1e-12)

    def test_invalid_rows_have_zero_features(self):
        features, _, _, _ = project_point_views((0.0, 0.0, 0.0), self.rig())
        np.testing.assert_array_equal(features[3:], 0.0)

    def test_mask_matches_direct_projection(self, clean_frames):
        rng = np.random.default_rng(11)
        points = rng.uniform([-1.0, -1.0, 0.0], [1.0, 1.0, 1.2], size=(25, 3))
        for frame in clean_frames:
            _, _, counts = aggregate_cloud(as_cloud(points), [frame])
            uv, _, in_front = project_points(points, frame.intrinsics, frame.pose)
            w, h = frame.intrinsics.width, frame.intrinsics.height
            with np.errstate(invalid="ignore"):
                inside = (uv >= 0).all(axis=1) & (uv[:, 0] <= w - 1) & (uv[:, 1] <= h - 1)
            np.testing.assert_array_equal(counts, (in_front & inside).astype(np.int64))


class TestMeanVariance:
    """The reduction of ``reduce_views``, one point seen once per row."""

    def test_mean_two_rows(self):
        f = np.array([[1.0, 3.0], [3.0, 5.0]])
        m = np.array([True, True])
        np.testing.assert_array_equal(reduce_rows(f, m)[0], [2.0, 4.0])

    def test_variance_two_rows(self):
        # per channel: ((1-2)^2 + (3-2)^2) / 2 = 1
        f = np.array([[1.0, 3.0], [3.0, 5.0]])
        m = np.array([True, True])
        np.testing.assert_array_equal(reduce_rows(f, m)[1], [1.0, 1.0])

    def test_mask_excludes_rows(self):
        f = np.array([[1.0, 3.0], [1e9, 1e9], [3.0, 5.0]])
        m = np.array([True, False, True])
        mean, variance = reduce_rows(f, m)
        np.testing.assert_array_equal(mean, [2.0, 4.0])
        np.testing.assert_array_equal(variance, [1.0, 1.0])

    def test_single_valid_row(self):
        f = np.array([[4.0, 7.0], [0.0, 0.0]])
        m = np.array([True, False])
        mean, variance = reduce_rows(f, m)
        np.testing.assert_array_equal(mean, [4.0, 7.0])
        np.testing.assert_array_equal(variance, [0.0, 0.0])

    def test_no_valid_rows_gives_zeros(self):
        f = np.ones((3, 4))
        m = np.zeros(3, dtype=bool)
        mean, variance = reduce_rows(f, m)
        np.testing.assert_array_equal(mean, np.zeros(4))
        np.testing.assert_array_equal(variance, np.zeros(4))

    def test_identical_rows_have_zero_variance(self):
        f = np.tile([2.5, -1.0, 8.0], (6, 1))
        m = np.ones(6, dtype=bool)
        np.testing.assert_array_equal(reduce_rows(f, m)[1], [0.0, 0.0, 0.0])

    def test_variance_moment_identity(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(50, 6))
        m = rng.random(50) < 0.7
        m[0] = True
        mean, variance = reduce_rows(f, m)
        second, _ = reduce_rows(f**2, m)
        np.testing.assert_allclose(variance, second - mean**2, atol=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=30)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        f = rng.uniform(-10.0, 10.0, size=(n, 3))
        m = rng.random(n) < 0.6
        perm = rng.permutation(n)
        mean, variance = reduce_rows(f, m)
        mean_p, variance_p = reduce_rows(f[perm], m[perm])
        np.testing.assert_allclose(mean_p, mean, atol=1e-12)
        np.testing.assert_allclose(variance_p, variance, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=30)
    def test_duplication_invariance(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.uniform(-10.0, 10.0, size=(5, 3))
        m = rng.random(5) < 0.6
        f2 = np.vstack([f, f])
        m2 = np.concatenate([m, m])
        mean, variance = reduce_rows(f, m)
        mean_2, variance_2 = reduce_rows(f2, m2)
        np.testing.assert_allclose(mean_2, mean, atol=1e-12)
        np.testing.assert_allclose(variance_2, variance, atol=1e-12)


class TestAggregatePointAndCloud:
    def test_degenerate_point(self):
        # the only camera sits at z = 2 looking away from the point
        means, variances, counts = aggregate_cloud(
            as_cloud([[0.0, 0.0, 0.0]]), [flat_frame((0.0, 0.0, 2.0))]
        )
        np.testing.assert_array_equal(counts, [0])
        np.testing.assert_array_equal(means, np.zeros((1, 3)))
        np.testing.assert_array_equal(variances, np.zeros((1, 3)))

    def test_single_frame(self):
        means, variances, counts = aggregate_cloud(
            as_cloud([[0.0, 0.0, 0.0]]), [flat_frame((0.0, 0.0, -2.0))]
        )
        np.testing.assert_array_equal(counts, [1])
        np.testing.assert_array_equal(means[0], RAMP[2, 2])
        np.testing.assert_array_equal(variances[0], np.zeros(3))

    def test_cloud_matches_per_point(self, clean_frames):
        rng = np.random.default_rng(5)
        pts = rng.uniform([-0.8, -0.8, 0.0], [0.8, 0.8, 1.0], size=(32, 3))
        dense = [oracles.dense_frame(f) for f in clean_frames]
        for occlusion_check, depth_sigma in [(False, 0.0), (True, 0.0), (True, 0.05)]:
            means, variances, counts = aggregate_cloud(
                as_cloud(pts), clean_frames, occlusion_check, depth_sigma
            )
            for k, p in enumerate(pts):
                mean, variance, valid = aggregate_point(
                    p, dense, occlusion_check, depth_sigma
                )
                assert counts[k] == valid
                np.testing.assert_allclose(means[k], mean, atol=1e-12)
                np.testing.assert_allclose(variances[k], variance, atol=1e-12)

    @pytest.mark.parametrize("scene_name", ["clean", "noisy"])
    @pytest.mark.parametrize("occlusion_check", [False, True])
    def test_cloud_matches_color_image_oracle(self, request, scene_name, occlusion_check):
        # byte-equal to the aggregation that sampled (H, W, 3) color images,
        # on the cloud the pipeline scatters from these frames
        scene = request.getfixturevalue(f"{scene_name}_scene")
        frames = request.getfixturevalue(f"{scene_name}_frames")
        cloud = scatter_frames(frames, ScatterConfig())
        assert len(cloud) > 1000
        got = aggregate_cloud(cloud, frames, occlusion_check, scene.depth_noise_sigma)
        ref = oracles.aggregate_cloud(cloud, frames, occlusion_check, scene.depth_noise_sigma)
        assert_same_bytes(got, ref)

    @pytest.mark.parametrize("scene_name", ["clean", "noisy"])
    @pytest.mark.parametrize("occlusion_check", [False, True])
    def test_view_counts_match_per_point_oracle(self, request, scene_name, occlusion_check):
        # the visibility mask checked apart from the package's projection:
        # every point of the scattered cloud, one frame at a time
        scene = request.getfixturevalue(f"{scene_name}_scene")
        frames = request.getfixturevalue(f"{scene_name}_frames")
        sigma = scene.depth_noise_sigma
        cloud = scatter_frames(frames, ScatterConfig())
        counts = aggregate_cloud(cloud, frames, occlusion_check, sigma)[2]
        dense = [oracles.dense_frame(f) for f in frames]
        ref = [
            int(oracles.point_view_mask(p, dense, occlusion_check, sigma)[0].sum())
            for p in cloud.positions
        ]
        np.testing.assert_array_equal(counts, ref)

    @pytest.mark.parametrize("scene_name", ["clean", "noisy"])
    def test_variance_rows_match_per_row_oracle(self, request, scene_name):
        # with occlusion on, as the pipeline runs, each variance row has the
        # bits of the per-row oracle over that point's samples, so a point
        # whose samples agree in every view that sees it gets exactly 0
        scene = request.getfixturevalue(f"{scene_name}_scene")
        frames = request.getfixturevalue(f"{scene_name}_frames")
        sigma = scene.depth_noise_sigma
        cloud = scatter_frames(frames, ScatterConfig())
        _, variances, _ = aggregate_cloud(cloud, frames, True, sigma)
        features = np.zeros((len(frames), len(cloud), 3))
        mask = np.zeros((len(frames), len(cloud)), dtype=bool)
        for i, frame in enumerate(frames):
            ok, uv, _ = oracles._frame_projection(cloud.positions, frame, True, sigma)
            mask[i] = ok
            features[i, ok] = oracles.bilinear_sample(frame.color, uv[ok, 0], uv[ok, 1])
        identical = 0
        for k in range(len(cloud)):
            f, m = features[:, k], mask[:, k]
            assert variances[k].tobytes() == oracles.aggregate_variance(f, m).tobytes(), k
            seen = f[m]
            if len(seen) >= 2 and (seen == seen[0]).all():
                identical += 1
                np.testing.assert_array_equal(variances[k], 0.0)
        assert identical > 0

    @pytest.mark.parametrize("occlusion_check", [False, True])
    def test_frames_seeing_no_point_match_oracle(self, clean_frames, occlusion_check):
        # a camera 10 m out, looking away from the scene, sees none of its
        # points; such frames come first, between others and last
        away_pose = look_at_pose((10.0, 0.0, 1.0), (20.0, 0.0, 1.0))
        away = dataclasses.replace(clean_frames[0], pose=away_pose)
        frames = [away, clean_frames[0], clean_frames[7], away, clean_frames[13], away]
        cloud = scatter_frames(clean_frames[:8], ScatterConfig())
        for views in (frames, [away, away]):
            got = aggregate_cloud(cloud, views, occlusion_check)
            ref = oracles.aggregate_cloud(cloud, views, occlusion_check)
            assert_same_bytes(got, ref)
        # some points are seen by all three real frames, none by a turned-away one
        assert aggregate_cloud(cloud, frames, occlusion_check)[2].max() == 3
        assert not aggregate_cloud(cloud, [away, away], occlusion_check)[2].any()

    @pytest.mark.parametrize("seed", [11, 29])
    @pytest.mark.parametrize("name", ["demo_noisy", "orbit80_clean", "hires_6view"])
    def test_workload_clouds_match_oracle(self, name, seed):
        # byte-equal to the masked projection, image sampler and three-pass
        # reduction of the oracle on each benchmark workload's cloud
        scene, config = load_perfbench("workloads").build(name, seed)
        _, frames, cloud = run_front(scene, config)
        sigma = scene.depth_noise_sigma
        for occlusion_check in (False, True):
            got = aggregate_cloud(cloud, frames, occlusion_check, sigma)
            assert_same_bytes(got, oracles.aggregate_cloud(cloud, frames, occlusion_check, sigma))

    def test_reduce_views_first_seen_later_matches_oracle(self):
        # points 2, 3 and 4 are first seen after the first view, past views
        # that see no point; point 2 gets the same sample in both its
        # views, and point 5 is never seen
        rng = np.random.default_rng(23)
        empty = (np.zeros(0, dtype=np.int64), np.zeros((0, 3)))
        views = [
            (np.array([0, 1]), rng.uniform(0.0, 1.0, (2, 3))),
            empty,
            (np.array([3, 2, 1]), np.asfortranarray(rng.uniform(0.0, 1.0, (3, 3)))),
            empty,
            empty,
            (np.array([2, 4, 0]), rng.uniform(0.0, 1.0, (3, 3))),
        ]
        views[5][1][0] = views[2][1][1]
        got = reduce_views(views, 6, 3)
        assert_same_bytes(got, oracles.reduce_views(views, 6, 3))
        np.testing.assert_array_equal(got[2], [2, 2, 2, 1, 1, 0])
        np.testing.assert_array_equal(got[1][2], 0.0)
        np.testing.assert_array_equal(got[0][5], 0.0)

    @pytest.mark.parametrize("occlusion_check", [False, True])
    def test_frames_covering_no_pixel(self, clean_scene, clean_frames, occlusion_check):
        # a camera looking away covers no pixel and sees no point; a frame
        # with a real pose but nothing covered sees every point in its
        # image, over background, so gathers from an empty covered list
        # give depth 0 and the black row
        away = uncovered_frame(clean_scene)
        bare = dataclasses.replace(
            clean_frames[2],
            covered=away.covered,
            covered_depth=away.covered_depth,
            covered_tri=away.covered_tri,
        )
        cloud = scatter_frames(clean_frames[:4], ScatterConfig())
        frames = [away, clean_frames[0], bare, away]
        got = aggregate_cloud(cloud, frames, occlusion_check)
        assert_same_bytes(got, oracles.dense_aggregate_cloud(cloud, frames, occlusion_check))
        assert not aggregate_cloud(cloud, [away], occlusion_check)[2].any()
        means, _, counts = aggregate_cloud(cloud, [bare], occlusion_check)
        assert counts.sum() > 0 and not means.any()

    def test_empty_frame_list(self):
        means, variances, counts = aggregate_cloud(as_cloud([[0.0, 0.0, 0.0]]), [])
        assert means.shape == (1, 0)
        assert variances.shape == (1, 0)
        np.testing.assert_array_equal(counts, [0])


class TestDenseMapOracle:
    """Depth and triangle gathers from the covered pixels, through the
    position map, give the bits of the dense (H, W) maps they replaced."""

    @pytest.mark.parametrize("seed", [11, 29])
    @pytest.mark.parametrize("name", ["demo_noisy", "orbit80_clean", "hires_6view"])
    def test_workload_aggregation(self, name, seed):
        scene, config = load_perfbench("workloads").build(name, seed, reduced=True)
        _, frames, cloud = run_front(scene, config)
        sigma = scene.depth_noise_sigma
        for occlusion_check in (False, True):
            got = aggregate_cloud(cloud, frames, occlusion_check, sigma)
            assert got[2].sum() > len(cloud)
            assert_same_bytes(got, oracles.dense_aggregate_cloud(cloud, frames, occlusion_check, sigma))

    def test_mixed_sizes_and_uncovered_frames_match_oracle(self):
        # frames of two image sizes, a larger after a smaller and a
        # smaller after a larger, and frames covering nothing after frames
        # that cover pixels: the one position map is sized to the largest
        # frame and keeps no position of the frame before
        large = Intrinsics(fx=240.0, fy=240.0, cx=159.5, cy=119.5, width=320, height=240)
        scene = demo_scene(noise_sigma=0.05, outlier_rate=0.1, steps=6)
        sizes = [DEFAULT_INTRINSICS, DEFAULT_INTRINSICS, large, DEFAULT_INTRINSICS, large, DEFAULT_INTRINSICS]
        cameras = tuple(SceneCamera(intr, c.pose) for intr, c in zip(sizes, scene.cameras))
        scene = dataclasses.replace(scene, cameras=cameras)
        boxes = project_gt_boxes(scene)
        seen = [make_frame(scene, i, stage_rng(scene.rng_seed, "perturb", i), boxes[i]) for i in range(6)]
        away = uncovered_frame(scene)
        frames = [*seen[:3], away, *seen[3:5], away, seen[5]]
        cloud = scatter_frames(seen, ScatterConfig())
        for occlusion_check in (False, True):
            got = aggregate_cloud(cloud, frames, occlusion_check, 0.05)
            assert got[2].max() == 6
            assert_same_bytes(got, oracles.dense_aggregate_cloud(cloud, frames, occlusion_check, 0.05))


def occluder_frame():
    """Unit cube ahead of an identity camera; near face at z = 2."""
    obj = SceneObject(OrientedBox((0.0, 0.0, 2.5), (1.0, 1.0, 1.0)))
    cam = SceneCamera(SIMPLE, Pose.identity())
    scene = SceneSpec(objects=(obj,), cameras=(cam,))
    return make_frame(scene, 0, np.random.default_rng(0), project_gt_boxes(scene)[0])


class TestOcclusionCheck:
    def test_flag_off_keeps_hidden_point(self):
        frame = occluder_frame()
        assert valid_views((0.0, 0.0, 4.0), [frame], occlusion_check=False) == [1]

    def test_flag_on_drops_hidden_point(self):
        # point depth 4 exceeds the rendered 2.0 by more than the 0.01 floor
        frame = occluder_frame()
        assert valid_views((0.0, 0.0, 4.0), [frame], occlusion_check=True) == [0]

    def test_tolerance_keeps_near_surface_point(self):
        frame = occluder_frame()
        assert valid_views((0.0, 0.0, 2.005), [frame], occlusion_check=True) == [1]

    def test_depth_sigma_widens_tolerance(self):
        frame = occluder_frame()
        assert valid_views((0.0, 0.0, 2.02), [frame], occlusion_check=True) == [0]
        # 3 * 0.05 = 0.15 tolerance admits the same point
        kept = valid_views((0.0, 0.0, 2.02), [frame], occlusion_check=True, depth_sigma=0.05)
        assert kept == [1]

    def test_background_never_occludes(self):
        # (1, 0, 2.5) projects to u = 90, off the cube silhouette, where
        # the rendered depth is 0
        frame = occluder_frame()
        assert valid_views((1.0, 0.0, 2.5), [frame], occlusion_check=True) == [1]
        assert frame.depth[50, 90] == 0.0


class TestOnehot:
    def test_basic(self):
        np.testing.assert_array_equal(
            append_onehot(np.array([5.0, 6.0]), 1, 3), [5.0, 6.0, 0.0, 1.0, 0.0]
        )

    def test_unknown_category_appends_zeros(self):
        np.testing.assert_array_equal(
            append_onehot(np.array([5.0, 6.0]), -1, 3), [5.0, 6.0, 0.0, 0.0, 0.0]
        )

    def test_single_category(self):
        np.testing.assert_array_equal(append_onehot(np.array([5.0, 6.0]), 0, 1), [5.0, 6.0, 1.0])

    def test_rejections(self):
        with pytest.raises(ValueError):
            append_onehot(np.array([1.0]), 3, 3)
        with pytest.raises(ValueError):
            append_onehot(np.array([1.0]), -2, 3)
        with pytest.raises(ValueError):
            append_onehot(np.array([1.0]), 0, 0)

    def test_compose_rows(self):
        means = np.array([[1.0, 2.0], [3.0, 4.0]])
        variances = np.array([[5.0, 6.0], [7.0, 8.0]])
        out = compose_features(means, variances, np.array([1, -1]), 2)
        np.testing.assert_array_equal(
            out, [[1.0, 2.0, 5.0, 6.0, 0.0, 1.0], [3.0, 4.0, 7.0, 8.0, 0.0, 0.0]]
        )

    def test_compose_matches_append(self):
        rng = np.random.default_rng(2)
        means = rng.normal(size=(6, 3))
        variances = rng.normal(size=(6, 3)) ** 2
        cats = np.array([0, 1, 2, -1, 1, 0])
        out = compose_features(means, variances, cats, 3)
        for k in range(6):
            row = append_onehot(np.concatenate([means[k], variances[k]]), int(cats[k]), 3)
            np.testing.assert_array_equal(out[k], row)

    def test_compose_rejects_bad_category(self):
        with pytest.raises(ValueError):
            compose_features(np.zeros((1, 2)), np.zeros((1, 2)), np.array([5]), 3)
        with pytest.raises(ValueError):
            compose_features(np.zeros((1, 2)), np.zeros((1, 2)), np.array([-2]), 3)
        with pytest.raises(ValueError):
            compose_features(np.zeros((1, 2)), np.zeros((1, 2)), np.array([0]), 0)


class TestVarianceSeparatesSurfaceFromFreeSpace:
    def test_median_variance_gap(self, clean_scene, clean_frames):
        rng = np.random.default_rng(17)
        surface = sample_scene_surface(clean_scene, 0.1, rng)
        assert len(surface) >= 1000

        candidates = rng.uniform([-0.9, -0.9, 0.05], [0.9, 0.9, 1.1], size=(4000, 3))
        labeling = label_points(candidates, surface, 0.2)
        free = candidates[~labeling.labels]
        assert len(free) >= 1000

        _, var_surface, n_surface = aggregate_cloud(as_cloud(surface), clean_frames)
        _, var_free, n_free = aggregate_cloud(as_cloud(free), clean_frames)
        assert np.all(n_surface > 0) and np.all(n_free > 0)

        med_surface = float(np.median(var_surface.mean(axis=1)))
        med_free = float(np.median(var_free.mean(axis=1)))
        # without visibility filtering back-facing views contaminate the
        # surface statistics, but the ordering still holds
        # (measured 0.0104 vs 0.0191 on this fixture)
        assert med_free > med_surface

        # restricting to frames that actually see each point makes surface
        # colors view-consistent up to interpolation round-off
        _, vs_occ, _ = aggregate_cloud(as_cloud(surface), clean_frames, occlusion_check=True)
        _, vf_occ, _ = aggregate_cloud(as_cloud(free), clean_frames, occlusion_check=True)
        assert float(np.median(vs_occ.mean(axis=1))) < 1e-9
        assert float(np.median(vf_occ.mean(axis=1))) > 1e-3
