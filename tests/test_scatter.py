"""Point scattering: strides, radius dedup, capping."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    HashGridAccumulator,
    SpatialHashGrid,
    TreeAccumulator,
    box_candidates,
    brute_nn_distances,
    dense_candidates,
    point_mesh_distance,
)
from pointscatter import scatter
from pointscatter.scatter import (
    ScatterCloud,
    ScatterConfig,
    box_sampling_stride,
    cap_points,
    empty_cloud,
    scatter_frames,
)
from pointscatter.scene import (
    Box2D,
    SceneCamera,
    SceneObject,
    SceneSpec,
    demo_scene,
)
from pointscatter.camera import Intrinsics, look_at_pose
from pointscatter.boxes import OrientedBox
from pointscatter.neighbors import CellGrid
from pointscatter.pipeline import run_front

from conftest import IDENTITY, frame_of, gt_boxes, load_perfbench, render_all, uncovered_frame


def noiseless_frame(scene, index=0):
    return frame_of(scene, index, np.random.default_rng(0), gt_boxes(scene)[index])


class TestStride:
    def test_direct_evaluation(self):
        # 500 * 0.04 / 2 = 10
        assert box_sampling_stride(500.0, 0.04, 2.0) == 10

    def test_floors_at_one(self):
        # 500 * 0.04 / 40 = 0.5, clamped
        assert box_sampling_stride(500.0, 0.04, 40.0) == 1

    def test_inverse_proportional_to_depth(self):
        assert box_sampling_stride(500.0, 0.04, 1.0) == 20

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            box_sampling_stride(500.0, 0.04, 0.0)
        with pytest.raises(ValueError):
            box_sampling_stride(0.0, 0.04, 2.0)

    def test_median_matches_numpy(self):
        # the box median the stride is taken from has np.median's bits on
        # odd and even counts, with and without repeated depths
        rng = np.random.default_rng(17)
        sizes = [1, 2, 3, 4, 600, 601, *rng.integers(1, 5001, size=400)]
        for i, n in enumerate(sizes):
            depths = rng.uniform(0.2, 6.4, size=n)
            if i % 2:
                depths = np.round(depths, 1)
            got = scatter._median(depths)
            assert np.float64(got).tobytes() == np.median(depths).tobytes(), n


class TestSpatialHashGrid:
    def test_empty_grid_has_no_neighbors(self):
        grid = SpatialHashGrid(0.1)
        assert not grid.has_neighbor_within((0.0, 0.0, 0.0))

    def test_strictly_within(self):
        grid = SpatialHashGrid(0.1)
        grid.insert((0.0, 0.0, 0.0))
        assert grid.has_neighbor_within((0.05, 0.0, 0.0))
        # exactly at the radius does not count
        assert not grid.has_neighbor_within((0.1, 0.0, 0.0))

    def test_rejects_oversized_query(self):
        grid = SpatialHashGrid(0.1)
        with pytest.raises(ValueError):
            grid.has_neighbor_within((0.0, 0.0, 0.0), radius=0.2)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            SpatialHashGrid(0.0)

    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(0, 10_000),
        count=st.integers(1, 120),
        radius=st.floats(0.01, 0.5),
    )
    def test_matches_brute_force(self, seed, count, radius):
        rng = np.random.default_rng(seed)
        stored = rng.uniform(-1, 1, size=(count, 3))
        grid = SpatialHashGrid(radius)
        for p in stored:
            grid.insert(p)
        queries = rng.uniform(-1, 1, size=(25, 3))
        nn = brute_nn_distances(queries, stored)
        for q, d in zip(queries, nn):
            assert grid.has_neighbor_within(q) == (d < radius)


def assert_same_cloud(got, want, context=()):
    """Each column a candidate cloud carries has the same dtype, shape and
    bytes in both clouds."""
    for name in ("positions", "pixels", "frame_ids", "categories"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), (*context, name)
        assert a.tobytes() == b.tobytes(), (*context, name)


def per_frame_counts(cloud, frames):
    """The points ``cloud`` took from each frame, by its camera index."""
    ids = [f.camera_index for f in frames]
    assert len(set(ids)) == len(ids)
    return np.bincount(cloud.frame_ids, minlength=max(ids) + 1)[ids].tolist()


class TestMatchesHashGridOracle:
    """The vectorized dedup accepts exactly the rows the per-candidate
    hash-grid scan accepts, in the same order, in the pipeline's runs of
    frames."""

    def assert_matches(self, frames, config):
        ref = HashGridAccumulator(config)
        counts = [ref.add_frame(f) for f in frames]
        got = scatter_frames(frames, config)
        assert len(got) == len(ref) == sum(counts)
        assert_same_cloud(got, ref.cloud())

    @pytest.mark.parametrize("radius", [0.02, 0.04, 0.08])
    def test_clean_scene(self, clean_frames, radius):
        self.assert_matches(clean_frames, ScatterConfig(radius=radius))

    @pytest.mark.parametrize("radius", [0.02, 0.04, 0.08])
    def test_noisy_scene(self, noisy_frames, radius):
        self.assert_matches(noisy_frames, ScatterConfig(radius=radius))

    def test_orbit80(self):
        self.assert_matches(render_all(demo_scene(steps=80)), ScatterConfig(radius=0.04))

    def test_overlapping_boxes(self, noisy_frames):
        # each frame gets a copy of its first box, which samples the same
        # pixels again, and a shifted box of another category
        frames = []
        for frame in noisy_frames[:6]:
            b = frame.boxes_2d[0]
            shifted = Box2D(7, b.u_min + 3.5, b.v_min + 2.0, b.u_max + 3.5, b.v_max + 2.0)
            frames.append(dataclasses.replace(frame, boxes_2d=(b, *frame.boxes_2d, shifted)))
        self.assert_matches(frames, ScatterConfig(radius=0.04))

    def test_frames_without_valid_depth(self, clean_scene, clean_frames):
        # a camera looking away covers no pixel; given another frame's
        # boxes, each box's rows are an empty slice of nothing
        blank = dataclasses.replace(uncovered_frame(clean_scene), boxes_2d=clean_frames[1].boxes_2d)
        assert len(blank.boxes_2d) > 0 and len(blank.covered) == 0
        assert len(scatter._candidates(blank, 0.04)) == 0
        no_boxes = dataclasses.replace(clean_frames[2], boxes_2d=())
        frames = [blank, clean_frames[0], no_boxes, blank, clean_frames[3]]
        self.assert_matches(frames, ScatterConfig(radius=0.04))

    def test_points_exactly_r_apart_are_kept(self):
        # 0.5 and its square are exact; each query lies exactly r from the
        # earlier point, across a face of the 0.5 m cells, so only the
        # strict test decides
        r = 0.5
        earlier = np.array([[0.25, -0.25, 0.0]])
        queries = np.array([[0.75, -0.25, 0.0], [0.25, -0.75, 0.0], [0.5, -0.25, 0.0]])
        assert CellGrid(r, earlier).near_any(queries, r * r).tolist() == [False, False, True]
        row = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 0.75], [0.0, 0.0, 1.0]])
        # 0.75 falls to the kept 0.5, so it cannot reject 1.0; the pairs
        # (0, 0.5) and (0.5, 1.0) lie exactly r apart
        assert scatter._greedy_keep(row, r).tolist() == [True, True, False, True]


class TestMatchesTreeOracle:
    """The grid's dedup accepts the rows the KD-tree dedup it replaced
    accepted, in runs of one frame, on the reduced workloads."""

    @pytest.mark.parametrize("seed", [11, 29])
    @pytest.mark.parametrize("name", ["demo_noisy", "orbit80_clean", "hires_6view"])
    def test_workload_frames(self, name, seed, monkeypatch):
        scene, config = load_perfbench("workloads").build(name, seed, reduced=True)
        frames = render_all(scene)
        ref = TreeAccumulator(config.scatter)
        counts = [ref.add_frame(f) for f in frames]
        monkeypatch.setattr(scatter, "RUN_FRAMES", 1)
        got = scatter_frames(frames, config.scatter)
        assert len(got) > 100
        assert per_frame_counts(got, frames) == counts
        assert_same_cloud(got, ref.cloud())


@functools.cache
def workload_frames(name, seed):
    """The frames and scatter config of a reduced workload."""
    scene, config = load_perfbench("workloads").build(name, seed, reduced=True)
    return render_all(scene), config.scatter


@functools.cache
def oracle_runs(name, seed, oracle):
    """The per-frame accepted counts and the cloud of an oracle
    accumulator over a reduced workload's frames."""
    frames, config = workload_frames(name, seed)
    ref = oracle(config)
    return [ref.add_frame(f) for f in frames], ref.cloud()


class TestRunsMatchOracles:
    """Dedup of a run of frames accepts the rows that frame-by-frame dedup
    accepts, whatever the run length: the same cloud, and on frames of
    distinct cameras the same count from each frame, as the KD-tree and
    hash-grid oracles."""

    @pytest.mark.parametrize("oracle", [TreeAccumulator, HashGridAccumulator], ids=["tree", "hashgrid"])
    @pytest.mark.parametrize("run", [1, 2, 3, 4, 0], ids=["1", "2", "3", "4", "all"])
    @pytest.mark.parametrize("seed", [11, 29])
    @pytest.mark.parametrize("name", ["demo_noisy", "orbit80_clean", "hires_6view"])
    def test_workload_runs(self, name, seed, run, oracle, monkeypatch):
        frames, config = workload_frames(name, seed)
        counts, cloud = oracle_runs(name, seed, oracle)
        assert len(cloud) > 100
        monkeypatch.setattr(scatter, "RUN_FRAMES", run or len(frames))
        got = scatter_frames(frames, config)
        assert per_frame_counts(got, frames) == counts
        assert_same_cloud(got, cloud)

    @pytest.mark.parametrize("oracle", [TreeAccumulator, HashGridAccumulator], ids=["tree", "hashgrid"])
    @pytest.mark.parametrize("run", [2, 3])
    def test_repeated_frame(self, noisy_frames, run, oracle, monkeypatch):
        # frame 0 again right after itself, inside one run, and again after
        # frame 1, in the next run for runs of two and in the same for three
        a, b = noisy_frames[:2]
        frames = [a, a, b, a]
        config = ScatterConfig(radius=0.04)
        ref = oracle(config)
        counts = [ref.add_frame(f) for f in frames]
        assert counts[0] > 0 and counts[1] == counts[3] == 0
        monkeypatch.setattr(scatter, "RUN_FRAMES", run)
        got = scatter_frames(frames, config)
        assert len(got) == sum(counts)
        assert_same_cloud(got, ref.cloud())

    def test_scatter_frames_adds_runs_of_run_frames(self, noisy_frames, monkeypatch):
        # each run's candidates are built, then the grid of the earlier
        # runs' points is queried once
        events = []
        candidates, near_any = scatter._candidates, CellGrid.near_any
        monkeypatch.setattr(scatter, "_candidates", lambda *args: events.append("c") or candidates(*args))
        monkeypatch.setattr(CellGrid, "near_any", lambda *args: events.append("q") or near_any(*args))
        config = ScatterConfig(radius=0.04)
        cloud = scatter_frames(noisy_frames[:10], config)
        run = scatter.RUN_FRAMES
        assert "".join(events) == "".join("c" * min(run, 10 - i) + "q" for i in range(0, 10, run))
        ref = TreeAccumulator(config)
        for frame in noisy_frames[:10]:
            ref.add_frame(frame)
        assert cloud.positions.tobytes() == ref.cloud().positions.tobytes()


class TestCandidatesMatchOracle:
    """One back-projection per frame gives the bits of one per box."""

    @staticmethod
    def assert_matches(frames, radius=0.04):
        for k, frame in enumerate(frames):
            want = box_candidates(frame, frame.camera_index, radius)
            assert_same_cloud(scatter._candidates(frame, radius), want, (k,))

    def test_clean_demo_frames(self, clean_frames):
        self.assert_matches(clean_frames)

    def test_noisy_demo_frames(self, noisy_frames):
        self.assert_matches(noisy_frames)
        self.assert_matches(noisy_frames[:4], radius=0.01)

    def test_640x480_frame(self):
        intr = Intrinsics(fx=480.0, fy=480.0, cx=319.5, cy=239.5, width=640, height=480)
        scene = demo_scene(steps=6)
        scene = dataclasses.replace(scene, cameras=(SceneCamera(intr, scene.cameras[2].pose),))
        frame = noiseless_frame(scene)
        assert len(frame.boxes_2d) == 3
        self.assert_matches([frame])

    def test_off_screen_and_missing_boxes(self, clean_frames):
        frame = clean_frames[5]
        w, h = frame.intrinsics.width, frame.intrinsics.height
        off = Box2D(4, w + 2.0, 10.0, w + 30.0, 40.0)
        partly = Box2D(5, w - 12.5, -8.0, w + 20.0, 30.0)
        above = Box2D(6, 10.0, -40.0, 50.0, -1.0)
        frames = [
            dataclasses.replace(frame, boxes_2d=(off, *frame.boxes_2d, partly, above)),
            dataclasses.replace(frame, boxes_2d=(off, above)),
            dataclasses.replace(frame, boxes_2d=()),
        ]
        self.assert_matches(frames)
        assert len(scatter._candidates(frames[1], 0.04)) == len(scatter._candidates(frames[2], 0.04)) == 0


class TestDenseMapOracle:
    """Candidates read from the covered pixels give the bits of those read
    from the dense depth map, and so does the whole scattered cloud."""

    @pytest.mark.parametrize("radius", [0.01, 0.04, 0.08])
    def test_noisy_demo_candidates(self, noisy_frames, radius):
        for frame in noisy_frames:
            want = dense_candidates(frame, frame.camera_index, radius)
            assert_same_cloud(scatter._candidates(frame, radius), want)

    @pytest.mark.parametrize("seed", [11, 29])
    @pytest.mark.parametrize("name", ["demo_noisy", "orbit80_clean", "hires_6view"])
    def test_workload_cloud(self, name, seed, monkeypatch):
        scene, config = load_perfbench("workloads").build(name, seed, reduced=True)
        _, frames, _ = run_front(scene, config)
        got = scatter_frames(frames, config.scatter)
        assert len(got) > 100
        monkeypatch.setattr(
            scatter, "_candidates", lambda frame, radius: dense_candidates(frame, frame.camera_index, radius)
        )
        assert_same_cloud(got, scatter_frames(frames, config.scatter))


class TestNearAnyTies:
    """Dedup decides the strict ``d2 < r * r`` however many neighbours tie."""

    @staticmethod
    def lattice(r, shrink):
        # a lattice with holes: each hole has up to six lattice neighbours
        # tied at the spacing, r itself (up to the rounding of the
        # coordinates) or just below it
        idx = np.stack(np.meshgrid(*[np.arange(6)] * 3, indexing="ij"), -1).reshape(-1, 3)
        lattice = idx * (r * shrink)
        hole = idx.sum(axis=1) % 3 == 0
        return lattice[~hole], lattice[hole]

    @staticmethod
    def brute(queries, points, r):
        """Strict test on the squared distance summed x, y, z, per query."""
        out = []
        for q in queries:
            d = points - q
            out.append(bool((d[:, 0] ** 2 + d[:, 1] ** 2 + d[:, 2] ** 2 < r * r).any()))
        return out

    @pytest.mark.parametrize("r", [0.04, 0.5])
    @pytest.mark.parametrize("shrink", [1.0, 1.0 - 1e-12])
    def test_lattice_matches_brute_force(self, r, shrink):
        points, queries = self.lattice(r, shrink)
        brute = self.brute(queries, points, r)
        assert CellGrid(r, points).near_any(queries, r * r).tolist() == brute
        if shrink == 1.0 and r == 0.5:
            # exact coordinates: every hole's neighbours lie exactly r away
            assert not any(brute)
        elif shrink < 1.0:
            assert all(brute)
        if r == 0.04 and shrink == 1.0:
            # the rounded coordinates put some of a hole's tied neighbours
            # just below r and others at or above it
            assert any(brute) and not all(brute)


class TestScatterFrames:
    def frontal_plane_scene(self, face_depth=2.0):
        # large thin slab facing the camera: one planar visible face
        slab = SceneObject(OrientedBox((0.0, 0.0, face_depth + 0.01), (1.0, 1.0, 0.02)))
        intr = Intrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100)
        cam = SceneCamera(intr, IDENTITY)
        return SceneSpec(objects=(slab,), cameras=(cam,))

    def test_planar_grid_spacing(self):
        # face depth chosen so the rounded stride back-projects to a
        # pixel spacing strictly above the dedup radius (stride 2 at
        # 2.22 m and fx=100 gives 0.0444 m)
        frame = noiseless_frame(self.frontal_plane_scene(face_depth=2.22))
        cloud = scatter_frames([frame], ScatterConfig(radius=0.04))
        assert len(cloud) > 10
        # nearest-neighbor spacing stays near the target radius
        d = np.full(len(cloud), np.inf)
        pos = cloud.positions
        for i in range(len(pos)):
            delta = np.linalg.norm(pos - pos[i], axis=1)
            delta[i] = np.inf
            d[i] = delta.min()
        assert np.median(d) == pytest.approx(0.04, rel=0.25)

    def test_rescatter_adds_nothing(self, monkeypatch):
        frame = noiseless_frame(self.frontal_plane_scene())
        config = ScatterConfig(radius=0.04)
        once = len(scatter_frames([frame], config))
        assert once > 0
        # the repeat in the next run, then inside the same one
        for run in (1, scatter.RUN_FRAMES):
            monkeypatch.setattr(scatter, "RUN_FRAMES", run)
            assert len(scatter_frames([frame, frame], config)) == once

    def test_disjoint_views_union(self):
        # two slabs back to back, each camera sees exactly one
        intr = Intrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100)
        near = SceneObject(OrientedBox((0.0, -5.0, 0.5), (1.0, 1.0, 1.0)), albedo=(0.9, 0.1, 0.1))
        far = SceneObject(OrientedBox((0.0, 5.0, 0.5), (1.0, 1.0, 1.0)), albedo=(0.1, 0.9, 0.1))
        cam_a = SceneCamera(intr, look_at_pose((0.0, -8.0, 0.5), (0.0, -5.0, 0.5)))
        cam_b = SceneCamera(intr, look_at_pose((0.0, 8.0, 0.5), (0.0, 5.0, 0.5)))
        scene = SceneSpec(objects=(near, far), cameras=(cam_a, cam_b))
        frames = [noiseless_frame(scene, 0), noiseless_frame(scene, 1)]
        config = ScatterConfig(radius=0.04)
        combined = scatter_frames(frames, config)
        alone = [scatter_frames([f], config) for f in frames]
        assert len(combined) == len(alone[0]) + len(alone[1])

    def test_surface_adherence(self, clean_scene, clean_frames):
        cloud = scatter_frames(clean_frames[:4], ScatterConfig(radius=0.04))
        triangles = np.concatenate([o.mesh() for o in clean_scene.objects])
        assert point_mesh_distance(cloud.positions, triangles).max() < 1e-6

    def test_acceptance_order_spacing(self, clean_frames):
        config = ScatterConfig(radius=0.04)
        cloud = scatter_frames(clean_frames[:4], config)
        pos = cloud.positions
        # replay: every point must clear all points accepted before it
        for i in range(1, len(pos)):
            gap = np.linalg.norm(pos[:i] - pos[i], axis=1).min()
            assert gap >= config.radius * (1 - 1e-9)

    def test_coverage_bound_single_face(self):
        frame = noiseless_frame(self.frontal_plane_scene())
        cloud = scatter_frames([frame], ScatterConfig(radius=0.04))
        # one fully visible 1 m^2 face: grid-count bound A / r^2 = 625
        assert 0.25 * 625 <= len(cloud) <= 4 * 625

    def test_provenance_columns(self, clean_frames):
        frame = clean_frames[2]
        cloud = scatter_frames([frame], ScatterConfig(radius=0.04))
        assert set(np.unique(cloud.frame_ids)) == {2}
        assert set(np.unique(cloud.categories)) <= {0, 1, 2}
        for box in frame.boxes_2d:
            inside = (
                (cloud.pixels[:, 0] >= box.u_min)
                & (cloud.pixels[:, 0] <= box.u_max)
                & (cloud.pixels[:, 1] >= box.v_min)
                & (cloud.pixels[:, 1] <= box.v_max)
            )
            assert inside.any()


class TestCap:
    def make_cloud(self, count):
        rng = np.random.default_rng(count)
        return ScatterCloud(
            positions=rng.normal(size=(count, 3)),
            frame_ids=np.arange(count, dtype=np.int64),
            pixels=rng.uniform(0, 99, size=(count, 2)),
            categories=np.zeros(count, dtype=np.int64),
        )

    def test_under_cap_identity(self):
        cloud = self.make_cloud(500)
        capped = cap_points(cloud, 1000, np.random.default_rng(0))
        assert np.array_equal(capped.positions, cloud.positions)

    def test_subset_of_exact_size(self):
        cloud = self.make_cloud(1000)
        capped = cap_points(cloud, 100, np.random.default_rng(0))
        assert len(capped) == 100
        rows = {tuple(p) for p in cloud.positions}
        assert all(tuple(p) in rows for p in capped.positions)

    def test_deterministic_given_seed(self):
        cloud = self.make_cloud(1000)
        a = cap_points(cloud, 100, np.random.default_rng(5))
        b = cap_points(cloud, 100, np.random.default_rng(5))
        assert np.array_equal(a.positions, b.positions)

    def test_idempotent(self):
        cloud = self.make_cloud(1000)
        once = cap_points(cloud, 100, np.random.default_rng(5))
        twice = cap_points(once, 100, np.random.default_rng(5))
        assert np.array_equal(once.positions, twice.positions)
        assert np.array_equal(once.frame_ids, twice.frame_ids)

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            cap_points(self.make_cloud(10), 0, np.random.default_rng(0))


class TestCloudContainer:
    def test_empty_cloud(self):
        assert len(empty_cloud()) == 0

    def test_select_preserves_columns(self):
        cloud = dataclasses.replace(
            TestCap().make_cloud(20), features=np.ones((20, 4)), scores=np.full(20, 0.5)
        )
        sub = cloud.select(np.array([3, 7, 11]))
        assert len(sub) == 3
        assert np.array_equal(sub.positions, cloud.positions[[3, 7, 11]])
        assert sub.features.shape == (3, 4) and sub.scores.shape == (3,)

    @pytest.mark.parametrize(
        "column, value",
        [
            ("frame_ids", np.zeros(4, dtype=np.int64)),
            ("pixels", np.zeros((6, 2))),
            ("categories", np.zeros(0, dtype=np.int64)),
            ("features", np.ones((4, 3))),
            ("scores", np.full(6, 0.5)),
        ],
    )
    def test_rejects_wrong_row_count(self, column, value):
        columns = {
            "positions": np.zeros((5, 3)),
            "frame_ids": np.zeros(5, dtype=np.int64),
            "pixels": np.zeros((5, 2)),
            "categories": np.zeros(5, dtype=np.int64),
        }
        with pytest.raises(ValueError, match=f"^{column} has {len(value)} rows for 5 points$"):
            ScatterCloud(**(columns | {column: value}))
        with pytest.raises(ValueError, match=column):
            dataclasses.replace(ScatterCloud(**columns), **{column: value})

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScatterConfig(radius=0.0)
        with pytest.raises(ValueError):
            ScatterConfig(radius=0.04, max_points=0)
