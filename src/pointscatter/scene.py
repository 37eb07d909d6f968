"""Synthetic scene simulator: box objects, depth/color rendering, noise.

Scenes contain yaw-oriented box objects with per-object albedo and a set
of pinhole cameras. Rendering casts one ray per pixel center and keeps
the nearest ray-triangle intersection; depth maps store camera-frame z
(0 marks no hit). Every triangle has one flat color, its Lambert-shaded
albedo under a single fixed directional light plus an ambient term, so
a view's color is the triangle hit at each pixel (-1 marks no hit)
plus the scene's (T+1, 3) shade table, whose last, black row is what -1
picks. A ``CameraFrame`` keeps only the pixels its view covers, with
the depth and triangle index at each, and nothing for the pixels it
does not cover; ``CameraFrame.depth``, ``tri_index`` and ``color``
build the dense maps and the RGB image on demand. The triangle stack,
its owning objects and the shade table depend only on the scene, so
each scene builds them once (``SceneSpec.geometry``) and every view,
GT box projection and surface sample shares them. A frame has one
route: one stacked product projects the triangle vertices into every
camera (``project_scene``), the GT boxes of every camera
(``project_gt_boxes``) and the per-view constants of one ``RayCaster``
for every keyframe come from that one projection, and ``make_frame``
takes each keyframe's maps from that caster, which casts the keyframes
in turn, reusing its maps and ray blocks. Each triangle is tested only
against the rays inside its projected bounding box, widened by one
pixel and clipped to the image; a triangle with a vertex at or behind
the camera plane is tested against every ray. Every object is a closed,
outward-wound box shell, and a view sees only its visible surface: the
caster returns the nearest hit, lowest triangle index on ties, among the
triangles the view keeps. A view keeps every triangle of an object with
a vertex at or behind the camera plane, and of every other object the
triangles that are not strictly back-facing (back-face culling). A
frame's depth noise and outliers stay within the sensor's fixed
``DEPTH_RANGE``. Everything is deterministic: identical scene spec and
seed give bit-identical frames.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .boxes import OrientedBox
from .camera import BEHIND_CAMERA_EPS, Intrinsics, Pose, look_at_pose, project_views
from .checks import _check, _entries, _entry
from .meshes import _BOX_FACES, box_shell, triangle_normals

# Fixed directional light (unit vector pointing from the scene toward
# the light) and ambient floor used by the shader.
LIGHT_DIR = np.array([0.4, 0.25, 1.0]) / np.linalg.norm([0.4, 0.25, 1.0])
AMBIENT = 0.25

DEFAULT_INTRINSICS = Intrinsics(fx=120.0, fy=120.0, cx=79.5, cy=59.5, width=160, height=120)

# the depth sensor's range in metres: perturbed depths are clipped into
# it and outliers drawn from it
DEPTH_RANGE = (0.2, 6.4)

# the least pixel area of a GT 2D box: a smaller clipped hull gives none
MIN_BOX_PIXELS = 16.0


@dataclass(frozen=True)
class SceneObject:
    """A box-shaped scene object with a flat albedo."""

    box: OrientedBox
    albedo: tuple[float, float, float] = (0.7, 0.7, 0.7)

    def __post_init__(self):
        _check(self, albedo=("fraction", 3))
        object.__setattr__(self, "albedo", tuple(map(float, self.albedo)))

    def mesh(self) -> np.ndarray:
        """(12, 3, 3) closed triangle shell of the box."""
        return box_shell(self.box)


@dataclass(frozen=True)
class SceneCamera:
    intrinsics: Intrinsics
    pose: Pose


class SceneGeometry(NamedTuple):
    """What every view of a scene shares.

    ``triangles`` (T, 3, 3) stacks the objects' shells in object order,
    ``owner`` (T,) is the object index of each triangle, and ``shades``
    (T+1, 3) is the flat color of each triangle with a black last row,
    which triangle index -1 picks.
    """

    triangles: np.ndarray
    owner: np.ndarray
    shades: np.ndarray


@dataclass(frozen=True)
class SceneSpec:
    objects: tuple[SceneObject, ...]
    cameras: tuple[SceneCamera, ...]
    rng_seed: int = 0
    depth_noise_sigma: float = 0.0
    outlier_rate: float = 0.0

    def __post_init__(self):
        _check(self, rng_seed="integer", depth_noise_sigma="non-negative", outlier_rate="fraction")
        object.__setattr__(self, "rng_seed", int(self.rng_seed))
        object.__setattr__(self, "depth_noise_sigma", float(self.depth_noise_sigma))
        object.__setattr__(self, "outlier_rate", float(self.outlier_rate))
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "cameras", tuple(self.cameras))

    def num_categories(self) -> int:
        if not self.objects:
            return 0
        return max(o.box.category for o in self.objects) + 1

    @functools.cached_property
    def geometry(self) -> SceneGeometry:
        """The scene's read-only triangle stack, owner index and shade
        table, built on first access and shared from then on."""
        shells = [obj.mesh() for obj in self.objects]
        owner = np.repeat(np.arange(len(shells), dtype=np.int64), [len(s) for s in shells])
        triangles = np.concatenate([np.zeros((0, 3, 3)), *shells])
        shades = np.concatenate([_shade_triangles(self, triangles, owner), np.zeros((1, 3))])
        for array in (triangles, owner, shades):
            array.flags.writeable = False
        return SceneGeometry(triangles, owner, shades)


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned 2D box in pixel coordinates, bounds inclusive."""

    category: int
    u_min: float
    v_min: float
    u_max: float
    v_max: float


@dataclass(frozen=True, eq=False)
class CameraFrame:
    """One rendered view, stored as the pixels it covers, and its GT 2D
    boxes.

    ``covered`` holds the ascending int32 flat indices ``v * W + u`` of
    the pixels where the caster hit a triangle, ``covered_depth`` the
    perturbed depth and ``covered_tri`` the int32 triangle index at
    each. A perturbed depth is > 0 exactly there, so these are also the
    pixels of valid depth; the rest of the image is held by no array.
    ``shades`` is the (T+1, 3) color per triangle with a black last row,
    which index -1 picks. The dense maps are built on each access, for
    writers and checks; the stages read the covered pixels directly.
    """

    camera_index: int
    intrinsics: Intrinsics
    pose: Pose
    covered: np.ndarray
    covered_depth: np.ndarray
    covered_tri: np.ndarray
    shades: np.ndarray
    boxes_2d: tuple[Box2D, ...]

    def _dense(self, values: np.ndarray, fill) -> np.ndarray:
        intr = self.intrinsics
        out = np.full(intr.height * intr.width, fill, dtype=values.dtype)
        # numpy scatters through intp indices faster than through int32 ones
        out[self.covered.astype(np.intp)] = values
        return out.reshape(intr.height, intr.width)

    @property
    def depth(self) -> np.ndarray:
        """(H, W) perturbed depth map, 0 where no surface, built on each access."""
        return self._dense(self.covered_depth, 0.0)

    @property
    def tri_index(self) -> np.ndarray:
        """(H, W) int32 triangle-index map, -1 where none, built on each access."""
        return self._dense(self.covered_tri, -1)

    @property
    def color(self) -> np.ndarray:
        """(H, W, 3) shaded color image in [0, 1], built on each access."""
        return np.take(self.shades, self.tri_index, axis=0)


def project_scene(scene: SceneSpec):
    """The scene's (T*3) triangle vertices projected into every camera
    by one :func:`project_views` call: ``(uv, depth, in_front)``, one
    leading row per camera, each with the bits of :func:`project_points`."""
    vertices = scene.geometry.triangles.reshape(-1, 3)
    cams = scene.cameras
    return project_views(vertices, [c.intrinsics for c in cams], [c.pose for c in cams])


def _screen_boxes(uv, in_front, size):
    """Per-triangle pixel windows ``(lo, hi)``, each (..., T, 2) as
    ``(u, v)``, from the projected (T*3) triangle vertices of one view or
    a stack of views: ``uv`` (..., T*3, 2) and ``in_front`` (..., T*3),
    as :func:`project_points` or :func:`project_views` give them, and
    the image ``size`` (width, height), broadcast against ``lo``.

    A triangle with all three vertices in front of the camera gets its
    projected bounding box widened to ``floor(min) - 1 .. ceil(max) + 1``
    and clipped to the image, bounds inclusive (``lo > hi`` on an axis
    when it misses the image); any other triangle gets the whole image.
    """
    count = in_front.shape[-1] // 3
    uv = uv.reshape(*uv.shape[:-2], count, 3, 2)
    lo = np.clip(np.floor(uv.min(axis=-2)) - 1, 0, size)
    hi = np.clip(np.ceil(uv.max(axis=-2)) + 1, -1, size - 1)
    front = in_front.reshape(*in_front.shape[:-1], count, 3).all(axis=-1)[..., None]
    return np.where(front, lo, 0).astype(np.int64), np.where(front, hi, size - 1).astype(np.int64)


_SHELL_TRIANGLES = len(_BOX_FACES)
# how far outside a triangle, in barycentric units, the caster still hits it
_BARYCENTRIC_EPS = 1e-9


def _back_faces(edge1, edge2, tvecs, qvecs, in_front):
    """Boolean (..., T) mask of the triangles a view skips, for one view
    or a stack of views: the strictly back-facing ones,
    ``cross(edge1, edge2) . tvec < -1e-9 |cross(edge1, edge2)| |tvec|``,
    of every object whose vertices are all in front of the camera
    (``in_front``, (..., T*3), from :func:`project_points` or
    :func:`project_views`). ``edge1`` and ``edge2`` are (T, 3), ``tvecs``
    and ``qvecs`` (..., T, 3). The triangles are box shells,
    ``len(_BOX_FACES)`` per object in object order.
    """
    e11, e22, e12, tt = (
        np.einsum("...j,...j->...", x, y)
        for x, y in ((edge1, edge1), (edge2, edge2), (edge1, edge2), (tvecs, tvecs))
    )
    # the triple product cross(edge1, edge2) . tvec is edge2 . qvec, and
    # |cross(edge1, edge2)|^2 is e11 * e22 - e12^2 (Lagrange's identity)
    facing = np.einsum("...j,...j->...", edge2, qvecs)
    back = facing < -1e-9 * np.sqrt(np.maximum(e11 * e22 - e12 * e12, 0.0) * tt)
    objects = len(edge1) // _SHELL_TRIANGLES
    shape = back.shape
    back = back.reshape(*shape[:-1], objects, _SHELL_TRIANGLES)
    back &= in_front.reshape(*shape[:-1], objects, 3 * _SHELL_TRIANGLES).all(axis=-1)[..., None]
    return back.reshape(shape)


# the most rays the caster builds at once (about 100 bytes each, kept in
# memory the heap already holds); a larger window is cast in bands of whole
# rows. Of the benchmark windows only 36 of hires_6view's 104 are split
_RAY_BLOCK = 8192


def _bands(lo, hi):
    """``(k, u0, v0, u1, v1)``, bounds inclusive, for each band of rows of
    each non-empty window ``k`` of :func:`_screen_boxes`, top to bottom:
    as many whole rows as fit in ``_RAY_BLOCK`` rays, and at least one."""
    for k, (u0, v0, u1, v1) in enumerate(np.concatenate([lo, hi], 1).tolist()):
        if u0 > u1 or v0 > v1:
            continue
        rows = max(_RAY_BLOCK // (u1 + 1 - u0), 1)
        for top in range(v0, v1 + 1, rows):
            yield k, u0, top, u1, min(top + rows - 1, v1)


def _view_constants(triangles, edge1, edge2, cameras, projection):
    """``(lo, hi, tvecs, qvecs, back)`` of the views of ``cameras``
    (:class:`SceneCamera`) of the (T, 3, 3) ``triangles``, whose first
    and second edges are ``edge1`` and ``edge2``, from ``projection``,
    the triangle vertices projected into each view: the windows of
    :func:`_screen_boxes`, each (C, T, 2), the Moeller-Trumbore ``tvec``
    (camera center minus first vertex) and ``qvec`` (``tvec`` cross the
    first edge), each (C, T, 3), and the (C, T) mask of
    :func:`_back_faces`, all computed for every view at once."""
    uv, _, in_front = projection
    sizes = np.array([(c.intrinsics.width, c.intrinsics.height) for c in cameras], dtype=np.int64)
    lo, hi = _screen_boxes(uv, in_front, sizes.reshape(-1, 1, 2))
    tvecs = np.array([c.pose.translation for c in cameras]).reshape(-1, 1, 3) - triangles[:, 0]
    qvecs = np.cross(tvecs, edge1)
    return lo, hi, tvecs, qvecs, _back_faces(edge1, edge2, tvecs, qvecs, in_front)


class RayCaster:
    """Casts views of a scene's cameras one at a time: the nearest-hit
    depth and int32 triangle index (-1 for no hit) at every pixel
    center, among the triangles each view keeps.

    The per-view constants of every camera in ``cameras`` (indices) come
    from one projection of the scene, ``projection``, which is
    :func:`project_scene` of every camera: each triangle's pixel window
    (:func:`_screen_boxes`), the Moeller-Trumbore ``tvec`` and ``qvec``,
    and the back faces (:func:`_back_faces`), which are passed over like
    empty windows. The dense maps and the ray and scratch blocks are
    allocated once, for the largest view, and every :meth:`cast` reuses
    them, so the maps a cast returns hold until the next cast.

    Each window builds its own rays in the blocks,
    ``((u - cx) / fx, (v - cy) / fy, 1)`` from one per-column and one
    per-row vector, and rotates them with one matrix product. A ray's
    camera-frame z-component is 1, so the ray parameter of a hit is its
    camera depth. No ray grid is cached or built, and a window of more
    than ``_RAY_BLOCK`` rays is cast in bands of whole rows
    (:func:`_bands`), so the blocks hold at most about 100 bytes per ray
    of ``max(_RAY_BLOCK, width)`` rays beyond the 12-byte-per-pixel
    maps. A triangle whose vertices are all in front of the camera is
    tested only against the rays inside its projected bounding box,
    widened by one pixel and clipped to the image, and is skipped when
    that box is empty; a triangle with a vertex at or behind the camera
    plane falls back to testing every ray. Triangles are visited in
    order, so the lowest index wins a tie, and the per-ray arithmetic
    and strict nearer-hit test are the same on every path, so neither
    the screen-box culling nor the banding changes an output bit.
    """

    def __init__(self, scene: SceneSpec, cameras, projection):
        cameras = list(cameras)
        self._rows = {index: row for row, index in enumerate(cameras)}
        self._cameras = [scene.cameras[i] for i in cameras]
        projection = tuple(array[cameras] for array in projection)
        triangles = scene.geometry.triangles
        # Moeller-Trumbore with a shared origin: the edges, tvec and qvec are
        # per-triangle constants of a view, only pvec varies per ray
        self._edge1 = triangles[:, 1] - triangles[:, 0]
        self._edge2 = triangles[:, 2] - triangles[:, 0]
        self._lo, self._hi, self._tvecs, self._qvecs, back = _view_constants(
            triangles, self._edge1, self._edge2, self._cameras, projection
        )
        # a culled triangle is passed over like an empty window
        self._hi[back] = -1
        sizes = np.array([(c.intrinsics.width, c.intrinsics.height) for c in self._cameras], dtype=np.int64)
        sizes = sizes.reshape(-1, 2)
        largest = np.maximum(self._hi - self._lo + 1, 0).prod(axis=-1).max(axis=-1, initial=0)
        # zeroed blocks reused by every band, one row longer than the largest
        size = int(np.minimum(largest, np.maximum(_RAY_BLOCK, sizes[:, 0])).max(initial=0))
        self._rays, self._rotated = np.zeros((2, size + 1, 3))
        self._scalars, self._flags = np.empty((6, size + 1)), np.empty((2, size + 1), dtype=bool)
        pixels = int(sizes.prod(axis=1).max(initial=0))
        self._depth, self._index = np.empty(pixels), np.empty(pixels, dtype=np.int32)

    def cast(self, camera_index: int) -> tuple[np.ndarray, np.ndarray]:
        """The (H, W) depth map, 0 where no surface, and int32 triangle
        index map of camera ``camera_index``, which must be one of the
        caster's cameras; both hold until the next cast."""
        row = self._rows[camera_index]
        intrinsics, pose = self._cameras[row].intrinsics, self._cameras[row].pose
        h, w = intrinsics.height, intrinsics.width
        xs = (np.arange(w, dtype=np.float64) - intrinsics.cx) / intrinsics.fx
        ys = (np.arange(h, dtype=np.float64) - intrinsics.cy) / intrinsics.fy
        all_depth = self._depth[: h * w].reshape(h, w)
        all_index = self._index[: h * w].reshape(h, w)
        all_depth.fill(np.inf)
        all_index.fill(-1)
        edge1, edge2, tvecs, qvecs = self._edge1, self._edge2, self._tvecs[row], self._qvecs[row]
        rays, rotated, scalars, flags = self._rays, self._rotated, self._scalars, self._flags
        # C-ordered: the same bits as the transposed view, up to 3x faster per row
        rotation_t = np.ascontiguousarray(pose.rotation.T)
        eps = _BARYCENTRIC_EPS
        with np.errstate(divide="ignore", invalid="ignore"):
            for k, u0, v0, u1, v1 in _bands(self._lo[row], self._hi[row]):
                window = np.s_[v0 : v1 + 1, u0 : u1 + 1]
                shape = (v1 + 1 - v0, u1 + 1 - u0)
                n = shape[0] * shape[1]
                # the window's rays, row-major in (v, u), then a finite spare row: numpy hands a
                # one-row product to BLAS as a vector call, whose bits can differ from the oracle's
                grid = rays[:n].reshape(*shape, 3)
                grid[..., 0] = xs[u0 : u1 + 1]
                grid[..., 1] = ys[v0 : v1 + 1, None]
                grid[..., 2] = 1.0
                m = n + 1
                dirs = np.matmul(rays[:m], rotation_t, out=rotated[:m])
                pvec, (det, inv, u, v, t, tmp), (hit, test) = rays[:m], scalars[:, :m], flags[:, :m]
                e1, e2, tvec, qvec = edge1[k], edge2[k], tvecs[k], qvecs[k]
                # np.cross(dirs, e2) column by column into the spent camera-frame
                # rays, the same multiplies and subtracts without its axis handling
                (d0, d1, d2), (p0, p1, p2) = dirs.T, pvec.T
                np.subtract(np.multiply(d1, e2[2], out=p0), np.multiply(d2, e2[1], out=tmp), out=p0)
                np.subtract(np.multiply(d2, e2[0], out=p1), np.multiply(d0, e2[2], out=tmp), out=p1)
                np.subtract(np.multiply(d0, e2[1], out=p2), np.multiply(d1, e2[0], out=tmp), out=p2)
                np.matmul(pvec, e1, out=det)
                np.divide(1.0, det, out=inv)
                np.multiply(np.matmul(pvec, tvec, out=u), inv, out=u)
                np.multiply(np.matmul(dirs, qvec, out=v), inv, out=v)
                np.multiply(np.dot(e2, qvec), inv, out=t)
                np.greater(np.abs(det, out=tmp), 1e-12, out=hit)
                hit &= np.greater_equal(u, -eps, out=test)
                hit &= np.greater_equal(v, -eps, out=test)
                hit &= np.less_equal(np.add(u, v, out=tmp), 1.0 + eps, out=test)
                hit &= np.greater(t, BEHIND_CAMERA_EPS, out=test)
                depth, t, hit = all_depth[window], t[:n].reshape(shape), hit[:n].reshape(shape)
                hit &= np.less(t, depth, out=test[:n].reshape(shape))
                np.copyto(depth, t, where=hit)
                np.copyto(all_index[window], k, where=hit)
        all_depth[all_index < 0] = 0.0
        return all_depth, all_index


def _shade_triangles(scene: SceneSpec, triangles: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Flat Lambert shade per triangle, clipped to unit range."""
    normals = triangle_normals(triangles)
    lambert = np.maximum(0.0, normals @ LIGHT_DIR)
    intensity = AMBIENT + (1.0 - AMBIENT) * lambert
    albedo = np.array([scene.objects[i].albedo for i in owner]).reshape(-1, 3)
    return np.clip(albedo * intensity[:, None], 0.0, 1.0)


def perturb_depth(values, pixels, size: int, sigma, outlier_rate, rng, depth_range) -> np.ndarray:
    """Add Gaussian noise and uniform outliers to the valid depths of an
    image of ``size`` pixels.

    ``values`` are the depths at the valid pixels, whose flat indices
    are ``pixels``. Each gets ``N(0, sigma^2)`` noise and is clipped
    into ``depth_range``; a fraction ``outlier_rate`` of them is instead
    replaced by a uniform draw from ``depth_range``. Returns the
    perturbed values, all in the range. The rng draws the noise only
    when ``sigma > 0`` and the outlier mask and uniform values only when
    ``outlier_rate > 0``, each over the whole image regardless of
    validity and read at ``pixels``, so equal seeds give equal results
    and each value has the bits it gets in the whole image.
    """
    d = np.asarray(values, dtype=np.float64)
    lo, hi = float(depth_range[0]), float(depth_range[1])
    if not hi > lo > 0:
        raise ValueError(f"bad depth range [{lo}, {hi}]")
    out = np.clip(d + rng.normal(0.0, sigma, size=size)[pixels] if sigma > 0 else d, lo, hi)
    if outlier_rate > 0:
        outlier_mask = (rng.random(size) < outlier_rate)[pixels]
        out = np.where(outlier_mask, rng.uniform(lo, hi, size=size)[pixels], out)
    return out


def project_gt_boxes(scene: SceneSpec, projection):
    """GT 2D boxes of every camera, one list per camera, from projected
    mesh vertices clipped to the image.

    An object contributes a box when at least one of its mesh vertices
    is in front of the camera and the clipped axis-aligned hull covers
    at least ``MIN_BOX_PIXELS`` of pixel area. Partially-behind objects
    use only their in-front vertices, which under-covers; acceptable for
    the orbit scenes this simulator targets. ``projection`` is
    :func:`project_scene` of every camera; the hulls of every object in
    every camera come from one reduction over each object's vertex rows.
    """
    uv, _, in_front = projection
    boxes = [[] for _ in scene.cameras]
    if not scene.objects:
        return boxes
    # owner is sorted, so object k owns the vertex rows from starts[k] on
    starts = 3 * np.searchsorted(scene.geometry.owner, np.arange(len(scene.objects)))
    # behind-camera vertices are NaN, which fmin and fmax pass over
    lo = np.maximum(np.fmin.reduceat(uv, starts, axis=1), 0.0)
    corner = [(c.intrinsics.width - 1, c.intrinsics.height - 1) for c in scene.cameras]
    hi = np.minimum(np.fmax.reduceat(uv, starts, axis=1), np.reshape(corner, (-1, 1, 2)))
    keep = np.logical_or.reduceat(in_front, starts, axis=1) & (hi > lo).all(axis=-1)
    keep &= (hi - lo).prod(axis=-1) >= MIN_BOX_PIXELS
    categories = [obj.box.category for obj in scene.objects]
    for c, k in zip(*np.nonzero(keep)):
        boxes[c].append(Box2D(categories[k], *lo[c, k].tolist(), *hi[c, k].tolist()))
    return boxes


def make_frame(
    scene: SceneSpec,
    camera_index: int,
    rng: np.random.Generator,
    boxes_2d,
    caster: RayCaster,
) -> CameraFrame:
    """Render one camera, keep the pixels it covers and apply the
    scene's depth perturbation to their depths, within the sensor's
    ``DEPTH_RANGE``.

    ``caster``, a :class:`RayCaster` that holds the camera, casts the
    dense depth and triangle-index maps, which are read only inside this
    call; the frame shares the scene's read-only shade table
    (``geometry.shades``). ``boxes_2d`` are the camera's GT 2D boxes, as
    :func:`project_gt_boxes` returns them.
    """
    cam = scene.cameras[camera_index]
    depth, tri_index = caster.cast(camera_index)
    covered = np.flatnonzero(tri_index >= 0)
    covered_depth = perturb_depth(
        depth.ravel()[covered], covered, depth.size,
        scene.depth_noise_sigma, scene.outlier_rate, rng, DEPTH_RANGE,
    )
    return CameraFrame(
        camera_index=camera_index,
        intrinsics=cam.intrinsics,
        pose=cam.pose,
        covered=covered.astype(np.int32),
        covered_depth=covered_depth,
        covered_tri=tri_index.ravel()[covered],
        shades=scene.geometry.shades,
        boxes_2d=tuple(boxes_2d),
    )


def _rotation_angle_deg(pose_a: Pose, pose_b: Pose) -> float:
    cos = (np.trace(pose_a.rotation.T @ pose_b.rotation) - 1.0) / 2.0
    return math.degrees(math.acos(float(np.clip(cos, -1.0, 1.0))))


def select_keyframes(
    poses,
    detections_per_frame,
    target_count: int,
    min_translation: float,
    min_rotation_deg: float,
) -> list[int]:
    """Greedy keyframe selection preferring detections and ego-motion.

    Frames are kept in temporal order under three relaxation levels in
    turn: detection and motion, then motion only, then neither, until
    ``target_count`` are kept. A frame has a detection when it carries
    at least one; it moved enough when its translation OR rotation from
    the latest kept earlier frame (if any) reaches its threshold.
    Returns sorted indices, at most ``target_count``.
    """
    n = len(poses)
    if len(detections_per_frame) != n:
        raise ValueError("detection counts must align with poses")
    if target_count < 1:
        raise ValueError("target_count must be positive")

    def moved(i, j) -> bool:
        dt = float(np.linalg.norm(poses[i].translation - poses[j].translation))
        return dt >= min_translation or _rotation_angle_deg(poses[i], poses[j]) >= min_rotation_deg

    chosen: set[int] = set()
    for need_detection, need_motion in ((True, True), (False, True), (False, False)):
        for i in range(n):
            if len(chosen) >= target_count:
                break
            if i in chosen or (need_detection and detections_per_frame[i] < 1):
                continue
            prior = max((j for j in chosen if j < i), default=None)
            if not need_motion or prior is None or moved(i, prior):
                chosen.add(i)
    return sorted(chosen)


def orbit_trajectory(radius: float, height: float, steps: int, look_at) -> list[Pose]:
    """Poses evenly spaced on a circle of ``radius`` around ``look_at``.

    Cameras sit at absolute world height ``height`` and look at the
    target point. ``steps``, which ``gen-scene --steps`` sets, must be a
    positive integer; the caller passes a positive ``radius``, so the
    viewing direction never degenerates.
    """
    _check(locals(), steps="count")
    look = np.asarray(look_at, dtype=np.float64)
    poses = []
    for k in range(steps):
        angle = 2.0 * math.pi * k / steps
        eye = np.array(
            [look[0] + radius * math.cos(angle), look[1] + radius * math.sin(angle), height]
        )
        poses.append(look_at_pose(eye, look))
    return poses


# ---------------------------------------------------------------------------
# JSON scene files


# the keys of a camera's intrinsics in a scene file, in Intrinsics order
_INTRINSICS = ("fx", "fy", "cx", "cy", "width", "height")
_OBJECT_OPTIONAL = ("yaw", "category", "albedo")  # the keys an object entry may omit


def scene_to_dict(scene: SceneSpec) -> dict:
    return {
        "objects": [
            {
                "center": list(o.box.center),
                "size": list(o.box.size),
                "yaw": o.box.yaw,
                "category": o.box.category,
                "albedo": list(o.albedo),
            }
            for o in scene.objects
        ],
        "cameras": [
            {
                **{key: getattr(c.intrinsics, key) for key in _INTRINSICS},
                "rotation": [float(x) for x in c.pose.rotation.reshape(-1)],
                "translation": [float(x) for x in c.pose.translation],
            }
            for c in scene.cameras
        ],
        "rng_seed": scene.rng_seed,
        "depth_noise_sigma": scene.depth_noise_sigma,
        "outlier_rate": scene.outlier_rate,
    }


def scene_from_dict(data: dict) -> SceneSpec:
    """Build a scene from its JSON form.

    ``cameras`` is a list of camera dicts, each holding the intrinsics
    plus a row-major rotation and a translation, as :func:`scene_to_dict`
    writes them.
    """
    _entry(data, "scene", "objects", "cameras", optional=("rng_seed", "depth_noise_sigma", "outlier_rate"))
    objects = tuple(
        SceneObject(
            box=OrientedBox(o["center"], o["size"], o.get("yaw", 0.0), o.get("category", 0)),
            albedo=o.get("albedo", (0.7, 0.7, 0.7)),
        )
        for o in _entries(data["objects"], "objects", "center", "size", optional=_OBJECT_OPTIONAL)
    )
    cameras = []
    for c in _entries(data["cameras"], "cameras", *_INTRINSICS, "rotation", "translation"):
        intr = Intrinsics(*(c[key] for key in _INTRINSICS))
        _check(c, rotation=("number", 9), translation=("number", 3))
        cameras.append(SceneCamera(intr, Pose(np.reshape(c["rotation"], (3, 3)), c["translation"])))
    return SceneSpec(
        objects=objects,
        cameras=cameras,
        rng_seed=data.get("rng_seed", 0),
        depth_noise_sigma=data.get("depth_noise_sigma", 0.0),
        outlier_rate=data.get("outlier_rate", 0.0),
    )


def save_scene(scene: SceneSpec, path) -> None:
    with open(path, "w") as f:
        json.dump(scene_to_dict(scene), f, indent=2, sort_keys=True)
        f.write("\n")


def load_scene(path) -> SceneSpec:
    with open(path) as f:
        return scene_from_dict(json.load(f))


def demo_scene(
    noise_sigma: float = 0.0,
    outlier_rate: float = 0.0,
    steps: int = 20,
    seed: int = 0,
) -> SceneSpec:
    """Three separated boxes observed from a 20-camera orbit.

    Categories 0..2 with distinct albedos; the default configuration is
    noise-free. Object separation (> 1 m) keeps point clusters disjoint.
    """
    objects = (
        SceneObject(
            OrientedBox(center=(-1.1, 0.0, 0.35), size=(0.6, 0.5, 0.7), yaw=0.0, category=0),
            albedo=(0.85, 0.25, 0.2),
        ),
        SceneObject(
            OrientedBox(center=(0.2, 0.95, 0.3), size=(0.8, 0.6, 0.6), yaw=0.0, category=1),
            albedo=(0.2, 0.75, 0.3),
        ),
        SceneObject(
            OrientedBox(center=(0.9, -0.7, 0.45), size=(0.5, 0.5, 0.9), yaw=0.0, category=2),
            albedo=(0.25, 0.35, 0.9),
        ),
    )
    poses = orbit_trajectory(radius=3.0, height=1.7, steps=steps, look_at=(0.0, 0.0, 0.35))
    cameras = tuple(SceneCamera(DEFAULT_INTRINSICS, p) for p in poses)
    return SceneSpec(
        objects=objects,
        cameras=cameras,
        rng_seed=seed,
        depth_noise_sigma=noise_sigma,
        outlier_rate=outlier_rate,
    )
