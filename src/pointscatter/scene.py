"""Synthetic scene simulator: box objects, depth/color rendering, noise.

Scenes contain yaw-oriented box objects with per-object albedo and a set
of pinhole cameras. Rendering casts one ray per pixel center and keeps
the nearest ray-triangle intersection; depth maps store camera-frame z
(0 marks no hit). Every triangle has one flat color, its Lambert-shaded
albedo under a single fixed directional light plus an ambient term, so
a view's color is stored as an (H, W) int32 map of the triangle hit at
each pixel (-1 marks no hit) plus the scene's (T+1, 3) shade table,
whose last, black row is what -1 picks; ``CameraFrame.color`` builds
the RGB image from the two on demand. The triangle stack, its owning
objects and the shade table depend only on the scene, so each scene
builds them once (``SceneSpec.geometry``) and every view, GT box
projection and surface sample shares them. Each triangle is tested
only against the rays inside its projected bounding box, widened by one
pixel and clipped to the image; a triangle with a vertex at or behind
the camera plane is tested against every ray. Every object is a closed,
outward-wound box shell, so a view skips (back-face culls) the triangles
that face away from the camera, but only for an object whose vertices
are all in front of it, and only when no pixel center lies within a
tolerance of the projection of an edge between a skipped and a kept
triangle of that object (the silhouette guard); otherwise that object
keeps all its triangles in that view. Away from the silhouette such a
triangle is never the nearest hit, so the frames do not change by a
bit. A frame's depth noise and outliers stay within the sensor's fixed
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
from .camera import BEHIND_CAMERA_EPS, Intrinsics, Pose, look_at_pose, project_points
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

    @property
    def area(self) -> float:
        return max(0.0, self.u_max - self.u_min) * max(0.0, self.v_max - self.v_min)


@dataclass(frozen=True, eq=False)
class CameraFrame:
    """One rendered view: perturbed depth, color as a triangle-index map
    into a shade table, GT 2D boxes.

    ``tri_index`` is the (H, W) index of the triangle seen at each pixel,
    -1 where none; ``shades`` is the (T+1, 3) color per triangle with a
    black last row, which index -1 picks.
    """

    camera_index: int
    intrinsics: Intrinsics
    pose: Pose
    depth: np.ndarray
    tri_index: np.ndarray
    shades: np.ndarray
    boxes_2d: tuple[Box2D, ...]

    @property
    def color(self) -> np.ndarray:
        """(H, W, 3) shaded color image in [0, 1], built on each access."""
        return np.take(self.shades, self.tri_index, axis=0)


def _screen_boxes(projection, intrinsics: Intrinsics):
    """Per-triangle pixel windows ``(lo, hi)``, each (T, 2) as ``(u, v)``,
    from ``projection``, the :func:`project_points` result of the (T*3)
    triangle vertices.

    A triangle with all three vertices in front of the camera gets its
    projected bounding box widened to ``floor(min) - 1 .. ceil(max) + 1``
    and clipped to the image, bounds inclusive (``lo > hi`` on an axis
    when it misses the image); any other triangle gets the whole image.
    """
    uv, _, in_front = projection
    uv = uv.reshape(-1, 3, 2)
    size = np.array([intrinsics.width, intrinsics.height])
    lo = np.clip(np.floor(uv.min(axis=1)) - 1, 0, size)
    hi = np.clip(np.ceil(uv.max(axis=1)) + 1, -1, size - 1)
    front = in_front.reshape(-1, 3).all(axis=1)[:, None]
    return np.where(front, lo, 0).astype(np.int64), np.where(front, hi, size - 1).astype(np.int64)


def _shared_edges(faces: np.ndarray) -> np.ndarray:
    """(E, 4) int rows ``(a, i, j, b)`` of a closed mesh's face table:
    the edge from vertex ``i`` to vertex ``j`` of triangle ``a`` is also
    an edge of triangle ``b``."""
    first, rows = {}, []
    for a, tri in enumerate(faces.tolist()):
        for i, j in ((0, 1), (1, 2), (2, 0)):
            key = frozenset((tri[i], tri[j]))
            if key in first:
                rows.append((*first.pop(key), a))
            else:
                first[key] = (a, i, j)
    return np.array(rows, dtype=np.int64)


# every edge of a box shell, each listed once with both of its triangles
_SHELL_EDGES = _shared_edges(_BOX_FACES)
_SHELL_TRIANGLES = len(_BOX_FACES)
# how far outside a triangle, in barycentric units, the caster still hits it
_BARYCENTRIC_EPS = 1e-9


def _back_faces(edge1, edge2, tvecs, qvecs, projection, intrinsics: Intrinsics):
    """``(back, culled)`` boolean (T,) masks over a view's box-shell
    triangles, ``len(_BOX_FACES)`` per object in object order.

    ``back`` marks the strictly back-facing triangles,
    ``cross(edge1, edge2) . tvec < -1e-9 |cross(edge1, edge2)| |tvec|``,
    of the objects whose vertices are all in front of the camera;
    ``projection`` is the :func:`project_points` result of the (T*3)
    vertices. ``culled`` is ``back`` less every object that fails the
    silhouette guard: some pixel center lies within ``tau`` pixels of the
    projection of an edge between a back triangle and a kept one, where
    ``tau`` is the caster's barycentric tolerance times 10 times the
    object's longest edge, in pixels at its nearest vertex
    (``max(fx, fy) / z``), plus 1e-9.
    """
    n = len(edge1) // _SHELL_TRIANGLES
    uv, z, in_front = projection
    e11, e22, e12, tt = (
        np.einsum("ij,ij->i", x, y)
        for x, y in ((edge1, edge1), (edge2, edge2), (edge1, edge2), (tvecs, tvecs))
    )
    # the triple product cross(edge1, edge2) . tvec is edge2 . qvec, and
    # |cross(edge1, edge2)|^2 is e11 * e22 - e12^2 (Lagrange's identity)
    facing = np.einsum("ij,ij->i", edge2, qvecs)
    back = facing < -1e-9 * np.sqrt(np.maximum(e11 * e22 - e12 * e12, 0.0) * tt)
    back = back.reshape(n, _SHELL_TRIANGLES)
    back &= in_front.reshape(n, 3 * _SHELL_TRIANGLES).all(axis=1)[:, None]
    a, i, j, b = _SHELL_EDGES.T
    objects, edges = np.nonzero(back[:, a] != back[:, b])
    if len(objects) == 0:
        return back.ravel(), back.ravel()
    tri = _SHELL_TRIANGLES * objects + a[edges]
    uv = uv.reshape(-1, 3, 2)
    span = np.sqrt(np.maximum(e11, e22).reshape(n, _SHELL_TRIANGLES).max(axis=1))
    nearest = z.reshape(n, 3 * _SHELL_TRIANGLES).min(axis=1)
    focal = max(intrinsics.fx, intrinsics.fy)
    tau = 10 * _BARYCENTRIC_EPS * span[objects] * focal / nearest[objects] + 1e-9
    near = _near_pixel_centers(
        uv[tri, i[edges]], uv[tri, j[edges]], tau, intrinsics.width, intrinsics.height
    )
    culled = back.copy()
    culled[objects[near]] = False
    return back.ravel(), culled.ravel()


def _near_pixel_centers(p, q, tau, width: int, height: int) -> np.ndarray:
    """Whether some image pixel center lies within ``tau`` of the line
    through ``p`` and ``q`` (each (S, 2) in pixels) while its coordinate
    along the segment's major axis is within ``tau`` of the segment's
    span: a superset of the centers within ``tau`` of each segment. The
    integer major-axis coordinates of all segments are enumerated at
    once."""
    # x is each segment's major axis, y its minor one
    swap = np.abs(q[:, 1] - p[:, 1]) > np.abs(q[:, 0] - p[:, 0])
    x0, x1 = np.where(swap, p[:, 1], p[:, 0]), np.where(swap, q[:, 1], q[:, 0])
    y0, y1 = np.where(swap, p[:, 0], p[:, 1]), np.where(swap, q[:, 0], q[:, 1])
    x_lo = np.maximum(np.ceil(np.minimum(x0, x1) - tau), 0)
    x_hi = np.minimum(np.floor(np.maximum(x0, x1) + tau), np.where(swap, height, width) - 1)
    counts = np.maximum(x_hi - x_lo + 1, 0).astype(np.int64)
    seg = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    x = x_lo[seg] + (np.arange(len(seg)) - starts[seg])
    # the line's y there; tau across the line is tau * length / |dx| along y
    dx, dy = x1 - x0, y1 - y0
    major = np.abs(dx)
    slope = np.divide(dy, dx, out=np.zeros(len(dx)), where=major > 0)
    reach = tau * np.divide(np.hypot(dx, dy), major, out=np.ones(len(dx)), where=major > 0)
    y = y0[seg] + (x - x0[seg]) * slope[seg]
    y_lo = np.maximum(np.ceil(y - reach[seg]), 0)
    y_hi = np.minimum(np.floor(y + reach[seg]), np.where(swap, width, height)[seg] - 1)
    near = np.zeros(len(counts), dtype=bool)
    near[seg[y_lo <= y_hi]] = True
    return near


# the most rays the caster builds at once; a larger window is cast in
# bands of whole rows. It splits no window of the benchmark poses, whose
# largest (hires_6view) has 24,124 pixels
_RAY_BLOCK = 24576


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


def _cast_rays(scene: SceneSpec, intrinsics: Intrinsics, pose: Pose):
    """Nearest-hit depth and int32 triangle index (-1 for no hit) for
    every pixel center.

    Each window builds its own rays in blocks reused by every window,
    ``((u - cx) / fx, (v - cy) / fy, 1)`` from one per-column and one
    per-row vector, and rotates them with one matrix product. A ray's
    camera-frame z-component is 1, so the ray parameter of a hit is its
    camera depth. No ray grid is cached or built, and a window of more
    than ``_RAY_BLOCK`` rays is cast in bands of whole rows
    (:func:`_bands`), so the blocks hold at most about 100 bytes per ray
    of ``max(_RAY_BLOCK, width)`` rays beyond the 12-byte-per-pixel
    output maps. A triangle whose vertices are all in front of the camera
    is tested only against the rays inside its projected bounding box,
    widened by one pixel and clipped to the image, and is skipped when
    that box is empty; a triangle with a vertex at or behind the camera
    plane falls back to testing every ray. The per-triangle
    Moeller-Trumbore constants (edges, ``tvec``, ``qvec``) are computed
    for all triangles at once per view. A back-facing triangle of an
    object wholly in front of the camera is skipped like an empty window,
    unless a pixel center lies within the silhouette guard's tolerance of
    an edge between that object's skipped and kept triangles, in which
    case the object keeps all of them (:func:`_back_faces`): only there
    can a back face tie the front face's depth and win by its lower index. Triangles are visited in order and
    the per-ray arithmetic and strict nearer-hit test are the same on
    every path, so neither the culling nor the banding changes an output
    bit.
    """
    h, w = intrinsics.height, intrinsics.width
    xs = (np.arange(w, dtype=np.float64) - intrinsics.cx) / intrinsics.fx
    ys = (np.arange(h, dtype=np.float64) - intrinsics.cy) / intrinsics.fy

    triangles = scene.geometry.triangles
    all_depth = np.full((h, w), np.inf)
    all_index = np.full((h, w), -1, dtype=np.int32)
    projection = project_points(triangles.reshape(-1, 3), intrinsics, pose)
    lo, hi = _screen_boxes(projection, intrinsics)
    # Moeller-Trumbore with a shared origin: the edges, tvec and qvec are
    # per-triangle constants, only pvec varies per ray
    edge1 = triangles[:, 1] - triangles[:, 0]
    edge2 = triangles[:, 2] - triangles[:, 0]
    tvecs = pose.translation - triangles[:, 0]
    qvecs = np.cross(tvecs, edge1)
    # a culled triangle is passed over like an empty window
    hi[_back_faces(edge1, edge2, tvecs, qvecs, projection, intrinsics)[1]] = -1
    largest = int(np.maximum(hi - lo + 1, 0).prod(axis=1).max(initial=0))
    # zeroed blocks reused by every band, one row longer than the largest
    size = min(largest, max(_RAY_BLOCK, w))
    rays, rotated = np.zeros((2, size + 1, 3))
    # C-ordered: the same bits as the transposed view, up to 3x faster per row
    rotation_t = np.ascontiguousarray(pose.rotation.T)
    scalars, flags = np.empty((6, size + 1)), np.empty((2, size + 1), dtype=bool)
    eps = _BARYCENTRIC_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, u0, v0, u1, v1 in _bands(lo, hi):
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


def render(scene: SceneSpec, camera_index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Noise-free render of one camera.

    Returns ``(depth, tri_index, shades)``: the (H, W) depth map, 0 where
    no surface; the (H, W) int32 index of the triangle seen at each
    pixel, -1 where none; and the (T+1, 3) shade table in [0, 1], one row
    per triangle plus a black last row for index -1, the scene's shared
    read-only ``geometry.shades``. The shaded color image is
    ``np.take(shades, tri_index, axis=0)``.
    """
    cam = scene.cameras[camera_index]
    depth, tri_index = _cast_rays(scene, cam.intrinsics, cam.pose)
    return depth, tri_index, scene.geometry.shades


def perturb_depth(depth, sigma, outlier_rate, rng, depth_range) -> np.ndarray:
    """Add Gaussian noise and uniform outliers to the valid pixels.

    Valid (non-zero) depths get ``N(0, sigma^2)`` noise and are clipped
    into ``depth_range``; a fraction ``outlier_rate`` of them is instead
    replaced by a uniform draw from ``depth_range``. Invalid pixels stay
    0. The rng draws the noise only when ``sigma > 0`` and the outlier
    mask and uniform values only when ``outlier_rate > 0``, each over the
    whole image regardless of validity, so equal seeds give equal
    results.
    """
    d = np.asarray(depth, dtype=np.float64)
    lo, hi = float(depth_range[0]), float(depth_range[1])
    if not hi > lo > 0:
        raise ValueError(f"bad depth range [{lo}, {hi}]")
    valid = d > 0
    # with sigma 0, d + 0.0 would differ from d only at -0.0, an invalid
    # pixel that is zeroed below
    out = np.clip(d + rng.normal(0.0, sigma, size=d.shape) if sigma > 0 else d, lo, hi)
    if outlier_rate > 0:
        outlier_mask = rng.random(d.shape) < outlier_rate
        out = np.where(outlier_mask, rng.uniform(lo, hi, size=d.shape), out)
    out[~valid] = 0.0
    return out


def project_gt_boxes(scene: SceneSpec, camera_index: int, min_pixels: float = 16.0):
    """GT 2D boxes from projected mesh vertices, clipped to the image.

    An object contributes a box when at least one of its mesh vertices
    is in front of the camera and the clipped axis-aligned hull covers
    at least ``min_pixels`` of pixel area. Partially-behind objects use
    only their in-front vertices, which under-covers; acceptable for the
    orbit scenes this simulator targets. The vertices of all objects
    are projected in one call and sliced per object.
    """
    cam = scene.cameras[camera_index]
    w, h = cam.intrinsics.width, cam.intrinsics.height
    triangles, owner, _ = scene.geometry
    uv_all, _, front_all = project_points(triangles.reshape(-1, 3), cam.intrinsics, cam.pose)
    # owner is sorted, so object k owns the vertex rows ends[k] .. ends[k + 1]
    ends = (3 * np.searchsorted(owner, np.arange(len(scene.objects) + 1))).tolist()
    boxes = []
    for obj, a, b in zip(scene.objects, ends, ends[1:]):
        in_front = front_all[a:b]
        if not in_front.any():
            continue
        uv = uv_all[a:b][in_front]
        u0 = max(0.0, float(uv[:, 0].min()))
        v0 = max(0.0, float(uv[:, 1].min()))
        u1 = min(float(w - 1), float(uv[:, 0].max()))
        v1 = min(float(h - 1), float(uv[:, 1].max()))
        if u1 <= u0 or v1 <= v0:
            continue
        box = Box2D(obj.box.category, u0, v0, u1, v1)
        if box.area < min_pixels:
            continue
        boxes.append(box)
    return boxes


def make_frame(
    scene: SceneSpec, camera_index: int, rng: np.random.Generator, boxes_2d
) -> CameraFrame:
    """Render one camera and apply the scene's depth perturbation within
    the sensor's ``DEPTH_RANGE``.

    ``boxes_2d`` are the camera's GT 2D boxes, as
    :func:`project_gt_boxes` returns them.
    """
    cam = scene.cameras[camera_index]
    depth, tri_index, shades = render(scene, camera_index)
    depth = perturb_depth(depth, scene.depth_noise_sigma, scene.outlier_rate, rng, DEPTH_RANGE)
    return CameraFrame(
        camera_index=camera_index,
        intrinsics=cam.intrinsics,
        pose=cam.pose,
        depth=depth,
        tri_index=tri_index,
        shades=shades,
        boxes_2d=tuple(boxes_2d),
    )


def _rotation_angle_deg(pose_a: Pose, pose_b: Pose) -> float:
    cos = (np.trace(pose_a.rotation.T @ pose_b.rotation) - 1.0) / 2.0
    return math.degrees(math.acos(float(np.clip(cos, -1.0, 1.0))))


def select_keyframes(
    poses,
    detections_per_frame,
    target_count: int,
    min_translation: float = 0.1,
    min_rotation_deg: float = 10.0,
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
