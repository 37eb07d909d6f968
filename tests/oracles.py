"""Independent reference implementations used only by the tests.

Everything here is deliberately naive (loops, O(n^2) scans, Monte
Carlo) so that agreement with the package is evidence rather than
tautology. Keep these free of imports from the modules they check,
apart from plain data containers.
"""

import math
import struct
import types

import numpy as np
from scipy.spatial import cKDTree

from pointscatter.camera import BEHIND_CAMERA_EPS, backproject_pixels, project_points
from pointscatter.scatter import ScatterCloud, box_sampling_stride, empty_cloud
from pointscatter.scene import Box2D


def point_in_obb(points, box):
    """Boolean mask of points inside a yaw-oriented box (boundary counts)."""
    p = np.atleast_2d(np.asarray(points, dtype=np.float64)) - np.asarray(box.center)
    c, s = np.cos(-box.yaw), np.sin(-box.yaw)
    local_x = c * p[:, 0] - s * p[:, 1]
    local_y = s * p[:, 0] + c * p[:, 1]
    w, h, d = box.size
    return (
        (np.abs(local_x) <= w / 2.0)
        & (np.abs(local_y) <= h / 2.0)
        & (np.abs(p[:, 2]) <= d / 2.0)
    )


def mc_iou(box_a, box_b, samples, rng):
    """Monte Carlo IoU estimate from uniform samples in the joint AABB."""
    corners = np.concatenate([_obb_corners(box_a), _obb_corners(box_b)], axis=0)
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    pts = rng.uniform(lo, hi, size=(samples, 3))
    inside_both = point_in_obb(pts, box_a) & point_in_obb(pts, box_b)
    cell_volume = float(np.prod(hi - lo))
    inter = float(inside_both.sum()) / samples * cell_volume
    vol_a = box_a.size[0] * box_a.size[1] * box_a.size[2]
    vol_b = box_b.size[0] * box_b.size[1] * box_b.size[2]
    union = vol_a + vol_b - inter
    if union <= 0:
        return 0.0
    return inter / union


def _obb_corners(box):
    w, h, d = box.size
    xs = np.array([-w, w, w, -w, -w, w, w, -w]) / 2.0
    ys = np.array([-h, -h, h, h, -h, -h, h, h]) / 2.0
    zs = np.array([-d, -d, -d, -d, d, d, d, d]) / 2.0
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    gx = c * xs - s * ys + box.center[0]
    gy = s * xs + c * ys + box.center[1]
    return np.stack([gx, gy, zs + box.center[2]], axis=1)


def brute_average_precision(flags, scores, gt_count):
    """11-point interpolated AP from an explicit PR curve.

    Walks every prefix of the score-sorted flag sequence, records
    (recall, precision) pairs, then takes the max precision at or beyond
    each recall level. Uses the same rational divisions as any faithful
    implementation must, so agreement can be checked bitwise.
    """
    if gt_count < 1:
        raise ValueError("need gt_count >= 1")
    order = sorted(range(len(flags)), key=lambda i: (-scores[i], i))
    curve = []
    tp = 0
    for rank, i in enumerate(order, start=1):
        if flags[i]:
            tp += 1
        curve.append((tp / gt_count, tp / rank))
    total = 0.0
    for level in range(11):
        r = level / 10
        best = 0.0
        for recall, precision in curve:
            if recall >= r and precision > best:
                best = precision
        total += best
    return total / 11


# The package's Chamfer distance and F-score as two separate passes, each
# with its own KD-trees and queries: the merged pass must equal them bit
# for bit.
def chamfer_distance(points_a: np.ndarray, points_b: np.ndarray) -> float:
    """Symmetric Chamfer distance with squared nearest-neighbor terms.

    ``mean_a min_b ||a-b||^2 + mean_b min_a ||a-b||^2``; both sets must
    be non-empty.
    """
    a = np.atleast_2d(np.asarray(points_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(points_b, dtype=np.float64))
    if len(a) == 0 or len(b) == 0:
        raise ValueError("chamfer distance needs non-empty point sets")
    d_ab, _ = cKDTree(b).query(a)
    d_ba, _ = cKDTree(a).query(b)
    return float(np.mean(d_ab**2) + np.mean(d_ba**2))


def fscore(gt_points: np.ndarray, pred_points: np.ndarray, threshold: float = 0.004, squared: bool = True) -> float:
    """Reconstruction F-score on a 0-100 scale.

    Precision is the fraction of predicted points whose nearest GT
    point passes the threshold test; recall the converse. With
    ``squared`` (default) the test is ``||.||^2 < threshold``, matching
    the Chamfer convention; disable it to threshold plain distances.
    Returns 0 when precision and recall are both zero.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    gt = np.atleast_2d(np.asarray(gt_points, dtype=np.float64))
    pred = np.atleast_2d(np.asarray(pred_points, dtype=np.float64))
    if len(gt) == 0 or len(pred) == 0:
        raise ValueError("fscore needs non-empty point sets")
    d_pred, _ = cKDTree(gt).query(pred)
    d_gt, _ = cKDTree(pred).query(gt)
    if squared:
        precision = float(np.mean(d_pred**2 < threshold))
        recall = float(np.mean(d_gt**2 < threshold))
    else:
        precision = float(np.mean(d_pred < threshold))
        recall = float(np.mean(d_gt < threshold))
    if precision + recall == 0.0:
        return 0.0
    return 100.0 * 2.0 * precision * recall / (precision + recall)


def brute_nn_distances(queries, references, chunk=512):
    """Exact nearest-neighbor distance per query via a blocked O(n*m) scan."""
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    r = np.atleast_2d(np.asarray(references, dtype=np.float64))
    out = np.empty(len(q))
    for start in range(0, len(q), chunk):
        block = q[start : start + chunk]
        d2 = ((block[:, None, :] - r[None, :, :]) ** 2).sum(axis=2)
        out[start : start + chunk] = np.sqrt(d2.min(axis=1))
    return out


def label_points(points, surface_points, tau):
    """``(labels, distances)``: each point's exact distance to its nearest
    surface sample by an unbounded search of a balanced tree, and whether
    it is below ``tau``; the package's labelling before its search
    stopped at ``tau``."""
    distances, _ = cKDTree(surface_points).query(points)
    return distances < tau, distances


def _point_segment_distance(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ab = b - a
    denom = float(np.dot(ab, ab))
    if denom == 0.0:
        return np.linalg.norm(points - a, axis=1)
    t = np.clip((points - a) @ ab / denom, 0.0, 1.0)
    closest = a + t[:, None] * ab
    return np.linalg.norm(points - closest, axis=1)


def point_triangle_distance(points: np.ndarray, triangle: np.ndarray) -> np.ndarray:
    """Euclidean distance from (N, 3) points to one triangle.

    The closest point of a triangle lies either on an edge or in the
    interior of its plane, so the exact distance is the minimum of the
    three clamped segment distances and, where the plane projection
    falls inside the triangle, the plane distance.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    a, b, c = (np.asarray(v, dtype=np.float64) for v in triangle)
    best = _point_segment_distance(pts, a, b)
    np.minimum(best, _point_segment_distance(pts, b, c), out=best)
    np.minimum(best, _point_segment_distance(pts, a, c), out=best)

    n = np.cross(b - a, c - a)
    nn = float(np.dot(n, n))
    if nn > 0.0:
        ap = pts - a
        signed = ap @ n / nn
        proj = pts - signed[:, None] * n
        v0, v1 = b - a, c - a
        v2 = proj - a
        d00 = float(np.dot(v0, v0))
        d01 = float(np.dot(v0, v1))
        d11 = float(np.dot(v1, v1))
        d20 = v2 @ v0
        d21 = v2 @ v1
        denom = d00 * d11 - d01 * d01
        if denom > 0.0:
            u = (d11 * d20 - d01 * d21) / denom
            w = (d00 * d21 - d01 * d20) / denom
            inside = (u >= 0.0) & (w >= 0.0) & (u + w <= 1.0)
            plane_dist = np.abs(signed) * np.sqrt(nn)
            best = np.where(inside, np.minimum(best, plane_dist), best)
    return best


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x * y).sum(axis=-1)


def _points_segments_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, T) distances from (N, 1, 3) points to (T, 3) segments a-b."""
    ab = b - a
    denom = _dot(ab, ab)
    # a zero-length segment is its point a: t = 0
    t = np.clip(_dot(p - a, ab) / np.where(denom > 0.0, denom, 1.0), 0.0, 1.0)
    return np.linalg.norm(p - (a + t[..., None] * ab), axis=-1)


def point_mesh_distance(points: np.ndarray, triangles: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """Distance from each of (N, 3) points to the nearest triangle.

    :func:`point_triangle_distance` for every triangle at once, as
    (points x triangles) arrays over blocks of ``chunk`` points.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    tri = np.asarray(triangles, dtype=np.float64)
    if len(tri) == 0:
        raise ValueError("mesh has no triangles")
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    v0, v1 = b - a, c - a
    n = np.cross(v0, v1)
    nn = _dot(n, n)
    d00, d01, d11 = _dot(v0, v0), _dot(v0, v1), _dot(v1, v1)
    denom = d00 * d11 - d01 * d01
    # a triangle with no area or no in-plane basis has edge distances only
    has_plane = (nn > 0.0) & (denom > 0.0)
    nn_safe = np.where(has_plane, nn, 1.0)
    denom_safe = np.where(has_plane, denom, 1.0)
    out = np.empty(len(pts))
    for start in range(0, len(pts), chunk):
        p = pts[start : start + chunk, None, :]
        best = _points_segments_distance(p, a, b)
        np.minimum(best, _points_segments_distance(p, b, c), out=best)
        np.minimum(best, _points_segments_distance(p, a, c), out=best)
        signed = _dot(p - a, n) / nn_safe
        v2 = p - signed[..., None] * n - a
        d20, d21 = _dot(v2, v0), _dot(v2, v1)
        u = (d11 * d20 - d01 * d21) / denom_safe
        w = (d00 * d21 - d01 * d20) / denom_safe
        inside = has_plane & (u >= 0.0) & (w >= 0.0) & (u + w <= 1.0)
        plane_dist = np.abs(signed) * np.sqrt(nn)
        best = np.where(inside, np.minimum(best, plane_dist), best)
        out[start : start + chunk] = best.min(axis=1)
    return out


def choice_sample_surface_points(triangles: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform area-weighted sample of ``count`` points on a mesh surface.

    The package's sampler as it was before it drew the triangles itself:
    ``rng.choice`` with area weights, then (count, 3) vertex rows.
    """
    tri = np.asarray(triangles, dtype=np.float64)
    if count < 1:
        raise ValueError(f"need a positive sample count, got {count}")
    areas = 0.5 * np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)
    total = areas.sum()
    if total <= 0:
        raise ValueError("mesh has zero surface area")
    idx = rng.choice(len(tri), size=count, p=areas / total)
    u = rng.random(count)
    v = rng.random(count)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    a, b, c = tri[idx, 0], tri[idx, 1], tri[idx, 2]
    return a + u[:, None] * (b - a) + v[:, None] * (c - a)


def _scene_triangles(scene):
    """Stack all object shells; returns (triangles, owning object index)."""
    tris = []
    owner = []
    for i, obj in enumerate(scene.objects):
        shell = obj.mesh()
        tris.append(shell)
        owner.extend([i] * len(shell))
    if not tris:
        return np.zeros((0, 3, 3)), np.zeros(0, dtype=np.int64)
    return np.concatenate(tris, axis=0), np.asarray(owner, dtype=np.int64)


def back_faces(scene, pose):
    """(T,) boolean mask of the triangles a view of ``scene`` from
    ``pose`` skips: the strictly back-facing ones,
    ``n . (eye - v0) < -1e-9 |n| |eye - v0|`` with
    ``n = cross(v1 - v0, v2 - v0)``, of every object whose vertex depths
    are all above ``BEHIND_CAMERA_EPS``. One object at a time, from the
    normal itself rather than a triple product."""
    masks = [np.zeros(0, dtype=bool)]
    for obj in scene.objects:
        shell = obj.mesh()
        ahead = (pose.world_to_camera(shell.reshape(-1, 3))[:, 2] > BEHIND_CAMERA_EPS).all()
        normal = np.cross(shell[:, 1] - shell[:, 0], shell[:, 2] - shell[:, 0])
        to_eye = pose.translation - shell[:, 0]
        bound = 1e-9 * np.linalg.norm(normal, axis=1) * np.linalg.norm(to_eye, axis=1)
        masks.append(ahead & ((normal * to_eye).sum(axis=1) < -bound))
    return np.concatenate(masks)


def cast_rays(scene, intrinsics, pose, skip=None):
    """Nearest-hit depth and triangle index for every pixel center.

    The renderer's caster before screen-box culling: every triangle is
    tested against every pixel ray, except the triangles ``skip`` (a
    (T,) boolean mask, or None for none) marks. Ray directions are built
    with camera-frame z-component 1, so the ray parameter of a hit
    equals its camera depth directly.
    """
    h, w = intrinsics.height, intrinsics.width
    us, vs = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    dir_cam = np.stack(
        [
            (us - intrinsics.cx) / intrinsics.fx,
            (vs - intrinsics.cy) / intrinsics.fy,
            np.ones_like(us),
        ],
        axis=-1,
    ).reshape(-1, 3)
    dirs = dir_cam @ pose.rotation.T
    origin = pose.translation

    triangles, owner = _scene_triangles(scene)
    depth = np.full(h * w, np.inf)
    tri_index = np.full(h * w, -1, dtype=np.int64)
    for k in range(len(triangles)):
        if skip is not None and skip[k]:
            continue
        a, b, c = triangles[k]
        e1, e2 = b - a, c - a
        # Moeller-Trumbore with a shared origin: tvec and qvec are
        # per-triangle constants, only pvec varies per ray
        tvec = origin - a
        qvec = np.cross(tvec, e1)
        pvec = np.cross(dirs, e2)
        det = pvec @ e1
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / det
            u = (pvec @ tvec) * inv
            v = (dirs @ qvec) * inv
            t = np.dot(e2, qvec) * inv
            eps = 1e-9
            hit = (
                (np.abs(det) > 1e-12)
                & (u >= -eps)
                & (v >= -eps)
                & (u + v <= 1.0 + eps)
                & (t > BEHIND_CAMERA_EPS)
                & (t < depth)
            )
        depth[hit] = t[hit]
        tri_index[hit] = k
    depth[tri_index < 0] = 0.0
    return depth.reshape(h, w), tri_index.reshape(h, w), triangles, owner


def project_gt_boxes(scene, camera_index, min_pixels=16.0):
    """GT 2D boxes of one camera, one object at a time.

    The package's ``project_gt_boxes`` as it was before it projected the
    vertices of all objects in one call: each object's mesh is built and
    projected on its own, and its in-front vertices give the clipped
    hull. Returns a list of ``Box2D``.
    """
    cam = scene.cameras[camera_index]
    w, h = cam.intrinsics.width, cam.intrinsics.height
    boxes = []
    for obj in scene.objects:
        verts = obj.mesh().reshape(-1, 3)
        uv, _, in_front = project_points(verts, cam.intrinsics, cam.pose)
        if not in_front.any():
            continue
        uv = uv[in_front]
        u0 = max(0.0, float(uv[:, 0].min()))
        v0 = max(0.0, float(uv[:, 1].min()))
        u1 = min(float(w - 1), float(uv[:, 0].max()))
        v1 = min(float(h - 1), float(uv[:, 1].max()))
        if u1 <= u0 or v1 <= v0:
            continue
        if (u1 - u0) * (v1 - v0) < min_pixels:
            continue
        boxes.append(Box2D(obj.box.category, u0, v0, u1, v1))
    return boxes


class SpatialHashGrid:
    """Uniform hash grid for fixed-radius neighbor rejection.

    Cell edge equals the query radius, so any neighbor within the radius
    lies in the 3x3x3 block of cells around the query point and the scan
    is exact. Not thread-safe; callers serialize inserts.
    """

    def __init__(self, radius):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)
        self._cells: dict[tuple[int, int, int], list[int]] = {}
        self._points: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._points)

    def _key(self, point) -> tuple[int, int, int]:
        return (
            math.floor(point[0] / self.radius),
            math.floor(point[1] / self.radius),
            math.floor(point[2] / self.radius),
        )

    def insert(self, point) -> None:
        p = np.asarray(point, dtype=np.float64)
        self._cells.setdefault(self._key(p), []).append(len(self._points))
        self._points.append(p)

    def has_neighbor_within(self, point, radius: float | None = None) -> bool:
        """True if any stored point is strictly closer than ``radius``.

        ``radius`` must not exceed the grid's cell edge or the 27-cell
        scan would miss neighbors.
        """
        r = self.radius if radius is None else float(radius)
        if r > self.radius:
            raise ValueError("query radius exceeds grid cell size")
        p = np.asarray(point, dtype=np.float64)
        kx, ky, kz = self._key(p)
        r2 = r * r
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    bucket = self._cells.get((kx + dx, ky + dy, kz + dz))
                    if not bucket:
                        continue
                    for idx in bucket:
                        q = self._points[idx]
                        d2 = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 + (p[2] - q[2]) ** 2
                        if d2 < r2:
                            return True
        return False


def box_candidates(frame, fid, radius):
    """Scatter candidates of one frame: strided valid-depth pixels of
    every 2D box, in box and raster order, as a ScatterCloud.

    The scatter stage's candidate builder as it was before it gathered a
    frame's boxes into one back-projection: each box is gridded,
    filtered and back-projected on its own.
    """
    depth = frame.depth
    intr = frame.intrinsics
    parts = [empty_cloud()]
    for box in frame.boxes_2d:
        u0 = max(0, math.ceil(box.u_min))
        v0 = max(0, math.ceil(box.v_min))
        u1 = min(intr.width - 1, math.floor(box.u_max))
        v1 = min(intr.height - 1, math.floor(box.v_max))
        if u1 < u0 or v1 < v0:
            continue
        region = depth[v0 : v1 + 1, u0 : u1 + 1]
        valid = region > 0
        if not valid.any():
            continue
        stride = box_sampling_stride(intr.fx, radius, float(np.median(region[valid])))
        uu, vv = np.meshgrid(np.arange(u0, u1 + 1, stride), np.arange(v0, v1 + 1, stride))
        uu = uu.reshape(-1)
        vv = vv.reshape(-1)
        dd = depth[vv, uu]
        keep = dd > 0
        uu, vv, dd = uu[keep], vv[keep], dd[keep]
        world = backproject_pixels(uu.astype(np.float64), vv.astype(np.float64), dd, intr, frame.pose)
        parts.append(
            ScatterCloud(
                positions=world,
                frame_ids=np.full(len(dd), fid, dtype=np.int64),
                pixels=np.stack([uu, vv], axis=1).astype(np.float64),
                categories=np.full(len(dd), box.category, dtype=np.int64),
            )
        )
    columns = ("positions", "frame_ids", "pixels", "categories")
    return ScatterCloud(*(np.concatenate([getattr(c, name) for c in parts]) for name in columns))


def dense_candidates(frame, fid, radius):
    """Scatter candidates of one frame, read from its dense depth map.

    The scatter stage's candidate builder as it was when frames held
    (H, W) maps: each box's region of ``frame.depth`` is masked by
    valid depth, strided with ``[::stride, ::stride]`` and walked by
    ``nonzero`` in raster order; the pixels of all boxes are
    back-projected in one call. The package's builder over the covered
    pixels must give the same bits.
    """
    depth = frame.depth
    intr = frame.intrinsics
    empty = np.zeros(0, dtype=np.int64)
    us, vs, cats = [empty], [empty], [empty]
    for box in frame.boxes_2d:
        u0 = max(0, math.ceil(box.u_min))
        v0 = max(0, math.ceil(box.v_min))
        u1 = min(intr.width - 1, math.floor(box.u_max))
        v1 = min(intr.height - 1, math.floor(box.v_max))
        if u1 < u0 or v1 < v0:
            continue
        region = depth[v0 : v1 + 1, u0 : u1 + 1]
        valid = region > 0
        if not valid.any():
            continue
        stride = box_sampling_stride(intr.fx, radius, float(np.median(region[valid])))
        rows, cols = np.nonzero(valid[::stride, ::stride])
        us.append(u0 + stride * cols)
        vs.append(v0 + stride * rows)
        cats.append(np.full(len(rows), box.category, dtype=np.int64))
    uu, vv = np.concatenate(us), np.concatenate(vs)
    pixels = np.stack([uu, vv], axis=1).astype(np.float64)
    world = backproject_pixels(pixels[:, 0], pixels[:, 1], depth[vv, uu], intr, frame.pose)
    return ScatterCloud(
        positions=world,
        frame_ids=np.full(len(uu), fid, dtype=np.int64),
        pixels=pixels,
        categories=np.concatenate(cats),
    )


class HashGridAccumulator:
    """The scatter accumulator before vectorized dedup: one hash-grid
    scan per candidate of :func:`box_candidates`, in box and raster
    order. It shares the package's stride rule and cloud container; what
    it checks is the dedup.

    Calls to :meth:`add_frame` must be serialized; the spatial index is
    shared across frames and candidates are checked against every point
    accepted before them, including earlier points of the same frame.
    """

    def __init__(self, config):
        self.config = config
        self._grid = SpatialHashGrid(config.radius)
        self._positions: list[np.ndarray] = []
        self._frame_ids: list[int] = []
        self._pixels = []
        self._categories: list[int] = []

    def __len__(self) -> int:
        return len(self._positions)

    def add_frame(self, frame):
        """Scatter one frame; returns the number of accepted points."""
        fid = frame.camera_index
        cands = box_candidates(frame, fid, self.config.radius)
        accepted = 0
        for p, pixel, category in zip(cands.positions, cands.pixels, cands.categories.tolist()):
            if self._grid.has_neighbor_within(p):
                continue
            self._grid.insert(p)
            self._positions.append(p)
            self._frame_ids.append(fid)
            self._pixels.append(tuple(pixel))
            self._categories.append(category)
            accepted += 1
        return accepted

    def cloud(self):
        if not self._positions:
            return empty_cloud()
        return ScatterCloud(
            positions=np.array(self._positions),
            frame_ids=np.array(self._frame_ids, dtype=np.int64),
            pixels=np.array(self._pixels),
            categories=np.array(self._categories, dtype=np.int64),
        )


def sq_dist(p, q):
    """Row-wise squared distance, summed in x, y, z order."""
    return (p[:, 0] - q[:, 0]) ** 2 + (p[:, 1] - q[:, 1]) ** 2 + (p[:, 2] - q[:, 2]) ** 2


# relative margin the tree searches add to the radius; tree distances
# and the exact squared-distance sum differ by far less
DEDUP_SLACK = 1e-9


def tree_near_any(queries, points, r):
    """Mask of queries with some row of ``points`` strictly closer than
    ``r``: the dedup's first step when it searched a KD-tree. The
    tree's nearest point is tested with the exact sum; when it fails but
    lies within the slack band, every point in reach is tried."""
    reach = r * (1.0 + DEDUP_SLACK)
    tree = cKDTree(points, balanced_tree=False, compact_nodes=False)
    dist, idx = tree.query(queries, k=1, distance_upper_bound=reach)
    found = np.flatnonzero(np.isfinite(dist))
    near = np.zeros(len(queries), dtype=bool)
    near[found] = sq_dist(queries[found], points[idx[found]]) < r * r
    band = found[~near[found]]
    for i, nbrs in zip(band, tree.query_ball_point(queries[band], reach)):
        others = points[nbrs]
        near[i] = (sq_dist(np.broadcast_to(queries[i], others.shape), others) < r * r).any()
    return near


def tree_greedy_keep(points, r):
    """Greedy acceptance in row order from the KD-tree's neighbour pairs:
    a kept row rejects later rows strictly closer than ``r``."""
    keep = np.ones(len(points), dtype=bool)
    pairs = cKDTree(points).query_pairs(r * (1.0 + DEDUP_SLACK), output_type="ndarray")
    pairs = pairs[sq_dist(points[pairs[:, 0]], points[pairs[:, 1]]) < r * r]
    pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
    heads, starts = np.unique(pairs[:, 0], return_index=True)
    for head, later in zip(heads.tolist(), np.split(pairs[:, 1], starts[1:])):
        if keep[head]:
            keep[later] = False
    return keep


class TreeAccumulator:
    """The scatter accumulator when its dedup searched KD-trees: each
    frame's candidates of :func:`box_candidates` are queried against a
    tree of every earlier point, and the survivors settle their own
    pairs greedily in candidate order."""

    def __init__(self, config):
        self.config = config
        self._frames = [empty_cloud()]

    def add_frame(self, frame):
        """Scatter one frame; returns the number of accepted points."""
        cands = box_candidates(frame, frame.camera_index, self.config.radius)
        r = self.config.radius
        earlier = np.concatenate([c.positions for c in self._frames])
        keep = ~tree_near_any(cands.positions, earlier, r)
        keep[keep] = tree_greedy_keep(cands.positions[keep], r)
        self._frames.append(cands.select(np.flatnonzero(keep)))
        return int(keep.sum())

    def cloud(self):
        frames = self._frames
        return ScatterCloud(
            **{
                name: np.concatenate([getattr(c, name) for c in frames])
                for name in ("positions", "frame_ids", "pixels", "categories")
            }
        )


def union_find_components(points, eps):
    """Index groups of points linked by distances <= eps, by a Python
    union-find over the KD-tree's pairs: the cluster detector's grouping
    before it used scipy's connected components, and then its own."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in cKDTree(points).query_pairs(eps):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [np.array(g, dtype=np.int64) for g in groups.values()]


def pack_index(ix, iy, iz):
    """One integer key for three voxel indices in [-2**20, 2**20): 21 bits
    per axis, x highest, each shifted by 2**20. The scalar form of the
    key packing inside ``voxelize``."""
    for v in (ix, iy, iz):
        if not -(2**20) <= v < 2**20:
            raise ValueError(f"voxel index {v} outside [-2**20, 2**20)")
    return (ix + 2**20) * 2**42 + (iy + 2**20) * 2**21 + (iz + 2**20)


def unpack_index(key):
    """Inverse of :func:`pack_index`."""
    ix, rest = divmod(int(key), 2**42)
    iy, iz = divmod(rest, 2**21)
    return ix - 2**20, iy - 2**20, iz - 2**20


def dense_frame(frame):
    """The frame as frames were before they kept only their covered
    pixels: its dense ``depth``, ``tri_index`` and ``color`` built once
    and held as plain attributes. The per-point oracles read them once
    per point, which a frame that builds them on each access makes slow.
    """
    fields = ("camera_index", "intrinsics", "pose", "shades", "boxes_2d", "depth", "tri_index", "color")
    return types.SimpleNamespace(**{name: getattr(frame, name) for name in fields})


def _tent_sample(image, u, v):
    """Bilinear sample of an (H, W, C) image as a tent-weighted sum over
    every texel: texel (x, y) weighs max(0, 1-|u-x|) * max(0, 1-|v-y|)."""
    h, w = image.shape[:2]
    wu = np.maximum(0.0, 1.0 - np.abs(np.arange(w) - u))
    wv = np.maximum(0.0, 1.0 - np.abs(np.arange(h) - v))
    return np.einsum("y,x,yxc->c", wv, wu, image)


def project_point_views(point, frames, occlusion_check=False, depth_sigma=0.0):
    """How each frame sees one world point, one frame at a time.

    Returns ``(features, mask, pixels, depths)``: (F, C) colors sampled
    where the frame sees the point (zero rows elsewhere), and the
    ``(mask, pixels, depths)`` of :func:`point_view_mask`.
    """
    mask, pixels, depths = point_view_mask(point, frames, occlusion_check, depth_sigma)
    channels = frames[0].color.shape[2] if frames else 0
    features = np.zeros((len(frames), channels))
    for i in np.flatnonzero(mask):
        features[i] = _tent_sample(frames[i].color, *pixels[i])
    return features, mask, pixels, depths


def point_view_mask(point, frames, occlusion_check=False, depth_sigma=0.0):
    """Which frames see one world point, one frame at a time.

    Returns ``(mask, pixels, depths)``: the (F,) mask of the frames that
    see the point, (F, 2) continuous pixel coordinates (NaN behind the
    camera) and the (F,) camera-frame depths. A frame sees the point when
    it lies in front of the camera, projects inside [0, W-1] x [0, H-1]
    and, with ``occlusion_check``, is no deeper than the rendered depth
    at the nearest pixel plus max(3 * depth_sigma, 0.01); empty
    background (rendered depth 0) never hides a point.
    """
    p = np.asarray(point, dtype=np.float64).reshape(3)
    n = len(frames)
    mask = np.zeros(n, dtype=bool)
    pixels = np.full((n, 2), np.nan)
    depths = np.zeros(n)
    for i, frame in enumerate(frames):
        intr = frame.intrinsics
        x, y, z = frame.pose.rotation.T @ (p - frame.pose.translation)
        depths[i] = z
        if z <= BEHIND_CAMERA_EPS:
            continue
        u = intr.fx * x / z + intr.cx
        v = intr.fy * y / z + intr.cy
        pixels[i] = u, v
        if not (0.0 <= u <= intr.width - 1 and 0.0 <= v <= intr.height - 1):
            continue
        if occlusion_check:
            rendered = frame.depth[round(v), round(u)]
            if rendered > 0 and z > rendered + max(3.0 * depth_sigma, 0.01):
                continue
        mask[i] = True
    return mask, pixels, depths


def aggregate_point(point, frames, occlusion_check=False, depth_sigma=0.0):
    """``(mean, variance, valid_count)`` of one point's colors over the
    frames that see it: the per-point reference for ``aggregate_cloud``.
    Mean and population variance are plain sums over the seen rows;
    both are zero when no frame sees the point."""
    features, mask, _, _ = project_point_views(point, frames, occlusion_check, depth_sigma)
    seen = features[mask]
    if len(seen) == 0:
        return np.zeros(features.shape[1]), np.zeros(features.shape[1]), 0
    mean = seen.sum(axis=0) / len(seen)
    return mean, ((seen - mean) ** 2).sum(axis=0) / len(seen), len(seen)


def bilinear_sample(image: np.ndarray, u, v):
    """Bilinear interpolation of an (H, W) or (H, W, C) image.

    The package's sampler as it was when frames stored color images;
    the package's palette sampler must give the same bits.

    ``u`` and ``v`` are continuous pixel coordinates (pixel centers at
    integers) and must lie inside ``[0, W-1] x [0, H-1]``; integer
    coordinates return the exact texel value. Scalars in, scalar (or
    (C,)) out; arrays in, arrays out.
    """
    img = np.asarray(image, dtype=np.float64)
    scalar = np.ndim(u) == 0 and np.ndim(v) == 0
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    h, w = img.shape[:2]
    if np.any((u < 0) | (u > w - 1) | (v < 0) | (v > h - 1)):
        raise ValueError("sample coordinates outside the image domain")
    x0 = np.minimum(np.floor(u), w - 2).astype(np.int64) if w > 1 else np.zeros(len(u), np.int64)
    y0 = np.minimum(np.floor(v), h - 2).astype(np.int64) if h > 1 else np.zeros(len(v), np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = u - x0
    fy = v - y0
    if img.ndim == 3:
        fx = fx[:, None]
        fy = fy[:, None]
    out = (
        img[y0, x0] * (1 - fx) * (1 - fy)
        + img[y0, x1] * fx * (1 - fy)
        + img[y1, x0] * (1 - fx) * fy
        + img[y1, x1] * fx * fy
    )
    if scalar:
        return out[0] if img.ndim == 2 else out[0, :]
    return out


def _frame_projection(positions, frame, occlusion_check, depth_sigma):
    """Valid mask, pixel coords and depths of (N, 3) points in one frame.

    The package's projection as it was before it returned compact index
    lists: full-length NaN-filled pixel coordinates from
    ``project_points`` and a boolean mask over every point. The package
    must find the same points and pixel coordinates.
    """
    intr = frame.intrinsics
    uv, z, in_front = project_points(positions, intr, frame.pose)
    ok = in_front.copy()
    np.logical_and(ok, ~np.isnan(uv[:, 0]), out=ok)
    inside = (
        (uv[:, 0] >= 0)
        & (uv[:, 0] <= intr.width - 1)
        & (uv[:, 1] >= 0)
        & (uv[:, 1] <= intr.height - 1)
    )
    ok &= inside
    if occlusion_check and ok.any():
        # nearest-pixel depth comparison; background (depth 0) cannot occlude
        tol = max(3.0 * depth_sigma, 0.01)
        ui = np.rint(uv[ok, 0]).astype(np.int64)
        vi = np.rint(uv[ok, 1]).astype(np.int64)
        rendered = frame.depth[vi, ui]
        visible = (rendered <= 0) | (z[ok] <= rendered + tol)
        sub = np.where(ok)[0]
        ok[sub[~visible]] = False
    return ok, uv, z


def aggregate_cloud(
    cloud,
    frames,
    occlusion_check: bool = False,
    depth_sigma: float = 0.0,
):
    """Batch mean/variance/valid-count aggregation for a whole cloud.

    The package's ``aggregate_cloud`` as it was when frames stored an
    (H, W, 3) color image: it samples ``frame.color`` with the image
    ``bilinear_sample`` above, and is the byte-level reference for the
    version that samples the triangle-index map through the shade table.
    It projects with :func:`_frame_projection` and reduces with
    :func:`reduce_views`, the package's masked projection and three-pass
    reduction as they were before both went to compact per-view lists,
    so it is the byte reference for all three steps;
    :func:`point_view_mask` is the per-point reference for the mask, and
    :func:`aggregate_mean` and :func:`aggregate_variance` the per-row
    references for the reduction.
    Returns ``(means, variances, valid_counts)`` with shapes (N, C),
    (N, C), (N,).
    """
    positions = cloud.positions
    channels = frames[0].color.shape[2] if frames else 0
    views = []
    for frame in frames:
        ok, uv, _ = _frame_projection(positions, frame, occlusion_check, depth_sigma)
        if ok.any():
            views.append((np.flatnonzero(ok), bilinear_sample(frame.color, uv[ok, 0], uv[ok, 1])))
    return reduce_views(views, len(positions), channels)


def palette_sample(index: np.ndarray, shades: np.ndarray, u, v):
    """Bilinear interpolation of a palette image.

    The package's sampler as it was when frames held an (H, W) triangle
    index map: the texel at row ``y``, column ``x`` is
    ``shades[index[y, x]]``, where ``index`` is an (H, W) integer map into
    ``shades``, a (K,) or (K, C) table. ``u`` and ``v`` are continuous
    pixel coordinates (pixel centers at integers) and must lie inside
    ``[0, W-1] x [0, H-1]``; integer coordinates return the exact texel
    value. Scalars in, scalar (or (C,)) out; arrays in, arrays out. Each
    channel is interpolated on its own, from flat gathers of the four
    corners.
    """
    table = np.asarray(shades, dtype=np.float64)
    scalar = np.ndim(u) == 0 and np.ndim(v) == 0
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    h, w = index.shape
    if np.any((u < 0) | (u > w - 1) | (v < 0) | (v > h - 1)):
        raise ValueError("sample coordinates outside the image domain")
    x0 = np.minimum(np.floor(u), w - 2).astype(np.int64) if w > 1 else np.zeros(len(u), np.int64)
    y0 = np.minimum(np.floor(v), h - 2).astype(np.int64) if h > 1 else np.zeros(len(v), np.int64)
    fx = u - x0
    fy = v - y0
    gx, gy = 1 - fx, 1 - fy
    # flat corner offsets; an image 1 pixel wide or high repeats its edge
    dx, dy = int(w > 1), w if h > 1 else 0
    flat = index.ravel()
    corner = y0 * w + x0
    i00, i01, i10, i11 = flat[corner], flat[corner + dx], flat[corner + dy], flat[corner + (dx + dy)]
    rows = np.atleast_2d(np.ascontiguousarray(table.T))
    out = np.empty((len(rows), len(u)))
    for t, o in zip(rows, out):
        o[:] = t[i00] * gx * gy + t[i01] * fx * gy + t[i10] * gx * fy + t[i11] * fx * fy
    out = out.T if table.ndim == 2 else out[0]
    return out[0] if scalar else out


def _dense_frame_projection(positions, frame, occlusion_check, depth_sigma):
    """``(idx, u, v)`` of the points one frame sees, with the nearest
    pixel's depth read from the dense ``frame.depth``: the package's
    projection as it was when frames held (H, W) maps."""
    intr = frame.intrinsics
    x, y, z = frame.pose.world_to_camera(positions).T
    with np.errstate(invalid="ignore", divide="ignore"):
        u = intr.fx * x / z + intr.cx
        v = intr.fy * y / z + intr.cy
    ok = (z > BEHIND_CAMERA_EPS) & (u >= 0) & (u <= intr.width - 1) & (v >= 0) & (v <= intr.height - 1)
    idx = np.flatnonzero(ok)
    u, v = u[idx], v[idx]
    if occlusion_check:
        depth = frame.depth
        rendered = depth.ravel()[np.rint(v).astype(np.int64) * depth.shape[1] + np.rint(u).astype(np.int64)]
        seen = (rendered <= 0) | (z[idx] <= rendered + max(3.0 * depth_sigma, 0.01))
        idx, u, v = idx[seen], u[seen], v[seen]
    return idx, u, v


def dense_aggregate_cloud(cloud, frames, occlusion_check=False, depth_sigma=0.0):
    """``aggregate_cloud`` as it was when frames held (H, W) maps: the
    nearest pixel's depth from ``frame.depth`` and the four corners'
    triangles from ``frame.tri_index``, through :func:`palette_sample`.
    The package, which looks both up among the covered pixels, must
    give the same bits. Returns ``(means, variances, valid_counts)``.
    """
    positions = cloud.positions
    channels = frames[0].shades.shape[1] if frames else 0
    views = []
    for frame in frames:
        idx, u, v = _dense_frame_projection(positions, frame, occlusion_check, depth_sigma)
        if len(idx):
            views.append((idx, palette_sample(frame.tri_index, frame.shades, u, v)))
    return reduce_views(views, len(positions), channels)


def reduce_views(views, n: int, channels: int):
    """Masked mean, population variance and count of each point's samples.

    The package's reduction as it was before it went one channel at a
    time: the shift is each point's first sample, written by a reversed
    pass over the views so that earlier views overwrite later ones, then
    one pass sums the samples and shifted samples and one sums the
    squared deviations. ``views`` holds one ``(idx, samples)`` pair per
    view, in view order. Returns arrays of shapes (N, C), (N, C), (N,).
    """
    shift = np.zeros((n, channels))
    for idx, samples in reversed(views):
        shift[idx] = samples
    sums = np.zeros((n, channels))
    dsums = np.zeros((n, channels))
    counts = np.zeros(n, dtype=np.int64)
    for idx, samples in views:
        sums[idx] += samples
        counts[idx] += 1
        dsums[idx] += samples - shift[idx]
    seen = counts[:, None] > 0
    means = np.divide(sums, counts[:, None], out=np.zeros_like(sums), where=seen)
    dmeans = np.divide(dsums, counts[:, None], out=np.zeros_like(dsums), where=seen)

    sq = np.zeros((n, channels))
    for idx, samples in views:
        r = samples - shift[idx] - dmeans[idx]
        sq[idx] += r * r
    variances = np.divide(sq, counts[:, None], out=np.zeros_like(sq), where=seen)
    return means, variances, counts


def aggregate_mean(features: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Masked mean over frames: ``sum(M_i f_i) / eta``; zeros when eta=0.
    The per-row reference for the means of ``reduce_views``."""
    f = np.asarray(features, dtype=np.float64)
    m = np.asarray(mask, dtype=bool)
    eta = int(m.sum())
    if eta == 0:
        return np.zeros(f.shape[1])
    return f[m].sum(axis=0) / eta


def aggregate_variance(features: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Masked population variance about the masked mean; zeros when eta=0.
    The per-row reference for the variances of ``reduce_views``."""
    f = np.asarray(features, dtype=np.float64)
    m = np.asarray(mask, dtype=bool)
    eta = int(m.sum())
    if eta == 0:
        return np.zeros(f.shape[1])
    # shifting by one observed row keeps the result exactly zero when every
    # masked row is identical, which the rounded unshifted mean cannot
    shifted = f[m] - f[m][0]
    mean = shifted.sum(axis=0) / eta
    return ((shifted - mean) ** 2).sum(axis=0) / eta


def append_onehot(feature, category, num_categories):
    """A feature row followed by a one-hot block of ``num_categories``
    entries (all zero for category -1): the per-row reference for
    ``compose_features``."""
    if num_categories < 1:
        raise ValueError("need at least one category")
    if not -1 <= category < num_categories:
        raise ValueError(f"category {category} outside [-1, {num_categories})")
    block = [1.0 if k == category else 0.0 for k in range(num_categories)]
    return np.array([float(x) for x in feature] + block)


def perturb_depth(depth, sigma, outlier_rate, rng, depth_range) -> np.ndarray:
    """Add Gaussian noise and uniform outliers to the valid pixels.

    The reference for the renderer's ``perturb_depth``, which skips the
    outlier draws when ``outlier_rate`` is 0; this one always draws them.

    Valid (non-zero) depths get ``N(0, sigma^2)`` noise and are clipped
    into ``depth_range``; a fraction ``outlier_rate`` of them is instead
    replaced by a uniform draw from ``depth_range``. Invalid pixels stay
    0. The rng is consumed in a fixed order regardless of the mask, so
    equal seeds give equal results.
    """
    d = np.asarray(depth, dtype=np.float64)
    lo, hi = float(depth_range[0]), float(depth_range[1])
    if not hi > lo > 0:
        raise ValueError(f"bad depth range [{lo}, {hi}]")
    noise = rng.normal(0.0, sigma, size=d.shape) if sigma > 0 else np.zeros_like(d)
    outlier_mask = rng.random(d.shape) < outlier_rate
    uniform = rng.uniform(lo, hi, size=d.shape)
    valid = d > 0
    out = np.clip(d + noise, lo, hi)
    out = np.where(outlier_mask, uniform, out)
    out[~valid] = 0.0
    return out


def write_cloud_ply(cloud: ScatterCloud, path) -> None:
    """Binary little-endian PLY with provenance properties per vertex, row by row.

    Always writes x/y/z, source frame, category and the source pixel;
    a ``score`` property and ``f<i>`` feature properties appear when the
    cloud carries them. Each row is packed on its own with
    ``struct.pack``: 8 bytes per double, 4 per int.
    """
    n = len(cloud)
    channels = 0 if cloud.features is None else cloud.features.shape[1]
    lines = [
        "ply",
        "format binary_little_endian 1.0",
        "comment multi-view scatter cloud",
        f"element vertex {n}",
        "property double x",
        "property double y",
        "property double z",
        "property int frame",
        "property int category",
        "property double pu",
        "property double pv",
    ]
    row_format = "<dddiidd"
    if cloud.scores is not None:
        lines.append("property double score")
        row_format += "d"
    for c in range(channels):
        lines.append(f"property double f{c}")
    row_format += "d" * channels
    lines.append("end_header")
    with open(path, "wb") as f:
        f.write(("\n".join(lines) + "\n").encode("ascii"))
        for i in range(n):
            row = [
                float(cloud.positions[i, 0]),
                float(cloud.positions[i, 1]),
                float(cloud.positions[i, 2]),
                int(cloud.frame_ids[i]),
                int(cloud.categories[i]),
                float(cloud.pixels[i, 0]),
                float(cloud.pixels[i, 1]),
            ]
            if cloud.scores is not None:
                row.append(float(cloud.scores[i]))
            if channels:
                row.extend(float(v) for v in cloud.features[i])
            f.write(struct.pack(row_format, *row))


# struct code and numpy dtype of each PLY property type
_PLY_TYPES = {"double": ("d", np.float64), "int": ("i", np.int64)}


def read_cloud_ply(path) -> ScatterCloud:
    """Read a binary little-endian cloud PLY by its header alone.

    Each vertex property is read by the name and type the header gives
    it, in whatever order the header lists them, so a writer that puts
    a column under the wrong name or type fails a round trip instead of
    being read back through the same mistake. Any other format, and a
    body that is not exactly the declared number of rows, is rejected.
    """
    with open(path, "rb") as f:
        if f.readline() != b"ply\n":
            raise ValueError(f"{path} is not a PLY file")
        n, fmt, props = None, None, []
        while True:
            line = f.readline()
            if not line:
                raise ValueError("PLY header lacks end_header")
            parts = line.decode("ascii").split()
            if parts == ["end_header"]:
                break
            if parts[:1] == ["format"]:
                fmt = parts[1:]
            elif parts[:2] == ["element", "vertex"]:
                n = int(parts[2])
            elif parts[:1] == ["property"]:
                if parts[1] not in _PLY_TYPES:
                    raise ValueError(f"PLY property type {parts[1]} is not double or int")
                props.append((parts[2], parts[1]))
        body = f.read()
    if fmt != ["binary_little_endian", "1.0"]:
        raise ValueError(f"PLY format {fmt} is not binary_little_endian 1.0")
    if n is None:
        raise ValueError("PLY header lacks a vertex element")
    row_format = "<" + "".join(_PLY_TYPES[kind][0] for _, kind in props)
    if len(body) != n * struct.calcsize(row_format):
        raise ValueError(f"PLY body of {len(body)} bytes is not {n} rows of {row_format}")
    rows = list(struct.iter_unpack(row_format, body)) if props else []
    values = list(zip(*rows)) if rows else [()] * len(props)
    col = {
        name: np.array(v, dtype=_PLY_TYPES[kind][1]) for (name, kind), v in zip(props, values)
    }
    for name in ("x", "y", "z", "frame", "category", "pu", "pv"):
        if name not in col:
            raise ValueError(f"PLY missing property {name}")
    features = sorted(
        (p for p in col if p[0] == "f" and p[1:].isdigit()), key=lambda p: int(p[1:])
    )

    def stack(names):
        return np.stack([col[p] for p in names], axis=1)

    return ScatterCloud(
        positions=stack(["x", "y", "z"]),
        frame_ids=col["frame"],
        pixels=stack(["pu", "pv"]),
        categories=col["category"],
        features=stack(features) if features else None,
        scores=col.get("score"),
    )


def write_pgm(image: np.ndarray, path, max_value: float | None = None) -> None:
    """16-bit ASCII PGM of a scalar map (e.g. depth), value by value.

    Values are scaled so ``max_value`` (default: the array maximum) maps
    to 65535; the scale is recorded in a header comment.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("PGM export needs a 2D map")
    peak = float(img.max()) if max_value is None else float(max_value)
    scale = 65535.0 / peak if peak > 0 else 0.0
    quant = np.clip(np.rint(img * scale), 0, 65535).astype(np.int64)
    h, w = img.shape
    with open(path, "w") as f:
        f.write(f"P2\n# scale: {scale!r} units per count\n{w} {h}\n65535\n")
        for row in quant:
            f.write(" ".join(str(v) for v in row) + "\n")


def write_ppm(image: np.ndarray, path) -> None:
    """8-bit ASCII PPM of a unit-range (H, W, 3) color image, value by value."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("PPM export needs an (H, W, 3) image")
    quant = np.clip(np.rint(img * 255.0), 0, 255).astype(np.int64)
    h, w, _ = img.shape
    with open(path, "w") as f:
        f.write(f"P3\n{w} {h}\n255\n")
        for row in quant:
            f.write(" ".join(" ".join(str(c) for c in px) for px in row) + "\n")


def select_keyframes(poses, detections_per_frame, target_count, min_translation=0.1, min_rotation_deg=10.0):
    """Keyframe selection in three separate passes over the frames.

    The first keeps frames with a detection that moved enough from the
    previously kept frame; the second relaxes the detection requirement,
    comparing each frame with the latest kept earlier frame; the third
    fills in frames in temporal order until ``target_count``.
    """

    def moved(i, j):
        dt = float(np.linalg.norm(poses[i].translation - poses[j].translation))
        cos = (np.trace(poses[i].rotation.T @ poses[j].rotation) - 1.0) / 2.0
        angle = math.degrees(math.acos(float(np.clip(cos, -1.0, 1.0))))
        return dt >= min_translation or angle >= min_rotation_deg

    selected = []
    last = None
    for i in range(len(poses)):
        if len(selected) >= target_count:
            break
        if detections_per_frame[i] >= 1 and (last is None or moved(i, last)):
            selected.append(i)
            last = i

    if len(selected) < target_count:
        chosen = set(selected)
        for i in range(len(poses)):
            if len(chosen) >= target_count:
                break
            if i in chosen:
                continue
            prior = [j for j in sorted(chosen) if j < i]
            if not prior or moved(i, prior[-1]):
                chosen.add(i)
        selected = sorted(chosen)

    if len(selected) < target_count:
        chosen = set(selected)
        for i in range(len(poses)):
            if len(chosen) >= target_count:
                break
            chosen.add(i)
        selected = sorted(chosen)

    return sorted(selected[:target_count])
