"""Independent reference implementations used only by the tests.

Everything here is deliberately naive (loops, O(n^2) scans, Monte
Carlo) so that agreement with the package is evidence rather than
tautology. Keep these free of imports from the modules they check,
apart from plain data containers and, in :func:`aggregate_cloud`, the
visibility mask that :func:`point_view_mask` checks and the reduction
that :func:`aggregate_variance` checks.
"""

import math

import numpy as np
from scipy.spatial import cKDTree

from pointscatter.aggregate import _frame_projection, reduce_views
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


def cast_rays(scene, intrinsics, pose):
    """Nearest-hit depth and triangle index for every pixel center.

    The renderer's caster before screen-box culling: every triangle is
    tested against every pixel ray. Ray directions are built with
    camera-frame z-component 1, so the ray parameter of a hit equals its
    camera depth directly.
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
        box = Box2D(obj.box.category, u0, v0, u1, v1)
        if box.area < min_pixels:
            continue
        boxes.append(box)
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
        self._grid = SpatialHashGrid(config.effective_dedup_radius)
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


def union_find_components(points, eps):
    """Index groups of points linked by distances <= eps, by a Python
    union-find over the KD-tree's pairs: the cluster detector's grouping
    before it used scipy's connected components."""
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
    It takes the visibility mask from the package's ``_frame_projection``
    and reduces through its ``reduce_views``, so what it checks is the
    sampling; :func:`point_view_mask` is the reference for the mask, and
    :func:`aggregate_mean` and :func:`aggregate_variance` for the
    reduction.
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


def _fmt(x: float) -> str:
    return repr(float(x))


def write_cloud_ply(cloud: ScatterCloud, path) -> None:
    """ASCII PLY with provenance properties per vertex, row by row.

    Always writes x/y/z, source frame, category and the source pixel;
    a ``score`` property and ``f<i>`` feature properties appear when the
    cloud carries them.
    """
    n = len(cloud)
    channels = 0 if cloud.features is None else cloud.features.shape[1]
    lines = [
        "ply",
        "format ascii 1.0",
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
    if cloud.scores is not None:
        lines.append("property double score")
    for c in range(channels):
        lines.append(f"property double f{c}")
    lines.append("end_header")
    for i in range(n):
        row = [
            _fmt(cloud.positions[i, 0]),
            _fmt(cloud.positions[i, 1]),
            _fmt(cloud.positions[i, 2]),
            str(int(cloud.frame_ids[i])),
            str(int(cloud.categories[i])),
            _fmt(cloud.pixels[i, 0]),
            _fmt(cloud.pixels[i, 1]),
        ]
        if cloud.scores is not None:
            row.append(_fmt(cloud.scores[i]))
        if channels:
            row.extend(_fmt(v) for v in cloud.features[i])
        lines.append(" ".join(row))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


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
