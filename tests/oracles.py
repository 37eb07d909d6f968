"""Independent reference implementations used only by the tests.

Everything here is deliberately naive (loops, O(n^2) scans, Monte
Carlo) so that agreement with the package is evidence rather than
tautology. Keep these free of imports from the modules they check,
apart from plain data containers.
"""

import math

import numpy as np
from scipy.spatial import cKDTree

from pointscatter.camera import BEHIND_CAMERA_EPS, backproject_pixels
from pointscatter.scatter import ScatterCloud, box_sampling_stride, empty_cloud


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


class HashGridAccumulator:
    """The scatter accumulator before vectorized dedup: one hash-grid
    scan per candidate, in box and raster order. It shares the package's
    stride rule and cloud container; what it checks is the dedup.

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

    def add_frame(self, frame, frame_index=None):
        """Scatter one frame; returns the number of accepted points."""
        fid = frame.camera_index if frame_index is None else frame_index
        depth = frame.depth
        intr = frame.intrinsics
        accepted = 0
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
            stride = box_sampling_stride(intr.fx, self.config.radius, float(np.median(region[valid])))
            vs = np.arange(v0, v1 + 1, stride)
            us = np.arange(u0, u1 + 1, stride)
            uu, vv = np.meshgrid(us, vs)
            uu = uu.reshape(-1)
            vv = vv.reshape(-1)
            dd = depth[vv, uu]
            keep = dd > 0
            uu, vv, dd = uu[keep], vv[keep], dd[keep]
            if len(dd) == 0:
                continue
            world = backproject_pixels(uu.astype(np.float64), vv.astype(np.float64), dd, intr, frame.pose)
            for i in range(len(world)):
                p = world[i]
                if self._grid.has_neighbor_within(p):
                    continue
                self._grid.insert(p)
                self._positions.append(p)
                self._frame_ids.append(fid)
                self._pixels.append((float(uu[i]), float(vv[i])))
                self._categories.append(box.category)
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
