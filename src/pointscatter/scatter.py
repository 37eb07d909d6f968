"""Depth-map point scattering with stride sampling and exact radius dedup.

Points are back-projected from strided pixels inside GT 2D boxes. The
pixel stride adapts to object distance (``round(f * radius / depth)``)
so the world-space spacing of fresh samples roughly matches ``radius``.
Each box takes its own stride, and the pixels of all a frame's boxes
are back-projected together. Dedup then discards any candidate strictly
closer than the dedup radius to a point accepted before it. Acceptance
order is deterministic: frames in call order, boxes in frame order,
pixels in raster order.

Dedup works a frame at a time. A query of a KD-tree built anew over the
points of earlier frames removes candidates they cover; neighbour pairs
among the survivors and one greedy pass in candidate order settle the
rest. Both searches reach ``DEDUP_SLACK`` beyond the radius and decide
with the same squared-distance sum as a point-by-point scan, so the
cloud is the one that scan would accept, bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .camera import backproject_pixels
from .scene import CameraFrame

# relative margin the tree searches add to the dedup radius; tree
# distances and the exact squared-distance sum differ by far less
DEDUP_SLACK = 1e-9


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_positive(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 < value < math.inf


@dataclass(frozen=True)
class ScatterConfig:
    radius: float = 0.04
    max_points: int = 100_000
    rng_seed: int = 0
    # dedup distance defaults to the sampling radius; override to decouple
    dedup_radius: float | None = None

    def __post_init__(self):
        if not _is_positive(self.radius):
            raise ValueError(f"radius must be a positive number, got {self.radius!r}")
        if not (_is_integer(self.max_points) and self.max_points >= 1):
            raise ValueError(f"max_points must be a positive integer, got {self.max_points!r}")
        if not _is_integer(self.rng_seed):
            raise ValueError(f"rng_seed must be an integer, got {self.rng_seed!r}")
        if self.dedup_radius is not None and not _is_positive(self.dedup_radius):
            raise ValueError(f"dedup_radius must be a positive number, got {self.dedup_radius!r}")

    @property
    def effective_dedup_radius(self) -> float:
        return self.radius if self.dedup_radius is None else self.dedup_radius


@dataclass(frozen=True, eq=False)
class ScatterCloud:
    """Scattered points with per-point provenance and optional features.

    ``positions`` (N, 3); ``frame_ids`` the source frame of each point;
    ``pixels`` (N, 2) the source pixel (u, v); ``categories`` the
    category of the 2D box each point was sampled from. ``features`` and
    ``scores`` start as None and are attached by later stages.
    """

    positions: np.ndarray
    frame_ids: np.ndarray
    pixels: np.ndarray
    categories: np.ndarray
    features: np.ndarray | None = None
    scores: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.positions)

    def select(self, indices) -> "ScatterCloud":
        """Row subset, preserving order of ``indices``, all columns."""
        idx = np.asarray(indices)
        return ScatterCloud(
            positions=self.positions[idx],
            frame_ids=self.frame_ids[idx],
            pixels=self.pixels[idx],
            categories=self.categories[idx],
            features=None if self.features is None else self.features[idx],
            scores=None if self.scores is None else self.scores[idx],
        )

    def with_features(self, features: np.ndarray) -> "ScatterCloud":
        if len(features) != len(self):
            raise ValueError("feature rows must match point count")
        return replace(self, features=np.asarray(features, dtype=np.float64))

    def with_scores(self, scores: np.ndarray) -> "ScatterCloud":
        if len(scores) != len(self):
            raise ValueError("score rows must match point count")
        return replace(self, scores=np.asarray(scores, dtype=np.float64))


def empty_cloud() -> ScatterCloud:
    return ScatterCloud(
        positions=np.zeros((0, 3)),
        frame_ids=np.zeros(0, dtype=np.int64),
        pixels=np.zeros((0, 2)),
        categories=np.zeros(0, dtype=np.int64),
    )


def box_sampling_stride(focal: float, radius: float, median_depth: float) -> int:
    """Pixel stride whose back-projected spacing is about ``radius``.

    ``max(1, round(focal * radius / median_depth))``; distant objects get
    stride 1 (every pixel), near objects are thinned.
    """
    if focal <= 0 or radius <= 0 or median_depth <= 0:
        raise ValueError("focal, radius and median_depth must be positive")
    return max(1, round(focal * radius / median_depth))


class ScatterAccumulator:
    """Grows a scatter cloud frame by frame with exact radius dedup.

    A candidate is accepted when no point accepted before it, in an
    earlier frame or earlier in the same frame (boxes in frame order,
    pixels in raster order), lies strictly closer than the dedup radius
    ``r``. :meth:`add_frame` decides this for a whole frame in two
    vectorized steps: one KD-tree query of the frame's candidates
    against every point of the earlier frames, then neighbour pairs
    among the survivors and one greedy pass in candidate order, where
    an accepted point rejects its later neighbours.

    Both steps search out to ``r * (1 + DEDUP_SLACK)`` and then decide
    with the squared distance summed x, y, z, ``d2 < r * r``, because the
    tree's own distances can differ from that sum by a rounding error.
    A candidate whose nearest point lies in the band between the two
    but fails the test is checked against every point in reach.

    Calls to :meth:`add_frame` must be serialized.
    """

    def __init__(self, config: ScatterConfig):
        self.config = config
        self._frames: list[ScatterCloud] = []

    def __len__(self) -> int:
        return sum(len(c) for c in self._frames)

    def add_frame(self, frame: CameraFrame, frame_index: int | None = None) -> int:
        """Scatter one frame; returns the number of accepted points."""
        fid = frame.camera_index if frame_index is None else frame_index
        cands = self._candidates(frame, fid)
        r = self.config.effective_dedup_radius
        earlier = np.concatenate([np.zeros((0, 3)), *(c.positions for c in self._frames)])
        keep = ~_near_any(cands.positions, earlier, r)
        keep[keep] = _greedy_keep(cands.positions[keep], r)
        accepted = cands.select(np.flatnonzero(keep))
        self._frames.append(accepted)
        return len(accepted)

    def _candidates(self, frame: CameraFrame, fid: int) -> ScatterCloud:
        """Strided valid-depth pixels of every box, in box and raster order.

        Each box takes its stride from the median valid depth inside it;
        the pixels of all boxes are then back-projected in one call.
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
            stride = box_sampling_stride(intr.fx, self.config.radius, float(np.median(region[valid])))
            # nonzero walks the strided block in raster order
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

    def cloud(self) -> ScatterCloud:
        return _concatenate([empty_cloud(), *self._frames])


def _concatenate(clouds: list[ScatterCloud]) -> ScatterCloud:
    return ScatterCloud(
        positions=np.concatenate([c.positions for c in clouds]),
        frame_ids=np.concatenate([c.frame_ids for c in clouds]),
        pixels=np.concatenate([c.pixels for c in clouds]),
        categories=np.concatenate([c.categories for c in clouds]),
    )


def _sq_dist(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise squared distance, summed in x, y, z order."""
    return (p[:, 0] - q[:, 0]) ** 2 + (p[:, 1] - q[:, 1]) ** 2 + (p[:, 2] - q[:, 2]) ** 2


def _near_any(queries: np.ndarray, points: np.ndarray, r: float) -> np.ndarray:
    """Mask of queries with some row of ``points`` strictly closer than ``r``."""
    reach = r * (1.0 + DEDUP_SLACK)
    # the tree is rebuilt for every frame and queried once, so a quick
    # sliding-midpoint build beats a balanced one; which of several tied
    # neighbours it returns does not matter, since the band check below
    # tries every point in reach when the returned one fails
    tree = cKDTree(points, balanced_tree=False, compact_nodes=False)
    dist, idx = tree.query(queries, k=1, distance_upper_bound=reach)
    found = np.flatnonzero(np.isfinite(dist))
    near = np.zeros(len(queries), dtype=bool)
    near[found] = _sq_dist(queries[found], points[idx[found]]) < r * r
    # the tree's nearest point failed the exact test but lies within
    # reach: another point in reach may still pass it
    band = found[~near[found]]
    for i, nbrs in zip(band, tree.query_ball_point(queries[band], reach)):
        others = points[nbrs]
        near[i] = (_sq_dist(np.broadcast_to(queries[i], others.shape), others) < r * r).any()
    return near


def _greedy_keep(points: np.ndarray, r: float) -> np.ndarray:
    """Greedy acceptance in row order: a kept row rejects later rows
    strictly closer than ``r``."""
    keep = np.ones(len(points), dtype=bool)
    pairs = cKDTree(points).query_pairs(r * (1.0 + DEDUP_SLACK), output_type="ndarray")
    pairs = pairs[_sq_dist(points[pairs[:, 0]], points[pairs[:, 1]]) < r * r]
    # query_pairs gives i < j; group the pairs by their earlier row
    pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
    heads, starts = np.unique(pairs[:, 0], return_index=True)
    for head, later in zip(heads.tolist(), np.split(pairs[:, 1], starts[1:])):
        if keep[head]:
            keep[later] = False
    return keep


def scatter_frames(frames, config: ScatterConfig) -> ScatterCloud:
    """Scatter a frame sequence in order and return the combined cloud."""
    acc = ScatterAccumulator(config)
    for frame in frames:
        acc.add_frame(frame)
    return acc.cloud()


def cap_points(cloud: ScatterCloud, max_points: int, rng: np.random.Generator) -> ScatterCloud:
    """Uniform random subsample to at most ``max_points`` points.

    Selected rows keep their original relative order, so capping an
    already-capped cloud with any seed is the identity.
    """
    if max_points < 1:
        raise ValueError("max_points must be positive")
    if len(cloud) <= max_points:
        return cloud
    idx = np.sort(rng.choice(len(cloud), size=max_points, replace=False))
    return cloud.select(idx)
