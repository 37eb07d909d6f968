"""Depth-map point scattering with stride sampling and exact radius dedup.

Points are back-projected from strided pixels inside GT 2D boxes, read
from the pixels each frame covers, never from a dense depth map. The
pixel stride adapts to object distance (``round(f * radius / depth)``)
so the world-space spacing of fresh samples roughly matches ``radius``.
Each box takes its own stride, and the pixels of all a frame's boxes
are back-projected together. Dedup then discards any candidate strictly
closer than that same ``radius`` to a point accepted before it. Acceptance
order is deterministic: frames in call order, boxes in frame order,
pixels in raster order.

Dedup works a run of ``RUN_FRAMES`` frames at a time. Each run builds
one cell grid (``neighbors.CellGrid``) of the points earlier runs
accepted, and one query of it removes the run's candidates they cover;
neighbour pairs among the survivors and one greedy pass in candidate
order settle the rest. A candidate that no earlier run's point covers can only be
rejected by an accepted candidate before it, and each such candidate is
itself a survivor. Every candidate within reach is decided with the same
squared-distance sum as a point-by-point scan, so the cloud is the one
that scan would accept, bit for bit, whatever the run length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .camera import backproject_pixels
from .checks import _check
from .neighbors import CellGrid, runs
from .scene import CameraFrame

# frames whose dedup one grid query and one greedy pass settle; longer
# runs make fewer queries, but the greedy pass's pair list grows with the
# run's survivors. Of runs of 1 to 8 frames, 4 scattered the benchmark
# workloads fastest
RUN_FRAMES = 4


@dataclass(frozen=True)
class ScatterConfig:
    radius: float = 0.04
    max_points: int = 100_000

    def __post_init__(self):
        _check(self, radius="positive", max_points="count")


@dataclass(frozen=True, eq=False)
class ScatterCloud:
    """Scattered points with per-point provenance and optional features.

    ``positions`` (N, 3); ``frame_ids`` the source frame of each point;
    ``pixels`` (N, 2) the source pixel (u, v); ``categories`` the
    category of the 2D box each point was sampled from. ``features`` and
    ``scores`` start as None and are attached by later stages. Every
    column present has one row per point.
    """

    positions: np.ndarray
    frame_ids: np.ndarray
    pixels: np.ndarray
    categories: np.ndarray
    features: np.ndarray | None = None
    scores: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.positions)
        for name, column in self._columns().items():
            if len(column) != n:
                raise ValueError(f"{name} has {len(column)} rows for {n} points")

    def __len__(self) -> int:
        return len(self.positions)

    def _columns(self) -> dict[str, np.ndarray]:
        """The columns the cloud carries, by field name."""
        return {f.name: c for f in fields(self) if (c := getattr(self, f.name)) is not None}

    def select(self, indices) -> "ScatterCloud":
        """Row subset, preserving order of ``indices``, all columns."""
        idx = np.asarray(indices)
        return replace(self, **{name: column[idx] for name, column in self._columns().items()})


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


def _median(values: np.ndarray) -> float:
    """``np.median``'s bits for a non-empty 1-D array, from one partition."""
    half = len(values) // 2
    part = np.partition(values, (half - 1, half))
    return float(part[half] if len(values) % 2 else (part[half - 1] + part[half]) / 2)


def _candidates(frame: CameraFrame, radius: float) -> ScatterCloud:
    """Strided covered pixels of every box, in box and raster order,
    with the frame's camera index as their frame id.

    The box's pixels in each of its rows are one run of the frame's
    ascending covered pixels, found by binary search; all of them
    give the median depth that sets the stride, and the stride keeps
    every ``stride``-th row and column counted from the box's
    corner. The pixels of all boxes are then back-projected in one
    call.
    """
    intr = frame.intrinsics
    w, covered = intr.width, frame.covered
    empty = np.zeros(0, dtype=np.int64)
    picks, cats = [empty], [empty]
    for box in frame.boxes_2d:
        u0 = max(0, math.ceil(box.u_min))
        v0 = max(0, math.ceil(box.v_min))
        u1 = min(w - 1, math.floor(box.u_max))
        v1 = min(intr.height - 1, math.floor(box.v_max))
        if u1 < u0 or v1 < v0:
            continue
        # keys of covered's dtype, so that the search casts no copy of it
        rows = np.arange(v0, v1 + 1, dtype=covered.dtype) * w
        lo = np.searchsorted(covered, rows + u0)
        hi = np.searchsorted(covered, rows + (u1 + 1))
        pick = runs(lo, hi)
        if not len(pick):
            continue
        stride = box_sampling_stride(intr.fx, radius, _median(frame.covered_depth[pick]))
        if stride > 1:
            lo, hi = lo[::stride], hi[::stride]
            pick = runs(lo, hi)
            u = covered[pick] - np.repeat(rows[::stride], hi - lo)
            pick = pick[(u - u0) % stride == 0]
        picks.append(pick)
        cats.append(np.full(len(pick), box.category, dtype=np.int64))
    pick = np.concatenate(picks)
    vv = covered[pick] // w
    uu = covered[pick] - vv * w
    pixels = np.stack([uu, vv], axis=1).astype(np.float64)
    world = backproject_pixels(pixels[:, 0], pixels[:, 1], frame.covered_depth[pick], intr, frame.pose)
    return ScatterCloud(
        positions=world,
        frame_ids=np.full(len(pick), frame.camera_index, dtype=np.int64),
        pixels=pixels,
        categories=np.concatenate(cats),
    )


def _concatenate(clouds: list[ScatterCloud]) -> ScatterCloud:
    """The rows of every cloud in order; all carry the columns of the first."""
    columns = clouds[0]._columns()
    return replace(
        clouds[0], **{name: np.concatenate([getattr(c, name) for c in clouds]) for name in columns}
    )


def _greedy_keep(points: np.ndarray, r: float) -> np.ndarray:
    """Greedy acceptance in row order: a kept row rejects later rows
    strictly closer than ``r``."""
    rows, later = CellGrid(r, points).pairs(r * r)
    # in order of the earlier row, whose fate is settled by then
    order = np.argsort(rows)
    keep = bytearray(b"\x01") * len(points)
    for i, j in zip(rows[order].tolist(), later[order].tolist()):
        if keep[i]:
            keep[j] = 0
    return np.frombuffer(keep, dtype=bool)


def scatter_frames(frames, config: ScatterConfig) -> ScatterCloud:
    """Scatter a frame sequence in order and return the combined cloud.

    A candidate is accepted when no point accepted before it, in an
    earlier frame or earlier in the same frame (boxes in frame order,
    pixels in raster order), lies strictly closer than the radius ``r``.
    Each run of ``RUN_FRAMES`` frames decides this in two vectorized
    steps: one query of a grid of every point the earlier runs accepted,
    then neighbour pairs among the survivors and one greedy pass in
    candidate order, where an accepted point rejects its later
    neighbours. Both steps decide with the squared distance summed x, y,
    z, ``d2 < r * r``. A candidate that no earlier run's point covers can
    only be rejected by an accepted candidate before it, and each such
    candidate is itself a survivor, so the runs give the points that
    frame-by-frame dedup would.
    """
    r = config.radius
    frames = list(frames)
    accepted = [empty_cloud()]
    for start in range(0, len(frames), RUN_FRAMES):
        cands = _concatenate([empty_cloud(), *(_candidates(f, r) for f in frames[start : start + RUN_FRAMES])])
        earlier = CellGrid(r, np.concatenate([c.positions for c in accepted]))
        keep = ~earlier.near_any(cands.positions, r * r)
        keep[keep] = _greedy_keep(cands.positions[keep], r)
        accepted.append(cands.select(np.flatnonzero(keep)))
    return _concatenate(accepted)


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
