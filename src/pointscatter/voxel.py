"""Sparse voxelization of scatter clouds and dense-grid bookkeeping.

Voxel indices are ``floor((p - origin) / voxel_size)`` per axis. Sparse
storage keeps the occupied voxels only, as rows sorted by a key that
packs the three indices into one signed 63-bit integer (21 bits per
axis), so grids spanning about +/- a million cells per axis are
representable. Dense grids are never materialized; only their cell
counts exist, which is what makes the sparse/dense memory comparison
honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scatter import ScatterCloud

_BITS = 21
_OFFSET = 1 << (_BITS - 1)
INDEX_RANGE = (-_OFFSET, _OFFSET - 1)


def voxel_indices(points: np.ndarray, voxel_size: float, origin) -> np.ndarray:
    """(N, 3) integer voxel indices of points; floor semantics."""
    if voxel_size <= 0:
        raise ValueError("voxel_size must be positive")
    p = np.atleast_2d(np.asarray(points, dtype=np.float64))
    o = np.asarray(origin, dtype=np.float64).reshape(3)
    return np.floor((p - o) / voxel_size).astype(np.int64)


@dataclass(frozen=True, eq=False)
class SparseVoxelGrid:
    """Occupied voxels only: parallel arrays sorted by packed key."""

    voxel_size: float
    origin: np.ndarray
    keys: np.ndarray
    counts: np.ndarray
    features: np.ndarray | None
    scores: np.ndarray | None

    def __len__(self) -> int:
        return len(self.keys)


def voxelize(cloud: ScatterCloud, voxel_size: float, origin=(0.0, 0.0, 0.0)) -> SparseVoxelGrid:
    """Mean-pool a scatter cloud into occupied voxels.

    The feature rows and the scores, when present, are averaged per
    voxel. Output rows are ordered by ascending packed key, which makes
    the result independent of the input point order up to float
    summation.
    """
    o = np.asarray(origin, dtype=np.float64).reshape(3)
    idx = voxel_indices(cloud.positions, voxel_size, o)
    if len(idx) == 0:
        return SparseVoxelGrid(voxel_size, o, np.zeros(0, np.int64), np.zeros(0, np.int64), None, None)
    lo, hi = INDEX_RANGE
    if idx.min() < lo or idx.max() > hi:
        raise ValueError("points fall outside the packable index range")
    packed = (
        ((idx[:, 0] + _OFFSET).astype(np.int64) << (2 * _BITS))
        | ((idx[:, 1] + _OFFSET).astype(np.int64) << _BITS)
        | (idx[:, 2] + _OFFSET).astype(np.int64)
    )
    keys, inverse, counts = np.unique(packed, return_inverse=True, return_counts=True)

    def pool(values: np.ndarray) -> np.ndarray:
        cols = values if values.ndim == 2 else values[:, None]
        acc = np.zeros((len(keys), cols.shape[1]))
        np.add.at(acc, inverse, cols)
        acc /= counts[:, None]
        return acc if values.ndim == 2 else acc[:, 0]

    return SparseVoxelGrid(
        voxel_size=float(voxel_size),
        origin=o,
        keys=keys,
        counts=counts.astype(np.int64),
        features=pool(cloud.features) if cloud.features is not None else None,
        scores=pool(cloud.scores) if cloud.scores is not None else None,
    )


@dataclass(frozen=True)
class DenseGridSpec:
    """Axis-aligned dense grid over ``[origin, origin + extent)``."""

    origin: tuple[float, float, float]
    extent: tuple[float, float, float]
    voxel_size: float

    def __post_init__(self):
        if self.voxel_size <= 0:
            raise ValueError("voxel_size must be positive")
        if any(e <= 0 for e in self.extent):
            raise ValueError("extent must be positive per axis")

    @property
    def cells_per_axis(self) -> tuple[int, int, int]:
        return tuple(int(np.ceil(e / self.voxel_size)) for e in self.extent)

    @property
    def cell_count(self) -> int:
        nx, ny, nz = self.cells_per_axis
        return nx * ny * nz


# Byte model used by the sparsity report, documented in its output:
# a scatter record stores a float32 position (12 B), float32 features
# (4 B per channel) and 12 B of bookkeeping (frame id, category, score);
# a dense cell stores features only, its position being implicit.
_POSITION_BYTES = 12
_BOOKKEEPING_BYTES = 12


def sparsity_report(cloud: ScatterCloud, grid: SparseVoxelGrid, dense: DenseGridSpec) -> dict:
    """Compare scattered storage against a dense grid of the same region."""
    channels = 0 if cloud.features is None else cloud.features.shape[1]
    n = len(cloud)
    record = _POSITION_BYTES + 4 * channels + _BOOKKEEPING_BYTES
    dense_record = max(4 * channels, 4)
    return {
        "scatter_points": n,
        "occupied_voxels": len(grid),
        "dense_cells": dense.cell_count,
        "reduction_factor": dense.cell_count / max(1, n),
        "bytes_scatter": n * record,
        "bytes_dense": dense.cell_count * dense_record,
        "record_bytes": {
            "scatter_position": _POSITION_BYTES,
            "scatter_features": 4 * channels,
            "scatter_bookkeeping": _BOOKKEEPING_BYTES,
            "dense_cell": dense_record,
        },
        "voxel_size": grid.voxel_size,
        "dense_voxel_size": dense.voxel_size,
    }
