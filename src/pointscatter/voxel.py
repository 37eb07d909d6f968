"""Occupied voxels of scatter clouds and dense-grid bookkeeping.

Voxel indices are ``floor((p - origin) / voxel_size)`` per axis. An
occupied voxel is known by one key that packs its three indices into
one signed 63-bit integer (21 bits per axis), so grids spanning about
+/- a million cells per axis are representable. Dense grids are never
materialized; only their cell counts exist, which is what makes the
sparse/dense memory comparison honest.
"""

from __future__ import annotations

import math

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


def voxelize(positions: np.ndarray, voxel_size: float, origin) -> np.ndarray:
    """Ascending unique packed keys of the voxels, of a grid with a
    corner at ``origin``, that hold one of the (N, 3) ``positions``."""
    idx = voxel_indices(positions, voxel_size, origin)
    if len(idx) == 0:
        return np.zeros(0, np.int64)
    lo, hi = INDEX_RANGE
    if idx.min() < lo or idx.max() > hi:
        raise ValueError("points fall outside the packable index range")
    packed = (
        ((idx[:, 0] + _OFFSET) << (2 * _BITS)) | ((idx[:, 1] + _OFFSET) << _BITS) | (idx[:, 2] + _OFFSET)
    )
    return np.unique(packed)


def dense_cell_count(extent, voxel_size: float) -> int:
    """Cells of a dense grid of ``voxel_size`` cells over a box of
    ``extent``, each axis rounded up to whole cells."""
    return math.prod(math.ceil(e / voxel_size) for e in extent)


# Byte model used by the sparsity report, documented in its output:
# a scatter record stores a float32 position (12 B), float32 features
# (4 B per channel) and 12 B of bookkeeping (frame id, category, score);
# a dense cell stores features only, its position being implicit.
_POSITION_BYTES = 12
_BOOKKEEPING_BYTES = 12


def sparsity_report(cloud: ScatterCloud, occupied: int, dense_cells: int, voxel_size: float) -> dict:
    """Compare scattered storage, which fills ``occupied`` voxels of
    ``voxel_size``, against a dense grid of ``dense_cells`` cells of
    that size over the same region."""
    channels = 0 if cloud.features is None else cloud.features.shape[1]
    n = len(cloud)
    record = _POSITION_BYTES + 4 * channels + _BOOKKEEPING_BYTES
    dense_record = max(4 * channels, 4)
    return {
        "scatter_points": n,
        "occupied_voxels": occupied,
        "dense_cells": dense_cells,
        "reduction_factor": dense_cells / max(1, n),
        "bytes_scatter": n * record,
        "bytes_dense": dense_cells * dense_record,
        "record_bytes": {
            "scatter_position": _POSITION_BYTES,
            "scatter_features": 4 * channels,
            "scatter_bookkeeping": _BOOKKEEPING_BYTES,
            "dense_cell": dense_record,
        },
        "voxel_size": voxel_size,
        "dense_voxel_size": voxel_size,
    }
