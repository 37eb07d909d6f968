"""Triangle mesh helpers: box shells, area-weighted sampling.

Meshes are plain ``(T, 3, 3)`` float arrays (triangle, vertex, xyz).
Box shells are wound so that triangle normals
``cross(v1 - v0, v2 - v0)`` point out of the box.
"""

from __future__ import annotations

import numpy as np

from .boxes import OrientedBox, box_corners

# Faces of a box as triangle index triples into the corner order of
# :func:`pointscatter.boxes.box_corners` (bottom ring 0-3, top ring 4-7),
# wound outward.
_BOX_FACES = np.array(
    [
        [0, 2, 1], [0, 3, 2],  # bottom (-z)
        [4, 5, 6], [4, 6, 7],  # top (+z)
        [0, 1, 5], [0, 5, 4],  # -y side
        [1, 2, 6], [1, 6, 5],  # +x side
        [2, 3, 7], [2, 7, 6],  # +y side
        [3, 0, 4], [3, 4, 7],  # -x side
    ]
)


def box_shell(box: OrientedBox) -> np.ndarray:
    """12-triangle closed shell of an oriented box, outward winding."""
    return box_corners(box)[_BOX_FACES]


def triangle_areas(triangles: np.ndarray) -> np.ndarray:
    tri = np.asarray(triangles, dtype=np.float64)
    cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    return 0.5 * np.linalg.norm(cross, axis=1)


def triangle_normals(triangles: np.ndarray) -> np.ndarray:
    """Unit normals following the winding; degenerate triangles get zeros."""
    tri = np.asarray(triangles, dtype=np.float64)
    cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    norm = np.linalg.norm(cross, axis=1, keepdims=True)
    return np.divide(cross, norm, out=np.zeros_like(cross), where=norm > 0)


def sample_surface_points(triangles: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform area-weighted sample of ``count`` points on a mesh surface;
    its triangles are those ``rng.choice(p=areas / total)`` draws, bit for bit."""
    tri = np.asarray(triangles, dtype=np.float64)
    if count < 1:
        raise ValueError(f"need a positive sample count, got {count}")
    areas = triangle_areas(tri)
    total = areas.sum()
    if not 0 < total < np.inf:
        raise ValueError(f"mesh surface area must be positive and finite, got {total}")
    cdf = (areas / total).cumsum()
    cdf /= cdf[-1]
    idx = cdf.searchsorted(rng.random(count), side="right")
    u = rng.random(count)
    v = rng.random(count)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    out = np.empty((count, 3))
    for k in range(3):
        a, b, c = (tri[:, j, k].take(idx) for j in range(3))
        out[:, k] = a + u * (b - a) + v * (c - a)
    return out
