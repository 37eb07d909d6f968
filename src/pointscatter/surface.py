"""Surface filtering: GT distance labels, focal loss, photometric score.

A scattered point is an inlier when its distance to the GT surface is
strictly below ``tau`` (unsquared meters); the labels' search of a cell
grid of the surface samples stops at ``tau``. The training signal for a
filter is a binary focal loss on predicted inlier probabilities; the
training-free photometric alternative scores points by how consistent
their color is across the views that saw them
(``exp(-mean_variance / k_sigma)``).

Scores weight the learned feature channels only; point positions and
the one-hot category block stay untouched so geometry is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .meshes import sample_surface_points, triangle_areas
from .neighbors import CellGrid, mutual_nearest_sq

CLIP_EPS = 1e-7

# score assigned when fewer than two views saw the point and the
# variance is meaningless
DEFAULT_SCORE = 0.5


@dataclass(frozen=True, eq=False)
class SurfaceLabeling:
    """Inlier labels, and the exact nearest-surface distances, which
    :func:`mutual_nearest_sq` of the points and the labels' grid of
    surface samples, at the grid's radius, finds on first read."""

    labels: np.ndarray
    grid: CellGrid
    points: np.ndarray

    @cached_property
    def distances(self) -> np.ndarray:
        if len(self.points) == 0:
            return np.zeros(0)
        return np.sqrt(mutual_nearest_sq(self.points, self.grid.xyz.T, self.grid.radius)[0])

    @property
    def inlier_fraction(self) -> float:
        if len(self.labels) == 0:
            return 0.0
        return float(self.labels.mean())


def _below_root(tau: float) -> float:
    """The least double whose square root is at least ``tau``, so that
    ``sqrt(d2) < tau`` exactly when ``d2`` is below it."""
    bound = tau * tau
    while np.sqrt(bound) < tau:
        bound = np.nextafter(bound, np.inf)
    while np.sqrt(np.nextafter(bound, 0.0)) >= tau:
        bound = np.nextafter(bound, 0.0)
    return float(bound)


def label_points(points: np.ndarray, surface_points: np.ndarray, tau: float) -> SurfaceLabeling:
    """Label points whose nearest GT surface sample is closer than ``tau``.

    Distances are plain Euclidean (not squared): the square root of the
    squared distance summed x, y, z. Raises when the surface sample set
    is empty.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    surf = np.atleast_2d(np.asarray(surface_points, dtype=np.float64))
    if len(surf) == 0:
        raise ValueError("surface sample set is empty")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    grid = CellGrid(tau, surf)
    return SurfaceLabeling(labels=grid.near_any(pts, _below_root(tau)), grid=grid, points=pts)


def sample_scene_surface(scene, tau: float, rng: np.random.Generator) -> np.ndarray:
    """Area-weighted surface samples dense enough to support ``tau`` labels.

    The sampling density is ``4 / tau^2`` points per square meter,
    putting the expected nearest-sample distance well below tau so the
    sampled labeling matches the true surface-distance labeling.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    triangles = scene.geometry.triangles
    total_area = float(triangle_areas(triangles).sum())
    count = max(1, math.ceil(total_area * (4.0 / (tau * tau))))
    return sample_surface_points(triangles, count, rng)


def _p_t(scores, labels):
    p = np.asarray(scores, dtype=np.float64)
    l = np.asarray(labels)
    if p.shape != l.shape:
        raise ValueError(f"scores and labels must align, got {p.shape} vs {l.shape}")
    return np.where(l.astype(bool), p, 1.0 - p)


def focal_loss(scores, labels, gamma: float) -> float:
    """Binary focal loss, averaged over points.

    ``scores`` are inlier probabilities, ``labels`` 0/1. With
    ``gamma=0`` this is plain binary cross-entropy. Probabilities are
    clipped before the log so saturated predictions stay finite.
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    pt = np.clip(_p_t(scores, labels), CLIP_EPS, 1.0 - CLIP_EPS)
    per_point = -((1.0 - pt) ** gamma) * np.log(pt)
    return float(per_point.mean())


def focal_loss_grad(scores, labels, gamma: float) -> np.ndarray:
    """Analytic d(focal_loss)/d(scores) for interior probabilities."""
    pt = _p_t(scores, labels)
    sign = np.where(np.asarray(labels).astype(bool), 1.0, -1.0)
    if gamma == 0.0:
        d_pt = -1.0 / pt
    else:
        d_pt = gamma * (1.0 - pt) ** (gamma - 1.0) * np.log(pt) - ((1.0 - pt) ** gamma) / pt
    return sign * d_pt / pt.size


def photometric_score(variances: np.ndarray, valid_counts: np.ndarray, k_sigma: float) -> np.ndarray:
    """Training-free inlier score from cross-view color variance.

    ``exp(-mean_channel_variance / k_sigma)``: photometrically
    consistent points score near 1, inconsistent ones near 0. Points
    seen by fewer than two views have no meaningful variance and get
    ``DEFAULT_SCORE``, and so does every point when ``variances`` has no
    channel (no frame, as in a scene without cameras).
    """
    if k_sigma <= 0:
        raise ValueError("k_sigma must be positive")
    var = np.atleast_2d(np.asarray(variances, dtype=np.float64))
    counts = np.asarray(valid_counts)
    if var.shape[1] == 0:
        return np.full(len(var), DEFAULT_SCORE)
    mean_var = var.mean(axis=1)
    scores = np.exp(-mean_var / k_sigma)
    return np.where(counts < 2, DEFAULT_SCORE, scores)


def soft_weight(features: np.ndarray, scores: np.ndarray, num_onehot: int) -> np.ndarray:
    """Scale learned feature channels by per-point scores.

    The trailing ``num_onehot`` columns (category block) pass through
    unscaled. Returns a new array.
    """
    f = np.asarray(features, dtype=np.float64).copy()
    s = np.asarray(scores, dtype=np.float64)
    if len(f) != len(s):
        raise ValueError("feature rows and scores must align")
    if not 0 <= num_onehot <= f.shape[1]:
        raise ValueError("num_onehot outside feature width")
    cut = f.shape[1] - num_onehot
    f[:, :cut] *= s[:, None]
    return f
