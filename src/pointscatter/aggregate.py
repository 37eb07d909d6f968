"""Multi-view feature aggregation for scattered points.

:func:`aggregate_cloud` projects every point of a cloud into every
frame; frames where a point lands in front of the camera and inside the
image bounds contribute a bilinearly sampled feature: the frame's color,
read as ``shades[tri_index[y, x]]`` at the four corner texels, so no RGB
image is built. Aggregation reduces the contributing features to a
masked mean and a masked population variance (centered on that mean). A
point seen by no frame is degenerate: its mean and variance are zero and
its valid count is 0. :func:`compose_features` appends a one-hot
category block to the mean and variance rows.

Projection validity is purely geometric by default. With
``occlusion_check`` enabled, a frame only contributes when the point's
camera depth does not exceed the frame's rendered depth at the nearest
pixel by more than a noise tolerance; points projecting onto empty
background are treated as visible.
"""

from __future__ import annotations

import numpy as np

from .camera import project_points
from .scatter import ScatterCloud


def bilinear_sample(index: np.ndarray, shades: np.ndarray, u, v):
    """Bilinear interpolation of a palette image.

    The texel at row ``y``, column ``x`` is ``shades[index[y, x]]``:
    ``index`` is an (H, W) integer map into ``shades``, a (K,) or (K, C)
    table. ``u`` and ``v`` are continuous pixel coordinates (pixel
    centers at integers) and must lie inside ``[0, W-1] x [0, H-1]``;
    integer coordinates return the exact texel value. Scalars in, scalar
    (or (C,)) out; arrays in, arrays out.
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
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = u - x0
    fy = v - y0
    if table.ndim == 2:
        fx = fx[:, None]
        fy = fy[:, None]
    out = (
        np.take(table, index[y0, x0], axis=0) * (1 - fx) * (1 - fy)
        + np.take(table, index[y0, x1], axis=0) * fx * (1 - fy)
        + np.take(table, index[y1, x0], axis=0) * (1 - fx) * fy
        + np.take(table, index[y1, x1], axis=0) * fx * fy
    )
    return out[0] if scalar else out


def _frame_projection(positions, frame, occlusion_check, depth_sigma):
    """Valid mask and pixel coords of (N, 3) points in one frame."""
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


def aggregate_mean(features: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Masked mean over frames: ``sum(M_i f_i) / eta``; zeros when eta=0."""
    f = np.asarray(features, dtype=np.float64)
    m = np.asarray(mask, dtype=bool)
    eta = int(m.sum())
    if eta == 0:
        return np.zeros(f.shape[1])
    return f[m].sum(axis=0) / eta


def aggregate_variance(features: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Masked population variance about the masked mean; zeros when eta=0."""
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


def aggregate_cloud(
    cloud: ScatterCloud,
    frames,
    occlusion_check: bool = False,
    depth_sigma: float = 0.0,
):
    """Batch mean/variance/valid-count aggregation for a whole cloud.

    Two passes over the frames (mean, then centered second moments) keep
    memory at O(N * C) regardless of the frame count. Returns
    ``(means, variances, valid_counts)`` with shapes (N, C), (N, C), (N,).
    """
    positions = cloud.positions
    n = len(positions)
    channels = frames[0].shades.shape[1] if frames else 0
    sums = np.zeros((n, channels))
    counts = np.zeros(n, dtype=np.int64)
    cached = []
    for frame in frames:
        ok, uv, _ = _frame_projection(positions, frame, occlusion_check, depth_sigma)
        cached.append((ok, uv))
        if ok.any():
            sums[ok] += bilinear_sample(frame.tri_index, frame.shades, uv[ok, 0], uv[ok, 1])
            counts[ok] += 1
    means = np.divide(sums, counts[:, None], out=np.zeros_like(sums), where=counts[:, None] > 0)

    sq = np.zeros((n, channels))
    for frame, (ok, uv) in zip(frames, cached):
        if ok.any():
            diff = bilinear_sample(frame.tri_index, frame.shades, uv[ok, 0], uv[ok, 1]) - means[ok]
            sq[ok] += diff * diff
    variances = np.divide(sq, counts[:, None], out=np.zeros_like(sq), where=counts[:, None] > 0)
    return means, variances, counts


def compose_features(
    means: np.ndarray,
    variances: np.ndarray,
    categories: np.ndarray,
    num_categories: int,
) -> np.ndarray:
    """Stack per-point [mean | variance | one-hot] feature rows."""
    n = len(means)
    if num_categories < 1:
        raise ValueError("need at least one category")
    cats = np.asarray(categories, dtype=np.int64)
    if np.any(cats >= num_categories) or np.any(cats < -1):
        raise ValueError("category outside [-1, num_categories)")
    onehot = np.zeros((n, num_categories))
    known = cats >= 0
    onehot[np.arange(n)[known], cats[known]] = 1.0
    return np.concatenate([means, variances, onehot], axis=1)
