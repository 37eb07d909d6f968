"""Multi-view feature aggregation for scattered points.

:func:`aggregate_cloud` projects every point of a cloud into every
frame; frames where a point lands in front of the camera and inside the
image bounds contribute a bilinearly sampled feature: the frame's color,
read as ``shades[tri_index[y, x]]`` at the four corner texels, so no RGB
image is built. :func:`reduce_views` reduces the contributing features
to a masked mean and a masked population variance. The variance is
taken over samples shifted by the point's first observed sample, so a
point whose samples agree in every view gets exactly 0, which centering
on the rounded mean alone does not give. A point seen by no frame is
degenerate: its mean and variance are zero and its valid count is 0.
:func:`compose_features` appends a one-hot category block to the mean
and variance rows.

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


def aggregate_cloud(
    cloud: ScatterCloud,
    frames,
    occlusion_check: bool = False,
    depth_sigma: float = 0.0,
):
    """Batch mean/variance/valid-count aggregation for a whole cloud.

    Samples each frame's colour at the points it sees, once per
    point-view, and reduces the samples with :func:`reduce_views`.
    Returns ``(means, variances, valid_counts)`` with shapes (N, C),
    (N, C), (N,).
    """
    positions = cloud.positions
    channels = frames[0].shades.shape[1] if frames else 0
    views = []
    for frame in frames:
        ok, uv, _ = _frame_projection(positions, frame, occlusion_check, depth_sigma)
        idx = np.flatnonzero(ok)
        if len(idx):
            views.append((idx, bilinear_sample(frame.tri_index, frame.shades, uv[idx, 0], uv[idx, 1])))
    return reduce_views(views, len(positions), channels)


def reduce_views(views, n: int, channels: int):
    """Masked mean, population variance and count of each point's samples.

    ``views`` holds one ``(idx, samples)`` pair per view, in view order:
    the indices of the points the view sees, without repeats, and their
    (K, C) samples. The mean is ``sum(s) / count``. The variance is the
    two-pass form over samples shifted by the point's first sample,
    ``d = s - shift``, then ``sum((d - sum(d) / count)^2) / count``
    (Chan, Golub & LeVeque, 1983): identical samples give exactly 0,
    which centering on the rounded mean does not. The sums run in view
    order, so each row has the bits of the same sums over that point's
    samples alone. A point no view sees gets zero mean and variance and
    count 0. The second pass recomputes the shifted samples rather than
    holding them. Returns arrays of shapes (N, C), (N, C), (N,).
    """
    shift = np.zeros((n, channels))
    # earlier views overwrite later ones, leaving each point's first sample
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
