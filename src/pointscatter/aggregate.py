"""Multi-view feature aggregation for scattered points.

:func:`aggregate_cloud` projects the whole cloud into each frame once
and keeps the points the frame sees as compact lists of indices and
pixel coordinates. A frame sees a point in front of the camera that
projects inside the image; with ``occlusion_check``, the point must
also lie no deeper than the rendered depth at its nearest pixel plus a
noise tolerance, and empty background never hides it. Each seen point
contributes the frame's color, bilinearly sampled as ``shades[tri]``
at the four corner texels. Both the nearest pixel's depth and the
corners' triangle indices are gathers from the frame's covered pixels
through one int32 map from flat pixel to position in ``covered``, -1
where the frame covers nothing. The call allocates the map once, sized
to its largest frame, writes each frame's positions before that frame's
projection and clears them after it, so no dense map or RGB image is
built and a view's cost follows the points it sees and the pixels it
covers, not its pixel count.
:func:`reduce_views` reduces the samples to a masked mean and a
masked population variance of the samples shifted by the point's first
one, so agreeing samples give exactly 0; a point no frame sees gets
zeros and a valid count of 0. :func:`compose_features` appends a
one-hot category block to the mean and variance rows.
"""

from __future__ import annotations

import numpy as np

from .camera import BEHIND_CAMERA_EPS
from .scatter import ScatterCloud


def _sample_colors(frame, pos, u, v) -> np.ndarray:
    """(K, C) bilinear samples of the frame's color at pixel coordinates
    ``u``, ``v`` inside ``[0, W-1] x [0, H-1]`` (pixel centers at
    integers, so integer coordinates return the exact texel).

    The texel at flat pixel ``i`` is ``shades[tri]``, with ``tri`` the
    frame's triangle at ``i`` read through the position map ``pos``, or
    -1, the black row, where no surface is; each channel is interpolated
    on its own.
    """
    w, h = frame.intrinsics.width, frame.intrinsics.height
    x0 = np.minimum(np.floor(u), w - 2).astype(np.int64) if w > 1 else np.zeros(len(u), np.int64)
    y0 = np.minimum(np.floor(v), h - 2).astype(np.int64) if h > 1 else np.zeros(len(v), np.int64)
    fx = u - x0
    fy = v - y0
    gx, gy = 1 - fx, 1 - fy
    # flat corner offsets; an image 1 pixel wide or high repeats its edge
    dx, dy = int(w > 1), w if h > 1 else 0
    corners = y0 * w + x0 + np.array([0, dx, dy, dx + dy])[:, None]
    i00, i01, i10, i11 = np.append(frame.covered_tri, -1)[pos[corners]]
    rows = np.ascontiguousarray(frame.shades.T)
    out = np.empty((len(rows), len(u)))
    for t, o in zip(rows, out):
        o[:] = t[i00] * gx * gy + t[i01] * fx * gy + t[i10] * gx * fy + t[i11] * fx * fy
    return out.T


def _frame_projection(positions, frame, pos, occlusion_check, depth_sigma):
    """``(idx, u, v)``: the ascending indices of the (N, 3) points one frame
    sees, as the module docstring defines it, and their pixel coordinates;
    the rendered depth is read through the position map ``pos`` and the
    occlusion tolerance is ``max(3 * depth_sigma, 0.01)``."""
    intr = frame.intrinsics
    x, y, z = frame.pose.world_to_camera(positions).T
    with np.errstate(invalid="ignore", divide="ignore"):
        u = intr.fx * x / z + intr.cx
        v = intr.fy * y / z + intr.cy
    ok = (z > BEHIND_CAMERA_EPS) & (u >= 0) & (u <= intr.width - 1) & (v >= 0) & (v <= intr.height - 1)
    idx = np.flatnonzero(ok)
    u, v = u[idx], v[idx]
    if occlusion_check:
        nearest = np.rint(v).astype(np.int64) * intr.width + np.rint(u).astype(np.int64)
        rendered = np.append(frame.covered_depth, 0.0)[pos[nearest]]
        seen = (rendered <= 0) | (z[idx] <= rendered + max(3.0 * depth_sigma, 0.01))
        idx, u, v = idx[seen], u[seen], v[seen]
    return idx, u, v


def aggregate_cloud(
    cloud: ScatterCloud,
    frames,
    occlusion_check: bool,
    depth_sigma: float,
):
    """Batch mean/variance/valid-count aggregation for a whole cloud.

    Samples each frame's colour at the points it sees, once per
    point-view, from the frame's covered pixels, and reduces the samples
    with :func:`reduce_views`.
    Returns ``(means, variances, valid_counts)`` with shapes (N, C),
    (N, C), (N,).
    """
    positions = cloud.positions
    channels = frames[0].shades.shape[1] if frames else 0
    size = max((f.intrinsics.width * f.intrinsics.height for f in frames), default=0)
    pos = np.full(size, -1, dtype=np.int32)
    views = []
    for frame in frames:
        # int64 indices: numpy scatters through them faster than through
        # the frame's int32 ones, cast included
        covered = frame.covered.astype(np.intp)
        pos[covered] = np.arange(len(covered), dtype=np.int32)
        idx, u, v = _frame_projection(positions, frame, pos, occlusion_check, depth_sigma)
        if len(idx):
            # held until the reduction: 28 bytes a point-view, int32 index included
            views.append((idx.astype(np.int32), _sample_colors(frame, pos, u, v)))
        pos[covered] = -1
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
    order, one channel at a time, so each row has the bits of the same
    sums over that point's samples alone. The shift comes from the view
    where the point's count is still 0, and the second pass recomputes
    the shifted samples rather than holding them. A point no view sees
    gets zero mean and variance and count 0. Returns arrays of shapes
    (N, C), (N, C), (N,).
    """
    shift, sums, dsums, sq = np.zeros((4, channels, n))
    counts = np.zeros(n, dtype=np.int64)
    for idx, samples in views:
        # numpy gathers and scatters through int64 indices faster
        idx = idx.astype(np.intp)
        first = counts[idx] == 0
        new = idx[first]
        for s, sh, sm, ds in zip(samples.T, shift, sums, dsums):
            sh[new] = s[first]
            sm[idx] += s
            ds[idx] += s - sh[idx]
        counts[idx] += 1
    seen = counts > 0
    dmeans = np.divide(dsums, counts, out=np.zeros_like(dsums), where=seen)
    for idx, samples in views:
        idx = idx.astype(np.intp)
        for s, sh, dm, q in zip(samples.T, shift, dmeans, sq):
            r = s - sh[idx]
            r -= dm[idx]
            r *= r
            q[idx] += r
    # (N, C) rows, as the callers and the byte references hold them
    means = np.divide(sums.T, counts[:, None], out=np.zeros((n, channels)), where=seen[:, None])
    variances = np.divide(sq.T, counts[:, None], out=np.zeros((n, channels)), where=seen[:, None])
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
