"""Per-layer work counts, derived after an invocation from what it returned.

Nothing here runs inside a timed span. Each ratio is returned together
with its numerator and denominator so it can be printed with its base.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from pointscatter.scatter import box_sampling_stride


def frame_candidates(frame, radius: float) -> int:
    """Pixels the scatter stage tests for one frame.

    Follows the sampling rule of the ``scatter`` module: integer pixels
    inside each 2D box, a stride of ``box_sampling_stride`` at the
    box's median valid depth, raster order, valid depth only.
    """
    depth, intr = frame.depth, frame.intrinsics
    total = 0
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
        stride = box_sampling_stride(intr.fx, radius, float(np.median(region[valid])))
        total += int(np.count_nonzero(valid[::stride, ::stride]))
    return total


def ratio(num: float, den: float) -> tuple[float, float, float]:
    return (num / den if den else 0.0), num, den


def derive(returns: dict, result, scene, config, artifacts: list[Path]) -> dict:
    """Counts and ratios for one traced invocation.

    ``returns`` maps span names to the values the wrapped calls returned.
    Returns ``{metric: value}`` for counts and ``{metric: (value, num, den)}``
    for ratios.
    """
    frames = returns.get("pipeline.make_frame", [])
    triangles = sum(len(obj.mesh()) for obj in scene.objects)
    pixels = sum(f.intrinsics.width * f.intrinsics.height for f in frames)
    hits = sum(int(np.count_nonzero(f.depth > 0)) for f in frames)
    candidates = sum(frame_candidates(f, config.scatter.radius) for f in frames)
    accepted = sum(returns.get("ScatterAccumulator.add_frame", []))
    aggregated = returns.get("pipeline.aggregate_cloud", [])
    valid_views = int(aggregated[0][2].sum()) if aggregated else 0
    point_views = len(result.cloud) * len(frames)
    stats = result.report["filter"]
    return {
        "scene.views": len(frames),
        "scene.ray_tri_tests": pixels * triangles,
        "scene.hit_ratio": ratio(hits, pixels),
        "scatter.candidates": candidates,
        "scatter.accepted": accepted,
        "scatter.accept_ratio": ratio(accepted, candidates),
        "aggregate.point_views": point_views,
        "aggregate.valid_ratio": ratio(valid_views, point_views),
        "surface.kept_ratio": ratio(stats["points_filtered"], stats["points_raw"]),
        "voxel.occupied": len(result.grid),
        "fileio.bytes": sum(p.stat().st_size for p in artifacts),
    }
