"""Oriented 3D bounding boxes (yaw about z), exact IoU and NMS.

A box is parameterized as ``[x, y, z, w, h, d, r_z]``: center, extents
along the box's local x/y/z axes, and yaw (rotation about world z,
normalized to ``(-pi, pi]``). Because the only rotation is about z, the
intersection volume factors into an exact 2D footprint intersection
(convex polygon clipping) times the overlap of the z intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import _check


def wrap_angle(angle):
    """Wrap an angle (or array of angles) to ``(-pi, pi]``."""
    a = np.asarray(angle, dtype=np.float64)
    wrapped = a - 2.0 * np.pi * np.ceil((a - np.pi) / (2.0 * np.pi))
    if np.ndim(angle) == 0:
        return float(wrapped)
    return wrapped


@dataclass(frozen=True)
class OrientedBox:
    """Yaw-oriented box: finite center (3,), finite size (w, h, d) > 0,
    finite yaw normalized to (-pi, pi], integer category >= 0, finite
    score."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]
    yaw: float = 0.0
    category: int = 0
    score: float = 1.0

    def __post_init__(self):
        _check(
            self, center=("number", 3), size=("positive", 3), yaw="number", category="index", score="number"
        )
        object.__setattr__(self, "center", tuple(map(float, self.center)))
        object.__setattr__(self, "size", tuple(map(float, self.size)))
        object.__setattr__(self, "yaw", wrap_angle(float(self.yaw)))
        object.__setattr__(self, "category", int(self.category))
        object.__setattr__(self, "score", float(self.score))

    @property
    def volume(self) -> float:
        w, h, d = self.size
        return w * h * d


def box_corners(box: OrientedBox) -> np.ndarray:
    """(8, 3) corners; first four bottom (z-), last four top, both CCW in xy.

    Corner order within each ring: (-w/2,-h/2), (+w/2,-h/2), (+w/2,+h/2),
    (-w/2,+h/2) in the box frame, rotated by yaw and shifted to center.
    """
    w, h, d = box.size
    xs = np.array([-w, w, w, -w]) / 2.0
    ys = np.array([-h, -h, h, h]) / 2.0
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    gx = c * xs - s * ys + box.center[0]
    gy = s * xs + c * ys + box.center[1]
    corners = np.empty((8, 3))
    corners[:4, 0] = corners[4:, 0] = gx
    corners[:4, 1] = corners[4:, 1] = gy
    corners[:4, 2] = box.center[2] - d / 2.0
    corners[4:, 2] = box.center[2] + d / 2.0
    return corners


def footprint_polygon(box: OrientedBox) -> np.ndarray:
    """(4, 2) CCW footprint of the box in the xy plane."""
    return box_corners(box)[:4, :2]


def _polygon_area(poly: np.ndarray) -> float:
    """Shoelace area of a CCW polygon, (N, 2). Returns 0 for N < 3."""
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)))


def _clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex ``subject`` by a CCW convex ``clip``."""
    output = [tuple(p) for p in subject]
    n = len(clip)
    for i in range(n):
        if not output:
            break
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        input_pts = output
        output = []
        for j in range(len(input_pts)):
            px, py = input_pts[j]
            qx, qy = input_pts[(j + 1) % len(input_pts)]
            # interior of a CCW polygon is on the left of each directed edge
            p_in = ex * (py - ay) - ey * (px - ax) >= 0
            q_in = ex * (qy - ay) - ey * (qx - ax) >= 0
            if p_in:
                output.append((px, py))
            if p_in != q_in:
                # edge pq crosses the clip line; append the intersection
                denom = ex * (qy - py) - ey * (qx - px)
                if denom != 0.0:
                    t = (ex * (ay - py) - ey * (ax - px)) / denom
                    output.append((px + t * (qx - px), py + t * (qy - py)))
    return np.array(output).reshape(-1, 2)


def footprint_intersection_area(box_a: OrientedBox, box_b: OrientedBox) -> float:
    # both footprints are CCW, as clipping needs, since sizes are positive
    return _polygon_area(_clip_polygon(footprint_polygon(box_a), footprint_polygon(box_b)))


def iou_3d(box_a: OrientedBox, box_b: OrientedBox) -> float:
    """Exact IoU of two yaw-oriented boxes. Symmetric, in [0, 1]."""
    az0 = box_a.center[2] - box_a.size[2] / 2.0
    az1 = box_a.center[2] + box_a.size[2] / 2.0
    bz0 = box_b.center[2] - box_b.size[2] / 2.0
    bz1 = box_b.center[2] + box_b.size[2] / 2.0
    z_overlap = max(0.0, min(az1, bz1) - max(az0, bz0))
    if z_overlap == 0.0:
        return 0.0
    inter = footprint_intersection_area(box_a, box_b) * z_overlap
    union = box_a.volume + box_b.volume - inter
    if union <= 0.0:
        return 0.0
    return float(np.clip(inter / union, 0.0, 1.0))


def nms(boxes: list[OrientedBox], iou_threshold: float) -> list[OrientedBox]:
    """Greedy per-category NMS.

    Boxes are visited in score-descending order (ties broken by input
    index, earlier first). A box is kept unless its IoU with an
    already-kept box of the same category exceeds ``iou_threshold``.
    The kept boxes are returned sorted by score descending.
    """
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, i))
    kept: list[int] = []
    for i in order:
        suppressed = False
        for j in kept:
            if boxes[j].category != boxes[i].category:
                continue
            if iou_3d(boxes[i], boxes[j]) > iou_threshold:
                suppressed = True
                break
        if not suppressed:
            kept.append(i)
    return [boxes[i] for i in kept]
