"""Oriented boxes: exact IoU and NMS.

IoU values used as fixtures are closed-form: two axis-aligned unit
cubes offset by 0.5 along x intersect in 0.5, union 1.5, IoU 1/3; a
unit cube against its own 45-degree rotation intersects in a regular
octagon of area 2*sqrt(2)-2, giving IoU exactly 1/sqrt(2).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from oracles import mc_iou
from pointscatter.boxes import (
    OrientedBox,
    box_corners,
    iou_3d,
    nms,
    wrap_angle,
)


def unit_cube(x=0.0, y=0.0, z=0.0, yaw=0.0, category=0, score=1.0):
    return OrientedBox((x, y, z), (1.0, 1.0, 1.0), yaw, category, score)


boxes_strategy = st.builds(
    OrientedBox,
    center=st.tuples(*[st.floats(-3.0, 3.0) for _ in range(3)]),
    size=st.tuples(*[st.floats(0.2, 2.5) for _ in range(3)]),
    yaw=st.floats(-np.pi, np.pi),
)


class TestWrapAngle:
    def test_interval_is_half_open(self):
        assert wrap_angle(np.pi) == np.pi
        assert wrap_angle(-np.pi) == np.pi

    def test_full_turn_is_zero(self):
        assert wrap_angle(2 * np.pi) == 0.0

    def test_three_half_pi(self):
        assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2, abs=1e-12)

    def test_array(self):
        out = wrap_angle(np.array([0.0, 2 * np.pi, -2 * np.pi]))
        assert np.allclose(out, 0.0, atol=1e-12)


class TestOrientedBox:
    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ValueError):
            OrientedBox((0, 0, 0), (1.0, 0.0, 1.0))

    def test_yaw_normalized_on_construction(self):
        assert unit_cube(yaw=2 * np.pi).yaw == 0.0


class TestCorners:
    def test_unit_cube(self):
        corners = box_corners(unit_cube())
        expected = {(sx, sy, sz) for sx in (-0.5, 0.5) for sy in (-0.5, 0.5) for sz in (-0.5, 0.5)}
        assert {tuple(c) for c in corners} == expected

    def test_quarter_turn_swaps_footprint_axes(self):
        tall = OrientedBox((0, 0, 0), (2.0, 1.0, 1.0), yaw=np.pi / 2)
        corners = box_corners(tall)
        # after the quarter turn, the 2 m extent lies along y
        assert corners[:, 0].max() - corners[:, 0].min() == pytest.approx(1.0, abs=1e-12)
        assert corners[:, 1].max() - corners[:, 1].min() == pytest.approx(2.0, abs=1e-12)

    def test_centroid_is_center(self):
        box = OrientedBox((1.5, -2.0, 0.3), (0.7, 1.1, 2.2), 0.9)
        assert np.abs(box_corners(box).mean(axis=0) - box.center).max() < 1e-12

    @settings(deadline=None)
    @given(box=boxes_strategy)
    def test_hull_volume_matches_extents(self, box):
        hull = ConvexHull(box_corners(box))
        w, h, d = box.size
        assert hull.volume == pytest.approx(w * h * d, rel=1e-9)


class TestIoU:
    def test_identical(self):
        assert iou_3d(unit_cube(), unit_cube()) == 1.0

    def test_disjoint(self):
        assert iou_3d(unit_cube(), unit_cube(x=5.0)) == 0.0

    def test_offset_half_cube(self):
        # intersection 0.5, union 1.5
        assert iou_3d(unit_cube(), unit_cube(x=0.5)) == pytest.approx(1 / 3, abs=1e-15)

    def test_forty_five_degrees(self):
        assert iou_3d(unit_cube(), unit_cube(yaw=np.pi / 4)) == pytest.approx(
            1 / np.sqrt(2), abs=1e-12
        )

    def test_z_disjoint_is_zero(self):
        assert iou_3d(unit_cube(), unit_cube(z=1.0)) == 0.0

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(2024)
        for _ in range(5):
            a = OrientedBox(
                tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(0.5, 2.0, 3)), rng.uniform(-np.pi, np.pi)
            )
            b = OrientedBox(
                tuple(np.asarray(a.center) + rng.uniform(-0.5, 0.5, 3)),
                tuple(rng.uniform(0.5, 2.0, 3)),
                rng.uniform(-np.pi, np.pi),
            )
            estimate = mc_iou(a, b, 200_000, rng)
            assert abs(iou_3d(a, b) - estimate) < 0.01

    @settings(deadline=None, max_examples=40)
    @given(a=boxes_strategy, b=boxes_strategy)
    def test_symmetry_and_bounds(self, a, b):
        ab = iou_3d(a, b)
        assert abs(ab - iou_3d(b, a)) < 1e-12
        assert 0.0 <= ab <= 1.0
        assert iou_3d(a, a) == pytest.approx(1.0, abs=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(a=boxes_strategy, b=boxes_strategy, delta=st.floats(-np.pi, np.pi))
    def test_common_yaw_invariance(self, a, b, delta):
        base = iou_3d(a, b)
        c, s = np.cos(delta), np.sin(delta)

        def rotated(box):
            x, y, z = box.center
            return OrientedBox((c * x - s * y, s * x + c * y, z), box.size, box.yaw + delta)

        assert abs(iou_3d(rotated(a), rotated(b)) - base) < 1e-9


class TestNms:
    def test_identical_boxes_keep_highest(self):
        kept = nms([unit_cube(score=0.9), unit_cube(score=0.8)], iou_threshold=0.01)
        assert len(kept) == 1 and kept[0].score == 0.9

    def test_disjoint_both_kept(self):
        kept = nms([unit_cube(score=0.9), unit_cube(x=5.0, score=0.8)], iou_threshold=0.01)
        assert len(kept) == 2

    def test_overlap_chain(self):
        # A suppresses B; C overlaps B but not A, so C survives
        a = unit_cube(score=0.9)
        b = unit_cube(x=0.8, score=0.8)
        c = unit_cube(x=1.6, score=0.7)
        kept = nms([a, b, c], iou_threshold=0.01)
        assert kept == [a, c]

    def test_categories_do_not_suppress_each_other(self):
        a = unit_cube(score=0.9, category=0)
        b = unit_cube(score=0.8, category=1)
        assert len(nms([a, b], iou_threshold=0.01)) == 2

    def test_output_sorted_by_score(self):
        boxes = [unit_cube(x=3.0 * i, score=s) for i, s in enumerate([0.2, 0.9, 0.5])]
        kept = nms(boxes, iou_threshold=0.01)
        assert [b.score for b in kept] == [0.9, 0.5, 0.2]

    def test_kept_set_is_an_antichain(self):
        rng = np.random.default_rng(77)
        boxes = [
            OrientedBox(
                tuple(rng.uniform(-2, 2, 3)),
                tuple(rng.uniform(0.5, 1.5, 3)),
                rng.uniform(-np.pi, np.pi),
                category=int(rng.integers(0, 2)),
                score=float(rng.uniform(0, 1)),
            )
            for _ in range(30)
        ]
        kept = nms(boxes, iou_threshold=0.3)
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                if kept[i].category == kept[j].category:
                    assert iou_3d(kept[i], kept[j]) <= 0.3
