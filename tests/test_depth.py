"""Ordinal depth bins, decoding and losses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointscatter.depth import DepthBins, decode_depth, ordinal_loss, ordinal_loss_grad, probs_for_label

FIVE = DepthBins(d_min=0.0, d_max=5.0, num_bins=5)


class TestBins:
    def test_edges_and_width(self):
        assert np.allclose(FIVE.edges, [0, 1, 2, 3, 4, 5])
        assert FIVE.width == 1.0

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            DepthBins(2.0, 2.0, 4)
        with pytest.raises(ValueError):
            DepthBins(0.0, 5.0, 0)


class TestDecode:
    def test_three_probs_exceed_half(self):
        # l = 3, midpoint of [3, 4] is 3.5
        assert decode_depth([0.9, 0.8, 0.6, 0.4, 0.2], FIVE) == 3.5

    def test_all_zero(self):
        assert decode_depth(np.zeros(5), FIVE) == 0.5

    def test_all_one_clamps(self):
        # count is 5, clamped to the last bin index 4 -> midpoint 4.5
        assert decode_depth(np.ones(5), FIVE) == 4.5

    def test_batch(self):
        probs = np.stack([np.zeros(5), np.ones(5)])
        assert np.array_equal(decode_depth(probs, FIVE), [0.5, 4.5])

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            decode_depth(np.zeros(4), FIVE)

    @settings(deadline=None)
    @given(depth=st.floats(0.0, 4.999999))
    def test_decode_encode_half_width(self, depth):
        # the bin holding the depth; the range keeps it inside [0, 4]
        label = int(np.floor((depth - FIVE.d_min) / FIVE.width))
        decoded = decode_depth(probs_for_label(label, FIVE), FIVE)
        assert decoded == (FIVE.edges[label] + FIVE.edges[label + 1]) / 2.0
        assert abs(decoded - depth) <= FIVE.width / 2.0


class TestOrdinalLoss:
    def test_worked_single_pixel(self):
        # -(log 0.8 + log(1 - 0.3)) = 0.5798184952529422
        loss = ordinal_loss([[0.8, 0.3]], [1])
        assert loss == pytest.approx(0.5798184952529422, abs=1e-12)

    def test_perfect_prediction_near_zero(self):
        bins = DepthBins(0.0, 8.0, 8)
        probs = np.stack([probs_for_label(l, bins) for l in range(8)])
        labels = np.arange(8)
        assert ordinal_loss(probs, labels) < 1e-5

    def test_duplicated_pixels_leave_mean_unchanged(self):
        single = ordinal_loss([[0.8, 0.3]], [1])
        double = ordinal_loss([[0.8, 0.3], [0.8, 0.3]], [1, 1])
        assert double == pytest.approx(single, abs=1e-15)

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            ordinal_loss(np.zeros((0, 4)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            ordinal_loss([[0.5, 0.5]], [0, 1])
        with pytest.raises(ValueError):
            ordinal_loss([[0.5, 0.5]], [2])

    def test_single_flips_strictly_increase(self):
        # the consistent pattern is the unique minimizer; flipping any
        # one entry must strictly raise the loss
        for num_bins in range(2, 9):
            bins = DepthBins(0.0, float(num_bins), num_bins)
            for label in range(num_bins):
                base = probs_for_label(label, bins)
                base_loss = ordinal_loss([base], [label])
                for j in range(num_bins):
                    flipped = base.copy()
                    flipped[j] = 1.0 - flipped[j]
                    assert ordinal_loss([flipped], [label]) > base_loss

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(5)
        probs = rng.uniform(0.05, 0.95, size=(6, 7))
        labels = rng.integers(0, 7, size=6)
        grad = ordinal_loss_grad(probs, labels)
        h = 1e-5
        for k in range(probs.shape[0]):
            for j in range(probs.shape[1]):
                plus = probs.copy()
                minus = probs.copy()
                plus[k, j] += h
                minus[k, j] -= h
                fd = (ordinal_loss(plus, labels) - ordinal_loss(minus, labels)) / (2 * h)
                assert abs(grad[k, j] - fd) <= 1e-4 * max(abs(fd), 1e-8)
