"""Ordinal depth discretization and the losses attached to it.

Depth is discretized into ``num_bins`` equal-width bins over
``[d_min, d_max]``. A prediction is a vector of ``num_bins`` independent
probabilities, entry j being the probability that the true depth exceeds
bin edge j. Decoding counts entries above 0.5 and returns the midpoint
of the selected bin, so a perfectly confident prediction decodes to a
value within half a bin width of the truth.

Probabilities are clipped to ``[CLIP_EPS, 1 - CLIP_EPS]`` before any log
so a saturated prediction yields a finite loss. The analytic gradients
exported here assume inputs strictly inside the clipping interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLIP_EPS = 1e-7


@dataclass(frozen=True)
class DepthBins:
    """Uniform depth discretization over ``[d_min, d_max]``."""

    d_min: float
    d_max: float
    num_bins: int

    def __post_init__(self):
        if not self.d_max > self.d_min:
            raise ValueError(f"need d_max > d_min, got [{self.d_min}, {self.d_max}]")
        if self.num_bins < 1:
            raise ValueError(f"need at least one bin, got {self.num_bins}")

    @property
    def edges(self) -> np.ndarray:
        """``num_bins + 1`` bin edges, first d_min, last d_max."""
        return np.linspace(self.d_min, self.d_max, self.num_bins + 1)

    @property
    def width(self) -> float:
        return (self.d_max - self.d_min) / self.num_bins


def decode_depth(probs, bins: DepthBins):
    """Decode ordinal probabilities to the midpoint of the selected bin.

    The selected bin index is the number of probabilities above 0.5,
    clamped to ``num_bins - 1``. Accepts a (num_bins,) vector or a
    (K, num_bins) batch.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.shape[-1] != bins.num_bins:
        raise ValueError(f"expected {bins.num_bins} probabilities, got {p.shape[-1]}")
    label = np.minimum((p > 0.5).sum(axis=-1), bins.num_bins - 1)
    edges = bins.edges
    mid = (edges[label] + edges[label + 1]) / 2.0
    if p.ndim == 1:
        return float(mid)
    return mid


def probs_for_label(label, bins: DepthBins) -> np.ndarray:
    """Hard ordinal probabilities (1 below the label, 0 from it on).

    ``decode_depth(probs_for_label(l, bins), bins)`` returns the midpoint
    of bin ``l``; useful for constructing consistent fixtures.
    """
    label = int(label)
    if not 0 <= label < bins.num_bins:
        raise ValueError(f"label {label} outside [0, {bins.num_bins})")
    p = np.zeros(bins.num_bins)
    p[:label] = 1.0
    return p


def _check_probs_labels(probs, labels):
    p = np.asarray(probs, dtype=np.float64)
    l = np.asarray(labels, dtype=np.int64)
    if p.ndim == 1:
        p = p[None, :]
    if l.ndim == 0:
        l = l[None]
    if p.ndim != 2 or l.ndim != 1 or len(p) != len(l):
        raise ValueError(f"shape mismatch: probs {p.shape} labels {l.shape}")
    if len(p) == 0:
        raise ValueError("need at least one pixel")
    if np.any(l < 0) or np.any(l >= p.shape[1]):
        raise ValueError("labels outside bin range")
    return p, l


def ordinal_loss(probs, labels) -> float:
    """Mean ordinal regression loss over K pixels.

    For a pixel with label l the per-pixel term is
    ``-(sum_{j<l} log p_j + sum_{j>=l} log(1 - p_j))``; the result is the
    mean over pixels. Probabilities are clipped before the logs.
    """
    p, l = _check_probs_labels(probs, labels)
    pc = np.clip(p, CLIP_EPS, 1.0 - CLIP_EPS)
    below = np.arange(p.shape[1])[None, :] < l[:, None]
    per_pixel = np.where(below, np.log(pc), np.log1p(-pc)).sum(axis=1)
    return float(-per_pixel.mean())


def ordinal_loss_grad(probs, labels) -> np.ndarray:
    """Analytic d(ordinal_loss)/d(probs), same shape as ``probs``.

    Valid for probabilities strictly inside the clipping interval; at
    clipped entries the true derivative is zero while this returns the
    interior expression.
    """
    p, l = _check_probs_labels(probs, labels)
    below = np.arange(p.shape[1])[None, :] < l[:, None]
    grad = np.where(below, -1.0 / p, 1.0 / (1.0 - p)) / len(p)
    return grad.reshape(np.shape(probs))
