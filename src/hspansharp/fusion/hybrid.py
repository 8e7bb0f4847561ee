"""Guided-filter PCA fusion: leading principal components are sharpened by
edge-preserving filtering against the high-resolution guide, trailing
components are denoised by soft thresholding and interpolated.

The guided filter's window means use windows clipped at the image border
(not mirrored). Each is separable, so it is written per axis as a small
matrix and the mean of any stack of planes z is rows @ z @ cols^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..imgcore import SpectralImage
from ..resample import upsample_data
from .cs import pca_transform

__all__ = [
    "GuidedFilterParams",
    "guided_filter_plane",
    "soft_threshold",
    "default_component_count",
    "fuse_gfpca",
]


@dataclass(frozen=True)
class GuidedFilterParams:
    """Window radius d (Chebyshev, window side 2d + 1) and regularizer eps."""

    radius: int
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "radius", int(self.radius))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if self.radius < 1:
            raise ValueError("guided filter radius must be >= 1")
        if self.epsilon < 0:
            raise ValueError("guided filter epsilon must be >= 0")


def _axis_window_mean(n: int, d: int) -> np.ndarray:
    """One axis of the border-clipped window mean as an n x n matrix: row i
    averages the samples within d of sample i."""
    offsets = np.arange(n)
    inside = np.abs(offsets[:, np.newaxis] - offsets) <= d
    return inside / inside.sum(axis=1, keepdims=True)


def guided_filter_plane(
    inp: np.ndarray, guide: np.ndarray, d: int, eps: float
) -> np.ndarray:
    """He-style guided filter with border-clipped (2d + 1)^2 windows over the
    last two axes; leading axes of `inp` and `guide` broadcast, so a
    (p, 1, H, W) stack against (1, g, H, W) guides filters every pair."""
    rows, cols = (_axis_window_mean(n, d) for n in inp.shape[-2:])

    def mean(z):
        return rows @ z @ cols.T

    mean_i = mean(guide)
    mean_p = mean(inp)
    cov_ip = mean(guide * inp) - mean_i * mean_p
    var_i = mean(guide * guide) - mean_i * mean_i
    denom = var_i + eps
    a = np.where(denom > 0.0, cov_ip / np.where(denom > 0.0, denom, 1.0), 0.0)
    b = mean_p - a * mean_i
    return mean(a) * guide + mean(b)


def soft_threshold(values: np.ndarray, tau: float) -> np.ndarray:
    """sign(v) max(|v| - tau, 0) elementwise."""
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    v = np.asarray(values, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def _mad_sigma(values: np.ndarray) -> float:
    med = np.median(values)
    return 1.4826 * float(np.median(np.abs(values - med)))


def default_component_count(variances: np.ndarray, energy: float = 0.995, cap: int = 10) -> int:
    """Smallest leading component count explaining `energy` of the variance."""
    total = variances.sum()
    frac = np.cumsum(variances) / total
    p = int(np.searchsorted(frac, energy) + 1)
    return min(p, cap, variances.size)


def fuse_gfpca(
    y_h: SpectralImage,
    guide: SpectralImage,
    ratio: int,
    p: int | None = None,
    params: GuidedFilterParams | None = None,
    tau: float | None = None,
) -> SpectralImage:
    """PCA-decorrelate Y_H, guided-filter the first p upsampled components
    against the guide bands (averaged over guide bands), soft-threshold and
    interpolate the rest, then invert the PCA at the guide scale.

    Defaults: p explains >= 99.5% variance (capped at 10), window radius =
    ratio, eps = 1e-4 (value span)^2, tau = MAD noise scale of the discarded
    components.
    """
    ratio = int(ratio)
    if guide.bands not in (1, 3):
        raise ValueError("guide must hold one or three bands")
    if (guide.height, guide.width) != (y_h.height * ratio, y_h.width * ratio):
        raise ValueError("guide dims must equal the upsampled Y_H dims")
    transform = pca_transform(y_h)
    scores = transform.forward(y_h.data)
    if p is None:
        p = default_component_count(transform.variances)
    if not 1 <= p <= y_h.bands:
        raise ValueError(f"component count {p} out of range")
    if params is None:
        span = float(y_h.data.max() - y_h.data.min())
        params = GuidedFilterParams(radius=ratio, epsilon=1e-4 * span**2)
    if tau is None:
        tau = _mad_sigma(scores[p:].ravel()) if p < y_h.bands else 0.0

    def upsampled(components: np.ndarray) -> np.ndarray:
        low = SpectralImage(y_h.height, y_h.width, components)
        return upsample_data(low, ratio, "bicubic")

    leading = upsampled(scores[:p]).reshape(p, 1, guide.height, guide.width)
    filtered = guided_filter_plane(
        leading, guide.to_cube()[np.newaxis], params.radius, params.epsilon
    ).mean(axis=1).reshape(p, -1)
    # Interpolation and the inverse PCA are linear, so the trailing
    # components and the band means go back to band space at low resolution
    # and are interpolated once, into the cube the leading term is added to.
    trailing = transform.loadings[p:].T @ soft_threshold(scores[p:], tau)
    fused = upsampled(trailing + transform.band_means[:, np.newaxis])
    for band, weights in zip(fused, transform.loadings[:p].T):
        band += weights @ filtered
    return SpectralImage(guide.height, guide.width, fused, y_h.wavelengths)
