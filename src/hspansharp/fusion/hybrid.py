"""Guided-filter PCA fusion: leading principal components are sharpened by
edge-preserving filtering against the PAN image, trailing components are
denoised by soft thresholding and interpolated.

The guided filter's window means use windows clipped at the image border
(not mirrored). Each is separable, so it is written per axis as a small
matrix and the mean of any stack of planes z is rows @ z @ cols^T.
"""

from __future__ import annotations

import numpy as np

from ..imgcore import SpectralImage
from ..resample import upsample_data
from .cs import pca_transform

__all__ = [
    "guided_filter_plane",
    "soft_threshold",
    "default_component_count",
    "fuse_gfpca",
]

# The leading components GFPCA filters explain this share of the variance,
# and there are at most this many of them.
_ENERGY = 0.995
_MAX_COMPONENTS = 10


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
    (p, H, W) stack against one (H, W) guide filters every plane."""
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


def default_component_count(variances: np.ndarray) -> int:
    """Smallest leading component count explaining `_ENERGY` of the variance,
    at most `_MAX_COMPONENTS`."""
    frac = np.cumsum(variances) / variances.sum()
    p = int(np.searchsorted(frac, _ENERGY) + 1)
    return min(p, _MAX_COMPONENTS, variances.size)


def fuse_gfpca(y_h: SpectralImage, pan: SpectralImage, ratio: int) -> SpectralImage:
    """PCA-decorrelate Y_H, guided-filter the first p upsampled components
    against the PAN, soft-threshold and interpolate the rest, then invert the
    PCA at the PAN scale.

    p is `default_component_count` of the component variances; the window
    radius is the ratio, eps = 1e-4 (value span of Y_H)^2, and the threshold
    is the MAD noise scale of the trailing components.
    """
    ratio = int(ratio)
    if pan.bands != 1:
        raise ValueError("PAN image must hold a single band")
    if (pan.height, pan.width) != (y_h.height * ratio, y_h.width * ratio):
        raise ValueError("PAN dims must equal the upsampled Y_H dims")
    transform = pca_transform(y_h)
    scores = transform.forward(y_h.data)
    p = default_component_count(transform.variances)
    span = float(y_h.data.max() - y_h.data.min())
    tau = _mad_sigma(scores[p:].ravel()) if p < y_h.bands else 0.0

    def upsampled(components: np.ndarray) -> np.ndarray:
        low = SpectralImage(y_h.height, y_h.width, components)
        return upsample_data(low, ratio, "bicubic")

    leading = upsampled(scores[:p]).reshape(p, pan.height, pan.width)
    filtered = guided_filter_plane(
        leading, pan.to_cube()[0], ratio, 1e-4 * span**2
    ).reshape(p, -1)
    # Interpolation and the inverse PCA are linear, so the trailing
    # components and the band means go back to band space at low resolution
    # and are interpolated once, into the cube the leading term is added to.
    trailing = transform.loadings[p:].T @ soft_threshold(scores[p:], tau)
    fused = upsampled(trailing + transform.band_means[:, np.newaxis])
    for band, weights in zip(fused, transform.loadings[:p].T):
        band += weights @ filtered
    return SpectralImage._adopt(pan.height, pan.width, fused, y_h.wavelengths)
