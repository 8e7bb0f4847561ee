"""Guided-filter PCA fusion: leading principal components are sharpened by
edge-preserving filtering against the PAN image, trailing components are
denoised by soft thresholding and interpolated.

The guided filter's window means use windows clipped at the image border
(not mirrored). Each is separable, so it is written per axis as a small
banded matrix and the mean of any stack of planes z is rows @ z @ cols^T,
applied by `sensorsim.separable_product` (the one place a pair of axis
matrices is applied), planned once for all six means.

GFPCA's image is W F + interp(L): W the leading loadings, F the filtered
components on the PAN grid, and L the trailing components and band means
taken back to band space at low resolution (interpolation and the inverse
PCA are linear). Each block is written as its rows of W times F, and L's
bands are interpolated one at a time through one band buffer and added to
it, as `cs.inject_detail` adds its detail.
"""

from __future__ import annotations

import numpy as np

from ..imgcore import BandStream, DynamicRange, SpectralImage
from ..resample import interpolate, upsample_bands
from ..sensorsim import check_pair, pan_values, separable_product
from .cs import energy_knee, pca_transform

__all__ = [
    "guided_filter_plane",
    "soft_threshold",
    "default_component_count",
    "gfpca_stream",
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
    (p, H, W) stack against one (H, W) guide filters every plane. The
    regularizer `eps` must be finite and nonnegative."""
    if not 0.0 <= eps < np.inf:
        raise ValueError(f"guided filter eps must be finite and nonnegative, got {eps!r}")
    rows, cols = (_axis_window_mean(n, d) for n in inp.shape[-2:])
    mean = separable_product(rows, cols)

    # The stack-sized terms are formed in place, in `a` and one work
    # array: a = cov(I, p) / (var(I) + eps), 0 where that divisor is not
    # positive, and b = mean(p) - a mean(I).
    mean_i = mean(guide)
    mean_p = mean(inp)
    a = mean(guide * inp)
    work = np.multiply(mean_i, mean_p)
    a -= work
    denom = mean(guide * guide) - mean_i * mean_i + eps
    positive = denom > 0.0
    np.divide(a, np.where(positive, denom, 1.0), out=a)
    np.copyto(a, 0.0, where=~positive)
    b = np.subtract(mean_p, np.multiply(a, mean_i, out=work), out=work)
    out = mean(a)
    out *= guide
    out += mean(b)
    return out


def soft_threshold(values: np.ndarray, tau: float) -> np.ndarray:
    """sign(v) max(|v| - tau, 0) elementwise."""
    if not tau >= 0:
        raise ValueError(f"threshold must be nonnegative, got {tau!r}")
    v = np.asarray(values, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def _select_median(work: np.ndarray) -> float:
    """`np.median` of the 1-d array `work`, to the bit, by one selection
    that reorders `work` in place: the upper middle value from one
    partition and, for an even length, the largest value below it, the
    two averaged as `np.median` averages them."""
    half = work.size // 2
    work.partition(half)
    upper = work[half]
    if work.size % 2:
        return float(upper)
    return float((work[:half].max() + upper) / 2)


def _mad_sigma(values: np.ndarray) -> float:
    """1.4826 times the median absolute deviation of `values`, both medians
    selected in one working copy."""
    work = values.copy()
    med = _select_median(work)
    np.subtract(values, med, out=work)
    np.abs(work, out=work)
    return 1.4826 * _select_median(work)


def default_component_count(variances: np.ndarray) -> int:
    """Smallest leading component count explaining `_ENERGY` of the variance,
    at most `_MAX_COMPONENTS`."""
    return energy_knee(variances, _ENERGY, _MAX_COMPONENTS)


def gfpca_stream(y_h: SpectralImage, pan: SpectralImage, ratio: int) -> BandStream:
    """PCA-decorrelate Y_H, guided-filter the first p upsampled components
    against the PAN, soft-threshold and interpolate the rest, then invert the
    PCA at the PAN scale.

    p is `default_component_count` of the component variances; the window
    radius is the ratio, eps = 1e-4 (value span of Y_H)^2, and the threshold
    is the MAD noise scale of the trailing components.
    """
    guide = pan_values(pan).reshape(pan.height, pan.width)
    ratio = check_pair(y_h, pan, ratio)
    band_means, variances, loadings = pca_transform(y_h)
    scores = loadings @ (y_h.data - band_means[:, np.newaxis])
    p = default_component_count(variances)
    span = DynamicRange.spanning(y_h.data).span
    tau = _mad_sigma(scores[p:].ravel()) if p < y_h.bands else 0.0

    leading = interpolate(scores[:p].reshape(p, y_h.height, y_h.width), ratio)
    filtered = guided_filter_plane(leading, guide, ratio, 1e-4 * span**2).reshape(p, -1)
    trailing = loadings[p:].T @ soft_threshold(scores[p:], tau)
    low = SpectralImage(
        y_h.height, y_h.width, trailing + band_means[:, np.newaxis], y_h.wavelengths
    )
    bands = upsample_bands(low, ratio)
    weights = loadings[:p].T

    def fill(start, stop, out):
        np.matmul(weights[start:stop], filtered, out=out)
        band = np.empty((1, out.shape[1]))
        for k, row in enumerate(out, start):
            bands.fill(k, k + 1, band)
            row += band[0]

    return bands.refill(fill)
