"""Integer-factor upsampling with grid alignment matched to the decimator.

Output sample j on each axis interpolates the input at
(j - sensorsim.default_phase(ratio)) / ratio, so input pixel centers land
exactly on the decimation sites kept by blur_downsample and the round trip
through an impulse kernel is lossless.
Out-of-range source coordinates are mirrored by `sensorsim.stencil_matrix`,
which also builds the blur of `sensorsim.degrade_axis`. Each axis is one
(n * ratio) x n interpolation matrix M, so `upsample` is M_h X M_w^T,
applied by `sensorsim.separable` (the one place a pair of axis matrices is
applied) on the four nonzero weights of each row.
`upsample_bands` forms that product one block of bands at a time into a
caller's buffer (an `imgcore.BandStream`), through one
`sensorsim.separable_product` planned for all blocks, for the fusion
methods that inject detail into each block in place. `interpolate` is the
array form, as `sensorsim.degrade` is, for the small stacks of planes the
methods interpolate in full (an intensity, components or coefficients).

Every row of M sums to one, so interpolation maps a constant to itself and
commutes with centring. `upsampled_moments` uses that to give the band means
and covariance C, or only C w, of the interpolated cube from the input alone.
"""

from __future__ import annotations

import numpy as np

from .imgcore import BandStream, SpectralImage
from .sensorsim import (
    check_ratio,
    default_phase,
    separable,
    separable_product,
    stencil_matrix,
)

__all__ = ["interpolate", "upsample", "upsample_bands", "upsampled_moments"]

# Catmull-Rom bicubic parameter.
_BICUBIC_A = -0.5


def _cubic_weight(t: np.ndarray) -> np.ndarray:
    a = _BICUBIC_A
    at = np.abs(t)
    inner = (a + 2.0) * at**3 - (a + 3.0) * at**2 + 1.0
    outer = a * at**3 - 5.0 * a * at**2 + 8.0 * a * at - 4.0 * a
    return np.where(at <= 1.0, inner, np.where(at < 2.0, outer, 0.0))


def _axis_matrix(n_in: int, ratio: int, method: str) -> np.ndarray:
    """One axis grown to length n_in * ratio, as an (n_in * ratio) x n_in
    matrix of mirrored taps (`sensorsim.stencil_matrix`)."""
    src = (np.arange(n_in * ratio) - default_phase(ratio)) / ratio
    base = np.floor(src).astype(np.int64)
    t = src - base
    if method == "bilinear":
        offsets = np.array([0, 1])
        weights = np.stack([1.0 - t, t], axis=1)
    else:
        offsets = np.array([-1, 0, 1, 2])
        weights = _cubic_weight(t[:, np.newaxis] - offsets)
    return stencil_matrix(base[:, np.newaxis] + offsets, weights, n_in)


def _axis_matrices(height: int, width: int, ratio: int, method: str):
    """The row and column interpolation matrices of a height x width plane
    grown by `ratio`."""
    ratio = check_ratio(ratio)
    if method not in ("bilinear", "bicubic"):
        raise ValueError(f"unknown interpolation method: {method!r}")
    return _axis_matrix(height, ratio, method), _axis_matrix(width, ratio, method)


def interpolate(stack: np.ndarray, ratio: int, method: str = "bicubic") -> np.ndarray:
    """Every plane of `stack` (its last two axes) grown by an integer factor,
    as a fresh writable array; leading axes are planes.

    method is "bilinear" or "bicubic" (Catmull-Rom, a = -0.5).
    """
    rows, cols = _axis_matrices(*stack.shape[-2:], ratio, method)
    return separable(rows, stack, cols)


def upsample_bands(img: SpectralImage, ratio: int, method: str = "bicubic") -> BandStream:
    """`upsample(img, ratio, method)` as a `BandStream`: each block of bands
    is interpolated straight into the caller's buffer."""
    rows, cols = _axis_matrices(img.height, img.width, ratio, method)
    cube = img.to_cube()
    height, width = rows.shape[0], cols.shape[0]
    interpolate = separable_product(rows, cols)

    def fill(start, stop, out):
        interpolate(cube[start:stop], out.reshape(stop - start, height, width))

    return BandStream(height, width, img.bands, fill, img.wavelengths)


def upsampled_moments(
    img: SpectralImage, ratio: int, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Band means of `upsample(img, ratio)` and its population band
    covariance C, or C @ weights for a bands x m `weights`, on `img`'s grid.

    With R, K the row and column matrices and N the interpolated pixel
    count, band k's mean is m_k = (1^T R) Y_k (K^T 1) / N. As the rows of R
    and K sum to one, the centred interpolated band is R Z_k K^T with
    Z_k = Y_k - m_k, so C_jk = <Z_j, (R^T R) Z_k (K^T K)> / N. With
    `weights` only the m planes W^T Z are spread, to S, and no centred cube
    is formed: Z S^T = Y S^T - m (S 1)^T.
    """
    rows, cols = _axis_matrices(img.height, img.width, ratio, "bicubic")
    count = rows.shape[0] * cols.shape[0]
    cube = img.to_cube()
    row_sums, col_sums = (m.sum(axis=0, keepdims=True) for m in (rows, cols))
    means = separable(row_sums, cube, col_sums)[:, 0, 0] / count
    if weights is None:
        flat = planes = img.data - means[:, np.newaxis]
    else:
        flat, planes = img.data, weights.T @ img.data - (means @ weights)[:, np.newaxis]
    spread = separable(rows.T @ rows, planes.reshape(-1, *cube.shape[1:]), cols.T @ cols)
    spread = spread.reshape(len(planes), -1)
    shift = 0.0 if weights is None else np.outer(means, spread.sum(axis=1))
    return means, (flat @ spread.T - shift) / count


def upsample(img: SpectralImage, ratio: int, method: str = "bicubic") -> SpectralImage:
    """Interpolate every band up by an integer factor.

    method is "bilinear" or "bicubic" (Catmull-Rom, a = -0.5).
    """
    return upsample_bands(img, ratio, method).image()
