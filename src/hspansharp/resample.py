"""Integer-factor upsampling with grid alignment matched to the decimator.

Output sample j on each axis interpolates the input at
(j - sensorsim.default_phase(ratio)) / ratio, so input pixel centers land
exactly on the decimation sites kept by blur_downsample and the round trip
through an impulse kernel is lossless.
Out-of-range source coordinates use symmetric (mirror) extension. Each axis
is one (n * ratio) x n interpolation matrix M, so `upsample` is M_h X M_w^T.
`upsample_data` returns that product as a fresh writable array, for the
fusion methods that inject detail into it in place and hand it to
`SpectralImage` without a copy.

Every row of M sums to one, so interpolation maps a constant to itself and
commutes with centring. `upsampled_moments` uses that to give the band means
and covariance of the interpolated cube from the low-resolution cube alone.
"""

from __future__ import annotations

import numpy as np

from .imgcore import SpectralImage
from .sensorsim import default_phase

__all__ = ["upsample", "upsample_data", "upsampled_moments"]

# Catmull-Rom bicubic parameter.
_BICUBIC_A = -0.5


def _mirror_index(idx: np.ndarray, n: int) -> np.ndarray:
    """Symmetric half-sample extension: ... 1 0 | 0 1 ... n-1 | n-1 n-2 ..."""
    if n == 1:
        return np.zeros_like(idx)
    period = 2 * n
    j = np.mod(idx, period)
    return np.where(j >= n, period - 1 - j, j)


def _cubic_weight(t: np.ndarray) -> np.ndarray:
    a = _BICUBIC_A
    at = np.abs(t)
    inner = (a + 2.0) * at**3 - (a + 3.0) * at**2 + 1.0
    outer = a * at**3 - 5.0 * a * at**2 + 8.0 * a * at - 4.0 * a
    return np.where(at <= 1.0, inner, np.where(at < 2.0, outer, 0.0))


def _axis_plan(n_in: int, ratio: int, method: str):
    """Mirrored source indices and weights of each output sample when one
    axis grows to length n_in * ratio."""
    src = (np.arange(n_in * ratio) - default_phase(ratio)) / ratio
    base = np.floor(src).astype(np.int64)
    t = src - base
    if method == "bilinear":
        offsets = np.array([0, 1])
        weights = np.stack([1.0 - t, t])
    else:
        offsets = np.array([-1, 0, 1, 2])
        weights = np.stack([_cubic_weight(t - o) for o in offsets])
    idx = _mirror_index(base[np.newaxis, :] + offsets[:, np.newaxis], n_in)
    return idx, weights


def _axis_matrix(n_in: int, ratio: int, method: str) -> np.ndarray:
    """The axis plan as an (n_in * ratio) x n_in matrix; taps that mirror onto
    the same input sample add up."""
    idx, weights = _axis_plan(n_in, ratio, method)
    rows = np.broadcast_to(np.arange(n_in * ratio), idx.shape)
    matrix = np.zeros((n_in * ratio, n_in))
    np.add.at(matrix, (rows, idx), weights)
    return matrix


def _axis_matrices(img: SpectralImage, ratio: int, method: str):
    """The row and column interpolation matrices of `img` grown by `ratio`."""
    if ratio < 1:
        raise ValueError("ratio must be a positive integer")
    if method not in ("bilinear", "bicubic"):
        raise ValueError(f"unknown interpolation method: {method!r}")
    return (
        _axis_matrix(img.height, ratio, method),
        _axis_matrix(img.width, ratio, method),
    )


def upsample_data(img: SpectralImage, ratio: int, method: str = "bicubic") -> np.ndarray:
    """`upsample(img, ratio, method).data` as a fresh, writable bands x pixels
    array that shares no memory with `img`.

    method is "bilinear" or "bicubic" (Catmull-Rom, a = -0.5).
    """
    rows, cols = _axis_matrices(img, int(ratio), method)
    return (rows @ img.to_cube() @ cols.T).reshape(img.bands, -1)


def upsampled_moments(
    img: SpectralImage, ratio: int, method: str = "bicubic"
) -> tuple[np.ndarray, np.ndarray]:
    """Band means and population band covariance of
    `upsample_data(img, ratio, method)`, computed on the grid of `img`.

    With R, K the row and column matrices and N the interpolated pixel
    count, band k's mean is m_k = (1^T R) Y_k (K^T 1) / N. As the rows of R
    and K sum to one, the centred interpolated band is R Z_k K^T with
    Z_k = Y_k - m_k, so the covariance is <Z_j, (R^T R) Z_k (K^T K)> / N.
    """
    rows, cols = _axis_matrices(img, int(ratio), method)
    count = rows.shape[0] * cols.shape[0]
    cube = img.to_cube()
    means = rows.sum(axis=0) @ cube @ cols.sum(axis=0) / count
    centred = cube - means[:, np.newaxis, np.newaxis]
    spread = (rows.T @ rows) @ centred @ (cols.T @ cols)
    flat = centred.reshape(img.bands, -1)
    return means, flat @ spread.reshape(img.bands, -1).T / count


def upsample(img: SpectralImage, ratio: int, method: str = "bicubic") -> SpectralImage:
    """Interpolate every band up by an integer factor.

    method is "bilinear" or "bicubic" (Catmull-Rom, a = -0.5).
    """
    ratio = int(ratio)
    return SpectralImage._adopt(
        img.height * ratio,
        img.width * ratio,
        upsample_data(img, ratio, method),
        img.wavelengths,
    )
