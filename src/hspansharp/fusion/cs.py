"""Component-substitution pansharpening: PCA, Gram-Schmidt, and GS Adaptive.

All three share the same injection skeleton: a spectrally weighted intensity
O_L = w^T Y is formed from the interpolated hyperspectral bands, the PAN
image is moment-matched to it, and the detail (P - O_L) is injected with
gains C w / var(O_L), C the interpolated bands' covariance (`_gs_stream`).
They differ only in w; PCA's is the first principal loading. Interpolation
is linear, so O_L is the interpolated w^T Y_H, and C w comes from that one
low-resolution plane (`resample.upsampled_moments`). `front_end` is the one
front end of these methods and of the MRA ones: the PAN and pair checks,
the interpolated bands as an `imgcore.BandStream` and the PAN values. Each
method's output is formed one band block at a time: the block is
interpolated and its detail injected in place. The sign rule of principal
axes (`signed_axes`) and the energy knee (`energy_knee`) of every method
live here.
"""

from __future__ import annotations

import numpy as np

from ..imgcore import BandStream, SpectralImage
from ..resample import interpolate, upsample_bands, upsampled_moments
from ..sensorsim import BlurKernel, check_pair, degrade, pan_values

__all__ = [
    "pca_transform",
    "signed_axes",
    "energy_knee",
    "match_moments",
    "inject_detail",
    "injected",
    "front_end",
    "pca_stream",
    "fuse_pca",
    "gs_stream",
    "fuse_gs",
    "gsa_weights",
    "gsa_stream",
    "fuse_gsa",
]

# Ridge added to the GSA normal equations when the band Gram matrix is
# numerically singular.
_RIDGE = 1e-8


def pca_transform(img: SpectralImage):
    """Principal components of the band covariance (population normalization):
    the band means, the component variances in descending order, and the
    orthonormal loadings as rows, each signed so its largest-magnitude entry
    is positive. The scores of data X are loadings @ (X - means)."""
    data = img.data
    mu = data.mean(axis=1)
    centered = data - mu[:, np.newaxis]
    evals, loadings = _principal_axes((centered @ centered.T) / img.pixels, data)
    return mu, evals, loadings


def signed_axes(axes: np.ndarray) -> np.ndarray:
    """`axes` (one axis per column) with each column negated where that makes
    its largest-magnitude entry positive."""
    signs = np.sign(axes[np.abs(axes).argmax(axis=0), np.arange(axes.shape[1])])
    return axes * np.where(signs == 0, 1.0, signs)


def energy_knee(energies: np.ndarray, share: float, cap: int) -> int:
    """Smallest leading count of the descending `energies` whose sum reaches
    `share` of the total, at most `cap`."""
    frac = np.cumsum(energies) / energies.sum()
    return min(int(np.searchsorted(frac, share) + 1), cap, energies.size)


def _principal_axes(cov: np.ndarray, data: np.ndarray):
    """Eigenvalues of a band covariance in descending order, clamped at zero,
    and the `signed_axes` loadings as rows. A leading variance at or below
    1e-12 max(1, |data|)^2 raises."""
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = np.maximum(evals[order], 0.0)
    if evals[0] <= 1e-12 * max(1.0, float(data.max()), -float(data.min())) ** 2:
        raise ValueError("degenerate PCA: image has no spectral variance")
    return evals, signed_axes(evecs[:, order]).T


def match_moments(values: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Affine-map `values` onto the mean and variance of `target`.

    A zero-variance input carries no spatial information, so it maps to the
    target itself (identity substitution).
    """
    v_std = values.std()
    if v_std == 0.0:
        return target.copy()
    scale = target.std() / v_std
    return (values - values.mean()) * scale + target.mean()


def inject_detail(fused: np.ndarray, detail: np.ndarray, gains: np.ndarray) -> None:
    """F_k += g_k D in place, band by band through one reused band buffer:
    the additive injection of the CS methods and of MTF-GLP."""
    scaled = np.empty_like(detail)
    for band, gain in zip(fused, gains):
        band += np.multiply(detail, gain, out=scaled)


def injected(bands: BandStream, detail: np.ndarray, gains: np.ndarray) -> BandStream:
    """`bands` with g_k D added to band k (`inject_detail`) in each block."""

    def fill(start, stop, out):
        bands.fill(start, stop, out)
        inject_detail(out, detail, gains[start:stop])

    return bands.refill(fill)


def front_end(y_h: SpectralImage, pan: SpectralImage, ratio: int):
    """The front end of SFIM, MTF-GLP, MTF-GLP-HPM, GS, GSA and PCA: after the
    PAN and pair checks, Y_H interpolated to the PAN grid as a `BandStream`,
    and the PAN values."""
    p = pan_values(pan)
    return upsample_bands(y_h, check_pair(y_h, pan, ratio)), p


def _gs_stream(y_h: SpectralImage, ratio: int, front, w: np.ndarray) -> BandStream:
    """GS injection into the `front_end` bands with intensity weights w and
    gains cov(Y^k, O_L) / var(O_L) = C w / var(O_L), from the plane w^T Y_H."""
    bands, p = front
    o_l = interpolate((w @ y_h.data).reshape(y_h.height, y_h.width), ratio).ravel()
    var = o_l.var()
    if var == 0.0:
        raise ValueError("intensity component has zero variance")
    cov_w = upsampled_moments(y_h, ratio, w[:, np.newaxis])[1][:, 0]
    return injected(bands, match_moments(p, o_l) - o_l, cov_w / var)


def pca_stream(y_h: SpectralImage, pan: SpectralImage, ratio: int) -> BandStream:
    """Substitute the first principal component by the moment-matched PAN.

    This is the GS injection with w = the first loading l_0 of C, whose gains
    C l_0 / var(O_L) are l_0: the inverse PCA adds l_0 (match(P, s_0) - s_0)
    to Y, which shifting s_0 by l_0^T mean(Y) leaves unchanged.
    """
    front = front_end(y_h, pan, ratio)
    l0 = _principal_axes(upsampled_moments(y_h, ratio)[1], y_h.data)[1][0]
    return _gs_stream(y_h, ratio, front, l0)


def fuse_pca(y_h: SpectralImage, pan: SpectralImage, ratio: int) -> SpectralImage:
    """`pca_stream` as one image."""
    return pca_stream(y_h, pan, ratio).image()


def gs_stream(y_h: SpectralImage, pan: SpectralImage, ratio: int) -> BandStream:
    """Gram-Schmidt sharpening: uniform intensity weights, covariance gains."""
    front = front_end(y_h, pan, ratio)
    return _gs_stream(y_h, ratio, front, np.full(y_h.bands, 1.0 / y_h.bands))


def fuse_gs(y_h: SpectralImage, pan: SpectralImage, ratio: int) -> SpectralImage:
    """`gs_stream` as one image."""
    return gs_stream(y_h, pan, ratio).image()


def gsa_weights(y_h_matrix: np.ndarray, pan_low: np.ndarray) -> np.ndarray:
    """Least-squares weights fitting the degraded PAN from the HS bands,
    solved via the normal equations with a ridge when rank deficient."""
    y = np.asarray(y_h_matrix, dtype=np.float64)
    p = np.asarray(pan_low, dtype=np.float64).ravel()
    if y.shape[1] != p.size:
        raise ValueError("band matrix and degraded PAN disagree in pixels")
    gram = y @ y.T
    rhs = y @ p
    evals = np.linalg.eigvalsh(gram)
    if evals[0] <= 1e-12 * max(evals[-1], 1.0):
        gram = gram + _RIDGE * np.eye(gram.shape[0])
    return np.linalg.solve(gram, rhs)


def gsa_stream(
    y_h: SpectralImage, pan: SpectralImage, ratio: int, blur: BlurKernel
) -> BandStream:
    """GS Adaptive: intensity weights regressed against the PAN degraded to
    the hyperspectral grid, then the usual GS injection."""
    front = front_end(y_h, pan, ratio)
    pan_low = degrade(pan.to_cube(), blur.taps, ratio)
    return _gs_stream(y_h, ratio, front, gsa_weights(y_h.data, pan_low))


def fuse_gsa(
    y_h: SpectralImage, pan: SpectralImage, ratio: int, blur: BlurKernel
) -> SpectralImage:
    """`gsa_stream` as one image."""
    return gsa_stream(y_h, pan, ratio, blur).image()
