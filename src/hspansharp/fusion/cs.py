"""Component-substitution pansharpening: PCA, Gram-Schmidt, and GS Adaptive.

All three share the same injection skeleton: a spectrally weighted intensity
O_L = w^T Y is formed from the interpolated hyperspectral bands, the PAN
image is moment-matched to it, and the detail (P - O_L) is injected with
per-band gains g. PCA is the case w = g = the first principal loading.
The band covariance of the interpolated bands, which GS and GSA gains and
the PCA loading need, comes from the low-resolution bands
(`resample.upsampled_moments`), so only O_L and the injection pass over the
interpolated cube.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..imgcore import SpectralImage
from ..resample import upsample_data, upsampled_moments
from ..sensorsim import BlurKernel, blur_downsample

__all__ = [
    "PcaTransform",
    "pca_transform",
    "match_moments",
    "fuse_pca",
    "fuse_gs",
    "gsa_weights",
    "fuse_gsa",
]

# Ridge added to the GSA normal equations when the band Gram matrix is
# numerically singular.
_RIDGE = 1e-8


@dataclass(frozen=True)
class PcaTransform:
    """Orthonormal loadings (rows = components, descending variance) plus the
    band means removed before projection."""

    loadings: np.ndarray
    band_means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.loadings, dtype=np.float64).copy()
        mu = np.asarray(self.band_means, dtype=np.float64).ravel().copy()
        var = np.asarray(self.variances, dtype=np.float64).ravel().copy()
        if L.shape[0] != L.shape[1] or L.shape[0] != mu.size or var.size != mu.size:
            raise ValueError("loadings must be square with matching means")
        if not np.allclose(L @ L.T, np.eye(L.shape[0]), rtol=0, atol=1e-10):
            raise ValueError("loadings must be orthonormal")
        if (np.diff(var) > 1e-10 * max(var.max(initial=0.0), 1.0)).any():
            raise ValueError("component variances must be nonincreasing")
        for arr in (L, mu, var):
            arr.flags.writeable = False
        object.__setattr__(self, "loadings", L)
        object.__setattr__(self, "band_means", mu)
        object.__setattr__(self, "variances", var)

    def forward(self, data: np.ndarray) -> np.ndarray:
        return self.loadings @ (data - self.band_means[:, np.newaxis])


def pca_transform(img: SpectralImage) -> PcaTransform:
    """Principal components of the band covariance (population normalization),
    each loading row signed so its largest-magnitude entry is positive."""
    data = img.data
    mu = data.mean(axis=1)
    centered = data - mu[:, np.newaxis]
    evals, loadings = _principal_axes((centered @ centered.T) / img.pixels, data)
    return PcaTransform(loadings, mu, evals)


def _principal_axes(cov: np.ndarray, data: np.ndarray):
    """Eigenvalues of a band covariance in descending order, clamped at zero,
    and the loadings as rows, each signed so its largest-magnitude entry is
    positive. A leading variance at or below 1e-12 max(1, |data|)^2 raises."""
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = np.maximum(evals[order], 0.0)
    loadings = evecs[:, order].T
    if evals[0] <= 1e-12 * max(1.0, float(data.max()), -float(data.min())) ** 2:
        raise ValueError("degenerate PCA: image has no spectral variance")
    signs = np.sign(loadings[np.arange(loadings.shape[0]),
                             np.abs(loadings).argmax(axis=1)])
    return evals, loadings * np.where(signs == 0, 1.0, signs)[:, np.newaxis]


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


def _pan_values(pan: SpectralImage, height: int, width: int) -> np.ndarray:
    if pan.bands != 1:
        raise ValueError("PAN image must hold a single band")
    if (pan.height, pan.width) != (height, width):
        raise ValueError("PAN dims disagree with the interpolated bands")
    return pan.data[0]


def _inject(fused: np.ndarray, p: np.ndarray, o_l: np.ndarray, g: np.ndarray) -> None:
    """F_k += g_k (P - O_L) in place, band by band, with P first
    moment-matched to O_L."""
    detail = match_moments(p, o_l) - o_l
    for k, gain in enumerate(g):
        fused[k] += gain * detail


def _interpolated(y_h: SpectralImage, pan: SpectralImage, ratio: int):
    """Y_H interpolated to the PAN grid as a fresh writable array, and the PAN
    values."""
    ratio = int(ratio)
    p = _pan_values(pan, y_h.height * ratio, y_h.width * ratio)
    return upsample_data(y_h, ratio, "bicubic"), p


def _gs_inject(
    y_h: SpectralImage, pan: SpectralImage, ratio: int, w: np.ndarray
) -> SpectralImage:
    """GS injection with intensity weights w and gains
    cov(Y^k, O_L) / var(O_L), where cov(Y, O_L) = C w."""
    fused, p = _interpolated(y_h, pan, ratio)
    o_l = w @ fused
    var = o_l.var()
    if var == 0.0:
        raise ValueError("intensity component has zero variance")
    _, cov = upsampled_moments(y_h, ratio, "bicubic")
    _inject(fused, p, o_l, cov @ w / var)
    return SpectralImage._adopt(pan.height, pan.width, fused, y_h.wavelengths)


def fuse_pca(y_h: SpectralImage, pan: SpectralImage, ratio: int) -> SpectralImage:
    """Substitute the first principal component by the moment-matched PAN.

    This is the CS injection with w = g = the first loading l_0: inverting the
    PCA after the substitution adds l_0 (match(P, s_0) - s_0) to Y, and
    shifting s_0 by l_0^T mean(Y) leaves that difference unchanged.
    """
    fused, p = _interpolated(y_h, pan, ratio)
    _, cov = upsampled_moments(y_h, ratio, "bicubic")
    l0 = _principal_axes(cov, y_h.data)[1][0]
    _inject(fused, p, l0 @ fused, l0)
    return SpectralImage._adopt(pan.height, pan.width, fused, y_h.wavelengths)


def fuse_gs(y_h: SpectralImage, pan: SpectralImage, ratio: int) -> SpectralImage:
    """Gram-Schmidt sharpening: uniform intensity weights, covariance gains."""
    return _gs_inject(y_h, pan, ratio, np.full(y_h.bands, 1.0 / y_h.bands))


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


def fuse_gsa(
    y_h: SpectralImage, pan: SpectralImage, ratio: int, blur: BlurKernel
) -> SpectralImage:
    """GS Adaptive: intensity weights regressed against the PAN degraded to
    the hyperspectral grid, then the usual GS injection."""
    pan_low = blur_downsample(pan, blur, ratio)
    w = gsa_weights(y_h.data, pan_low.data[0])
    return _gs_inject(y_h, pan, ratio, w)
