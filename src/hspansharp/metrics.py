"""Full-reference quality metrics for fused hyperspectral images.

CC averages per-band Pearson correlation, SAM averages the per-pixel
spectral angle in degrees, RMSE is the Frobenius error normalized by the
total sample count, and ERGAS is the resolution-weighted relative RMSE.

Every metric takes the reference either as an image or as a `Reference`
prepared from it once, which holds the reference-side sums that scoring
several estimates against one reference would otherwise recompute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imgcore import SpectralImage

__all__ = [
    "cc",
    "sam",
    "rmse",
    "ergas",
    "Reference",
    "QualityReport",
    "compute_report",
]

# A band varies only by rounding when its centred sum of squares is at most
# n (_ROUNDING max|x_k|)^2: its standard deviation is then a few ulps of its
# largest magnitude, and any reordering of the sums moves its correlation.
_ROUNDING = 16.0 * np.finfo(np.float64).eps


def _rounding_floor(x: np.ndarray) -> np.ndarray:
    peak = np.maximum(x.max(axis=1), -x.min(axis=1))
    return x.shape[1] * (_ROUNDING * peak) ** 2


def _about_mean(products, sums_a, sums_b, n):
    """Per-band sums of products of two centred arrays, less the offset that
    an inexact band mean leaves (the corrected two-pass form): a mean summed
    in another order can be off by far more than a flat band's spread."""
    return products - sums_a * sums_b / n


class Reference:
    """Reference-side sums shared by every report scored against `image`.

    Holds the band means, the centred reference with its per-band sums and
    sums of squares, the per-pixel sum of squares, and the mask of bands that
    are constant up to rounding (`flat`), which CC leaves out of its mean.
    """

    def __init__(self, image: SpectralImage):
        x = image.data
        self.image = image
        self.band_means = x.mean(axis=1)
        self.centred = x - self.band_means[:, np.newaxis]
        self.band_sums = self.centred.sum(axis=1)
        self.band_ss = _about_mean(
            np.einsum("kj,kj->k", self.centred, self.centred),
            self.band_sums,
            self.band_sums,
            x.shape[1],
        )
        self.pixel_ss = np.einsum("kj,kj->j", x, x)
        self.flat = self.band_ss <= _rounding_floor(x)


def _prepared(x: SpectralImage | Reference) -> Reference:
    return x if isinstance(x, Reference) else Reference(x)


def _paired(xhat: SpectralImage, ref: Reference) -> np.ndarray:
    x = ref.image
    if (xhat.height, xhat.width, xhat.bands) != (x.height, x.width, x.bands):
        raise ValueError(
            "images disagree in shape: "
            f"{xhat.bands}x{xhat.height}x{xhat.width} vs "
            f"{x.bands}x{x.height}x{x.width}"
        )
    return xhat.data


def _cc(work: np.ndarray, a: np.ndarray, ref: Reference) -> float:
    """Mean correlation over the bands that vary; overwrites `work` with
    the centred estimate."""
    keep = ~ref.flat
    if not keep.any():
        raise ValueError("correlation undefined: every reference band is constant")
    n = a.shape[1]
    np.subtract(a, a.mean(axis=1)[:, np.newaxis], out=work)
    sums = work.sum(axis=1)
    sa = _about_mean(np.einsum("kj,kj->k", work, work), sums, sums, n)
    if (sa <= _rounding_floor(a))[keep].any():
        raise ValueError("correlation undefined for a zero-variance band")
    num = _about_mean(
        np.einsum("kj,kj->k", work, ref.centred), sums, ref.band_sums, n
    )[keep]
    sa, sb = sa[keep], ref.band_ss[keep]
    vals = np.sign(num) * np.sqrt(np.minimum((num * num) / (sa * sb), 1.0))
    return float(vals.mean())


def cc(xhat: SpectralImage, x: SpectralImage | Reference) -> float:
    """Mean over bands of the Pearson correlation coefficient.

    The cosine is formed from squared sums so identical inputs give exactly 1.
    Reference bands that are constant up to rounding carry no correlation and
    are left out of the mean; an estimate band that is constant up to rounding
    where the reference varies, or a reference with no varying band, raises.
    """
    ref = _prepared(x)
    a = _paired(xhat, ref)
    return _cc(np.empty_like(a), a, ref)


def _sam(a: np.ndarray, ref: Reference) -> float:
    dot = np.einsum("kj,kj->j", a, ref.image.data)
    sa = np.einsum("kj,kj->j", a, a)
    sb = ref.pixel_ss
    if (sa == 0).any() or (sb == 0).any():
        raise ValueError("spectral angle undefined for a zero spectrum")
    cosv = np.sign(dot) * np.sqrt(np.clip((dot * dot) / (sa * sb), 0.0, 1.0))
    ang = np.arccos(cosv)
    return float(np.degrees(ang.mean()))


def sam(xhat: SpectralImage, x: SpectralImage | Reference) -> float:
    """Mean spectral angle over pixels, in degrees.

    The arccos argument is clamped to [-1, 1]; the ratio is formed from
    squared terms so identical spectra give an exactly zero angle.
    """
    ref = _prepared(x)
    return _sam(_paired(xhat, ref), ref)


def _squared_errors(
    work: np.ndarray, a: np.ndarray, ref: Reference
) -> tuple[np.ndarray, np.ndarray]:
    """Mean squared error per band and per pixel; overwrites `work` with the
    difference."""
    np.subtract(a, ref.image.data, out=work)
    band_mse = np.einsum("kj,kj->k", work, work) / a.shape[1]
    pixel_mse = np.einsum("kj,kj->j", work, work) / a.shape[0]
    return band_mse, pixel_mse


def _errors(xhat: SpectralImage, x: SpectralImage | Reference):
    ref = _prepared(x)
    a = _paired(xhat, ref)
    return _squared_errors(np.empty_like(a), a, ref) + (ref,)


def rmse(xhat: SpectralImage, x: SpectralImage | Reference) -> float:
    """Frobenius error over sqrt(pixels * bands)."""
    band_mse, _, _ = _errors(xhat, x)
    return float(np.sqrt(band_mse.mean()))


def _ergas(band_mse: np.ndarray, ref: Reference, d: float) -> float:
    d = float(d)
    if d <= 0:
        raise ValueError("resolution ratio d must be positive")
    mu = ref.band_means
    if (mu == 0).any():
        raise ValueError("ERGAS undefined for a zero-mean reference band")
    return float(100.0 * d * np.sqrt(((np.sqrt(band_mse) / mu) ** 2).mean()))


def ergas(xhat: SpectralImage, x: SpectralImage | Reference, d: float) -> float:
    """100 d sqrt(mean_k (RMSE_k / mu_k)^2) with d the resolution ratio
    (low over high, e.g. 1/5 for 5x sharpening)."""
    band_mse, _, ref = _errors(xhat, x)
    return _ergas(band_mse, ref, d)


@dataclass(frozen=True)
class QualityReport:
    """Scalar metrics plus the diagnostic error fields for one method."""

    cc: float
    sam_deg: float
    rmse: float
    ergas: float
    rmse_per_band: tuple
    rmse_map: SpectralImage
    wall_time_s: float = 0.0

    def scalars(self) -> dict:
        return {
            "CC": self.cc,
            "SAM": self.sam_deg,
            "RMSE": self.rmse,
            "ERGAS": self.ergas,
            "time_s": self.wall_time_s,
        }


def compute_report(
    xhat: SpectralImage,
    x: SpectralImage | Reference,
    d: float,
    wall_time_s: float = 0.0,
) -> QualityReport:
    """Every metric from one shape check and one working array, which holds
    the difference for the squared errors and then the centred estimate for
    CC. Pass a `Reference` to share the reference-side sums across reports."""
    ref = _prepared(x)
    a = _paired(xhat, ref)
    work = np.empty_like(a)
    band_mse, pixel_mse = _squared_errors(work, a, ref)
    return QualityReport(
        cc=_cc(work, a, ref),
        sam_deg=_sam(a, ref),
        rmse=float(np.sqrt(band_mse.mean())),
        ergas=_ergas(band_mse, ref, d),
        rmse_per_band=tuple(float(v) for v in np.sqrt(band_mse)),
        rmse_map=SpectralImage(
            xhat.height, xhat.width, np.sqrt(pixel_mse)[np.newaxis, :]
        ),
        wall_time_s=wall_time_s,
    )
