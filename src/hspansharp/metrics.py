"""Full-reference quality metrics for fused hyperspectral images.

CC averages per-band Pearson correlation, SAM averages the per-pixel
spectral angle in degrees, RMSE is the Frobenius error normalized by the
total sample count, and ERGAS is the resolution-weighted relative RMSE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imgcore import SpectralImage

__all__ = [
    "cc",
    "sam",
    "rmse",
    "rmse_per_band",
    "rmse_map",
    "ergas",
    "QualityReport",
    "compute_report",
]


def _paired(xhat: SpectralImage, x: SpectralImage):
    if (xhat.height, xhat.width, xhat.bands) != (x.height, x.width, x.bands):
        raise ValueError(
            "images disagree in shape: "
            f"{xhat.bands}x{xhat.height}x{xhat.width} vs "
            f"{x.bands}x{x.height}x{x.width}"
        )
    return xhat.data, x.data


def _cc(a: np.ndarray, b: np.ndarray) -> float:
    da = a - a.mean(axis=1, keepdims=True)
    db = b - b.mean(axis=1, keepdims=True)
    sa = (da * da).sum(axis=1)
    sb = (db * db).sum(axis=1)
    if (sa == 0).any() or (sb == 0).any():
        raise ValueError("correlation undefined for a zero-variance band")
    num = (da * db).sum(axis=1)
    vals = np.sign(num) * np.sqrt(np.minimum((num * num) / (sa * sb), 1.0))
    return float(vals.mean())


def cc(xhat: SpectralImage, x: SpectralImage) -> float:
    """Mean over bands of the Pearson correlation coefficient.

    The cosine is formed from squared sums so identical inputs give exactly 1.
    """
    return _cc(*_paired(xhat, x))


def _sam(a: np.ndarray, b: np.ndarray) -> float:
    dot = (a * b).sum(axis=0)
    sa = (a * a).sum(axis=0)
    sb = (b * b).sum(axis=0)
    if (sa == 0).any() or (sb == 0).any():
        raise ValueError("spectral angle undefined for a zero spectrum")
    cosv = np.sign(dot) * np.sqrt(np.clip((dot * dot) / (sa * sb), 0.0, 1.0))
    ang = np.arccos(cosv)
    return float(np.degrees(ang.mean()))


def sam(xhat: SpectralImage, x: SpectralImage) -> float:
    """Mean spectral angle over pixels, in degrees.

    The arccos argument is clamped to [-1, 1]; the ratio is formed from
    squared terms so identical spectra give an exactly zero angle.
    """
    return _sam(*_paired(xhat, x))


def _squared_errors(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean squared error per band and per pixel, from one difference."""
    d = a - b
    sq = d * d
    return sq.mean(axis=1), sq.mean(axis=0)


def rmse(xhat: SpectralImage, x: SpectralImage) -> float:
    """Frobenius error over sqrt(pixels * bands)."""
    band_mse, _ = _squared_errors(*_paired(xhat, x))
    return float(np.sqrt(band_mse.mean()))


def rmse_per_band(xhat: SpectralImage, x: SpectralImage) -> np.ndarray:
    band_mse, _ = _squared_errors(*_paired(xhat, x))
    return np.sqrt(band_mse)


def _rmse_map(pixel_mse: np.ndarray, x: SpectralImage) -> SpectralImage:
    return SpectralImage(x.height, x.width, np.sqrt(pixel_mse)[np.newaxis, :])


def rmse_map(xhat: SpectralImage, x: SpectralImage) -> SpectralImage:
    """Single-band image of per-pixel spectral RMSE."""
    _, pixel_mse = _squared_errors(*_paired(xhat, x))
    return _rmse_map(pixel_mse, x)


def _ergas(band_mse: np.ndarray, ref: np.ndarray, d: float) -> float:
    d = float(d)
    if d <= 0:
        raise ValueError("resolution ratio d must be positive")
    mu = ref.mean(axis=1)
    if (mu == 0).any():
        raise ValueError("ERGAS undefined for a zero-mean reference band")
    return float(100.0 * d * np.sqrt(((np.sqrt(band_mse) / mu) ** 2).mean()))


def ergas(xhat: SpectralImage, x: SpectralImage, d: float) -> float:
    """100 d sqrt(mean_k (RMSE_k / mu_k)^2) with d the resolution ratio
    (low over high, e.g. 1/5 for 5x sharpening)."""
    a, b = _paired(xhat, x)
    band_mse, _ = _squared_errors(a, b)
    return _ergas(band_mse, b, d)


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
    xhat: SpectralImage, x: SpectralImage, d: float, wall_time_s: float = 0.0
) -> QualityReport:
    """Every metric from one shape check and one squared-error pass."""
    a, b = _paired(xhat, x)
    band_mse, pixel_mse = _squared_errors(a, b)
    return QualityReport(
        cc=_cc(a, b),
        sam_deg=_sam(a, b),
        rmse=float(np.sqrt(band_mse.mean())),
        ergas=_ergas(band_mse, b, d),
        rmse_per_band=tuple(float(v) for v in np.sqrt(band_mse)),
        rmse_map=_rmse_map(pixel_mse, x),
        wall_time_s=wall_time_s,
    )
