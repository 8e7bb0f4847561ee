"""Multiresolution-analysis pansharpening: SFIM and the MTF-matched
generalized Laplacian pyramid, with additive or high-pass-modulation
injection.

Each method builds a low-pass PAN P_L, equalizes the PAN to every band
against the P_L statistics, and injects the band detail G_k (P - P_L).
"""

from __future__ import annotations

import numpy as np

from ..imgcore import DynamicRange, SpectralImage
from ..resample import upsample, upsample_data
from ..sensorsim import blur, blur_downsample, kernel_from_mtf

__all__ = [
    "box_lowpass",
    "glp_lowpass",
    "fuse_sfim",
    "fuse_mtf_glp",
    "fuse_mtf_glp_hpm",
]

# Relative magnitude below which the HPM divisor counts as zero.
_DIV_GUARD = 1e-8


def _hpm_gain(band: np.ndarray, p_low: np.ndarray, rng: DynamicRange) -> np.ndarray:
    guard = np.abs(p_low) < _DIV_GUARD * rng.span
    safe = np.where(guard, 1.0, p_low)
    return np.where(guard, 1.0, band / safe)


def box_lowpass(pan: SpectralImage, ratio: int) -> SpectralImage:
    """Normalized (2 ratio + 1)^2 box mean with mirror boundaries."""
    width = 2 * int(ratio) + 1
    out = blur(pan.to_cube(), np.full(width, 1.0 / width))
    return pan.with_data(out.reshape(pan.bands, -1))


def glp_lowpass(pan: SpectralImage, ratio: int, gnyq: float = 0.3) -> SpectralImage:
    """Single GLP stage: MTF-matched blur, decimate, interpolate back."""
    kernel = kernel_from_mtf(ratio, gnyq)
    low = blur_downsample(pan, kernel, ratio)
    return upsample(low, ratio, "bicubic")


def _equalized_fusion(
    y_h: SpectralImage,
    pan: SpectralImage,
    pan_low: SpectralImage,
    ratio: int,
    rng: DynamicRange,
    gains: str,
) -> SpectralImage:
    """Shared SFIM / MTF-GLP body: per-band PAN equalization then injection.

    P_eq^k = (P - mean(P)) std(Y^k) / std(P_L) + mean(Y^k); the same affine
    map is applied to P_L so the detail scales consistently. A constant PAN
    has std(P_L) = 0 and maps to a zero-detail injection.

    The detail is added to the interpolated bands in place, one band at a
    time. It stays the difference P_eq^k - P_L,eq^k rather than the equal
    scale_k (P - P_L): where P_L,eq^k nears zero the HPM gain (~1e3 on real
    scenes) magnifies any change in its rounding.
    """
    ratio = int(ratio)
    if (pan.height, pan.width) != (y_h.height * ratio, y_h.width * ratio):
        raise ValueError("PAN dims must equal the upsampled band dims")
    p = pan.data[0]
    p_l = pan_low.data[0]
    p_mean = p.mean()
    pl_std = p_l.std()
    # Filtering a constant PAN leaves rounding dust with std ~ eps |P|;
    # treat anything at that level as flat instead of dividing by it.
    std_floor = 1e-12 * max(np.abs(p_l).max(), np.abs(p).max())
    p_centred = p - p_mean
    pl_centred = p_l - p_mean
    fused = upsample_data(y_h, ratio, "bicubic")
    for band in fused:
        scale = band.std() / pl_std if pl_std > std_floor else 0.0
        band_mean = band.mean()
        pl_eq = pl_centred * scale + band_mean
        detail = p_centred * scale + band_mean - pl_eq
        if gains == "additive":
            band += detail
        else:
            band += _hpm_gain(band, pl_eq, rng) * detail
            np.clip(band, rng.lo, rng.hi, out=band)
    return SpectralImage(pan.height, pan.width, fused, y_h.wavelengths)


def fuse_sfim(
    y_h: SpectralImage, pan: SpectralImage, ratio: int, rng: DynamicRange
) -> SpectralImage:
    """Smoothing-filter-based intensity modulation: box low-pass, HPM gains."""
    pan_low = box_lowpass(pan, ratio)
    return _equalized_fusion(y_h, pan, pan_low, ratio, rng, "hpm")


def fuse_mtf_glp(
    y_h: SpectralImage,
    pan: SpectralImage,
    ratio: int,
    gnyq: float,
    rng: DynamicRange,
) -> SpectralImage:
    """MTF-matched GLP detail with additive injection."""
    pan_low = glp_lowpass(pan, ratio, gnyq)
    return _equalized_fusion(y_h, pan, pan_low, ratio, rng, "additive")


def fuse_mtf_glp_hpm(
    y_h: SpectralImage,
    pan: SpectralImage,
    ratio: int,
    gnyq: float,
    rng: DynamicRange,
) -> SpectralImage:
    """MTF-matched GLP detail with high-pass-modulation gains."""
    pan_low = glp_lowpass(pan, ratio, gnyq)
    return _equalized_fusion(y_h, pan, pan_low, ratio, rng, "hpm")
