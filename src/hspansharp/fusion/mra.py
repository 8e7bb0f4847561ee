"""Multiresolution-analysis pansharpening: SFIM and the MTF-matched
generalized Laplacian pyramid, with additive or high-pass-modulation
injection.

Each method builds a low-pass PAN P_L, equalizes the PAN to every band
against the P_L statistics, and injects the band detail G_k (P - P_L).
The low-passes act on arrays (`sensorsim.degrade`, `resample.interpolate`),
and the GLP's blurs with the sensor model's `BlurKernel`. The band statistics
come from the low-resolution bands (`resample.upsampled_moments`).
"""

from __future__ import annotations

import numpy as np

from ..imgcore import BandStream, DynamicRange, SpectralImage
from ..resample import interpolate, upsampled_moments
from ..sensorsim import BlurKernel, check_ratio, degrade, kernel_from_mtf
from .cs import front_end, injected

__all__ = [
    "box_lowpass",
    "glp_lowpass",
    "sfim_stream",
    "fuse_sfim",
    "mtf_glp_stream",
    "fuse_mtf_glp",
    "mtf_glp_hpm_stream",
    "fuse_mtf_glp_hpm",
]

# Relative magnitude below which the HPM divisor counts as zero.
_DIV_GUARD = 1e-8

_NO_VOXELS = np.empty(0, dtype=np.intp)


def _guarded(
    pl_eq: np.ndarray,
    ends: tuple[float, float],
    scale: float,
    band_mean: float,
    guard: float,
) -> np.ndarray:
    """Indices of the voxels where |pl_eq| < guard, for pl_eq formed as
    (P_L - mean(P)) scale + band_mean with scale >= 0, and `ends` the least
    and greatest P_L - mean(P). Rounding is monotone, so those ends, mapped
    the same way, are the least and greatest pl_eq; when both lie beyond
    the guard on one side, `pl_eq` is not read."""
    lo, hi = ends[0] * scale + band_mean, ends[1] * scale + band_mean
    if lo >= guard or hi <= -guard:
        return _NO_VOXELS
    return np.flatnonzero(np.abs(pl_eq) < guard)


def _modulate(
    band: np.ndarray, p_eq: np.ndarray, pl_eq: np.ndarray, guarded: np.ndarray
) -> None:
    """band * p_eq / pl_eq into `band`, except at the indices `guarded`, which
    get band + (p_eq - pl_eq). Overwrites `p_eq` and `pl_eq`."""
    kept = band[guarded] + (p_eq[guarded] - pl_eq[guarded])
    pl_eq[guarded] = 1.0
    p_eq /= pl_eq
    band *= p_eq
    band[guarded] = kept


def box_lowpass(stack: np.ndarray, ratio: int) -> np.ndarray:
    """Normalized (2 ratio + 1)^2 box mean of every plane of `stack`, with
    mirror boundaries."""
    width = 2 * check_ratio(ratio) + 1
    return degrade(stack, np.full(width, 1.0 / width), 1)


def glp_lowpass(stack: np.ndarray, ratio: int, blur: BlurKernel) -> np.ndarray:
    """Single GLP stage on every plane of `stack`: blur with `blur`, decimate,
    interpolate back."""
    return interpolate(degrade(stack, blur.taps, ratio), ratio)


def _detail_scales(y_h: SpectralImage, ratio: int, p: np.ndarray, p_l: np.ndarray):
    """P_L (`p_l`) shaped as the PAN values `p`, and the means and scales
    std(Y^k) / std(P_L) of Y_H interpolated by `ratio`: equalized, P_eq^k =
    (P - mean(P)) scale_k + mean(Y^k), and P_L,eq^k likewise. A constant PAN
    has std(P_L) = 0 and maps to zero scales."""
    means, cov = upsampled_moments(y_h, ratio)
    p_l = p_l.reshape(p.shape)
    pl_std = p_l.std()
    # Filtering a constant PAN leaves rounding dust with std ~ eps |P|;
    # treat anything at that level as flat instead of dividing by it.
    std_floor = 1e-12 * max(np.abs(p_l).max(), np.abs(p).max())
    stds = np.sqrt(np.maximum(np.diagonal(cov), 0.0))
    scales = stds / pl_std if pl_std > std_floor else np.zeros_like(stds)
    return p_l, means, scales


def _hpm_stream(y_h, ratio, front, p_l: np.ndarray, rng: DynamicRange) -> BandStream:
    """SFIM / MTF-GLP-HPM body: each `cs.front_end` band of `front` is
    modulated against the low-pass PAN P_L (`p_l`, on the PAN grid),
    F^k = Y^k P_eq^k / P_L,eq^k (`_detail_scales`), clipped to `rng`, in
    place, one band at a time through reused band buffers. Where |P_L,eq^k|
    is below `_DIV_GUARD` times the range span the gain is 1 instead,
    F^k = Y^k + (P_eq^k - P_L,eq^k). The guard is exact, yet a band whose
    P_L,eq^k range stays clear of it is not searched (`_guarded`).
    """
    bands, p = front
    p_l, means, scales = _detail_scales(y_h, ratio, p, p_l)
    p_mean = p.mean()
    p_centred = p - p_mean
    pl_centred = p_l - p_mean
    ends = (pl_centred.min(), pl_centred.max())
    guard = _DIV_GUARD * rng.span

    def fill(start, stop, out):
        bands.fill(start, stop, out)
        p_eq, pl_eq = np.empty_like(p), np.empty_like(p)
        for band, scale, band_mean in zip(out, scales[start:stop], means[start:stop]):
            np.multiply(pl_centred, scale, out=pl_eq)
            pl_eq += band_mean
            np.multiply(p_centred, scale, out=p_eq)
            p_eq += band_mean
            guarded = _guarded(pl_eq, ends, scale, band_mean, guard)
            _modulate(band, p_eq, pl_eq, guarded)
            np.clip(band, rng.lo, rng.hi, out=band)

    return bands.refill(fill)


def sfim_stream(
    y_h: SpectralImage, pan: SpectralImage, ratio: int, rng: DynamicRange
) -> BandStream:
    """Smoothing-filter-based intensity modulation: box low-pass, HPM gains."""
    front = front_end(y_h, pan, ratio)
    return _hpm_stream(y_h, ratio, front, box_lowpass(pan.to_cube(), ratio), rng)


def fuse_sfim(
    y_h: SpectralImage, pan: SpectralImage, ratio: int, rng: DynamicRange
) -> SpectralImage:
    """`sfim_stream` as one image."""
    return sfim_stream(y_h, pan, ratio, rng).image()


def mtf_glp_stream(
    y_h: SpectralImage, pan: SpectralImage, ratio: int, blur: BlurKernel
) -> BandStream:
    """GLP detail under the sensor blur `blur`, injected additively: band k
    gains scale_k (P - P_L) (`_detail_scales`, `cs.injected`)."""
    bands, p = front_end(y_h, pan, ratio)
    p_l = glp_lowpass(pan.to_cube(), ratio, blur)
    p_l, _, scales = _detail_scales(y_h, ratio, p, p_l)
    return injected(bands, p - p_l, scales)


def fuse_mtf_glp(
    y_h: SpectralImage,
    pan: SpectralImage,
    ratio: int,
    gnyq: float,
    rng: DynamicRange,
) -> SpectralImage:
    """`mtf_glp_stream` under `kernel_from_mtf(ratio, gnyq)`, as one image.
    Additive injection does not clip, so `rng` is not read."""
    return mtf_glp_stream(y_h, pan, ratio, kernel_from_mtf(ratio, gnyq)).image()


def mtf_glp_hpm_stream(
    y_h: SpectralImage,
    pan: SpectralImage,
    ratio: int,
    blur: BlurKernel,
    rng: DynamicRange,
) -> BandStream:
    """GLP detail under the sensor blur `blur`, with HPM gains."""
    front = front_end(y_h, pan, ratio)
    return _hpm_stream(y_h, ratio, front, glp_lowpass(pan.to_cube(), ratio, blur), rng)


def fuse_mtf_glp_hpm(
    y_h: SpectralImage,
    pan: SpectralImage,
    ratio: int,
    gnyq: float,
    rng: DynamicRange,
) -> SpectralImage:
    """`mtf_glp_hpm_stream` under `kernel_from_mtf(ratio, gnyq)`, as one image."""
    return mtf_glp_hpm_stream(y_h, pan, ratio, kernel_from_mtf(ratio, gnyq), rng).image()
