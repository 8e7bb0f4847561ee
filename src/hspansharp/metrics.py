"""Full-reference quality metrics for fused hyperspectral images.

CC averages per-band Pearson correlation, SAM averages the per-pixel
spectral angle in degrees, RMSE is the Frobenius error normalized by the
total sample count, and ERGAS is the resolution-weighted relative RMSE.

Every metric reads its sums from one strip-blocked pass over the estimate
and the reference (`_walk`), which walks the pixels in strips of `_STRIP`
through a few reused strip-sized buffers, so scoring allocates no cube. The
reference is taken either as an image or as a `Reference` prepared from it
once, which holds only the band-sized and pixel-sized reference sums that
scoring several estimates against one reference would otherwise recompute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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

# Pixels per strip of `_walk`: its three strip-sized buffers stay in one
# core's cache at a hundred bands.
_STRIP = 512


def _rounding_floor(peak: np.ndarray, n: int) -> np.ndarray:
    """The rounding floor of bands with largest magnitudes `peak` over `n`
    pixels."""
    return n * (_ROUNDING * peak) ** 2


def _about_mean(products, sums_a, sums_b, n):
    """Per-band sums of products of two centred arrays, less the offset that
    an inexact band mean leaves (the corrected two-pass form): a mean summed
    in another order can be off by far more than a flat band's spread."""
    return products - sums_a * sums_b / n


def _flat(a: np.ndarray, mean: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """The bands of `a` whose centred sum of squares `ss` is within the
    rounding floor.

    No sample lies further than sqrt(ss) from the mean, so max|x_k| is at
    most |mean| + sqrt(ss), twice that allowing for the rounding of both.
    Only a band within the floor of that bound can be within its own floor,
    and only such bands are read again for their largest magnitude.
    """
    n = a.shape[1]
    bound = 2.0 * (np.abs(mean) + np.sqrt(np.maximum(ss, 0.0)))
    flat = np.zeros(a.shape[0], dtype=bool)
    for k in np.flatnonzero(ss <= _rounding_floor(bound, n)):
        peak = max(a[k].max(), -a[k].min())
        flat[k] = ss[k] <= _rounding_floor(peak, n)
    return flat


class _Sums(NamedTuple):
    """What one `_walk` forms; the last four only against a reference."""

    mean: np.ndarray  # per band
    centred: np.ndarray  # per band: sum of (a - mean)
    squares: np.ndarray  # per band: sum of (a - mean)^2, corrected
    flat: np.ndarray  # per band: constant up to rounding
    pixel_squares: np.ndarray  # per pixel: sum of a^2
    cross: np.ndarray | None = None  # per band: sum of (a - mean)(x - mean_x)
    errors: np.ndarray | None = None  # per band: sum of (a - x)^2
    dots: np.ndarray | None = None  # per pixel: sum of a x
    pixel_errors: np.ndarray | None = None  # per pixel: sum of (a - x)^2


def _walk(a: np.ndarray, ref: Reference | None = None) -> _Sums:
    """Every sum the scores need, from one pass over `a` (and the
    reference's image) after its band means.

    The pixels are walked in strips of `_STRIP`. Each strip is copied into a
    contiguous buffer reused from strip to strip (numpy's arithmetic on the
    strided strip is several times slower), differenced and centred there;
    the band sums of each strip are kept per strip and added at the end,
    the pixel sums are written in place. The same calls on the same strips
    form the reference's own sums, so an estimate equal to the reference
    gets sums equal to the reference's.
    """
    bands, n = a.shape
    width = min(_STRIP, n)
    starts = range(0, n, width)
    mean = a.mean(axis=1)
    shift = mean[:, np.newaxis]
    ones = np.ones(width)  # a dot with ones sums a row in half add.reduce's time
    # Rows: centred sums, squares, then cross sums and errors.
    per_strip = np.empty((2 if ref is None else 4, bands, len(starts)))
    per_pixel = np.empty((1 if ref is None else 3, n))
    buffers = np.empty((1 if ref is None else 3, bands, width))
    if ref is not None:
        x = ref.image.data
        x_shift = ref.band_means[:, np.newaxis]
    for s, start in enumerate(starts):
        cols = slice(start, start + width)
        w = min(width, n - start)
        a_s = buffers[0, :, :w]
        np.copyto(a_s, a[:, cols])
        np.einsum("kj,kj->j", a_s, a_s, out=per_pixel[0, cols])
        if ref is not None:
            x_s, d = buffers[1, :, :w], buffers[2, :, :w]
            np.copyto(x_s, x[:, cols])
            np.einsum("kj,kj->j", a_s, x_s, out=per_pixel[1, cols])
            np.subtract(a_s, x_s, out=d)
            np.vecdot(d, d, out=per_strip[3, :, s])
            np.einsum("kj,kj->j", d, d, out=per_pixel[2, cols])
        np.subtract(a_s, shift, out=a_s)
        np.vecdot(a_s, ones[:w], out=per_strip[0, :, s])
        np.vecdot(a_s, a_s, out=per_strip[1, :, s])
        if ref is not None:
            np.subtract(x_s, x_shift, out=x_s)
            np.vecdot(a_s, x_s, out=per_strip[2, :, s])
    sums = per_strip.sum(axis=2)
    squares = _about_mean(sums[1], sums[0], sums[0], n)
    own = (mean, sums[0], squares, _flat(a, mean, squares), per_pixel[0])
    if ref is None:
        return _Sums(*own)
    return _Sums(*own, sums[2], sums[3], per_pixel[1], per_pixel[2])


class Reference:
    """Reference-side sums shared by every report scored against `image`.

    Holds, beside the image, only band-sized and pixel-sized sums: the band
    means, the centred reference's per-band sums and sums of squares, the
    per-pixel sum of squares, and the mask of bands that are constant up to
    rounding (`flat`), which CC leaves out of its mean. No working array is
    shared, so any number of estimates can be scored against one.
    """

    def __init__(self, image: SpectralImage):
        sums = _walk(image.data)
        self.image = image
        self.band_means = sums.mean
        self.band_sums = sums.centred
        self.band_ss = sums.squares
        self.pixel_ss = sums.pixel_squares
        self.flat = sums.flat


def _scored(xhat: SpectralImage, x: SpectralImage | Reference):
    """The prepared reference and the sums of `xhat` against it, after the
    shape check."""
    ref = x if isinstance(x, Reference) else Reference(x)
    r = ref.image
    if (xhat.height, xhat.width, xhat.bands) != (r.height, r.width, r.bands):
        raise ValueError(
            "images disagree in shape: "
            f"{xhat.bands}x{xhat.height}x{xhat.width} vs "
            f"{r.bands}x{r.height}x{r.width}"
        )
    return ref, _walk(xhat.data, ref)


def _cc(s: _Sums, ref: Reference) -> float:
    """Mean correlation over the bands that vary."""
    keep = ~ref.flat
    if not keep.any():
        raise ValueError("correlation undefined: every reference band is constant")
    if s.flat[keep].any():
        raise ValueError("correlation undefined for a zero-variance band")
    num = _about_mean(s.cross, s.centred, ref.band_sums, ref.image.pixels)[keep]
    sa, sb = s.squares[keep], ref.band_ss[keep]
    vals = np.sign(num) * np.sqrt(np.minimum((num * num) / (sa * sb), 1.0))
    return float(vals.mean())


def cc(xhat: SpectralImage, x: SpectralImage | Reference) -> float:
    """Mean over bands of the Pearson correlation coefficient.

    The cosine is formed from squared sums so identical inputs give exactly 1.
    Reference bands that are constant up to rounding carry no correlation and
    are left out of the mean; an estimate band that is constant up to rounding
    where the reference varies, or a reference with no varying band, raises.
    """
    ref, s = _scored(xhat, x)
    return _cc(s, ref)


def _sam(s: _Sums, ref: Reference) -> float:
    dot, sa, sb = s.dots, s.pixel_squares, ref.pixel_ss
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
    ref, s = _scored(xhat, x)
    return _sam(s, ref)


def rmse(xhat: SpectralImage, x: SpectralImage | Reference) -> float:
    """Frobenius error over sqrt(pixels * bands)."""
    ref, s = _scored(xhat, x)
    return float(np.sqrt((s.errors / ref.image.pixels).mean()))


def _ergas(band_mse: np.ndarray, ref: Reference, d: float) -> float:
    d = float(d)
    if not (np.isfinite(d) and d > 0):
        raise ValueError(f"resolution ratio d must be finite and positive, got {d}")
    mu = ref.band_means
    if (mu == 0).any():
        raise ValueError("ERGAS undefined for a zero-mean reference band")
    return float(100.0 * d * np.sqrt(((np.sqrt(band_mse) / mu) ** 2).mean()))


def ergas(xhat: SpectralImage, x: SpectralImage | Reference, d: float) -> float:
    """100 d sqrt(mean_k (RMSE_k / mu_k)^2) with d the resolution ratio
    (low over high, e.g. 1/5 for 5x sharpening)."""
    ref, s = _scored(xhat, x)
    return _ergas(s.errors / ref.image.pixels, ref, d)


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
    """Every metric from one shape check and one `_walk` over `xhat` and the
    reference, so the fields equal what the single-metric functions return.
    Pass a `Reference` to share the reference-side sums across reports."""
    ref, s = _scored(xhat, x)
    band_mse = s.errors / ref.image.pixels
    return QualityReport(
        cc=_cc(s, ref),
        sam_deg=_sam(s, ref),
        rmse=float(np.sqrt(band_mse.mean())),
        ergas=_ergas(band_mse, ref, d),
        rmse_per_band=tuple(float(v) for v in np.sqrt(band_mse)),
        rmse_map=SpectralImage._adopt(
            xhat.height, xhat.width, np.sqrt(s.pixel_errors / xhat.bands)[np.newaxis, :]
        ),
        wall_time_s=wall_time_s,
    )
