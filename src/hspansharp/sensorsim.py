"""Forward sensor simulation: MTF-matched blur, decimation, panchromatic
synthesis, and seeded per-band Gaussian noise.

All spatial filtering uses symmetric (mirror) boundary extension so that
constant images are preserved exactly. The separable blur is written per
axis as a small matrix (`degrade_axis`), so `blur` is B_h X B_w^T and
`degrade` (the Wald observation operator X B S) keeps only the decimated
rows of each matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import convolve1d

from .imgcore import SpectralImage

__all__ = [
    "BlurKernel",
    "SensorModel",
    "kernel_from_mtf",
    "degrade_axis",
    "blur",
    "degrade",
    "blur_downsample",
    "synth_pan",
    "add_gaussian_noise",
    "default_pan_response",
    "default_phase",
    "NOISE_ALGORITHM",
]

# One PCG64 substream per band, seeded from (scene seed, band index).
NOISE_ALGORITHM = "pcg64-per-band"


@dataclass(frozen=True, eq=False)
class BlurKernel:
    """Separable 1-D blur taps: odd length, nonnegative, symmetric, unit sum."""

    taps: np.ndarray

    def __post_init__(self):
        taps = np.array(self.taps, dtype=np.float64).ravel()
        taps.flags.writeable = False
        if taps.size % 2 != 1:
            raise ValueError(f"kernel needs an odd tap count, got {taps.size}")
        if (taps < 0).any():
            raise ValueError("kernel taps must be nonnegative")
        if not np.allclose(taps, taps[::-1], rtol=0, atol=1e-12):
            raise ValueError("kernel taps must be symmetric about the center")
        if abs(taps.sum() - 1.0) > 1e-12:
            raise ValueError(f"kernel taps must sum to 1, got {taps.sum()!r}")
        object.__setattr__(self, "taps", taps)

    @property
    def radius(self) -> int:
        return self.taps.size // 2

    @staticmethod
    def impulse() -> "BlurKernel":
        return BlurKernel(np.array([1.0]))

    def __eq__(self, other):
        return isinstance(other, BlurKernel) and np.array_equal(self.taps, other.taps)


@dataclass(frozen=True)
class SensorModel:
    """Observation model tying the reference scene to (Y_H, PAN).

    spectral_response holds one row per synthesized low-resolution spectral
    channel (a single row for panchromatic), each row nonnegative and
    summing to 1. Noise levels are standard deviations in data units.
    """

    ratio: int
    blur: BlurKernel
    spectral_response: np.ndarray
    hs_noise_std: np.ndarray = field(default_factory=lambda: np.zeros(0))
    pan_noise_std: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "ratio", int(self.ratio))
        if self.ratio < 1:
            raise ValueError("ratio must be a positive integer")
        resp = np.atleast_2d(np.asarray(self.spectral_response, dtype=np.float64))
        if (resp < 0).any():
            raise ValueError("spectral response weights must be nonnegative")
        if not np.allclose(resp.sum(axis=1), 1.0, rtol=0, atol=1e-8):
            raise ValueError("each spectral response row must sum to 1")
        resp = resp.copy()
        resp.flags.writeable = False
        object.__setattr__(self, "spectral_response", resp)
        stds = np.asarray(self.hs_noise_std, dtype=np.float64).ravel().copy()
        if (stds < 0).any():
            raise ValueError("noise standard deviations must be nonnegative")
        stds.flags.writeable = False
        object.__setattr__(self, "hs_noise_std", stds)
        object.__setattr__(self, "pan_noise_std", float(self.pan_noise_std))
        if self.pan_noise_std < 0:
            raise ValueError("noise standard deviations must be nonnegative")


def default_phase(ratio: int) -> int:
    """Decimation phase that keeps the sample nearest each block center.

    It is the one phase of the package: `degrade_axis` keeps these samples
    and `resample` centres its interpolation grid on them, so interpolation
    and decimation always align."""
    return ratio // 2


def kernel_from_mtf(ratio: int, gnyq: float = 0.3) -> BlurKernel:
    """Gaussian taps whose frequency response hits `gnyq` at the Nyquist
    frequency of the grid decimated by `ratio` (omega = pi / ratio).

    Taps are truncated at +-ceil(4 sigma) and renormalized.
    """
    if not 0.0 < gnyq < 1.0:
        raise ValueError(f"gnyq must lie in (0, 1), got {gnyq}")
    ratio = int(ratio)
    if ratio < 1:
        raise ValueError("ratio must be a positive integer")
    sigma = ratio * np.sqrt(-2.0 * np.log(gnyq)) / np.pi
    radius = int(np.ceil(4.0 * sigma))
    k = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-(k**2) / (2.0 * sigma**2))
    return BlurKernel(taps / taps.sum())


def degrade_axis(n: int, taps: np.ndarray, ratio: int) -> np.ndarray:
    """One axis of `degrade` as a matrix: the n x n reflect-boundary blur
    (row i holds the weights of output sample i, valid also below the kernel
    radius), keeping rows default_phase(ratio) + k ratio."""
    blurred = convolve1d(np.eye(n), taps, axis=0, mode="reflect")
    return blurred[default_phase(ratio)::ratio]


def blur(cube: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Separable symmetric-boundary convolution over the two spatial axes:
    `degrade` with nothing decimated."""
    return degrade(cube, taps, 1)


def degrade(cube: np.ndarray, taps: np.ndarray, ratio: int) -> np.ndarray:
    """Wald observation operator X B S: blur, then keep every ratio-th sample
    starting at `default_phase(ratio)` on both spatial axes."""
    rows, cols = (degrade_axis(n, taps, ratio) for n in cube.shape[-2:])
    return rows @ cube @ cols.T


def blur_downsample(img: SpectralImage, kernel: BlurKernel, ratio: int) -> SpectralImage:
    """Blur each band with the separable kernel, then keep every ratio-th
    sample starting at `default_phase(ratio)` on both axes."""
    ratio = int(ratio)
    if ratio < 1:
        raise ValueError("ratio must be a positive integer")
    if img.height % ratio or img.width % ratio:
        raise ValueError(
            f"dims {img.height}x{img.width} not divisible by ratio {ratio}"
        )
    dec = degrade(img.to_cube(), kernel.taps, ratio)
    return SpectralImage(
        img.height // ratio,
        img.width // ratio,
        dec.reshape(img.bands, -1),
        img.wavelengths,
    )


def synth_pan(img: SpectralImage, response_row) -> SpectralImage:
    """Panchromatic image P = r^T X for a unit-sum response row."""
    row = np.asarray(response_row, dtype=np.float64).ravel()
    if row.size != img.bands:
        raise ValueError(
            f"response has {row.size} weights for {img.bands} bands"
        )
    pan = row @ img.data
    return SpectralImage(img.height, img.width, pan[np.newaxis, :])


def add_gaussian_noise(img: SpectralImage, std_per_band, seed: int) -> SpectralImage:
    """Add zero-mean Gaussian noise, one independent substream per band.

    Substreams are seeded from (seed, band index) so serial and band-parallel
    execution produce identical samples. A zero std leaves a band untouched.
    """
    stds = np.asarray(std_per_band, dtype=np.float64).ravel()
    if stds.size == 1:
        stds = np.full(img.bands, stds[0])
    if stds.size != img.bands:
        raise ValueError(f"{stds.size} stds for {img.bands} bands")
    if (stds < 0).any():
        raise ValueError("noise standard deviations must be nonnegative")
    data = np.array(img.data)
    for k in range(img.bands):
        if stds[k] == 0.0:
            continue
        rng = np.random.default_rng([int(seed), k])
        data[k] += stds[k] * rng.standard_normal(img.pixels)
    return img.with_data(data)


def default_pan_response(
    bands: int, wavelengths=None, window: tuple[float, float] = (0.48, 0.69)
) -> np.ndarray:
    """Uniform panchromatic response over the visible window, falling back to
    the first half of the bands when no wavelengths are available."""
    if wavelengths is not None:
        wl = np.asarray(wavelengths, dtype=np.float64)
        mask = (wl >= window[0]) & (wl <= window[1])
        if not mask.any():
            raise ValueError(
                f"no band falls inside the response window {window}"
            )
    else:
        mask = np.zeros(bands, dtype=bool)
        mask[: max(1, bands // 2)] = True
    row = mask.astype(np.float64)
    return row / row.sum()
