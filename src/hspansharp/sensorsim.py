"""Forward sensor simulation: MTF-matched blur, decimation, panchromatic
synthesis, and seeded per-band Gaussian noise.

All spatial filtering uses symmetric (mirror) boundary extension, defined
once by `stencil_matrix`, which builds every per-axis matrix of mirrored
taps, so that constant images are preserved exactly. The separable blur is
written per axis as a small matrix (`degrade_axis`), and `degrade` (the
Wald observation operator X B S, the blur B_h X B_w^T alone at ratio 1)
keeps only the decimated rows of each matrix. The methods call it on
arrays; `blur_downsample` is its image form, for the commands.

`pan_values`, `check_pair` and `pair_ratio` are the checks on an observed
(Y_H, PAN) pair that every method and command shares, and `check_model_pair`
the check, shared by the model-based solvers, that a pair fits a
`SensorModel`. `check_ratio` is the one rule for a resolution ratio (a
positive integer; nothing is truncated) and `check_gnyq` the one rule for an
MTF gain.

`assumed_model` alone decides the model every method is fused under: the
MTF-matched blur, the default PAN response and no known noise. Every
method that models the sensor's blur reads the model's `blur`.

`separable_product` (and `separable`, one application of it) is the one
place where a pair of per-axis matrices is applied, here and in `resample`,
the guided filter, BayesNaive and HySure's reflect boundary model. On both
axes it spends work only on the band of nonzero weights each block of
outputs reads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .imgcore import SpectralImage, is_integer

__all__ = [
    "BlurKernel",
    "SensorModel",
    "kernel_from_mtf",
    "assumed_model",
    "degrade_axis",
    "separable",
    "separable_product",
    "degrade",
    "blur_downsample",
    "synth_pan",
    "add_gaussian_noise",
    "default_pan_response",
    "PAN_WINDOW",
    "GNYQ",
    "check_ratio",
    "check_gnyq",
    "default_phase",
    "stencil_matrix",
    "pan_values",
    "check_pair",
    "check_model_pair",
    "pair_ratio",
    "NOISE_ALGORITHM",
]

# One PCG64 substream per band, seeded from (scene seed, band index).
NOISE_ALGORITHM = "pcg64-per-band"

# Output rows, or output columns, per block of `separable`'s products.
_BLOCK = 32

# Visible wavelength window (micrometers) of the default PAN response.
PAN_WINDOW = (0.48, 0.69)

# Default MTF gain at the Nyquist frequency of the decimated grid.
GNYQ = 0.3


@dataclass(frozen=True, eq=False)
class BlurKernel:
    """Separable 1-D blur taps: odd length, nonnegative, symmetric, unit sum."""

    taps: np.ndarray

    def __post_init__(self):
        taps = np.array(self.taps, dtype=np.float64).ravel()
        taps.flags.writeable = False
        if taps.size % 2 != 1:
            raise ValueError(f"kernel needs an odd tap count, got {taps.size}")
        if not np.isfinite(taps).all():
            raise ValueError("kernel taps must be finite")
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
    summing to 1, and one column per Y_H band. Noise levels are standard
    deviations in data units: hs_noise_std holds one per Y_H band, zeros
    when the noise is unknown (the default).
    """

    ratio: int
    blur: BlurKernel
    spectral_response: np.ndarray
    hs_noise_std: np.ndarray | None = None
    pan_noise_std: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "ratio", check_ratio(self.ratio))
        resp = np.atleast_2d(np.asarray(self.spectral_response, dtype=np.float64))
        if not np.isfinite(resp).all():
            raise ValueError("spectral response weights must be finite")
        if (resp < 0).any():
            raise ValueError("spectral response weights must be nonnegative")
        if not np.allclose(resp.sum(axis=1), 1.0, rtol=0, atol=1e-8):
            raise ValueError("each spectral response row must sum to 1")
        resp = resp.copy()
        resp.flags.writeable = False
        object.__setattr__(self, "spectral_response", resp)
        bands = resp.shape[1]
        stds = np.zeros(bands) if self.hs_noise_std is None else self.hs_noise_std
        stds = np.asarray(stds, dtype=np.float64).ravel().copy()
        if stds.size != bands:
            raise ValueError(f"{stds.size} noise stds for {bands} bands")
        _check_noise_stds(stds)
        stds.flags.writeable = False
        object.__setattr__(self, "hs_noise_std", stds)
        object.__setattr__(self, "pan_noise_std", float(self.pan_noise_std))
        _check_noise_stds(self.pan_noise_std)


def _check_noise_stds(stds) -> None:
    """Refuse a negative or non-finite noise standard deviation among `stds`."""
    stds = np.asarray(stds, dtype=np.float64)
    if not (np.isfinite(stds) & (stds >= 0)).all():
        raise ValueError("noise standard deviations must be finite and nonnegative")


def check_ratio(ratio) -> int:
    """`ratio` as an int, or a ValueError unless it is an integer
    (`imgcore.is_integer`) of at least 1."""
    if not is_integer(ratio) or ratio < 1:
        raise ValueError(f"ratio must be a positive integer, got {ratio!r}")
    return operator.index(ratio)


def check_gnyq(gnyq: float) -> None:
    """Raise unless the MTF gain at Nyquist lies strictly between 0 and 1."""
    if not 0.0 < gnyq < 1.0:
        raise ValueError("gnyq must lie strictly between 0 and 1")


def default_phase(ratio: int) -> int:
    """Decimation phase that keeps the sample nearest each block center.

    It is the one phase of the package: `degrade_axis` keeps these samples
    and `resample` centres its interpolation grid on them, so interpolation
    and decimation always align."""
    return ratio // 2


def stencil_matrix(positions: np.ndarray, weights, n: int) -> np.ndarray:
    """The m x n matrix whose row k reads sample positions[k, j] of an
    n-sample line with weight weights[k, j] (`weights` broadcasts against
    `positions`). Positions outside 0..n-1 are mirrored by symmetric
    half-sample extension, ... 1 0 | 0 1 ... n-1 | n-1 n-2 ...
    (scipy.ndimage's "reflect"), and taps that land on the same sample add up.

    It holds the one boundary rule of the package: `degrade_axis` blurs with
    it and `resample` interpolates with it."""
    j = np.mod(positions, 2 * n)
    idx = np.where(j >= n, 2 * n - 1 - j, j)
    rows = np.broadcast_to(np.arange(idx.shape[0])[:, np.newaxis], idx.shape)
    matrix = np.zeros((idx.shape[0], n))
    np.add.at(matrix, (rows, idx), np.broadcast_to(weights, idx.shape))
    return matrix


def pan_values(pan: SpectralImage) -> np.ndarray:
    """The samples of a single-band PAN image."""
    if pan.bands != 1:
        raise ValueError("PAN image must hold a single band")
    return pan.data[0]


def check_pair(y_h: SpectralImage, pan: SpectralImage, ratio: int) -> int:
    """The `check_ratio` ratio, or an error unless the PAN grid is `ratio`
    times the Y_H grid on both axes."""
    ratio = check_ratio(ratio)
    if (pan.height, pan.width) != (y_h.height * ratio, y_h.width * ratio):
        raise ValueError(
            f"PAN dims {pan.height}x{pan.width} are not {ratio} times"
            f" the Y_H dims {y_h.height}x{y_h.width}"
        )
    return ratio


def check_model_pair(y_h: SpectralImage, pan: SpectralImage, model: SensorModel) -> int:
    """`check_pair` at the model's ratio, or an error unless the model's
    spectral response has one row per PAN band and one column per Y_H band."""
    ratio = check_pair(y_h, pan, model.ratio)
    rows, cols = model.spectral_response.shape
    if (rows, cols) != (pan.bands, y_h.bands):
        raise ValueError(
            f"spectral response is {rows}x{cols}, not {pan.bands}x{y_h.bands}"
            " (PAN bands x Y_H bands)"
        )
    return ratio


def pair_ratio(y_h: SpectralImage, pan: SpectralImage) -> int:
    """The integer ratio of the PAN grid to the Y_H grid, the same on both
    axes, or `check_pair`'s error."""
    return check_pair(y_h, pan, max(pan.height // y_h.height, 1))


def kernel_from_mtf(ratio: int, gnyq: float = GNYQ) -> BlurKernel:
    """Gaussian taps whose frequency response hits `gnyq` at the Nyquist
    frequency of the grid decimated by `ratio` (omega = pi / ratio).

    Taps are truncated at +-ceil(4 sigma) and renormalized.
    """
    check_gnyq(gnyq)
    sigma = check_ratio(ratio) * np.sqrt(-2.0 * np.log(gnyq)) / np.pi
    radius = int(np.ceil(4.0 * sigma))
    k = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-(k**2) / (2.0 * sigma**2))
    return BlurKernel(taps / taps.sum())


def assumed_model(ratio: int, bands: int, wavelengths, gnyq: float) -> SensorModel:
    """The noiseless sensor model every method is fused under: the blur
    `kernel_from_mtf(ratio, gnyq)` and the `default_pan_response` of a
    `bands`-band Y_H."""
    response = default_pan_response(bands, wavelengths)
    return SensorModel(ratio, kernel_from_mtf(ratio, gnyq), response[np.newaxis, :])


def degrade_axis(n: int, taps: np.ndarray, ratio: int) -> np.ndarray:
    """One axis of `degrade` as a matrix: row k holds the weights of blurred
    sample i = default_phase(ratio) + k ratio of an n-sample line, tap j
    reading sample i + radius - j as mirrored by `stencil_matrix` (valid
    also when n is below the kernel radius)."""
    taps = np.asarray(taps, dtype=np.float64)
    ratio = check_ratio(ratio)
    kept = np.arange(default_phase(ratio), n, ratio)
    offsets = taps.size // 2 - np.arange(taps.size)
    return stencil_matrix(kept[:, np.newaxis] + offsets, taps, n)


def separable(
    rows: np.ndarray, stack: np.ndarray, cols: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """rows @ stack @ cols.T over the last two axes of `stack`, as a fresh
    array or written into `out`, a C-ordered float64 array of the result's
    shape; leading axes are planes. It is `separable_product(rows, cols)`
    applied once."""
    return separable_product(rows, cols)(stack, out)


def separable_product(rows: np.ndarray, cols: np.ndarray):
    """The map (stack, out=None) -> `separable(rows, stack, cols, out)`,
    for a pair of matrices applied to many stacks.

    Both products are banded by one rule (`_bands`), planned once here:
    blocks of `_BLOCK` output rows, or output columns, each multiply only
    the span of input rows, or columns, that their nonzero weights read. So
    a banded matrix costs its band and a dense one a plain product. The
    column product runs over all planes at once, on whichever of the stack
    and the row product has fewer rows.
    """
    row_bands, col_bands = _bands(rows), _bands(cols)

    def apply(stack: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if rows.shape[0] > stack.shape[-2]:
            between = _column_product(stack, cols, col_bands)
            return _row_product(rows, between, row_bands, out)
        between = _row_product(rows, stack, row_bands)
        return _column_product(between, cols, col_bands, out)

    return apply


def _bands(matrix: np.ndarray) -> list[tuple[slice, slice]]:
    """(block, span) pairs covering the rows of `matrix`: each block of
    `_BLOCK` rows and the span of columns holding its nonzero weights (empty
    when it has none). Adjacent blocks with the same span are one block."""
    reads = matrix != 0
    pairs = []
    for start in range(0, matrix.shape[0], _BLOCK):
        block = slice(start, min(start + _BLOCK, matrix.shape[0]))
        used = np.flatnonzero(reads[block].any(axis=0))
        span = slice(used[0], used[-1] + 1) if used.size else slice(0, 0)
        if pairs and pairs[-1][1] == span:
            block = slice(pairs.pop()[0].start, block.stop)
        pairs.append((block, span))
    return pairs


def _column_product(stack, cols, bands, out=None) -> np.ndarray:
    shape = stack.shape[:-1] + cols.shape[:1]
    if out is None:
        out = np.empty(shape)
    flat, result = stack.reshape(-1, stack.shape[-1]), out.reshape(-1, shape[-1])
    for block, span in bands:
        np.matmul(flat[:, span], cols[block, span].T, out=result[:, block])
    return out


def _row_product(rows, stack, bands, out=None) -> np.ndarray:
    if out is None:
        out = np.empty(stack.shape[:-2] + (rows.shape[0], stack.shape[-1]))
    for block, span in bands:
        np.matmul(rows[block, span], stack[..., span, :], out=out[..., block, :])
    return out


def degrade(cube: np.ndarray, taps: np.ndarray, ratio: int) -> np.ndarray:
    """Wald observation operator X B S: blur, then keep every ratio-th sample
    starting at `default_phase(ratio)` on both spatial axes."""
    rows, cols = (degrade_axis(n, taps, ratio) for n in cube.shape[-2:])
    return separable(rows, cube, cols)


def blur_downsample(img: SpectralImage, kernel: BlurKernel, ratio: int) -> SpectralImage:
    """Blur each band with the separable kernel, then keep every ratio-th
    sample starting at `default_phase(ratio)` on both axes."""
    ratio = check_ratio(ratio)
    if img.height % ratio or img.width % ratio:
        raise ValueError(
            f"dims {img.height}x{img.width} not divisible by ratio {ratio}"
        )
    dec = degrade(img.to_cube(), kernel.taps, ratio)
    return SpectralImage._adopt(
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
    if not is_integer(seed) or seed < 0:
        raise ValueError(f"noise seed must be a nonnegative integer, got {seed!r}")
    stds = np.asarray(std_per_band, dtype=np.float64).ravel()
    if stds.size == 1:
        stds = np.full(img.bands, stds[0])
    if stds.size != img.bands:
        raise ValueError(f"{stds.size} stds for {img.bands} bands")
    _check_noise_stds(stds)
    data = np.array(img.data)
    for k in range(img.bands):
        if stds[k] == 0.0:
            continue
        rng = np.random.default_rng([operator.index(seed), k])
        data[k] += stds[k] * rng.standard_normal(img.pixels)
    return SpectralImage._adopt(img.height, img.width, data, img.wavelengths)


def default_pan_response(bands: int, wavelengths=None) -> np.ndarray:
    """Uniform panchromatic response over `PAN_WINDOW`, falling back to the
    first half of the bands when no wavelengths are available."""
    if wavelengths is not None:
        wl = np.asarray(wavelengths, dtype=np.float64)
        mask = (wl >= PAN_WINDOW[0]) & (wl <= PAN_WINDOW[1])
        if not mask.any():
            raise ValueError(
                f"no band falls inside the response window {PAN_WINDOW}"
            )
    else:
        mask = np.zeros(bands, dtype=bool)
        mask[: max(1, bands // 2)] = True
    row = mask.astype(np.float64)
    return row / row.sum()
