"""Band-major spectral image container shared by every fusion method.

An image is stored as a bands x pixels float64 matrix with pixels in
raster-scan (row-major) order, so spectral operators are plain matrix
products and spatial operators reshape to (bands, height, width).

The constructor copies its data into a read-only array. Code that has just
created a C-ordered float64 array and will not write it again (a fused
image formed by `BandStream.image`, a raster payload, a synthetic scene, a
degraded or noisy observation) hands it
over with the private `SpectralImage._adopt` instead, which freezes that
array in place and skips the copy.

A fusion method produces its image as a `BandStream`: a front end that has
done every check and every image-wide statistic, and a kernel that writes
any block of bands into a caller's buffer. `BandStream.image` runs the
kernel block by block into one array and adopts it;
`BandStream.checked_blocks` runs it through one reused block buffer, so a
writer holds one block of the image at a time.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = ["SpectralImage", "DynamicRange", "BandStream", "is_integer"]

# Samples per block of the finiteness check: its one bool buffer stays small
# beside any cube.
_FINITE_BLOCK = 1 << 16
# Float64 bytes of one band block of a `BandStream`: a block holds as many
# whole bands as fit, at least one. A 100 x 100 x 40 cube is one block.
_BLOCK_BYTES = 1 << 22


def is_integer(value) -> bool:
    """The one integer rule for every size, count, budget and seed: true for
    a Python or numpy integer, false for a bool (`True` is no count) and for
    any float, 2.0 included. What fails it is refused, never truncated."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _all_finite(data: np.ndarray) -> bool:
    """`np.isfinite(data).all()` for a C-ordered array, checked block by
    block through one reused bool buffer instead of a bool copy of `data`."""
    flat = data.reshape(-1)
    ok = np.empty(min(flat.size, _FINITE_BLOCK), dtype=bool)
    for start in range(0, flat.size, _FINITE_BLOCK):
        block = flat[start : start + _FINITE_BLOCK]
        part = ok[: block.size]
        np.isfinite(block, out=part)
        if not part.all():
            return False
    return True


def _readonly_f64(values) -> np.ndarray:
    # C order whatever the input's: `to_cube` stays a view, and a row
    # reduction sums in the same order for equal values.
    out = np.array(values, dtype=np.float64, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class DynamicRange:
    """Closed physical value interval [lo, hi] used for clipping."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("dynamic range bounds must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"dynamic range needs lo < hi, got [{self.lo}, {self.hi}]")

    @classmethod
    def spanning(cls, values: np.ndarray) -> "DynamicRange":
        """[min, max] of `values`, or [lo, lo + 1] when they are constant."""
        lo, hi = float(values.min()), float(values.max())
        return cls(lo, hi if hi > lo else lo + 1.0)

    @property
    def span(self) -> float:
        return self.hi - self.lo

    def __eq__(self, other):
        return (
            isinstance(other, DynamicRange)
            and self.lo == other.lo
            and self.hi == other.hi
        )


@dataclass(frozen=True, eq=False)
class SpectralImage:
    """Immutable raster: one row per band, columns in raster-scan order.

    wavelengths, when given, are band centers in micrometers and must be
    strictly increasing with one entry per band.
    """

    height: int
    width: int
    data: np.ndarray
    wavelengths: tuple | None = None

    def __post_init__(self):
        self._settle(_readonly_f64(np.atleast_2d(self.data)))

    @classmethod
    def _adopt(cls, height, width, data: np.ndarray, wavelengths=None) -> "SpectralImage":
        """Wrap `data` without copying it.

        `data` must be a writable, C-contiguous float64 bands x pixels array
        that the caller created and that nothing else refers to. It is made
        read-only here and becomes the image's storage, so the caller must
        not write it again. The constructor's checks, finiteness included,
        still run.
        """
        if not (
            isinstance(data, np.ndarray)
            and data.dtype == np.float64
            and data.flags.c_contiguous
            and data.flags.writeable
        ):
            raise ValueError(
                "only a writable C-contiguous float64 array can be adopted"
            )
        img = cls.__new__(cls)
        object.__setattr__(img, "height", height)
        object.__setattr__(img, "width", width)
        object.__setattr__(img, "wavelengths", wavelengths)
        data.flags.writeable = False
        img._settle(data)
        return img

    def _settle(self, data: np.ndarray) -> None:
        """Validate the fields and store `data`, a read-only C-ordered
        float64 array."""
        h, w = self.height, self.width
        if not (is_integer(h) and is_integer(w) and h > 0 and w > 0):
            raise ValueError(f"image dims must be positive integers, got {h!r}x{w!r}")
        object.__setattr__(self, "height", operator.index(h))
        object.__setattr__(self, "width", operator.index(w))
        if data.ndim != 2:
            raise ValueError("image data must be a 2-D bands x pixels matrix")
        if data.shape[0] == 0:
            raise ValueError("image must have at least one band")
        if data.shape[1] != h * w:
            raise ValueError(
                f"data has {data.shape[1]} pixels but dims give {h * w}"
            )
        if not _all_finite(data):
            raise ValueError("image contains non-finite samples")
        object.__setattr__(self, "data", data)
        if self.wavelengths is not None:
            wl = tuple(float(v) for v in self.wavelengths)
            if len(wl) != data.shape[0]:
                raise ValueError(
                    f"{len(wl)} wavelengths for {data.shape[0]} bands"
                )
            if not all(math.isfinite(v) for v in wl):
                raise ValueError("wavelengths must be finite")
            if any(b <= a for a, b in zip(wl, wl[1:])):
                raise ValueError("wavelengths must be strictly increasing")
            object.__setattr__(self, "wavelengths", wl)

    @property
    def bands(self) -> int:
        return self.data.shape[0]

    @property
    def pixels(self) -> int:
        return self.height * self.width

    def to_cube(self) -> np.ndarray:
        """(bands, height, width) view of the stored matrix."""
        return self.data.reshape(self.bands, self.height, self.width)

    def with_data(self, data) -> "SpectralImage":
        """Same geometry and wavelengths, new sample values."""
        return SpectralImage(self.height, self.width, data, self.wavelengths)

    def __eq__(self, other):
        return (
            isinstance(other, SpectralImage)
            and self.height == other.height
            and self.width == other.width
            and self.wavelengths == other.wavelengths
            and np.array_equal(self.data, other.data)
        )


@dataclass(frozen=True)
class BandStream:
    """An image formed block by block: `fill(start, stop, out)` writes bands
    [start, stop) into `out`, a writable C-ordered float64 (stop - start) x
    pixels array, and may be called for the blocks in any order. The
    geometry and wavelengths are those of the image it forms."""

    height: int
    width: int
    bands: int
    fill: Callable[[int, int, np.ndarray], None]
    wavelengths: tuple | None = None

    @classmethod
    def product(cls, height, width, spectra, coeffs, wavelengths=None) -> "BandStream":
        """The image spectra @ coeffs (bands x p times p x pixels), one block
        of rows of `spectra` at a time."""

        def fill(start, stop, out):
            np.matmul(spectra[start:stop], coeffs, out=out)

        return cls(height, width, spectra.shape[0], fill, wavelengths)

    @property
    def pixels(self) -> int:
        return self.height * self.width

    def refill(self, fill) -> "BandStream":
        """Same image geometry and wavelengths, another kernel."""
        return replace(self, fill=fill)

    @property
    def block_bands(self) -> int:
        """Bands per block: as many whole bands as fit `_BLOCK_BYTES` of
        float64, at least one."""
        return max(1, _BLOCK_BYTES // (8 * self.pixels))

    def blocks(self) -> list[tuple[int, int]]:
        """(start, stop) of each band block in order, the last one possibly
        partial."""
        step = self.block_bands
        return [(start, min(start + step, self.bands)) for start in range(0, self.bands, step)]

    def image(self) -> SpectralImage:
        """The whole image, each block written in place into one array that
        is adopted once."""
        data = np.empty((self.bands, self.pixels))
        for start, stop in self.blocks():
            self.fill(start, stop, data[start:stop])
        return SpectralImage._adopt(self.height, self.width, data, self.wavelengths)

    def checked_blocks(self):
        """Each block in turn, in one reused buffer that holds the next block
        once the caller asks for it; a block with a non-finite sample raises
        as `SpectralImage` does."""
        buffer = np.empty((min(self.block_bands, self.bands), self.pixels))
        for start, stop in self.blocks():
            block = buffer[: stop - start]
            self.fill(start, stop, block)
            if not _all_finite(block):
                raise ValueError("image contains non-finite samples")
            yield block
