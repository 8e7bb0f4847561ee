"""Band-major spectral image container shared by every fusion method.

An image is stored as a bands x pixels float64 matrix with pixels in
raster-scan (row-major) order, so spectral operators are plain matrix
products and spatial operators reshape to (bands, height, width).

The constructor copies its data into a read-only array. Code that has just
created a C-ordered float64 array and will not write it again (a fusion
method's working cube, an interpolation product, a raster payload) hands it
over with the private `SpectralImage._adopt` instead, which freezes that
array in place and skips the copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SpectralImage", "DynamicRange"]


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
        h, w = int(self.height), int(self.width)
        object.__setattr__(self, "height", h)
        object.__setattr__(self, "width", w)
        if h <= 0 or w <= 0:
            raise ValueError(f"image dims must be positive, got {h}x{w}")
        if data.ndim != 2:
            raise ValueError("image data must be a 2-D bands x pixels matrix")
        if data.shape[1] != h * w:
            raise ValueError(
                f"data has {data.shape[1]} pixels but dims give {h * w}"
            )
        if not np.isfinite(data).all():
            raise ValueError("image contains non-finite samples")
        object.__setattr__(self, "data", data)
        if self.wavelengths is not None:
            wl = tuple(float(v) for v in self.wavelengths)
            if len(wl) != data.shape[0]:
                raise ValueError(
                    f"{len(wl)} wavelengths for {data.shape[0]} bands"
                )
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

