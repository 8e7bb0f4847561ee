"""Synthetic ground-truth scenes: smooth endmember spectra mixed by
periodic, low-order Fourier abundance fields.

The abundance fields are periodic in both image axes so that degradation
models with either mirrored or cyclic boundary handling see statistically
identical content near the edges. One pure pixel per endmember is planted
at a seeded location, which keeps unmixing-based methods well posed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..imgcore import SpectralImage

__all__ = ["SceneFactors", "synth_scene", "synth_scene_factors"]

_WAVELENGTH_LO = 0.4
_WAVELENGTH_HI = 2.5
_FOURIER_ORDER = 2
_SOFTMAX_GAIN = 3.0


@dataclass(frozen=True)
class SceneFactors:
    image: SpectralImage
    spectra: np.ndarray
    abundances: np.ndarray
    pure_pixels: tuple[int, ...]


def _endmember_spectra(bands: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Each spectrum is a baseline plus a few Gaussian bumps, rescaled to
    span [0.1, 1.0]."""
    grid = np.linspace(_WAVELENGTH_LO, _WAVELENGTH_HI, bands)
    spectra = np.empty((bands, count))
    for j in range(count):
        n_bumps = int(rng.integers(2, 4))
        centers = rng.uniform(_WAVELENGTH_LO, _WAVELENGTH_HI, n_bumps)
        widths = rng.uniform(0.08, 0.45, n_bumps)
        amps = rng.uniform(0.3, 1.0, n_bumps)
        s = 0.15 * np.ones(bands)
        for c, wd, a in zip(centers, widths, amps):
            s += a * np.exp(-0.5 * ((grid - c) / wd) ** 2)
        lo, hi = s.min(), s.max()
        if hi > lo:
            spectra[:, j] = 0.1 + 0.9 * (s - lo) / (hi - lo)
        else:
            spectra[:, j] = 0.55
    return spectra


def _abundance_fields(
    height: int, width: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Softmax over smooth periodic random fields; rows sum to one."""
    yy = np.arange(height)[:, np.newaxis] / height
    xx = np.arange(width)[np.newaxis, :] / width
    fields = np.zeros((count, height, width))
    for j in range(count):
        for ky in range(-_FOURIER_ORDER, _FOURIER_ORDER + 1):
            for kx in range(-_FOURIER_ORDER, _FOURIER_ORDER + 1):
                if ky == 0 and kx == 0:
                    continue
                amp = rng.normal(0.0, 1.0 / (1.0 + ky * ky + kx * kx))
                phase = rng.uniform(0.0, 2.0 * np.pi)
                fields[j] += amp * np.cos(2.0 * np.pi * (ky * yy + kx * xx) + phase)
    fields = np.exp(_SOFTMAX_GAIN * (fields - fields.max(axis=0)))
    return (fields / fields.sum(axis=0)).reshape(count, height * width)


def synth_scene_factors(
    seed: int, endmembers: int, height: int, width: int, bands: int
) -> SceneFactors:
    if height < 1 or width < 1 or bands < 1:
        raise ValueError("scene dims must be positive")
    if not 2 <= endmembers <= bands:
        raise ValueError("endmember count must lie in [2, bands]")
    if endmembers > height * width:
        raise ValueError("more endmembers than pixels")

    spectra = _endmember_spectra(bands, endmembers, np.random.default_rng([seed, 1]))
    abundances = _abundance_fields(
        height, width, endmembers, np.random.default_rng([seed, 2])
    )
    sites = np.random.default_rng([seed, 3]).choice(
        height * width, size=endmembers, replace=False
    )
    for j, site in enumerate(sites):
        abundances[:, site] = 0.0
        abundances[j, site] = 1.0

    wavelengths = np.linspace(_WAVELENGTH_LO, _WAVELENGTH_HI, bands)
    image = SpectralImage._adopt(height, width, spectra @ abundances, wavelengths)
    return SceneFactors(image, spectra, abundances, tuple(int(s) for s in sites))


def synth_scene(
    seed: int, endmembers: int, height: int, width: int, bands: int
) -> SpectralImage:
    """Seeded synthetic scene; same factors as `synth_scene_factors`."""
    return synth_scene_factors(seed, endmembers, height, width, bands).image
