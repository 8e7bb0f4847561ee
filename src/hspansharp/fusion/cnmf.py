"""Coupled nonnegative matrix factorization fusion.

The hyperspectral image and the PAN are alternately unmixed with shared
endmember spectra: spectra come from the low-resolution data, abundances
from the high-resolution PAN, coupled through the known sensor model.
Abundance updates use the penalty-row augmentation that softly enforces
sum-to-one columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from ..imgcore import SpectralImage
from ..resample import upsample_data
from ..sensorsim import SensorModel, blur_downsample

__all__ = [
    "Endmembers",
    "CnmfResult",
    "vca",
    "nmf_update_spectra",
    "cnmf_solve",
    "fuse_cnmf",
]

# Added to each multiplicative update's denominator; also the floor of the
# relative stopping test.
_EPS = 1e-12
# Entry of the stacked sum-to-one penalty row: the larger, the closer each
# abundance column sums to one.
_DELTA = 10.0


@dataclass(frozen=True)
class Endmembers:
    """Spectra (bands x p) and abundances (p x pixels), both nonnegative."""

    spectra: np.ndarray
    abundances: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.spectra, dtype=np.float64).copy()
        U = np.asarray(self.abundances, dtype=np.float64).copy()
        if H.ndim != 2 or U.ndim != 2 or H.shape[1] != U.shape[0]:
            raise ValueError("spectra and abundances disagree in endmember count")
        if (H < 0).any() or (U < 0).any():
            raise ValueError("endmember factors must be nonnegative")
        H.flags.writeable = False
        U.flags.writeable = False
        object.__setattr__(self, "spectra", H)
        object.__setattr__(self, "abundances", U)


@dataclass(frozen=True)
class CnmfResult:
    endmembers: Endmembers
    abundances_low: np.ndarray
    hs_objectives: tuple
    pan_objectives: tuple


def vca(y: np.ndarray, p: int, seed: int = 0) -> np.ndarray:
    """Vertex component analysis, pixel-purity convention.

    Projects the data onto its top-p singular subspace, normalizes columns
    onto the hyperplane through the data mean, and repeatedly picks the pixel
    maximizing |f^T y| for directions f orthogonal to the vertices found so
    far. Every returned column is an actual column of y.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError("data must be a bands x pixels matrix")
    m, n = y.shape
    p = int(p)
    if not 1 <= p <= min(m, n):
        raise ValueError(f"endmember count {p} out of range for {m}x{n} data")
    if (y < 0).any():
        raise ValueError("data must be nonnegative")
    left, sing, _ = np.linalg.svd(y, full_matrices=False)
    if sing[p - 1] <= max(m, n) * np.finfo(np.float64).eps * sing[0]:
        raise ValueError(f"data rank is below the requested {p} endmembers")
    basis = left[:, :p]
    signs = np.sign(basis[np.abs(basis).argmax(axis=0), np.arange(p)])
    basis = basis * np.where(signs == 0, 1.0, signs)[np.newaxis, :]
    if p == 1:
        k = int(np.argmax(basis[:, 0] @ y))
        return y[:, [k]].copy()

    z = basis.T @ y
    u = z.mean(axis=1)
    denom = u @ z
    floor = 1e-12 * np.abs(denom).max()
    denom = np.where(np.abs(denom) < floor, floor, denom)
    z_proj = z / denom

    rng = np.random.default_rng(seed)
    ortho = np.zeros((p, 0))
    indices = []
    for _ in range(p):
        while True:
            w = rng.standard_normal(p)
            f = w - ortho @ (ortho.T @ w)
            norm = np.linalg.norm(f)
            if norm > 1e-9:
                break
        f /= norm
        k = int(np.argmax(np.abs(f @ z_proj)))
        indices.append(k)
        v = z_proj[:, k] - ortho @ (ortho.T @ z_proj[:, k])
        vn = np.linalg.norm(v)
        if vn > 1e-12:
            ortho = np.column_stack([ortho, v / vn])
    return y[:, indices].copy()


def nmf_update_spectra(
    spectra: np.ndarray, abundances: np.ndarray, data: np.ndarray
) -> np.ndarray:
    """Multiplicative spectra step: H <- H (Y U^T) / (H U U^T + eps)."""
    return spectra * (data @ abundances.T) / (spectra @ (abundances @ abundances.T) + _EPS)


def _abundance_step(abundances: np.ndarray, hty: np.ndarray, hth: np.ndarray) -> np.ndarray:
    """Multiplicative abundance step U <- U (H^T Y) / (H^T H U + eps) from the
    products H^T Y and H^T H, written over `abundances` and returned."""
    denom = hth @ abundances
    denom += _EPS
    abundances *= hty
    abundances /= denom
    return abundances


def _augment(matrix: np.ndarray) -> np.ndarray:
    """Stack the sum-to-one penalty row (every entry `_DELTA`) under `matrix`."""
    return np.vstack([matrix, np.full((1, matrix.shape[1]), _DELTA)])


def _objective(
    spectra: np.ndarray, abundances: np.ndarray, data: np.ndarray, resid: np.ndarray
) -> float:
    """||data - spectra abundances||^2, formed in the buffer `resid`."""
    np.matmul(spectra, abundances, out=resid)
    np.subtract(data, resid, out=resid)
    np.multiply(resid, resid, out=resid)
    return float(resid.sum())


def cnmf_solve(
    y_h: SpectralImage,
    pan: SpectralImage,
    model: SensorModel,
    p: int,
    outer_iters: int = 2,
    inner_iters: int = 100,
    seed: int = 0,
    tol: float = 1e-6,
) -> CnmfResult:
    """Run the coupled factorization and return factors plus objective traces.

    Traced objectives include the sum-to-one penalty row, which is the
    quantity the multiplicative updates provably never increase.
    """
    if outer_iters < 1 or inner_iters < 1:
        raise ValueError("iteration budgets must be positive")
    ratio = model.ratio
    if (pan.height, pan.width) != (y_h.height * ratio, y_h.width * ratio):
        raise ValueError("PAN dims must equal ratio times the Y_H dims")
    data_h = np.maximum(y_h.data, 0.0)
    data_p = np.maximum(pan.data, 0.0)
    response = model.spectral_response
    if response.shape != (pan.bands, y_h.bands):
        raise ValueError("spectral response dims disagree with the images")

    spectra = vca(data_h, p, seed)
    # Nonnegative per-pixel unmixing against the VCA spectra seeds the
    # abundances; a flat start lets the first spectra updates drift away
    # from the vertices VCA already found.
    h_aug = _augment(spectra)
    y_aug = _augment(data_h)
    p_aug = _augment(data_p)
    abund_low = np.column_stack(
        [nnls(h_aug, y_aug[:, j])[0] for j in range(y_h.pixels)]
    )
    # The spectra live in the top rows of h_aug, so each spectra update
    # rewrites them in place and h_aug serves the objective and the next
    # abundance step without restacking.
    spectra = h_aug[:-1]
    y_resid = np.empty_like(y_aug)
    p_resid = np.empty_like(p_aug)
    abund_high = None
    hs_traces, pan_traces = [], []

    for outer in range(outer_iters):
        if outer > 0:
            low_img = SpectralImage(pan.height, pan.width, abund_high)
            abund_low = np.maximum(
                blur_downsample(low_img, model.blur, ratio).data, 0.0
            )
        trace = [_objective(h_aug, abund_low, y_aug, y_resid)]
        for _ in range(inner_iters):
            abund_low = _abundance_step(abund_low, h_aug.T @ y_aug, h_aug.T @ h_aug)
            spectra[...] = nmf_update_spectra(spectra, abund_low, data_h)
            trace.append(_objective(h_aug, abund_low, y_aug, y_resid))
            if abs(trace[-2] - trace[-1]) <= tol * max(trace[-2], _EPS):
                break
        hs_traces.append(np.array(trace))

        if abund_high is None:
            low_img = SpectralImage(y_h.height, y_h.width, abund_low)
            abund_high = np.maximum(upsample_data(low_img, ratio, "bilinear"), 0.0)
        # The PAN loop updates only the abundances, so H^T Y and H^T H of the
        # stacked PAN spectra are formed once per loop.
        hp_aug = _augment(response @ spectra)
        hty, hth = hp_aug.T @ p_aug, hp_aug.T @ hp_aug
        trace = [_objective(hp_aug, abund_high, p_aug, p_resid)]
        for _ in range(inner_iters):
            abund_high = _abundance_step(abund_high, hty, hth)
            trace.append(_objective(hp_aug, abund_high, p_aug, p_resid))
            if abs(trace[-2] - trace[-1]) <= tol * max(trace[-2], _EPS):
                break
        pan_traces.append(np.array(trace))

    return CnmfResult(
        endmembers=Endmembers(spectra, abund_high),
        abundances_low=abund_low,
        hs_objectives=tuple(hs_traces),
        pan_objectives=tuple(pan_traces),
    )


def fuse_cnmf(
    y_h: SpectralImage,
    pan: SpectralImage,
    model: SensorModel,
    p: int,
    outer_iters: int = 2,
    inner_iters: int = 100,
    seed: int = 0,
) -> SpectralImage:
    """Fused image H U from the coupled factorization."""
    result = cnmf_solve(y_h, pan, model, p, outer_iters, inner_iters, seed)
    fused = result.endmembers.spectra @ result.endmembers.abundances
    return SpectralImage._adopt(pan.height, pan.width, fused, y_h.wavelengths)
