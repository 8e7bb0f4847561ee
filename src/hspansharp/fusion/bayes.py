"""Bayesian subspace fusion: naive Gaussian prior and vector-total-variation
(HySure-style) variants, plus blind estimation of the sensor blur and
spectral response.

The unknown image is modeled as X = H U with H an orthonormal spectral
basis learned from the hyperspectral data, so optimization runs over the
low-dimensional coefficient rows U. HySure's ADMM holds the blurred part of
its splitting and that part's scaled dual at the Y_H sites only (off them
its prox is the identity), and the difference part and its dual as two
stacked arrays. It runs on one loop under either of two boundary models,
each a real orthonormal basis per axis that diagonalizes the model's blur
and differences: the Fourier basis for the cyclic one, `hysure_solve`'s
default, and the DCT-II for the reflect one that `sensorsim.degrade` blurs
with, which `hysure_stream`, and so the registry, fuses under.

`estimate_sensor` recovers the spectral response and the blur taps from the
observed pair by alternating two nonnegative least-squares steps, both
solved by CNMF's Lawson-Hanson solver `cnmf.nnls_columns`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..imgcore import BandStream, DynamicRange, SpectralImage, is_integer
from ..resample import interpolate
from ..sensorsim import (
    BlurKernel,
    SensorModel,
    check_model_pair,
    default_phase,
    degrade,
    degrade_axis,
    pair_ratio,
    separable,
    separable_product,
)
from .cnmf import _DELTA, nnls_columns
from .cs import energy_knee, signed_axes

__all__ = [
    "SubspaceBasis",
    "BayesNaivePriors",
    "HySureParams",
    "SensorEstimate",
    "learn_subspace",
    "negative_log_posterior",
    "default_bayes_priors",
    "BayesNaiveResult",
    "bayes_naive_solve",
    "bayes_naive_stream",
    "vtv",
    "default_hysure_params",
    "HysureResult",
    "hysure_solve",
    "hysure_stream",
    "estimate_sensor",
]

# The default subspace keeps this share of the squared singular values of
# Y_H, in at most this many directions.
_ENERGY = 0.999
_MAX_DIM = 10


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal spectral basis, one column per retained direction."""

    H: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.H, dtype=np.float64).copy()
        if H.ndim != 2 or H.shape[0] < H.shape[1]:
            raise ValueError("basis must be a tall bands x p matrix")
        if not np.allclose(H.T @ H, np.eye(H.shape[1]), rtol=0, atol=1e-10):
            raise ValueError("basis columns must be orthonormal")
        H.flags.writeable = False
        object.__setattr__(self, "H", H)

    @property
    def p(self) -> int:
        return self.H.shape[1]


def learn_subspace(y_h: SpectralImage, p: int | None = None) -> SubspaceBasis:
    """Top-p left singular vectors of Y_H, sign-fixed so each column's
    largest-magnitude entry is positive. Without `p`, the same SVD picks p:
    the energy knee of its squared singular values (`_ENERGY`, `_MAX_DIM`)."""
    if not (p is None or is_integer(p) and 1 <= p <= y_h.bands):
        raise ValueError(f"subspace dim {p!r} out of range for {y_h.bands} bands")
    left, sing, _ = np.linalg.svd(y_h.data, full_matrices=False)
    if p is None:
        p = energy_knee(sing**2, _ENERGY, _MAX_DIM)
    return SubspaceBasis(signed_axes(left[:, :p]))


# ---------------------------------------------------------------------------
# Naive Gaussian-prior solver on the Wald operator `sensorsim.degrade`.


def _noise_weights(
    model: SensorModel, y_h: SpectralImage, pan: SpectralImage
) -> tuple[np.ndarray, float]:
    """Inverse noise weights; a zero (unknown) std falls back to unit weight,
    and a positive one counts as at least 1e-6 of its image's RMS, so that a
    near-noiseless pair keeps the solve's pencil definite."""
    rms_h, rms_m = (float(np.sqrt((img.data**2).mean())) for img in (y_h, pan))
    stds = model.hs_noise_std
    wh = 1.0 / np.where(stds > 0, np.maximum(stds, 1e-6 * rms_h), 1.0)
    wm = 1.0 / max(model.pan_noise_std, 1e-6 * rms_m) if model.pan_noise_std > 0 else 1.0
    return wh, wm


def _residuals(
    U: np.ndarray, basis: SubspaceBasis, y_h: SpectralImage, pan: SpectralImage,
    model: SensorModel,
) -> tuple[np.ndarray, np.ndarray]:
    """The misfits (Y_H - H U B S, P - R H U) of p x pixels coefficients U on
    the PAN grid under the sensor model, formed without the image H U."""
    low = degrade(U.reshape(-1, pan.height, pan.width), model.blur.taps, model.ratio)
    resid_h = y_h.data - basis.H @ low.reshape(basis.p, -1)
    return resid_h, pan.data - (model.spectral_response @ basis.H) @ U


def negative_log_posterior(
    U: np.ndarray,
    y_h: SpectralImage,
    y_m: SpectralImage,
    model: SensorModel,
    basis: SubspaceBasis,
) -> float:
    """0.5||L_H^-1/2 (Y_H - HUBS)||^2 + 0.5||L_M^-1/2 (Y_M - RHU)||^2, with
    unit weights where a noise std is zero."""
    wh, wm = _noise_weights(model, y_h, y_m)
    resid_h, resid_m = _residuals(np.asarray(U, dtype=np.float64), basis, y_h, y_m, model)
    resid_h *= wh[:, np.newaxis]
    resid_m *= wm
    return 0.5 * float((resid_h**2).sum()) + 0.5 * float((resid_m**2).sum())


@dataclass(frozen=True)
class BayesNaivePriors:
    """Gaussian coefficient prior: per-pixel means mu (p x n) and a shared
    symmetric positive definite covariance sigma (p x p)."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64).copy()
        sigma = np.asarray(self.sigma, dtype=np.float64).copy()
        if mu.ndim != 2 or sigma.shape != (mu.shape[0], mu.shape[0]):
            raise ValueError("prior dims disagree")
        if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
            raise ValueError("prior mean and covariance must be finite")
        if not np.allclose(sigma, sigma.T, rtol=0, atol=1e-10):
            raise ValueError("prior covariance must be symmetric")
        if np.linalg.eigvalsh(sigma)[0] <= 0:
            raise ValueError("prior covariance must be positive definite")
        mu.flags.writeable = False
        sigma.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)


def _interpolated_coefficients(
    y_h: SpectralImage, basis: SubspaceBasis, ratio: int
) -> np.ndarray:
    """Bicubically interpolated Y_H projected onto the subspace (p x n), formed
    as the interpolated projection H^T Y_H, p planes in place of the bands."""
    planes = (basis.H.T @ y_h.data).reshape(basis.p, y_h.height, y_h.width)
    return interpolate(planes, ratio).reshape(basis.p, -1)


def default_bayes_priors(
    y_h: SpectralImage, basis: SubspaceBasis, ratio: int
) -> BayesNaivePriors:
    """Prior mean = interpolated image projected onto the subspace; isotropic
    initial covariance scaled to the mean field's variance."""
    mu = _interpolated_coefficients(y_h, basis, ratio)
    var = float(mu.var(axis=1).mean())
    return BayesNaivePriors(mu, (var + 1e-6) * np.eye(basis.p))


@dataclass(frozen=True)
class BayesNaiveResult:
    U: np.ndarray
    sigma: np.ndarray


def _generalized_eigh(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues gamma and b-orthonormal eigenvectors V (V^T b V = I) of
    the symmetric-definite pencil a v = gamma b v, by Cholesky reduction:
    with b = L L^T, the eigenvectors W of L^-1 a L^-T give V = L^-T W."""
    linv = np.linalg.inv(np.linalg.cholesky(b))
    gamma, w = np.linalg.eigh(linv @ a @ linv.T)
    return gamma, linv.T @ w


def bayes_naive_solve(
    y_h: SpectralImage,
    pan: SpectralImage,
    model: SensorModel,
    basis: SubspaceBasis,
    priors: BayesNaivePriors | None = None,
    sigma_rounds: int = 5,
) -> BayesNaiveResult:
    """MAP estimate under the Gaussian coefficient prior.

    The posterior is quadratic, so U solves the normal equations

        M_hs K(U) + (M_pan + Sigma^-1) U = b,  K(X) = Dh^T Dh X Dw^T Dw,

    with Dh, Dw the `degrade_axis` matrices of the Wald operator. They are
    solved exactly: the eigenvectors of Dh^T Dh and Dw^T Dw diagonalize K,
    and the generalized eigenvectors V of (M_hs, M_pan + Sigma^-1)
    diagonalize the p x p part, leaving one division per coefficient. The
    data and the prior mean are taken into the spatial eigenbasis once and
    U is taken back once. The prior covariance is refit `sigma_rounds`
    times as the empirical second moment of U - mu plus a 1e-6 ridge, which
    the orthogonal spatial transform leaves unchanged, ending with a final
    coefficient solve.
    """
    if not (is_integer(sigma_rounds) and sigma_rounds >= 0):
        raise ValueError(f"sigma_rounds must be an integer >= 0, got {sigma_rounds!r}")
    ratio = check_model_pair(y_h, pan, model)
    if priors is None:
        priors = default_bayes_priors(y_h, basis, ratio)
    H = basis.H
    p = basis.p
    n = pan.pixels
    dh = degrade_axis(pan.height, model.blur.taps, ratio)
    dw = degrade_axis(pan.width, model.blur.taps, ratio)
    lam_h, qh = np.linalg.eigh(dh.T @ dh)
    lam_w, qw = np.linalg.eigh(dw.T @ dw)
    lam_k = np.outer(np.maximum(lam_h, 0.0), np.maximum(lam_w, 0.0)).ravel()

    def to_eigenbasis(field):
        planes = field.reshape(p, pan.height, pan.width)
        return separable(qh.T, planes, qw.T).reshape(p, n)

    wh, wm = _noise_weights(model, y_h, pan)
    hw2 = (H * wh[:, np.newaxis] ** 2).T
    rh = (model.spectral_response @ H) * wm
    m_hs = hw2 @ H
    m_pan = rh.T @ rh
    hs_low = (hw2 @ y_h.data).reshape(p, y_h.height, y_h.width)
    hs_term = separable(dh.T, hs_low, dw.T)
    data_term = to_eigenbasis(hs_term.reshape(p, n) + rh.T @ (pan.data * wm))

    mu = to_eigenbasis(priors.mu)
    sigma = priors.sigma
    U = mu
    for round_idx in range(sigma_rounds + 1):
        if round_idx > 0:
            delta = U - mu
            sigma = (delta @ delta.T) / n + 1e-6 * np.eye(p)
        sigma_inv = np.linalg.inv(sigma)
        gamma, v = _generalized_eigh(m_hs, m_pan + sigma_inv)
        z = v.T @ (data_term + sigma_inv @ mu)
        U = v @ (z / (gamma[:, np.newaxis] * lam_k + 1.0))
    U = separable(qh, U.reshape(p, pan.height, pan.width), qw).reshape(p, n)
    return BayesNaiveResult(U=U, sigma=sigma)


def bayes_naive_stream(
    y_h: SpectralImage,
    pan: SpectralImage,
    model: SensorModel,
    basis: SubspaceBasis,
    sigma_rounds: int,
) -> BandStream:
    """H U from `bayes_naive_solve` under the default priors."""
    result = bayes_naive_solve(y_h, pan, model, basis, sigma_rounds=sigma_rounds)
    return BandStream.product(pan.height, pan.width, basis.H, result.U, y_h.wavelengths)


# ---------------------------------------------------------------------------
# Vector total variation and the HySure ADMM solver, under a cyclic or a
# reflect boundary model.


def _differences(planes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The periodic forward differences x[i + 1] - x[i] of a stack of planes
    along the width (D_h) and the height (D_v), stacked as (D_h, D_v), as a
    fresh array or written into `out`."""
    rolled = np.stack([np.roll(planes, -1, axis=-1), np.roll(planes, -1, axis=-2)])
    return np.subtract(rolled, planes, out=out)


def _differences_adjoint(pair: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """D^T pair = D_h^T pair[0] + D_v^T pair[1] for the periodic differences,
    each adjoint reading x[i - 1] - x[i], as a fresh array or written into
    `out`."""
    out = np.subtract(np.roll(pair[0], 1, axis=-1), pair[0], out=out)
    out += np.roll(pair[1], 1, axis=-2) - pair[1]
    return out


def _neumann_differences(planes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The forward differences x[i + 1] - x[i] along the width (D_h) and the
    height (D_v), stacked as (D_h, D_v), with the last difference of each
    line zero: the differences of the mirrored (reflect) extension. As a
    fresh array or written into `out`."""
    pair = np.empty((2,) + planes.shape) if out is None else out
    np.subtract(planes[..., 1:], planes[..., :-1], out=pair[0][..., :-1])
    np.subtract(planes[..., 1:, :], planes[..., :-1, :], out=pair[1][..., :-1, :])
    pair[0][..., -1] = 0.0
    pair[1][..., -1, :] = 0.0
    return pair


def _neumann_differences_adjoint(pair: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """D^T pair = D_h^T pair[0] + D_v^T pair[1] for `_neumann_differences`:
    y[i - 1] - y[i] along each axis, each term present where its index is a
    difference the pair holds (the last sample of a line is none). As a
    fresh array or written into `out`, with no temporaries."""
    out = np.empty(pair.shape[1:]) if out is None else out
    np.negative(pair[0][..., :-1], out=out[..., :-1])
    out[..., -1] = 0.0
    out[..., 1:] += pair[0][..., :-1]
    out[..., :-1, :] -= pair[1][..., :-1, :]
    out[..., 1:, :] += pair[1][..., :-1, :]
    return out


def _joint_norms(pair: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-pixel norm of the differences `pair` (2 x planes x height x width)
    jointly over both stacks and all planes, as a fresh array or written
    into `out`."""
    return np.sqrt(np.einsum("kpij,kpij->ij", pair, pair, out=out), out=out)


def vtv(img: SpectralImage) -> float:
    """Isotropic vector total variation with periodic differences: the sum
    over pixels of the joint gradient norm across all bands."""
    return float(_joint_norms(_differences(img.to_cube())).sum())


@dataclass(frozen=True)
class HySureParams:
    """Weights and ADMM settings for the variational solver."""

    lambda_m: float = 1.0
    lambda_phi: float = 5e-3
    admm_mu: float = 0.05
    tol: float = 1e-4
    max_iters: int = 200

    def __post_init__(self):
        weights = (self.lambda_m, self.lambda_phi, self.admm_mu, self.tol)
        if not np.isfinite(weights).all():
            raise ValueError("lambda_m, lambda_phi, admm_mu and tol must be finite")
        if self.lambda_m <= 0 or self.admm_mu <= 0:
            raise ValueError("lambda_m and admm_mu must be positive")
        if self.lambda_phi < 0 or self.tol < 0:
            raise ValueError("lambda_phi and tol must be nonnegative")
        if not (is_integer(self.max_iters) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")


def default_hysure_params(
    y_h: SpectralImage, pan: SpectralImage, basis: SubspaceBasis, model: SensorModel
) -> HySureParams:
    """Scale lambda_phi so the TV term starts at 5e-3 of the data terms.

    The data-term scale is taken at the interpolated initializer, minus the
    expected noise energy (which no estimate can remove), so the weight
    tracks the reducible misfit rather than the noise floor.
    """
    check_model_pair(y_h, pan, model)
    u0 = _interpolated_coefficients(y_h, basis, model.ratio)
    resid_h, resid_m = _residuals(u0, basis, y_h, pan, model)
    noise_floor = 0.5 * y_h.pixels * float((model.hs_noise_std**2).sum())
    noise_floor += 0.5 * pan.pixels * model.pan_noise_std**2
    data_scale = 0.5 * float((resid_h**2).sum()) + 0.5 * float((resid_m**2).sum())
    reducible = max(data_scale - noise_floor, 0.05 * data_scale)
    tv0 = vtv(SpectralImage(pan.height, pan.width, u0))
    lam = 5e-3 * reducible / max(tv0, 1e-12)
    return HySureParams(lambda_phi=max(lam, 1e-12))


@dataclass(frozen=True)
class HysureResult:
    U: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    converged: bool


@dataclass(frozen=True)
class _SpatialBasis:
    """HySure's boundary model: a transform T of the coefficient planes in
    which both B^T B and D_h^T D_h + D_v^T D_v are diagonal, a real
    orthonormal basis Q of each axis applied as Q_h U Q_w^T, with the
    eigenvalues |beta|^2 of B^T B (`blur_gram`) and `psi` of their sum (one
    per coefficient of a transformed plane), the two maps between the
    transform and the Y_H sites through the blur, and the difference pair
    D = (D_h, D_v) with its adjoint.

    `forward(planes, out=None)` is T and `inverse(coeffs, out)` its inverse;
    `to_sites(coeffs)` reads S B U, the blurred planes at the sites, from
    the transform of U, and `from_sites(values, out)` writes the transform
    of B^T S^T values. `differences(planes, out)` writes D U, stacked as
    (D_h U, D_v U), and `differences_adjoint(pair, out)` writes D^T pair."""

    blur_gram: np.ndarray
    psi: np.ndarray
    forward: Callable
    inverse: Callable
    to_sites: Callable
    from_sites: Callable
    differences: Callable
    differences_adjoint: Callable


def _cyclic_axis(n: int, taps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cyclic boundaries on an n-sample line: the real orthonormal Fourier
    basis, the circulant blur and the eigenvalues 2 - 2 cos(2 pi k / n) of
    the periodic `_differences`' D^T D. Row 0 of the basis is constant, rows
    2k - 1 and 2k read sqrt(2 / n) cos and sin(2 pi k j / n), and when n is
    even the last row alternates, (-1)^j / sqrt(n); row i has frequency
    k = (i + 1) // 2. Row i of the blur reads sample (i + t) mod n with the
    tap at offset t, wrapping as often as the taps outrun the line. For
    symmetric taps it is a symmetric circulant, which the basis
    diagonalizes, a cos and sin row sharing one eigenvalue."""
    i = np.arange(n)
    k = (i + 1) // 2
    angle = (2.0 * np.pi / n) * (np.outer(k, i) % n)
    sine = ((i % 2 == 0) & (k > 0))[:, np.newaxis]
    basis = np.where(sine, np.sin(angle), np.cos(angle))
    basis *= np.sqrt(np.where((k == 0) | (2 * k == n), 1.0, 2.0) / n)[:, np.newaxis]
    offsets = np.arange(taps.size) - taps.size // 2
    blur = np.zeros((n, n))
    np.add.at(blur, (i[:, np.newaxis], (i[:, np.newaxis] + offsets) % n), taps)
    return basis, blur, 2.0 - 2.0 * np.cos(2.0 * np.pi * k / n)


def _reflect_axis(n: int, taps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reflect boundaries on an n-sample line, the model `sensorsim.degrade`
    blurs with: the orthonormal DCT-II (row k holds sqrt(2 / n)
    cos(pi k (2 j + 1) / (2 n)), row 0 scaled by 1 / sqrt(2)), the blur
    `degrade_axis(n, taps, 1)`, which it diagonalizes for symmetric taps
    (Ng, Chan and Tang 1999), and the eigenvalues 2 - 2 cos(pi k / n) of
    the `_neumann_differences`' D^T D."""
    k = np.arange(n)[:, np.newaxis]
    j = np.arange(n)[np.newaxis, :]
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * j + 1) / (2 * n))
    basis[0] /= np.sqrt(2.0)
    return basis, degrade_axis(n, taps, 1), 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)


# Each boundary model: its per-axis factory (n, taps) -> (basis, blur,
# difference eigenvalues) and its difference pair.
_BOUNDARIES = {
    "cyclic": (_cyclic_axis, _differences, _differences_adjoint),
    "reflect": (_reflect_axis, _neumann_differences, _neumann_differences_adjoint),
}


def _spatial_basis(
    boundary: str, taps: np.ndarray, height: int, width: int, ratio: int
) -> _SpatialBasis:
    """The `_SpatialBasis` of a `boundary` model from its per-axis factory.
    The blur eigenvalues b of an axis are the diagonal of Q B Q^T, beta
    being the outer product of the two axes'. As Q B^T = diag(b) Q, the
    site maps are products with each axis's site columns of Q, row k scaled
    by b_k: one Y_H-sized side each. Every product is planned once here."""
    factory, differences, differences_adjoint = _BOUNDARIES[boundary]
    (qh, blur_h, diff_v), (qw, blur_w, diff_h) = factory(height, taps), factory(width, taps)
    beta_h = ((qh @ blur_h) * qh).sum(axis=1)
    beta_w = ((qw @ blur_w) * qw).sum(axis=1)
    blur_gram = np.outer(beta_h, beta_w) ** 2
    psi = blur_gram + diff_h[np.newaxis, :] + diff_v[:, np.newaxis]
    phase = default_phase(ratio)
    site_h = qh[:, phase::ratio] * beta_h[:, np.newaxis]
    site_w = qw[:, phase::ratio] * beta_w[:, np.newaxis]
    return _SpatialBasis(
        blur_gram,
        psi,
        separable_product(qh, qw),
        separable_product(qh.T, qw.T),
        separable_product(site_h.T, site_w.T),
        separable_product(site_h, site_w),
        differences,
        differences_adjoint,
    )


def hysure_solve(
    y_h: SpectralImage,
    pan: SpectralImage,
    basis: SubspaceBasis,
    model: SensorModel,
    params: HySureParams,
    boundary: str = "cyclic",
) -> HysureResult:
    """SALSA/ADMM minimization of

        0.5 ||Y_H - H U B S||^2 + (lambda_m / 2) ||P - R H U||^2
        + lambda_phi VTV(U)

    with the blur B and the differences of VTV under the `boundary` model:
    "cyclic" (the default), diagonalized by the real Fourier basis of each
    axis, or "reflect", the model `sensorsim.degrade` blurs with,
    diagonalized by the DCT-II of each axis (see `_cyclic_axis`,
    `_reflect_axis` and `_spatial_basis`). U is split as
    V = (S B U, D_h U, D_v U) with a scaled dual D of each part. Off the
    decimation sites S the prox of the blurred part is the identity, so
    there it would equal B U with a zero dual after every step: the blurred
    part and its dual are held at the sites only, Y_H-sized, and the
    differences part and its dual as two stacked arrays. A rising objective
    (which reads S B U and D U, not V) doubles the penalty, halves the duals
    so the multipliers are unchanged, and retries the U step alone; an
    accepted step sets V to the prox of the parts less their duals and each
    dual to itself less the primal residual, in place.

    Each U step divides the transform of its right-hand side

        T(lambda_m (R H)^T P + mu D^T (V_D + D_D))
        + mu |beta|^2 T(U_prev) + mu T(B^T S^T E),

    E = V_B + D_B - S B U_prev at the sites, by lambda_m (R H)^T R H +
    mu psi, which is diagonal as the loop runs on the coefficients rotated
    into that p x p matrix's eigenvectors: one division per coefficient,
    by a denominator formed once per penalty value. The blur enters only
    through |beta|^2 and the basis's two site maps, and S B U is read from
    the solved transform. Per step that is one forward and one inverse
    whole-grid transform plus the two site maps, products with one
    Y_H-sized side, all of them per-axis matrix products under either model.
    """
    if boundary not in _BOUNDARIES:
        raise ValueError(f"boundary must be one of {sorted(_BOUNDARIES)}, got {boundary!r}")
    ratio = check_model_pair(y_h, pan, model)
    h, w = pan.height, pan.width
    p = basis.p
    mu = params.admm_mu
    lam_m, lam_phi = params.lambda_m, params.lambda_phi
    spatial = _spatial_basis(boundary, model.blur.taps, h, w, ratio)

    rh = model.spectral_response @ basis.H
    evals, evecs = np.linalg.eigh(lam_m * (rh.T @ rh))
    evals = np.maximum(evals, 0.0)[:, np.newaxis, np.newaxis]
    hq, rq = basis.H @ evecs, rh @ evecs
    hty = hq.T @ y_h.data
    # ||Y_H - H Z||^2 = ||Y_H - H H^T Y_H||^2 + ||H^T Y_H - Z||^2, so the
    # data term is read on p planes of sites, past its constant floor.
    floor = float(((y_h.data - hq @ hty) ** 2).sum())
    hty = hty.reshape(p, y_h.height, y_h.width)
    pan_term = lam_m * (rq.T @ pan.data).reshape(p, h, w)
    norms = np.empty((h, w))

    def objective(u, blurred, pair):
        resid_m = pan.data - rq @ u.reshape(p, -1)
        return (
            0.5 * (floor + float(((hty - blurred) ** 2).sum()))
            + 0.5 * lam_m * float((resid_m**2).sum())
            + lam_phi * float(_joint_norms(pair, norms).sum())
        )

    u = (evecs.T @ _interpolated_coefficients(y_h, basis, ratio)).reshape(p, h, w)
    u_hat = spatial.forward(u)
    blurred = spatial.to_sites(u_hat)
    gram_hat = u_hat * spatial.blur_gram  # the transform of B^T B U
    pair = spatial.differences(u)  # D U, then the primal residual D U - V_D
    v_b, d_b = blurred.copy(), np.zeros_like(blurred)
    v_d, d_d = pair.copy(), np.zeros_like(pair)
    u_next, planes = np.empty_like(u), np.empty_like(u)
    rhs, coupling, den = u_hat, np.empty_like(u_hat), np.empty_like(u_hat)
    np.multiply(spatial.psi, mu, out=den)
    den += evals
    trace = [objective(u, blurred, pair)]
    converged = False
    iterations = 0
    escalations = 0

    for iterations in range(1, params.max_iters + 1):
        while True:
            # The U step: u_next, its transform times |beta|^2 in `rhs`,
            # its blurred sites and its differences.
            np.add(v_d, d_d, out=pair)
            spatial.differences_adjoint(pair, planes)
            planes *= mu
            planes += pan_term
            spatial.forward(planes, rhs)
            spatial.from_sites(v_b + d_b - blurred, coupling)
            coupling += gram_hat
            coupling *= mu
            rhs += coupling
            rhs /= den
            spatial.inverse(rhs, u_next)
            blurred_next = spatial.to_sites(rhs)
            rhs *= spatial.blur_gram
            spatial.differences(u_next, pair)
            value = objective(u_next, blurred_next, pair)
            if value <= trace[-1] * (1.0 + 1e-9) or escalations >= 30:
                break
            mu *= 2.0
            np.multiply(spatial.psi, mu, out=den)
            den += evals
            d_b /= 2.0
            d_d /= 2.0
            escalations += 1

        v_b = (hty + mu * (blurred_next - d_b)) / (1.0 + mu)
        d_b -= blurred_next - v_b
        np.subtract(pair, d_d, out=v_d)
        if lam_phi > 0:
            # The shrink 1 - t / max(norm, t) of each pixel's joint vector.
            t = lam_phi / mu
            np.maximum(_joint_norms(v_d, norms), t, out=norms)
            np.divide(t, norms, out=norms)
            np.subtract(1.0, norms, out=norms)
            v_d *= norms
        pair -= v_d
        d_d -= pair

        trace.append(value)
        np.subtract(u_next, u, out=planes)
        change = np.linalg.norm(planes) / max(np.linalg.norm(u), 1e-30)
        u, u_next = u_next, u
        gram_hat, rhs = rhs, gram_hat
        blurred = blurred_next
        if change < params.tol:
            converged = True
            break

    return HysureResult(
        U=evecs @ u.reshape(p, -1),
        objective_trace=np.array(trace),
        iterations=iterations,
        converged=converged,
    )


def hysure_stream(
    y_h: SpectralImage,
    pan: SpectralImage,
    basis: SubspaceBasis,
    model: SensorModel,
    rng: DynamicRange,
) -> BandStream:
    """Variational fusion under `default_hysure_params`, clipped to the
    dynamic range."""
    params = default_hysure_params(y_h, pan, basis, model)
    result = hysure_solve(y_h, pan, basis, model, params, boundary="reflect")
    fused = BandStream.product(pan.height, pan.width, basis.H, result.U, y_h.wavelengths)

    def fill(start, stop, out):
        fused.fill(start, stop, out)
        np.clip(out, rng.lo, rng.hi, out=out)

    return fused.refill(fill)


# ---------------------------------------------------------------------------
# Blind estimation of the blur taps and spectral response from an observed
# (Y_H, Y_M) pair.


# The estimator's smoothness weights on the taps and on each response row,
# and the relative objective change at which its alternations stop.
_LAMBDA_B = 1e-6
_LAMBDA_R = 1e-6
_TOL = 1e-6


@dataclass(frozen=True)
class SensorEstimate:
    kernel: BlurKernel
    response: np.ndarray
    objective_trace: np.ndarray


def _tap_matrix(support: int) -> np.ndarray:
    """Columns map symmetric free parameters (a_0 .. a_K) to full taps."""
    radius = support // 2
    m = np.zeros((support, radius + 1))
    m[radius, 0] = 1.0
    for q in range(1, radius + 1):
        m[radius - q, q] = 1.0
        m[radius + q, q] = 1.0
    return m


def _solve_taps_one_axis(
    target: np.ndarray,
    y_m_cube: np.ndarray,
    taps: np.ndarray,
    axis: int,
    ratio: int,
) -> np.ndarray:
    """Nonnegative least-squares update of the shared symmetric taps along
    one axis, holding the other axis's `degrade_axis` matrix at the current
    taps, normalized to unit sum. The K + 1 tap parameters a (taps T a) are
    the NNLS of the features (the image degraded once per column of T along
    this axis) over the target, stacked on sqrt(lambda_b) D T over zeros and
    the unit-sum row delta 1^T T over delta. Solving along axis -2 is
    solving along axis -1 of the transposed images."""
    support = taps.size
    if support == 1:
        return np.array([1.0])
    if axis == -2:
        target, y_m_cube = target.swapaxes(-1, -2), y_m_cube.swapaxes(-1, -2)
    height, width = y_m_cube.shape[-2:]
    tap_map = _tap_matrix(support)
    # The image degraded once per basis tap vector along this axis, as one
    # product with the basis axis matrices stacked.
    cols = np.concatenate([degrade_axis(width, t, ratio) for t in tap_map.T])
    low = separable(degrade_axis(height, taps, ratio), y_m_cube, cols)
    feats = [f.ravel() for f in np.split(low, tap_map.shape[1], axis=-1)]
    a = np.vstack([
        np.column_stack(feats),
        np.sqrt(_LAMBDA_B) * np.diff(tap_map, axis=0),
        _DELTA * tap_map.sum(axis=0),
    ])
    b = np.concatenate([target.ravel(), np.zeros(support - 1), [_DELTA]])
    full = tap_map @ nnls_columns(a, b[:, np.newaxis])[:, 0]
    total = full.sum()
    if total <= 0:
        raise ValueError("blur estimation collapsed to an empty kernel")
    return full / total


def estimate_sensor(
    y_h: SpectralImage,
    y_m: SpectralImage,
    kernel_support: int,
    max_alternations: int = 20,
) -> SensorEstimate:
    """Recover blur taps and spectral response from the observed pair by
    alternating nonnegative least squares (`cnmf.nnls_columns`) on

        || R Y_H - Y_M B S ||^2 + lambda_b |diff(taps)|^2
        + lambda_r |row diffs of R|^2

    with lambda_b = `_LAMBDA_B` and lambda_r = `_LAMBDA_R`. Each response row
    is the NNLS of [Y_H^T; sqrt(lambda_r) D] over [target^T; 0], an exact
    step, and the taps are kept symmetric with unit sum (see
    `_solve_taps_one_axis`), taken only if the objective does not rise. The
    rows of R are normalized to unit sum on return. The alternations stop
    when the objective changes by at most `_TOL` of itself.
    """
    width, rounds = kernel_support, max_alternations
    if not (is_integer(width) and width >= 1 and width % 2 == 1):
        raise ValueError(f"kernel support must be a positive odd width, got {width!r}")
    if not (is_integer(rounds) and rounds >= 1):
        raise ValueError(f"max_alternations must be an integer >= 1, got {rounds!r}")
    ratio = pair_ratio(y_h, y_m)
    if y_h.data.std() == 0 or y_m.data.std() == 0:
        raise ValueError("degenerate (constant) input image")
    m_lambda = y_h.bands
    n_lambda = y_m.bands
    y_m_cube = y_m.to_cube()
    smooth = np.sqrt(_LAMBDA_R) * np.diff(np.eye(m_lambda), axis=0)
    response_design = np.vstack([y_h.data.T, smooth])
    zeros = np.zeros((m_lambda - 1, n_lambda))

    taps = np.full(kernel_support, 1.0 / kernel_support)
    response = np.full((n_lambda, m_lambda), 1.0 / m_lambda)

    def objective(resp, t, low):
        resid = resp @ y_h.data - low
        pen_b = _LAMBDA_B * float((np.diff(t) ** 2).sum())
        pen_r = _LAMBDA_R * float((np.diff(resp, axis=1) ** 2).sum())
        return float((resid**2).sum()) + pen_b + pen_r

    target = degrade(y_m_cube, taps, ratio).reshape(n_lambda, -1)
    trace = [objective(response, taps, target)]
    for _ in range(max_alternations):
        response = nnls_columns(response_design, np.vstack([target.T, zeros])).T
        value = objective(response, taps, target)

        t2 = (response @ y_h.data).reshape(n_lambda, y_h.height, y_h.width)
        new_taps = _solve_taps_one_axis(t2, y_m_cube, taps, -1, ratio)
        new_taps = _solve_taps_one_axis(t2, y_m_cube, new_taps, -2, ratio)
        low = degrade(y_m_cube, new_taps, ratio).reshape(n_lambda, -1)
        tap_value = objective(response, new_taps, low)
        if tap_value <= value:
            taps, target, value = new_taps, low, tap_value

        trace.append(value)
        if abs(trace[-2] - trace[-1]) <= _TOL * max(abs(trace[-2]), 1e-30):
            break

    sums = response.sum(axis=1)
    if (sums <= 0).any():
        raise ValueError("response estimation collapsed to an empty row")
    response = response / sums[:, np.newaxis]
    return SensorEstimate(
        kernel=BlurKernel(taps),
        response=response,
        objective_trace=np.array(trace),
    )
