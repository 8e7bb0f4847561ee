"""Bayesian subspace fusion: naive Gaussian prior and vector-total-variation
(HySure-style) variants, plus blind estimation of the sensor blur and
spectral response.

The unknown image is modeled as X = H U with H an orthonormal spectral
basis learned from the hyperspectral data, so optimization runs over the
low-dimensional coefficient rows U.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh

from ..imgcore import DynamicRange, SpectralImage
from ..resample import upsample_data
from ..sensorsim import (
    BlurKernel,
    SensorModel,
    blur_downsample,
    default_phase,
    degrade,
    degrade_axis,
)

__all__ = [
    "SubspaceBasis",
    "BayesNaivePriors",
    "HySureParams",
    "SensorEstimate",
    "learn_subspace",
    "default_subspace_dim",
    "negative_log_posterior",
    "default_bayes_priors",
    "BayesNaiveResult",
    "bayes_naive_solve",
    "fuse_bayes_naive",
    "vtv",
    "default_hysure_params",
    "HysureResult",
    "hysure_solve",
    "fuse_hysure",
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


def learn_subspace(y_h: SpectralImage, p: int) -> SubspaceBasis:
    """Top-p left singular vectors of Y_H, sign-fixed so each column's
    largest-magnitude entry is positive."""
    p = int(p)
    if not 1 <= p <= y_h.bands:
        raise ValueError(f"subspace dim {p} out of range for {y_h.bands} bands")
    left, _, _ = np.linalg.svd(y_h.data, full_matrices=False)
    H = left[:, :p]
    signs = np.sign(H[np.abs(H).argmax(axis=0), np.arange(p)])
    return SubspaceBasis(H * np.where(signs == 0, 1.0, signs)[np.newaxis, :])


def default_subspace_dim(y_h: SpectralImage) -> int:
    """Singular-energy knee: smallest p capturing `_ENERGY` of the squared
    singular values, at most `_MAX_DIM`."""
    sing = np.linalg.svd(y_h.data, compute_uv=False)
    frac = np.cumsum(sing**2) / (sing**2).sum()
    p = int(np.searchsorted(frac, _ENERGY) + 1)
    return min(p, _MAX_DIM, y_h.bands)


# ---------------------------------------------------------------------------
# Naive Gaussian-prior solver on the Wald operator `sensorsim.degrade`.


def _noise_weights(model: SensorModel, bands: int) -> tuple[np.ndarray, float]:
    """Inverse noise weights; a zero (unknown) std falls back to unit weight."""
    stds = model.hs_noise_std
    if stds.size == 0:
        stds = np.zeros(bands)
    if stds.size != bands:
        raise ValueError(f"{stds.size} noise stds for {bands} bands")
    wh = np.where(stds > 0, 1.0 / np.where(stds > 0, stds, 1.0), 1.0)
    wm = 1.0 / model.pan_noise_std if model.pan_noise_std > 0 else 1.0
    return wh, wm


def negative_log_posterior(
    U: np.ndarray,
    y_h: SpectralImage,
    y_m: SpectralImage,
    model: SensorModel,
    basis: SubspaceBasis,
) -> float:
    """0.5||L_H^-1/2 (Y_H - HUBS)||^2 + 0.5||L_M^-1/2 (Y_M - RHU)||^2, with
    unit weights where a noise std is zero."""
    H = basis.H
    U = np.asarray(U, dtype=np.float64)
    wh, wm = _noise_weights(model, y_h.bands)
    x_cube = (H @ U).reshape(y_h.bands, y_m.height, y_m.width)
    low = degrade(x_cube, model.blur.taps, model.ratio)
    resid_h = (y_h.data - low.reshape(y_h.bands, -1)) * wh[:, np.newaxis]
    resid_m = (y_m.data - model.spectral_response @ (H @ U)) * wm
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
    """Bicubically interpolated Y_H projected onto the subspace (p x n)."""
    return basis.H.T @ upsample_data(y_h, ratio, "bicubic")


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
    ratio = model.ratio
    if (pan.height, pan.width) != (y_h.height * ratio, y_h.width * ratio):
        raise ValueError("PAN dims must equal ratio times the Y_H dims")
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
        return (qh.T @ field.reshape(p, pan.height, pan.width) @ qw).reshape(p, n)

    wh, wm = _noise_weights(model, y_h.bands)
    hw2 = (H * wh[:, np.newaxis] ** 2).T
    rh = (model.spectral_response @ H) * wm
    m_hs = hw2 @ H
    m_pan = rh.T @ rh
    hs_term = dh.T @ (hw2 @ y_h.data).reshape(p, y_h.height, y_h.width) @ dw
    data_term = to_eigenbasis(hs_term.reshape(p, n) + rh.T @ (pan.data * wm))

    mu = to_eigenbasis(priors.mu)
    sigma = priors.sigma
    U = mu
    for round_idx in range(sigma_rounds + 1):
        if round_idx > 0:
            delta = U - mu
            sigma = (delta @ delta.T) / n + 1e-6 * np.eye(p)
        sigma_inv = cho_solve(cho_factor(sigma), np.eye(p))
        gamma, v = eigh(m_hs, m_pan + sigma_inv)
        z = v.T @ (data_term + sigma_inv @ mu)
        U = v @ (z / (gamma[:, np.newaxis] * lam_k + 1.0))
    U = (qh @ U.reshape(p, pan.height, pan.width) @ qw.T).reshape(p, n)
    return BayesNaiveResult(U=U, sigma=sigma)


def fuse_bayes_naive(
    y_h: SpectralImage,
    pan: SpectralImage,
    model: SensorModel,
    basis: SubspaceBasis,
    sigma_rounds: int = 5,
) -> SpectralImage:
    """H U from `bayes_naive_solve` under the default priors."""
    result = bayes_naive_solve(y_h, pan, model, basis, sigma_rounds=sigma_rounds)
    return SpectralImage._adopt(
        pan.height, pan.width, basis.H @ result.U, y_h.wavelengths
    )


# ---------------------------------------------------------------------------
# Vector total variation and the HySure ADMM solver (cyclic boundary model).


def _tv_of_diffs(dh: np.ndarray, dv: np.ndarray) -> float:
    return float(np.sqrt((dh**2 + dv**2).sum(axis=0)).sum())


def _periodic_diff(cube: np.ndarray, axis: int, adjoint: bool = False) -> np.ndarray:
    """Forward difference x[i + 1] - x[i] along `axis` with wrap-around, or
    its adjoint x[i - 1] - x[i]."""
    return np.roll(cube, 1 if adjoint else -1, axis=axis) - cube


def _vtv_array(cube: np.ndarray) -> float:
    return _tv_of_diffs(_periodic_diff(cube, 2), _periodic_diff(cube, 1))


def vtv(img: SpectralImage) -> float:
    """Isotropic vector total variation with periodic differences: the sum
    over pixels of the joint gradient norm across all bands."""
    return _vtv_array(img.to_cube())


@dataclass(frozen=True)
class HySureParams:
    """Weights and ADMM settings for the variational solver."""

    lambda_m: float = 1.0
    lambda_phi: float = 5e-3
    admm_mu: float = 0.05
    tol: float = 1e-4
    max_iters: int = 200

    def __post_init__(self):
        if self.lambda_m <= 0 or self.admm_mu <= 0:
            raise ValueError("lambda_m and admm_mu must be positive")
        if self.lambda_phi < 0 or self.tol < 0:
            raise ValueError("lambda_phi and tol must be nonnegative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


def default_hysure_params(
    y_h: SpectralImage, pan: SpectralImage, basis: SubspaceBasis, model: SensorModel
) -> HySureParams:
    """Scale lambda_phi so the TV term starts at 5e-3 of the data terms.

    The data-term scale is taken at the interpolated initializer, minus the
    expected noise energy (which no estimate can remove), so the weight
    tracks the reducible misfit rather than the noise floor.
    """
    u0 = _interpolated_coefficients(y_h, basis, model.ratio)
    x0 = SpectralImage(pan.height, pan.width, basis.H @ u0)

    stds = model.hs_noise_std
    noise_floor = 0.0
    if stds.size:
        noise_floor += 0.5 * y_h.pixels * float((stds**2).sum())
    noise_floor += 0.5 * pan.pixels * model.pan_noise_std**2

    resid_h = y_h.data - blur_downsample(x0, model.blur, model.ratio).data
    resid_m = pan.data - model.spectral_response @ x0.data
    data_scale = 0.5 * float((resid_h**2).sum()) + 0.5 * float((resid_m**2).sum())
    reducible = max(data_scale - noise_floor, 0.05 * data_scale)
    tv0 = _vtv_array(u0.reshape(basis.p, pan.height, pan.width))
    lam = 5e-3 * reducible / max(tv0, 1e-12)
    return HySureParams(lambda_phi=max(lam, 1e-12))


@dataclass(frozen=True)
class HysureResult:
    U: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    converged: bool


def _cyclic_kernel_rfft(taps: np.ndarray, height: int, width: int) -> np.ndarray:
    """Half spectrum (rfft2, height x (width // 2 + 1)) of the cyclic blur."""
    radius = taps.size // 2
    kern2 = np.outer(taps, taps)
    grid = np.zeros((height, width))
    rows = np.arange(-radius, radius + 1) % height
    cols = np.arange(-radius, radius + 1) % width
    np.add.at(grid, (rows[:, np.newaxis], cols[np.newaxis, :]), kern2)
    return np.fft.rfft2(grid)


def hysure_solve(
    y_h: SpectralImage,
    pan: SpectralImage,
    basis: SubspaceBasis,
    model: SensorModel,
    params: HySureParams,
) -> HysureResult:
    """SALSA/ADMM minimization of

        0.5 ||Y_H - H U B S||^2 + (lambda_m / 2) ||P - R H U||^2
        + lambda_phi VTV(U)

    with cyclic convolution B diagonalized in the frequency domain and the
    decimation handled by a site mask. Three splittings: the blurred image,
    and the two periodic difference fields.

    U is real, so the frequency domain is the real half spectrum
    (rfft2/irfft2). Each iteration takes four transforms: two forward ones
    for the right-hand side (the blurred splitting is transformed alone so
    that B^T is a multiply), and two inverse ones giving U and B U from the
    one solved spectrum. The objective reuses B U and the difference
    fields the iteration computed instead of transforming again.
    """
    ratio = model.ratio
    h, w = pan.height, pan.width
    if (y_h.height * ratio, y_h.width * ratio) != (h, w):
        raise ValueError("PAN dims must equal ratio times the Y_H dims")
    p = basis.p
    H = basis.H
    phase = default_phase(ratio)
    mu = params.admm_mu
    lam_m, lam_phi = params.lambda_m, params.lambda_phi

    fb = _cyclic_kernel_rfft(model.blur.taps, h, w)
    fb_conj = np.conj(fb)
    mh = np.exp(2j * np.pi * np.fft.rfftfreq(w))[np.newaxis, :] - 1.0
    mv = np.exp(2j * np.pi * np.fft.fftfreq(h))[:, np.newaxis] - 1.0
    psi = (np.abs(fb) ** 2 + np.abs(mh) ** 2 + np.abs(mv) ** 2).ravel()

    rh = model.spectral_response @ H
    evals, evecs = np.linalg.eigh(lam_m * (rh.T @ rh))
    evals = np.maximum(evals, 0.0)

    sites = (slice(None), slice(phase, None, ratio), slice(phase, None, ratio))
    hty = (H.T @ y_h.data).reshape(p, y_h.height, y_h.width)
    pan_term = lam_m * (rh.T @ pan.data).reshape(p, h, w)

    def objective(u, ub, uh, uv):
        resid_h = y_h.data - H @ ub[sites].reshape(p, -1)
        resid_m = pan.data - rh @ u.reshape(p, -1)
        return (
            0.5 * float((resid_h**2).sum())
            + 0.5 * lam_m * float((resid_m**2).sum())
            + lam_phi * _tv_of_diffs(uh, uv)
        )

    u = _interpolated_coefficients(y_h, basis, ratio).reshape(p, h, w)
    v1 = np.fft.irfft2(np.fft.rfft2(u) * fb, s=(h, w))
    v2 = _periodic_diff(u, 2)
    v3 = _periodic_diff(u, 1)
    d1 = np.zeros_like(v1)
    d2 = np.zeros_like(v2)
    d3 = np.zeros_like(v3)
    trace = [objective(u, v1, v2, v3)]
    converged = False
    iterations = 0
    escalations = 0

    def iterate(v1, v2, v3, d1, d2, d3, mu):
        rhs_hat = np.fft.rfft2(
            pan_term
            + mu * _periodic_diff(v2 + d2, 2, adjoint=True)
            + mu * _periodic_diff(v3 + d3, 1, adjoint=True)
        ) + mu * fb_conj * np.fft.rfft2(v1 + d1)
        z = evecs.T @ rhs_hat.reshape(p, -1)
        z /= evals[:, np.newaxis] + mu * psi[np.newaxis, :]
        u_hat = (evecs @ z).reshape((p,) + fb.shape)
        u = np.fft.irfft2(u_hat, s=(h, w))
        ub = np.fft.irfft2(u_hat * fb, s=(h, w))

        nu1 = ub - d1
        v1 = nu1.copy()
        v1[sites] = (hty + mu * nu1[sites]) / (1.0 + mu)

        uh, uv = _periodic_diff(u, 2), _periodic_diff(u, 1)
        nu2 = uh - d2
        nu3 = uv - d3
        norms = np.sqrt((nu2**2 + nu3**2).sum(axis=0, keepdims=True))
        shrink = np.maximum(0.0, 1.0 - (lam_phi / mu) / np.where(norms > 0, norms, 1.0))
        shrink = np.where(norms > 0, shrink, 0.0)
        v2 = shrink * nu2
        v3 = shrink * nu3

        value = objective(u, ub, uh, uv)
        state = (u, v1, v2, v3, d1 - (ub - v1), d2 - (uh - v2), d3 - (uv - v3))
        return state, value

    for iterations in range(1, params.max_iters + 1):
        # A rising objective means the penalty is too weak for this problem:
        # roll back, double it (rescaling the scaled duals so the underlying
        # multipliers are unchanged), and retry. Keeps the recorded trace
        # non-increasing without altering the fixed points.
        while True:
            state, value = iterate(v1, v2, v3, d1, d2, d3, mu)
            if value <= trace[-1] * (1.0 + 1e-9) or escalations >= 30:
                break
            mu *= 2.0
            d1 /= 2.0
            d2 /= 2.0
            d3 /= 2.0
            escalations += 1
        u_prev = u
        u, v1, v2, v3, d1, d2, d3 = state

        trace.append(value)
        change = np.linalg.norm(u - u_prev) / max(np.linalg.norm(u_prev), 1e-30)
        if change < params.tol:
            converged = True
            break

    return HysureResult(
        U=u.reshape(p, -1),
        objective_trace=np.array(trace),
        iterations=iterations,
        converged=converged,
    )


def fuse_hysure(
    y_h: SpectralImage,
    pan: SpectralImage,
    basis: SubspaceBasis,
    model: SensorModel,
    rng: DynamicRange | None = None,
) -> SpectralImage:
    """Variational fusion under `default_hysure_params`; output optionally
    clipped to the dynamic range."""
    params = default_hysure_params(y_h, pan, basis, model)
    result = hysure_solve(y_h, pan, basis, model, params)
    fused = basis.H @ result.U
    if rng is not None:
        np.clip(fused, rng.lo, rng.hi, out=fused)
    return SpectralImage._adopt(pan.height, pan.width, fused, y_h.wavelengths)


# ---------------------------------------------------------------------------
# Blind estimation of the blur taps and spectral response from an observed
# (Y_H, Y_M) pair.


@dataclass(frozen=True)
class SensorEstimate:
    kernel: BlurKernel
    response: np.ndarray
    objective_trace: np.ndarray


def _first_diff_gram(size: int) -> np.ndarray:
    if size < 2:
        return np.zeros((size, size))
    d = np.diff(np.eye(size), axis=0)
    return d.T @ d


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
    lambda_b: float,
) -> np.ndarray:
    """Least-squares update of the shared symmetric taps along one axis,
    holding the other axis's `degrade_axis` matrix at the current taps;
    unit-sum enforced by eliminating the center tap. Solving along axis -2
    is solving along axis -1 of the transposed images."""
    support = taps.size
    if support == 1:
        return np.array([1.0])
    if axis == -2:
        target, y_m_cube = target.swapaxes(-1, -2), y_m_cube.swapaxes(-1, -2)
    height, width = y_m_cube.shape[-2:]
    fixed = degrade_axis(height, taps, ratio) @ y_m_cube
    tap_map = _tap_matrix(support)
    feats = np.array(
        [(fixed @ degrade_axis(width, t, ratio).T).ravel() for t in tap_map.T]
    )
    design = feats[1:] - 2.0 * feats[0]
    resid = target.ravel() - feats[0]
    diff_gram = _first_diff_gram(support)
    reduced = tap_map[:, 1:] - 2.0 * tap_map[:, [0]]
    base = tap_map[:, 0]
    gram = design @ design.T + lambda_b * (reduced.T @ diff_gram @ reduced)
    rhs = design @ resid - lambda_b * (reduced.T @ diff_gram @ base)
    coeffs = np.linalg.solve(gram, rhs)
    full = tap_map @ np.concatenate([[1.0 - 2.0 * coeffs.sum()], coeffs])
    full = np.maximum(full, 0.0)
    total = full.sum()
    if total <= 0:
        raise ValueError("blur estimation collapsed to an empty kernel")
    return full / total


def estimate_sensor(
    y_h: SpectralImage,
    y_m: SpectralImage,
    kernel_support: int,
    lambda_b: float = 1e-6,
    lambda_r: float = 1e-6,
    max_alternations: int = 20,
    tol: float = 1e-6,
) -> SensorEstimate:
    """Recover blur taps and spectral response from the observed pair by
    alternating regularized least squares on

        || R Y_H - Y_M B S ||^2 + lambda_b |diff(taps)|^2
        + lambda_r |row diffs of R|^2

    with R rows projected nonnegative (normalized to unit sum on return)
    and the taps kept symmetric with unit sum.
    """
    kernel_support = int(kernel_support)
    if kernel_support < 1 or kernel_support % 2 != 1:
        raise ValueError("kernel support must be a positive odd width")
    if lambda_b < 0 or lambda_r < 0:
        raise ValueError("regularization weights must be nonnegative")
    if y_m.height % y_h.height or y_m.width % y_h.width:
        raise ValueError("image dims do not give an integer scale ratio")
    ratio = y_m.height // y_h.height
    if y_m.width // y_h.width != ratio:
        raise ValueError("height and width ratios disagree")
    if y_h.data.std() == 0 or y_m.data.std() == 0:
        raise ValueError("degenerate (constant) input image")
    m_lambda = y_h.bands
    n_lambda = y_m.bands
    y_m_cube = y_m.to_cube()
    gram_h = y_h.data @ y_h.data.T + lambda_r * _first_diff_gram(m_lambda)

    taps = np.full(kernel_support, 1.0 / kernel_support)
    response = np.full((n_lambda, m_lambda), 1.0 / m_lambda)

    def degraded_ym(t):
        return degrade(y_m_cube, t, ratio).reshape(n_lambda, -1)

    def objective(resp, t):
        resid = resp @ y_h.data - degraded_ym(t)
        pen_b = lambda_b * float((np.diff(t) ** 2).sum())
        pen_r = lambda_r * float((np.diff(resp, axis=1) ** 2).sum())
        return float((resid**2).sum()) + pen_b + pen_r

    trace = [objective(response, taps)]
    for _ in range(max_alternations):
        target = degraded_ym(taps)
        candidate = np.linalg.solve(gram_h, y_h.data @ target.T).T
        candidate = np.maximum(candidate, 0.0)
        if objective(candidate, taps) <= objective(response, taps):
            response = candidate

        t2 = (response @ y_h.data).reshape(n_lambda, y_h.height, y_h.width)
        new_taps = _solve_taps_one_axis(t2, y_m_cube, taps, -1, ratio, lambda_b)
        new_taps = _solve_taps_one_axis(t2, y_m_cube, new_taps, -2, ratio, lambda_b)
        if objective(response, new_taps) <= objective(response, taps):
            taps = new_taps

        trace.append(objective(response, taps))
        if abs(trace[-2] - trace[-1]) <= tol * max(abs(trace[-2]), 1e-30):
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
