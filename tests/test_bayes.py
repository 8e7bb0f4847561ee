"""Subspace estimation, the Gaussian-prior solver, the variational solver,
and blind sensor estimation."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
from scipy.linalg import solve_sylvester

from hspansharp.fusion import bayes
from hspansharp.harness.bench import reference_scene, run_method, wald_inputs
from hspansharp.harness.config import RunConfig
from hspansharp.harness.scene import synth_scene
from hspansharp.imgcore import DynamicRange, SpectralImage
from hspansharp.metrics import ergas
from hspansharp.resample import upsample
from hspansharp.sensorsim import (
    SensorModel,
    blur_downsample,
    default_phase,
    degrade,
    degrade_axis,
    kernel_from_mtf,
)
from hspansharp.fusion.bayes import (
    BayesNaivePriors,
    HySureParams,
    SubspaceBasis,
    bayes_naive_solve,
    bayes_naive_stream,
    default_bayes_priors,
    default_hysure_params,
    estimate_sensor,
    hysure_solve,
    hysure_stream,
    learn_subspace,
    negative_log_posterior,
    vtv,
)

from oracles import (
    neumann_differences,
    neumann_differences_adjoint,
    oracle_bayes_naive_system,
    oracle_blur_downsample,
    oracle_hysure_full_grid_loop,
    oracle_hysure_loop,
    oracle_vtv,
    periodic_differences,
    periodic_differences_adjoint,
)


def random_basis(bands, p, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(bands, p)))
    return SubspaceBasis(q)


def smooth_coefficients(p, height, width, ratio, seed, offset=2.0):
    """Coefficient field interpolated from a coarse grid, so it varies
    smoothly instead of pixel to pixel."""
    rng = np.random.default_rng(seed)
    coarse = SpectralImage(
        height // ratio,
        width // ratio,
        rng.normal(size=(p, (height // ratio) * (width // ratio))),
    )
    return upsample(coarse, ratio, "bicubic").data + offset


class TestSubspaceBasis:
    def test_orthonormal_accepted(self):
        basis = random_basis(6, 3, 0)
        assert basis.p == 3
        assert basis.H.shape == (6, 3)
        assert not basis.H.flags.writeable

    def test_identity_columns(self):
        basis = SubspaceBasis(np.eye(4)[:, :2])
        assert basis.p == 2

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError):
            SubspaceBasis(np.ones((5, 2)))

    def test_wide_rejected(self):
        with pytest.raises(ValueError):
            SubspaceBasis(np.eye(3, 5))

    def test_one_dim_rejected(self):
        with pytest.raises(ValueError):
            SubspaceBasis(np.ones(4))


class TestLearnSubspace:
    def test_recovers_low_rank_span(self):
        rng = np.random.default_rng(1)
        h0, _ = np.linalg.qr(rng.normal(size=(8, 3)))
        coeff = rng.uniform(1.0, 2.0, (3, 100))
        y = SpectralImage(10, 10, h0 @ coeff)
        basis = learn_subspace(y, 3)
        # projecting the true directions onto the learned span loses nothing
        proj = basis.H @ (basis.H.T @ h0)
        assert np.abs(proj - h0).max() <= 1e-8

    def test_columns_orthonormal(self):
        rng = np.random.default_rng(2)
        y = SpectralImage(6, 6, rng.uniform(0.0, 1.0, (7, 36)))
        basis = learn_subspace(y, 4)
        gram = basis.H.T @ basis.H
        assert np.abs(gram - np.eye(4)).max() <= 1e-12

    def test_sign_convention(self):
        rng = np.random.default_rng(3)
        y = SpectralImage(6, 6, rng.normal(size=(7, 36)))
        basis = learn_subspace(y, 5)
        for k in range(basis.p):
            col = basis.H[:, k]
            assert col[np.abs(col).argmax()] > 0

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        y = SpectralImage(5, 5, rng.normal(size=(6, 25)))
        a = learn_subspace(y, 3)
        b = learn_subspace(y, 3)
        assert np.array_equal(a.H, b.H)

    @pytest.mark.parametrize("p", [0, -1, 9])
    def test_dim_out_of_range(self, p):
        y = SpectralImage(4, 4, np.random.default_rng(5).normal(size=(8, 16)))
        with pytest.raises(ValueError):
            learn_subspace(y, p)


class TestDefaultSubspaceDim:
    def test_exact_rank_detected(self):
        rng = np.random.default_rng(6)
        h0, _ = np.linalg.qr(rng.normal(size=(9, 3)))
        y = SpectralImage(8, 8, h0 @ rng.uniform(1.0, 2.0, (3, 64)))
        assert learn_subspace(y).p == 3

    def test_cap_applies(self):
        # Noise spreads its energy over all 20 directions.
        rng = np.random.default_rng(7)
        y = SpectralImage(10, 10, rng.normal(size=(20, 100)))
        assert learn_subspace(y).p == 10

    def test_never_exceeds_bands(self):
        rng = np.random.default_rng(8)
        y = SpectralImage(10, 10, rng.normal(size=(3, 100)))
        assert learn_subspace(y).p == 3

    @pytest.mark.parametrize(
        "sing, knee",
        [([10.0, 3.0, 1.0, 0.1, 0.01], 3), ([10.0, 0.6, 0.5, 0.4, 0.1], 4)],
    )
    def test_knee_of_given_spectrum(self, sing, knee):
        # Y = Q diag(sing) V^T: the knee is the smallest p whose squared
        # singular values reach 0.999 of their sum, and the basis spans the
        # first p columns of Q.
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.normal(size=(6, 5)))
        v, _ = np.linalg.qr(rng.normal(size=(64, 5)))
        y = SpectralImage(8, 8, q @ np.diag(sing) @ v.T)
        energy = np.cumsum(np.square(sing)) / np.square(sing).sum()
        assert energy[knee - 2] < 0.999 <= energy[knee - 1]
        basis = learn_subspace(y)
        assert basis.p == knee
        assert np.abs(basis.H @ (basis.H.T @ q[:, :knee]) - q[:, :knee]).max() <= 1e-10


class TestWaldOperatorAdjoint:
    # Ids are ratio-phase, the phase being `default_phase(ratio)`.
    @pytest.mark.parametrize(
        "ratio,size",
        [
            pytest.param(2, 8, id="2-1"),
            pytest.param(3, 12, id="3-1"),
            pytest.param(4, 16, id="4-2"),
            # Kernel radius 9 on a 5-pixel grid: reflection wraps repeatedly.
            pytest.param(5, 5, id="5-2-below-radius"),
        ],
    )
    def test_inner_product_identity(self, ratio, size):
        rng = np.random.default_rng(9)
        taps = kernel_from_mtf(ratio, 0.4).taps
        cube = rng.normal(size=(3, size, size))
        fwd = oracle_blur_downsample(cube, taps, ratio, default_phase(ratio))
        assert np.abs(degrade(cube, taps, ratio) - fwd).max() <= 1e-12
        probe = rng.normal(size=fwd.shape)
        axis = degrade_axis(size, taps, ratio)
        back = axis.T @ probe @ axis
        lhs = float(np.sum(fwd * probe))
        rhs = float(np.sum(cube * back))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_forward_matches_blur_downsample(self):
        rng = np.random.default_rng(10)
        kernel = kernel_from_mtf(3, 0.3)
        img = SpectralImage(12, 12, rng.normal(size=(4, 144)))
        fwd = degrade(img.to_cube(), kernel.taps, 3)
        ref = blur_downsample(img, kernel, 3)
        assert np.abs(fwd.reshape(4, -1) - ref.data).max() <= 1e-12


class TestNegativeLogPosterior:
    def setup_instance(self, hs_std, pan_std):
        rng = np.random.default_rng(11)
        ratio, h, w, bands, p = 2, 8, 8, 5, 2
        basis = random_basis(bands, p, 12)
        x = SpectralImage(h, w, rng.uniform(0.0, 1.0, (bands, h * w)))
        kernel = kernel_from_mtf(ratio, 0.4)
        resp = np.full((1, bands), 1.0 / bands)
        model = SensorModel(
            ratio, kernel, resp, hs_noise_std=hs_std, pan_noise_std=pan_std
        )
        y_h = blur_downsample(x, kernel, ratio)
        pan = SpectralImage(h, w, resp @ x.data)
        u = rng.normal(size=(p, h * w))
        return u, y_h, pan, model, basis

    def oracle_value(self, u, y_h, pan, model, basis, wh, wm):
        x = SpectralImage(
            pan.height, pan.width, basis.H @ u
        )
        low = oracle_blur_downsample(
            x.to_cube(), model.blur.taps, model.ratio, model.ratio // 2
        )
        resid_h = (y_h.data - low.reshape(y_h.bands, -1)) * wh[:, np.newaxis]
        resid_m = (pan.data - model.spectral_response @ (basis.H @ u)) * wm
        return 0.5 * float((resid_h**2).sum()) + 0.5 * float((resid_m**2).sum())

    def test_matches_dense_oracle_unit_weights(self):
        u, y_h, pan, model, basis = self.setup_instance(None, 0.0)
        value = negative_log_posterior(u, y_h, pan, model, basis)
        expected = self.oracle_value(
            u, y_h, pan, model, basis, np.ones(y_h.bands), 1.0
        )
        assert abs(value - expected) <= 1e-12 * max(abs(expected), 1.0)

    def test_matches_dense_oracle_weighted(self):
        hs_std = np.array([0.1, 0.2, 0.1, 0.4, 0.5])
        u, y_h, pan, model, basis = self.setup_instance(hs_std, 0.05)
        value = negative_log_posterior(u, y_h, pan, model, basis)
        expected = self.oracle_value(
            u, y_h, pan, model, basis, 1.0 / hs_std, 1.0 / 0.05
        )
        assert abs(value - expected) <= 1e-12 * max(abs(expected), 1.0)

    def test_tiny_stds_are_floored(self):
        # A positive std below 1e-6 of its image's RMS weighs as that floor,
        # and a zero std keeps unit weight.
        hs_std = np.array([1e-12, 0.2, 0.0, 1e-9, 0.5])
        u, y_h, pan, model, basis = self.setup_instance(hs_std, 1e-15)
        floor_h = 1e-6 * np.sqrt((y_h.data**2).mean())
        floor_m = 1e-6 * np.sqrt((pan.data**2).mean())
        wh = np.array([1.0 / floor_h, 1.0 / 0.2, 1.0, 1.0 / floor_h, 1.0 / 0.5])
        value = negative_log_posterior(u, y_h, pan, model, basis)
        expected = self.oracle_value(u, y_h, pan, model, basis, wh, 1.0 / floor_m)
        assert abs(value - expected) <= 1e-12 * max(abs(expected), 1.0)

    def test_zero_residual_in_subspace(self):
        rng = np.random.default_rng(13)
        ratio, h, w, bands, p = 2, 8, 8, 5, 2
        basis = random_basis(bands, p, 14)
        u = rng.uniform(0.5, 1.5, (p, h * w))
        x = SpectralImage(h, w, basis.H @ u)
        kernel = kernel_from_mtf(ratio, 0.4)
        resp = np.full((1, bands), 1.0 / bands)
        model = SensorModel(ratio, kernel, resp)
        y_h = blur_downsample(x, kernel, ratio)
        pan = SpectralImage(h, w, resp @ x.data)
        assert negative_log_posterior(u, y_h, pan, model, basis) <= 1e-18


class TestBayesNaivePriors:
    def test_valid(self):
        priors = BayesNaivePriors(np.zeros((2, 9)), np.eye(2))
        assert not priors.mu.flags.writeable
        assert not priors.sigma.flags.writeable

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            BayesNaivePriors(np.zeros((2, 9)), np.eye(3))

    def test_asymmetric_rejected(self):
        sigma = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            BayesNaivePriors(np.zeros((2, 9)), sigma)

    def test_not_positive_definite_rejected(self):
        sigma = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            BayesNaivePriors(np.zeros((2, 9)), sigma)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        mu = np.zeros((2, 9))
        mu[1, 4] = bad
        with pytest.raises(ValueError, match="must be finite"):
            BayesNaivePriors(mu, np.eye(2))
        sigma = np.eye(2)
        sigma[0, 0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            BayesNaivePriors(np.zeros((2, 9)), sigma)

    def test_default_priors(self):
        rng = np.random.default_rng(15)
        basis = random_basis(5, 2, 16)
        y_h = SpectralImage(4, 4, rng.uniform(0.0, 1.0, (5, 16)))
        priors = default_bayes_priors(y_h, basis, 2)
        expected_mu = basis.H.T @ upsample(y_h, 2, "bicubic").data
        assert np.abs(priors.mu - expected_mu).max() <= 1e-12
        # isotropic covariance scaled to the mean field
        off_diag = priors.sigma - np.diag(np.diag(priors.sigma))
        assert np.abs(off_diag).max() == 0.0
        assert priors.sigma[0, 0] == priors.sigma[1, 1] > 0


def naive_system(y_h, pan, model, basis, priors):
    """Dense normal equations of `bayes_naive_solve`'s posterior; a zero
    noise std stands for unit weight, as in the solver."""
    return oracle_bayes_naive_system(
        y_h.data,
        pan.data,
        basis.H,
        model.spectral_response,
        model.blur.taps,
        model.ratio,
        default_phase(model.ratio),
        pan.height,
        pan.width,
        np.where(model.hs_noise_std > 0, model.hs_noise_std, 1.0),
        model.pan_noise_std or 1.0,
        priors.mu,
        priors.sigma,
    )


def normal_residual(U, y_h, pan, model, basis, priors):
    """Relative residual of U in the dense normal equations."""
    matrix, rhs = naive_system(y_h, pan, model, basis, priors)
    return np.linalg.norm(matrix @ U.ravel() - rhs) / np.linalg.norm(rhs)


class TestBayesNaiveSolve:
    def make_generic(self, seed=17, p=2):
        rng = np.random.default_rng(seed)
        ratio, h, w, bands = 2, 12, 12, 5
        basis = random_basis(bands, p, seed + 1)
        x = SpectralImage(h, w, rng.uniform(0.0, 1.0, (bands, h * w)))
        kernel = kernel_from_mtf(ratio, 0.4)
        resp = np.full((1, bands), 1.0 / bands)
        model = SensorModel(ratio, kernel, resp)
        y_h = blur_downsample(x, kernel, ratio)
        pan = SpectralImage(h, w, resp @ x.data)
        return y_h, pan, model, basis

    def test_prior_dominated_limit(self):
        y_h, pan, model, basis = self.make_generic()
        rng = np.random.default_rng(18)
        mu = rng.normal(size=(basis.p, pan.pixels))
        priors = BayesNaivePriors(mu, np.eye(basis.p) * 1e-12)
        result = bayes_naive_solve(
            y_h, pan, model, basis, priors=priors, sigma_rounds=0
        )
        assert np.abs(result.U - mu).max() <= 1e-9

    def test_in_subspace_recovery(self):
        ratio, h, w, bands, p = 4, 32, 32, 8, 2
        rng = np.random.default_rng(19)
        basis = random_basis(bands, p, 20)
        u_true = smooth_coefficients(p, h, w, ratio, 21)
        x = SpectralImage(h, w, basis.H @ u_true)
        kernel = kernel_from_mtf(ratio, 0.3)
        resp = np.abs(rng.normal(size=(2, bands))) + 0.1
        resp /= resp.sum(axis=1, keepdims=True)
        model = SensorModel(ratio, kernel, resp)
        y_h = blur_downsample(x, kernel, ratio)
        pan = SpectralImage(h, w, resp @ x.data)
        priors = BayesNaivePriors(
            np.zeros((p, h * w)), np.eye(p) * 1e6
        )
        result = bayes_naive_solve(
            y_h, pan, model, basis, priors=priors, sigma_rounds=0
        )
        rel = np.linalg.norm(result.U - u_true) / np.linalg.norm(u_true)
        assert rel <= 1e-3
        assert normal_residual(result.U, y_h, pan, model, basis, priors) <= 1e-10

    def test_normal_equations_hold(self):
        y_h, pan, model, basis = self.make_generic()
        priors = default_bayes_priors(y_h, basis, model.ratio)
        result = bayes_naive_solve(y_h, pan, model, basis, sigma_rounds=0)
        assert normal_residual(result.U, y_h, pan, model, basis, priors) <= 1e-10

    @pytest.mark.parametrize(
        "ratio,size",
        [
            pytest.param(2, 8, id="2"),
            pytest.param(3, 9, id="3"),
            pytest.param(4, 8, id="4"),
            # Kernel radius 9 on a 5-pixel grid: reflection wraps repeatedly.
            pytest.param(5, 5, id="5-below-radius"),
        ],
    )
    def test_matches_dense_oracle(self, ratio, size):
        rng = np.random.default_rng(40 + ratio)
        bands, p = 6, 3
        basis = random_basis(bands, p, 41)
        resp = rng.uniform(0.1, 1.0, (2, bands))
        resp /= resp.sum(axis=1, keepdims=True)
        model = SensorModel(
            ratio,
            kernel_from_mtf(ratio, 0.3),
            resp,
            hs_noise_std=rng.uniform(0.01, 0.05, bands),
            pan_noise_std=0.02,
        )
        x = SpectralImage(size, size, rng.uniform(0.0, 1.0, (bands, size * size)))
        y_h = blur_downsample(x, model.blur, ratio)
        pan = SpectralImage(size, size, resp @ x.data)
        a = rng.normal(size=(p, p))
        priors = BayesNaivePriors(
            rng.normal(size=(p, size * size)), 0.05 * (a @ a.T + 0.5 * np.eye(p))
        )
        result = bayes_naive_solve(
            y_h, pan, model, basis, priors=priors, sigma_rounds=0
        )
        matrix, rhs = naive_system(y_h, pan, model, basis, priors)
        expected = np.linalg.solve(matrix, rhs).reshape(p, -1)
        rel = np.linalg.norm(result.U - expected) / np.linalg.norm(expected)
        assert rel <= 1e-10

    @pytest.mark.parametrize("ratio", [2, 3, 4, 5])
    def test_generalized_eigh_matches_scipy(self, ratio, monkeypatch):
        # The Cholesky-reduced p x p pencil solve gives the same fused
        # coefficients as scipy's generalized eigh, through every sigma round.
        config = RunConfig(height=12 * ratio, width=12 * ratio, seed=ratio, ratio=ratio)
        y_h, pan, model = wald_inputs(reference_scene(config), config)
        basis = learn_subspace(y_h)
        got = bayes_naive_solve(y_h, pan, model, basis).U
        monkeypatch.setattr(bayes, "_generalized_eigh", scipy.linalg.eigh)
        want = bayes_naive_solve(y_h, pan, model, basis).U
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_sigma_refit_changes_covariance(self):
        y_h, pan, model, basis = self.make_generic()
        r0 = bayes_naive_solve(y_h, pan, model, basis, sigma_rounds=0)
        r2 = bayes_naive_solve(y_h, pan, model, basis, sigma_rounds=2)
        assert not np.allclose(r0.sigma, r2.sigma)
        assert np.allclose(r2.sigma, r2.sigma.T)
        assert np.linalg.eigvalsh(r2.sigma)[0] > 0

    def test_dense_prior_covariance_is_stationary(self):
        # A non-diagonal prior covariance: a wrong or transposed Sigma^-1
        # moves the solution off the posterior's stationary point.
        y_h, pan, model, basis = self.make_generic(seed=32, p=3)
        rng = np.random.default_rng(34)
        a = rng.normal(size=(3, 3))
        sigma = 0.05 * (a @ a.T + 0.5 * np.eye(3))
        priors = BayesNaivePriors(rng.normal(size=(3, pan.pixels)), sigma)
        result = bayes_naive_solve(
            y_h, pan, model, basis, priors=priors, sigma_rounds=0
        )
        sigma_inv = np.linalg.inv(sigma)

        def objective(u):
            data = negative_log_posterior(u, y_h, pan, model, basis)
            d = u - priors.mu
            return data + 0.5 * float(np.einsum("ij,ij->", sigma_inv @ d, d))

        coords = [(0, 5), (1, 40), (2, 77), (0, 100), (1, 131), (2, 143)]
        eps = 1e-5

        def spot_gradient(u):
            out = []
            for i, j in coords:
                up = u.copy()
                down = u.copy()
                up[i, j] += eps
                down[i, j] -= eps
                out.append((objective(up) - objective(down)) / (2 * eps))
            return np.abs(np.array(out))

        ratio_fd = spot_gradient(result.U).max() / spot_gradient(priors.mu).max()
        assert ratio_fd <= 1e-6

    def test_fuse_wrapper_carries_geometry(self):
        y_h, pan, model, basis = self.make_generic()
        wavelengths = np.linspace(0.4, 0.9, y_h.bands)
        y_h = SpectralImage(y_h.height, y_h.width, y_h.data, wavelengths)
        fused = bayes_naive_stream(y_h, pan, model, basis, sigma_rounds=1).image()
        assert (fused.height, fused.width, fused.bands) == (
            pan.height,
            pan.width,
            y_h.bands,
        )
        assert np.array_equal(fused.wavelengths, wavelengths)


class TestVtv:
    def test_constant_is_exactly_zero(self):
        img = SpectralImage(5, 7, np.full((3, 35), 2.5))
        assert vtv(img) == 0.0

    def test_step_edge_hand_value(self):
        # One vertical step of height 1.5 across a 6-row image. Periodic
        # differences see the jump twice, at the edge and at the wrap.
        arr = np.zeros((1, 6, 8))
        arr[:, :, 4:] = 1.5
        img = SpectralImage(6, 8, arr.reshape(1, -1))
        assert vtv(img) == 2 * 6 * 1.5

    def test_matches_oracle(self):
        rng = np.random.default_rng(22)
        img = SpectralImage(7, 9, rng.normal(size=(4, 63)))
        expected = oracle_vtv(img.to_cube())
        assert abs(vtv(img) - expected) <= 1e-10 * max(abs(expected), 1.0)

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(23)
        img = SpectralImage(6, 6, rng.normal(size=(3, 36)))
        scaled = img.with_data(img.data * -3.5)
        assert abs(vtv(scaled) - 3.5 * vtv(img)) <= 1e-9 * vtv(img)

    def test_shift_invariance(self):
        rng = np.random.default_rng(24)
        cube = rng.normal(size=(2, 6, 8))
        rolled = np.roll(cube, 3, axis=2)
        a = vtv(SpectralImage(6, 8, cube.reshape(2, -1)))
        b = vtv(SpectralImage(6, 8, rolled.reshape(2, -1)))
        assert abs(a - b) <= 1e-10 * a


class TestHySureParams:
    def test_defaults_valid(self):
        params = HySureParams()
        assert params.lambda_m > 0
        assert params.admm_mu > 0

    def test_zero_smoothness_weight_accepted(self):
        assert HySureParams(lambda_phi=0.0).lambda_phi == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lambda_m": 0.0},
            {"lambda_m": -1.0},
            {"lambda_phi": -1e-9},
            {"admm_mu": 0.0},
            {"tol": -1e-3},
            {"max_iters": 0},
            # A NaN tol would otherwise run the whole budget unconverged.
            *({field: bad} for bad in (np.nan, np.inf)
              for field in ("lambda_m", "lambda_phi", "admm_mu", "tol")),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HySureParams(**kwargs)

    def test_default_params_positive(self):
        rng = np.random.default_rng(25)
        basis = random_basis(5, 2, 26)
        y_h = SpectralImage(6, 6, rng.uniform(0.0, 1.0, (5, 36)))
        pan = SpectralImage(12, 12, rng.uniform(0.0, 1.0, (1, 144)))
        model = SensorModel(2, kernel_from_mtf(2, 0.3), np.full((1, 5), 0.2))
        params = default_hysure_params(y_h, pan, basis, model)
        assert params.lambda_phi > 0
        assert np.isfinite(params.lambda_phi)


def ratio_one_instance(noise=0.01, seed=42, h=16, w=16):
    """Observation grid without decimation whose quadratic objective has a
    closed-form minimizer, reachable by a dense Sylvester solve."""
    rng = np.random.default_rng(seed)
    n = h * w
    bands, p = 6, 2
    q, _ = np.linalg.qr(rng.normal(size=(bands, p)))
    basis = SubspaceBasis(q)
    u_true = rng.uniform(0.2, 1.0, (p, n))
    x = q @ u_true
    kernel = kernel_from_mtf(2, 0.5)
    model = SensorModel(1, kernel, np.full((1, bands), 1.0 / bands))

    taps = kernel.taps
    radius = taps.size // 2

    def circulant(size):
        mat = np.zeros((size, size))
        for i in range(size):
            for t in range(-radius, radius + 1):
                mat[i, (i + t) % size] += taps[t + radius]
        return mat

    blur_mat = np.kron(circulant(h), circulant(w))
    y_h_data = q @ (u_true @ blur_mat.T) + noise * rng.normal(size=(bands, n))
    pan_data = model.spectral_response @ x + noise * rng.normal(size=(1, n))
    y_h = SpectralImage(h, w, y_h_data)
    pan = SpectralImage(h, w, pan_data)
    return y_h, pan, basis, model, blur_mat


def sylvester_optimum(y_h, pan, basis, model, blur_mat, lambda_m):
    rh = model.spectral_response @ basis.H
    lhs_spec = lambda_m * (rh.T @ rh)
    lhs_spat = blur_mat @ blur_mat.T
    rhs = basis.H.T @ y_h.data @ blur_mat.T + lambda_m * (rh.T @ pan.data)
    return solve_sylvester(lhs_spec, lhs_spat, rhs)


class TestHysureSolve:
    # Odd widths leave the real half spectrum without a Nyquist column, so
    # the inverse transforms must be told the grid shape.
    @pytest.mark.parametrize("h,w", [(16, 16), (12, 15), (9, 13)])
    def test_matches_dense_least_squares(self, h, w):
        y_h, pan, basis, model, blur_mat = ratio_one_instance(h=h, w=w)
        u_opt = sylvester_optimum(y_h, pan, basis, model, blur_mat, 1.0)
        params = HySureParams(
            lambda_m=1.0, lambda_phi=0.0, admm_mu=0.01, tol=0.0, max_iters=5000
        )
        result = hysure_solve(y_h, pan, basis, model, params)
        rel = np.linalg.norm(result.U - u_opt) / np.linalg.norm(u_opt)
        assert rel <= 1e-3

    def make_noisy_scene(self, seed=27):
        rng = np.random.default_rng(seed)
        ratio, h, w, bands, p = 2, 16, 16, 6, 2
        basis = random_basis(bands, p, seed + 1)
        u_true = smooth_coefficients(p, h, w, ratio, seed + 2)
        x = SpectralImage(h, w, basis.H @ u_true)
        kernel = kernel_from_mtf(ratio, 0.3)
        resp = np.full((1, bands), 1.0 / bands)
        model = SensorModel(ratio, kernel, resp)
        y_h = blur_downsample(x, kernel, ratio)
        noisy = y_h.with_data(y_h.data + 0.01 * rng.normal(size=y_h.data.shape))
        pan_data = resp @ x.data + 0.01 * rng.normal(size=(1, h * w))
        return noisy, SpectralImage(h, w, pan_data), basis, model

    def test_objective_trace_non_increasing(self):
        y_h, pan, basis, model = self.make_noisy_scene()
        params = HySureParams(tol=0.0, max_iters=150)
        result = hysure_solve(y_h, pan, basis, model, params)
        trace = result.objective_trace
        assert trace.size == 151
        diffs = np.diff(trace)
        assert (diffs <= 1e-7 * np.abs(trace[:-1])).all()

    def test_converged_flag_and_iterations(self):
        y_h, pan, basis, model = self.make_noisy_scene()
        result = hysure_solve(
            y_h, pan, basis, model, HySureParams(tol=1e-3, max_iters=500)
        )
        assert result.converged
        assert result.iterations < 500
        assert result.U.shape == (basis.p, pan.pixels)

    def test_fuse_wrapper_clips_and_carries_wavelengths(self):
        y_h, pan, basis, model = self.make_noisy_scene()
        wavelengths = np.linspace(0.4, 0.9, y_h.bands)
        y_h = SpectralImage(y_h.height, y_h.width, y_h.data, wavelengths)
        bounds = DynamicRange(0.2, 0.6)
        fused = hysure_stream(y_h, pan, basis, model, rng=bounds).image()
        assert fused.data.min() >= bounds.lo
        assert fused.data.max() <= bounds.hi
        assert np.array_equal(fused.wavelengths, wavelengths)

    def test_pan_dims_must_match_model(self):
        y_h, pan, basis, model = self.make_noisy_scene()
        bad = SpectralImage(18, 18, np.zeros((1, 324)))
        with pytest.raises(ValueError):
            hysure_solve(y_h, bad, basis, model, HySureParams(max_iters=2))


def wald_hysure_case(seed, snr_db, **changes):
    """A default-size Wald pair (100 x 100 x 40, ratio 5) with the basis and
    parameters `hysure_stream` would use, `changes` applied to them."""
    config = RunConfig(seed=seed, snr_db=snr_db).validate()
    y_h, pan, model = wald_inputs(reference_scene(config), config)
    basis = learn_subspace(y_h)
    params = default_hysure_params(y_h, pan, basis, model)
    return y_h, pan, basis, model, replace(params, **changes)


def noisy_hysure_case(**changes):
    y_h, pan, basis, model = TestHysureSolve().make_noisy_scene()
    return y_h, pan, basis, model, HySureParams(**changes)


def ratio_one_hysure_case():
    y_h, pan, basis, model, _ = ratio_one_instance()
    params = HySureParams(lambda_m=1.0, lambda_phi=0.0, admm_mu=0.01, tol=0.0, max_iters=300)
    return y_h, pan, basis, model, params


LOOP_CASES = pytest.mark.parametrize(
    "case, stops, escalates",
    [
        (lambda: wald_hysure_case(0, None), "early", True),
        (lambda: noisy_hysure_case(), "early", False),
        (ratio_one_hysure_case, "budget", True),
        (lambda: wald_hysure_case(0, 30.0, max_iters=20), "budget", True),
    ],
    ids=["wald-escalates", "tol-1e-4", "ratio-1", "whole-budget"],
)


DIFFERENCE_PAIRS = {
    "cyclic": (periodic_differences, periodic_differences_adjoint),
    "reflect": (neumann_differences, neumann_differences_adjoint),
}


def run_loop_oracle(y_h, pan, basis, model, params, boundary="cyclic"):
    """`oracle_hysure_loop` on the per-axis bases of the `boundary` model,
    with the blur's eigenvalues formed as the solver forms them, so that
    the two agree bit for bit."""
    ratio, (h, w) = model.ratio, (pan.height, pan.width)
    u0 = bayes._interpolated_coefficients(y_h, basis, ratio).reshape(basis.p, h, w)
    factory = bayes._BOUNDARIES[boundary][0]
    axes = []
    for n in (h, w):
        q, blur, eig = factory(n, model.blur.taps)
        axes.append((q, ((q @ blur) * q).sum(axis=1), eig))
    return oracle_hysure_loop(
        y_h.data, pan.data, basis.H, model.spectral_response, u0, axes,
        DIFFERENCE_PAIRS[boundary], ratio, default_phase(ratio),
        params.lambda_m, params.lambda_phi, params.admm_mu, params.tol, params.max_iters,
    )


def run_full_grid_oracle(y_h, pan, basis, model, params):
    ratio, (h, w) = model.ratio, (pan.height, pan.width)
    u0 = bayes._interpolated_coefficients(y_h, basis, ratio).reshape(basis.p, h, w)
    return oracle_hysure_full_grid_loop(
        y_h.data, pan.data, basis.H, model.spectral_response, u0, model.blur.taps,
        ratio, default_phase(ratio), params.lambda_m, params.lambda_phi,
        params.admm_mu, params.tol, params.max_iters,
    )


class TestHysureLoopOracle:
    @LOOP_CASES
    def test_bit_identical_to_rollback_loop(self, case, stops, escalates):
        y_h, pan, basis, model, params = case()
        result = hysure_solve(y_h, pan, basis, model, params)
        U, trace, iterations, converged, escalations = run_loop_oracle(
            y_h, pan, basis, model, params
        )
        np.testing.assert_array_equal(result.U, U)
        np.testing.assert_array_equal(result.objective_trace, trace)
        assert (result.iterations, result.converged) == (iterations, converged)
        # Each case takes the path it is named for.
        assert converged == (stops == "early")
        assert (iterations == params.max_iters) == (stops == "budget")
        assert (escalations > 0) == escalates

    @LOOP_CASES
    def test_reflect_bit_identical_to_rollback_loop(self, case, stops, escalates):
        # The registry's boundary model, on the same loop.
        y_h, pan, basis, model, params = case()
        result = hysure_solve(y_h, pan, basis, model, params, boundary="reflect")
        U, trace, iterations, converged, _ = run_loop_oracle(
            y_h, pan, basis, model, params, boundary="reflect"
        )
        np.testing.assert_array_equal(result.U, U)
        np.testing.assert_array_equal(result.objective_trace, trace)
        assert (result.iterations, result.converged) == (iterations, converged)

    @LOOP_CASES
    def test_site_form_is_the_full_grid_loop(self, case, stops, escalates):
        # Holding the blurred splitting at the sites only, in the rotated
        # coefficients of the real per-axis Fourier basis, changes the
        # rounding and nothing else: the same path through the loop as the
        # whole-grid FFT form, to within 1e-10.
        y_h, pan, basis, model, params = case()
        site = run_loop_oracle(y_h, pan, basis, model, params)
        grid = run_full_grid_oracle(y_h, pan, basis, model, params)
        np.testing.assert_allclose(site[0], grid[0], rtol=0, atol=1e-10 * np.abs(grid[0]).max())
        np.testing.assert_allclose(site[1], grid[1], rtol=1e-10, atol=0)
        assert site[2:] == grid[2:]


def neumann_difference_matrix(n):
    """Dense D of one axis under the reflect boundary: row i reads
    x[i + 1] - x[i], and the last row is zero."""
    return np.vstack([np.diff(np.eye(n), axis=0), np.zeros((1, n))])


def periodic_difference_matrix(n):
    """Dense D of one axis under the cyclic boundary: row i reads
    x[(i + 1) % n] - x[i]."""
    return np.eye(n)[(np.arange(n) + 1) % n] - np.eye(n)


def dense_circulant(n, taps):
    """Row i reads x[(i + t) % n] with weight taps[t + radius]."""
    radius = taps.size // 2
    mat = np.zeros((n, n))
    for i in range(n):
        for t in range(-radius, radius + 1):
            mat[i, (i + t) % n] += taps[t + radius]
    return mat


def frequency_planes(n):
    """Orthonormal bases (as rows) of the real planes that the columns of
    np.fft.rfft(np.eye(n)) span, one per frequency k: the real and the
    imaginary part of column k, the latter zero at k = 0 and k = n / 2."""
    spectrum = np.fft.rfft(np.eye(n))
    planes = []
    for k in range(spectrum.shape[1]):
        parts = np.stack([spectrum[:, k].real, spectrum[:, k].imag], axis=1)
        left, sing, _ = np.linalg.svd(parts, full_matrices=False)
        planes.append(left[:, sing > 1e-9].T)
    return planes


class TestCyclicBasis:
    # Support 9: the lines below it wrap the taps around, more than once
    # below 5.
    TAPS = kernel_from_mtf(2, 0.3).taps
    SIZES = pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 16, 17])

    @SIZES
    def test_orthonormal(self, n):
        q, _, _ = bayes._cyclic_axis(n, self.TAPS)
        np.testing.assert_allclose(q @ q.T, np.eye(n), rtol=0, atol=1e-13)

    @SIZES
    def test_spans_the_rfft_frequency_planes(self, n):
        # Each row lies in one frequency's plane, which it fills with the
        # plane's other rows, and the frequency of row i is (i + 1) // 2.
        q, _, _ = bayes._cyclic_axis(n, self.TAPS)
        for k, plane in enumerate(frequency_planes(n)):
            rows = q[(np.arange(n) + 1) // 2 == k]
            assert rows.shape[0] == plane.shape[0], k
            np.testing.assert_allclose(
                rows.T @ rows, plane.T @ plane, rtol=0, atol=1e-12, err_msg=str(k)
            )

    @SIZES
    def test_diagonalizes_the_blur_and_the_periodic_gram(self, n):
        q, blur, eigen = bayes._cyclic_axis(n, self.TAPS)
        np.testing.assert_allclose(blur, dense_circulant(n, self.TAPS), rtol=0, atol=1e-15)
        k = (np.arange(n) + 1) // 2
        radius = self.TAPS.size // 2
        offsets = np.arange(-radius, radius + 1)
        blur_eigen = (self.TAPS * np.cos(2 * np.pi * np.outer(k, offsets) / n)).sum(axis=1)
        np.testing.assert_allclose(q @ blur @ q.T, np.diag(blur_eigen), rtol=0, atol=1e-13)
        d = periodic_difference_matrix(n)
        np.testing.assert_array_equal(eigen, 2.0 - 2.0 * np.cos(2 * np.pi * k / n))
        np.testing.assert_allclose(q @ d.T @ d @ q.T, np.diag(eigen), rtol=0, atol=1e-13)


class TestReflectBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 25, 100])
    def test_dct_matrix_matches_scipy(self, n):
        want = scipy.fft.dct(np.eye(n), norm="ortho", axis=0)
        q, _, _ = bayes._reflect_axis(n, np.array([1.0]))
        np.testing.assert_allclose(q, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("ratio", [2, 3, 4, 5, 6])
    def test_dct_diagonalizes_the_reflect_blur(self, ratio):
        # Also where the line is shorter than the kernel, so taps mirror
        # more than once.
        taps = kernel_from_mtf(ratio).taps
        radius = taps.size // 2
        for n in [*range(1, 2 * radius + 4), 100]:
            c, blur, _ = bayes._reflect_axis(n, taps)
            np.testing.assert_array_equal(blur, degrade_axis(n, taps, 1))
            blur = c @ blur @ c.T
            off = blur - np.diag(np.diag(blur))
            assert np.abs(off).max() <= 1e-13, n

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 100])
    def test_neumann_gram_eigenvalues(self, n):
        d = neumann_difference_matrix(n)
        c, _, eigen = bayes._reflect_axis(n, np.array([1.0]))
        gram = c @ d.T @ d @ c.T
        want = 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)
        np.testing.assert_array_equal(eigen, want)
        np.testing.assert_allclose(np.diag(gram), eigen, rtol=0, atol=1e-13)
        assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-13

    def test_neumann_differences_and_adjoint_are_the_dense_pair(self):
        rng = np.random.default_rng(31)
        h, w = 5, 7
        planes = rng.normal(size=(3, h, w))
        pair = rng.normal(size=(2, 3, h, w))
        dh, dv = neumann_difference_matrix(w), neumann_difference_matrix(h)
        got = bayes._neumann_differences(planes)
        np.testing.assert_allclose(got[0], planes @ dh.T, rtol=0, atol=1e-14)
        np.testing.assert_allclose(got[1], dv @ planes, rtol=0, atol=1e-14)
        adj = bayes._neumann_differences_adjoint(pair)
        np.testing.assert_allclose(adj, pair[0] @ dh + dv.T @ pair[1], rtol=0, atol=1e-14)


class TestHysureReflect:
    def test_matches_dense_least_squares(self):
        # Criterion 08's oracle with the data blurred under reflect
        # boundaries, the model `degrade` blurs with.
        rng = np.random.default_rng(108)
        h = w = 16
        n = h * w
        bands, p = 6, 2
        q, _ = np.linalg.qr(rng.normal(size=(bands, p)))
        basis = SubspaceBasis(q)
        u_true = rng.uniform(0.2, 1.0, (p, n))
        kernel = kernel_from_mtf(2, 0.5)
        model = SensorModel(1, kernel, np.full((1, bands), 1.0 / bands))
        blur_mat = np.kron(degrade_axis(h, kernel.taps, 1), degrade_axis(w, kernel.taps, 1))
        y_h = SpectralImage(
            h, w, q @ (u_true @ blur_mat.T) + 0.01 * rng.normal(size=(bands, n))
        )
        pan = SpectralImage(
            h, w, model.spectral_response @ q @ u_true + 0.01 * rng.normal(size=(1, n))
        )
        rh = model.spectral_response @ q
        u_opt = solve_sylvester(
            rh.T @ rh, blur_mat.T @ blur_mat, q.T @ y_h.data @ blur_mat + rh.T @ pan.data
        )
        params = HySureParams(
            lambda_m=1.0, lambda_phi=0.0, admm_mu=0.01, tol=0.0, max_iters=5000
        )
        result = hysure_solve(y_h, pan, basis, model, params, boundary="reflect")
        rel = np.linalg.norm(result.U - u_opt) / np.linalg.norm(u_opt)
        trace = result.objective_trace
        worst_rise = float((np.diff(trace) / np.abs(trace[:-1])).max())
        assert rel <= 1e-4
        assert worst_rise <= 1e-7

    def test_unknown_boundary_rejected(self):
        y_h, pan, basis, model = TestHysureSolve().make_noisy_scene()
        with pytest.raises(ValueError, match="boundary must be one of"):
            hysure_solve(y_h, pan, basis, model, HySureParams(max_iters=2), boundary="wrap")

    def test_registry_solves_in_the_wald_boundary_model(self):
        # On a non-periodic crop, HySure as `bench` and `fuse` run it beats
        # the same solve under the cyclic default.
        config = RunConfig(height=40, width=40, ratio=4, snr_db=30.0).validate()
        full = synth_scene(config.seed, config.endmembers, 50, 50, config.bands)
        crop = full.to_cube()[:, :40, :40].reshape(full.bands, -1)
        truth = SpectralImage(40, 40, crop, full.wavelengths)
        y_h, pan, model = wald_inputs(truth, config)
        fused = run_method(config, "HySure", y_h, pan, model, config.seed)

        basis = learn_subspace(y_h)
        params = default_hysure_params(y_h, pan, basis, model)
        cyclic = hysure_solve(y_h, pan, basis, model, params)
        bounds = DynamicRange.spanning(y_h.data)
        cyclic_img = SpectralImage(
            40, 40, np.clip(basis.H @ cyclic.U, bounds.lo, bounds.hi), full.wavelengths
        )
        d = 1.0 / config.ratio
        assert ergas(fused, truth, d) < ergas(cyclic_img, truth, d)


def circulant_site_rows(n, taps, ratio):
    """Dense S B of one axis under the cyclic boundary: the blur row of
    sample i reads x[(i + t) % n] with weight taps[t + radius], kept at the
    decimation sites."""
    radius = taps.size // 2
    blur = np.zeros((n, n))
    rows = np.arange(n)
    for t in range(-radius, radius + 1):
        np.add.at(blur, (rows, (rows + t) % n), taps[t + radius])
    return blur[default_phase(ratio)::ratio]


def site_rows(boundary, n, taps, ratio):
    """Dense S B of one axis under `boundary`."""
    if boundary == "reflect":
        return degrade_axis(n, taps, ratio)
    return circulant_site_rows(n, taps, ratio)


class TestHysureSites:
    # At ratio 1 every pixel is a site, so only these checks can catch a
    # wrong scatter onto, or restriction to, the decimation sites.
    @pytest.mark.parametrize("boundary", ["cyclic", "reflect"])
    @pytest.mark.parametrize("ratio, h, w", [(2, 10, 16), (3, 12, 15), (4, 20, 12)])
    def test_site_maps_are_the_dense_operators(self, boundary, ratio, h, w):
        rng = np.random.default_rng(ratio)
        taps = kernel_from_mtf(ratio, 0.3).taps
        spatial = bayes._spatial_basis(boundary, taps, h, w, ratio)
        rows_h, rows_w = site_rows(boundary, h, taps, ratio), site_rows(boundary, w, taps, ratio)
        planes = rng.normal(size=(2, h, w))
        values = rng.normal(size=(2, h // ratio, w // ratio))
        np.testing.assert_allclose(
            spatial.to_sites(spatial.forward(planes)), rows_h @ planes @ rows_w.T,
            rtol=0, atol=1e-13,
        )
        adjoint = spatial.from_sites(values, np.empty_like(spatial.forward(planes)))
        np.testing.assert_allclose(
            adjoint, spatial.forward(rows_h.T @ values @ rows_w), rtol=0, atol=1e-13
        )

    @pytest.mark.parametrize("boundary", ["cyclic", "reflect"])
    @pytest.mark.parametrize("ratio, size", [(2, 16), (4, 20)])
    def test_matches_dense_normal_equations(self, boundary, ratio, size):
        # With lambda_phi = 0 the minimizer of
        # 0.5 ||Y - H U B S||^2 + 0.5 lambda_m ||P - R H U||^2 solves
        # U G^T G + lambda_m (R H)^T R H U = H^T Y G + lambda_m (R H)^T P,
        # G = S B on the flattened grid. A two-band P makes R H full rank,
        # so the minimizer is unique although most pixels are no site.
        rng = np.random.default_rng(40 + ratio)
        bands, p, n = 6, 2, size * size
        basis = random_basis(bands, p, 41 + ratio)
        kernel = kernel_from_mtf(ratio, 0.3)
        response = rng.uniform(0.1, 1.0, (2, bands))
        response /= response.sum(axis=1, keepdims=True)
        model = SensorModel(ratio, kernel, response)
        axis = site_rows(boundary, size, kernel.taps, ratio)
        g = np.kron(axis, axis)
        u_true = rng.uniform(0.2, 1.0, (p, n))
        low = size // ratio
        y_h = SpectralImage(
            low, low, basis.H @ u_true @ g.T + 0.01 * rng.normal(size=(bands, low * low))
        )
        pan = SpectralImage(
            size, size, response @ basis.H @ u_true + 0.01 * rng.normal(size=(2, n))
        )
        rh = response @ basis.H
        system = np.kron(rh.T @ rh, np.eye(n)) + np.kron(np.eye(p), g.T @ g)
        rhs = basis.H.T @ y_h.data @ g + rh.T @ pan.data
        u_opt = np.linalg.solve(system, rhs.ravel()).reshape(p, n)
        params = HySureParams(
            lambda_m=1.0, lambda_phi=0.0, admm_mu=0.01, tol=0.0, max_iters=1500
        )
        result = hysure_solve(y_h, pan, basis, model, params, boundary=boundary)
        rel = np.linalg.norm(result.U - u_opt) / np.linalg.norm(u_opt)
        trace = result.objective_trace
        worst_rise = float((np.diff(trace) / np.abs(trace[:-1])).max())
        assert rel <= 1e-8
        assert worst_rise <= 1e-7


class TestEstimateSensor:
    def make_pair(self, ratio=2, seed=28, gnyq=0.5):
        rng = np.random.default_rng(seed)
        h = w = 12 * ratio
        bands, ms_bands = 6, 2
        kernel = kernel_from_mtf(ratio, gnyq)
        coarse = SpectralImage(
            h // ratio,
            w // ratio,
            rng.uniform(0.1, 1.0, (bands, (h // ratio) * (w // ratio))),
        )
        x = upsample(coarse, ratio, "bicubic")
        resp = np.abs(rng.normal(size=(ms_bands, bands))) + 0.1
        resp /= resp.sum(axis=1, keepdims=True)
        y_h = blur_downsample(x, kernel, ratio)
        y_m = SpectralImage(h, w, resp @ x.data)
        return y_h, y_m, kernel, resp

    def test_closed_loop_recovery(self):
        y_h, y_m, kernel, resp = self.make_pair()
        estimate = estimate_sensor(y_h, y_m, kernel.taps.size)
        assert np.abs(estimate.kernel.taps - kernel.taps).max() <= 1e-3
        assert np.abs(estimate.response - resp).max() <= 1e-3

    def test_trace_non_increasing(self):
        y_h, y_m, kernel, _ = self.make_pair(seed=29)
        estimate = estimate_sensor(y_h, y_m, kernel.taps.size)
        trace = estimate.objective_trace
        assert (np.diff(trace) <= 1e-12 * np.maximum(trace[:-1], 1e-30)).all()

    def test_outputs_normalized(self):
        y_h, y_m, kernel, _ = self.make_pair(seed=30)
        estimate = estimate_sensor(y_h, y_m, kernel.taps.size)
        taps = estimate.kernel.taps
        assert abs(taps.sum() - 1.0) <= 1e-12
        assert np.array_equal(taps, taps[::-1])
        assert (taps >= 0).all()
        rows = estimate.response.sum(axis=1)
        assert np.abs(rows - 1.0).max() <= 1e-12
        assert (estimate.response >= 0).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wald_pair_at_30db(self, seed):
        # Criterion 09 on the pairs the bench makes: 120^2 x 60 at ratio 4,
        # 3 endmembers, 30 dB. The response leaves its uniform start, and
        # BayesNaive under the estimate scores within 2.5x the ERGAS it scores
        # under the assumed model (1.02x, 2.04x and 0.91x on seeds 0-2).
        config = RunConfig(
            height=120, width=120, bands=60, ratio=4, seed=seed, snr_db=30.0
        ).validate()
        truth = reference_scene(config)
        y_h, pan, model = wald_inputs(truth, config)
        estimate = estimate_sensor(y_h, pan, model.blur.taps.size)
        assert not np.allclose(estimate.response, 1.0 / y_h.bands)
        blind = replace(model, blur=estimate.kernel, spectral_response=estimate.response)
        scores = [
            ergas(run_method(config, "BayesNaive", y_h, pan, m, 0), truth, 1.0 / config.ratio)
            for m in (blind, model)
        ]
        assert scores[0] <= 2.5 * scores[1]

    @pytest.mark.parametrize("support", [0, -3, 4])
    def test_bad_support_rejected(self, support):
        y_h, y_m, _, _ = self.make_pair()
        with pytest.raises(ValueError):
            estimate_sensor(y_h, y_m, support)

    def test_non_integer_ratio_rejected(self):
        y_h, y_m, _, _ = self.make_pair()
        clipped = SpectralImage(
            y_m.height - 1,
            y_m.width,
            y_m.to_cube()[:, :-1, :].reshape(y_m.bands, -1),
        )
        with pytest.raises(ValueError):
            estimate_sensor(y_h, clipped, 3)

    def test_axis_ratio_disagreement_rejected(self):
        rng = np.random.default_rng(31)
        y_h = SpectralImage(8, 8, rng.uniform(0.1, 1.0, (4, 64)))
        y_m = SpectralImage(16, 24, rng.uniform(0.1, 1.0, (2, 384)))
        with pytest.raises(ValueError):
            estimate_sensor(y_h, y_m, 3)

    def test_constant_input_rejected(self):
        y_h, y_m, _, _ = self.make_pair()
        flat = y_h.with_data(np.full_like(y_h.data, 0.5))
        with pytest.raises(ValueError):
            estimate_sensor(flat, y_m, 3)
