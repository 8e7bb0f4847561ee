"""Subspace estimation, the Gaussian-prior solver, the variational solver,
and blind sensor estimation."""

import numpy as np
import pytest
from scipy.linalg import solve_sylvester

from hspansharp.imgcore import DynamicRange, SpectralImage
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
    default_bayes_priors,
    default_hysure_params,
    default_subspace_dim,
    estimate_sensor,
    fuse_bayes_naive,
    fuse_hysure,
    hysure_solve,
    learn_subspace,
    negative_log_posterior,
    vtv,
)

from oracles import oracle_bayes_naive_system, oracle_blur_downsample, oracle_vtv


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
        assert default_subspace_dim(y) == 3

    def test_cap_applies(self):
        # Noise spreads its energy over all 20 directions.
        rng = np.random.default_rng(7)
        y = SpectralImage(10, 10, rng.normal(size=(20, 100)))
        assert default_subspace_dim(y) == 10

    def test_never_exceeds_bands(self):
        rng = np.random.default_rng(8)
        y = SpectralImage(10, 10, rng.normal(size=(3, 100)))
        assert default_subspace_dim(y) == 3


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
        u, y_h, pan, model, basis = self.setup_instance(np.zeros(0), 0.0)
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
    hs_std = model.hs_noise_std if model.hs_noise_std.size else np.zeros(y_h.bands)
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
        np.where(hs_std > 0, hs_std, 1.0),
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
        fused = fuse_bayes_naive(y_h, pan, model, basis, sigma_rounds=1)
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
        fused = fuse_hysure(y_h, pan, basis, model, rng=bounds)
        assert fused.data.min() >= bounds.lo
        assert fused.data.max() <= bounds.hi
        assert np.array_equal(fused.wavelengths, wavelengths)

    def test_pan_dims_must_match_model(self):
        y_h, pan, basis, model = self.make_noisy_scene()
        bad = SpectralImage(18, 18, np.zeros((1, 324)))
        with pytest.raises(ValueError):
            hysure_solve(y_h, bad, basis, model, HySureParams(max_iters=2))


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

    @pytest.mark.parametrize("support", [0, -3, 4])
    def test_bad_support_rejected(self, support):
        y_h, y_m, _, _ = self.make_pair()
        with pytest.raises(ValueError):
            estimate_sensor(y_h, y_m, support)

    def test_negative_weights_rejected(self):
        y_h, y_m, _, _ = self.make_pair()
        with pytest.raises(ValueError):
            estimate_sensor(y_h, y_m, 3, lambda_b=-1.0)
        with pytest.raises(ValueError):
            estimate_sensor(y_h, y_m, 3, lambda_r=-1.0)

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
