import numpy as np
import pytest
from scipy.optimize import nnls

from hspansharp.fusion.cnmf import (
    _DELTA,
    _WINDOW,
    CnmfResult,
    Endmembers,
    _abundance_step,
    _augment,
    _run_windows,
    cnmf_solve,
    cnmf_stream,
    nmf_update_spectra,
    nnls_columns,
    vca,
)
from hspansharp.harness.bench import reference_scene, wald_inputs
from hspansharp.harness.config import RunConfig
from hspansharp.imgcore import SpectralImage
from hspansharp.resample import upsample
from hspansharp.sensorsim import SensorModel, blur_downsample, kernel_from_mtf

from oracles import oracle_cnmf_loops


def pure_pixel_data(bands=12, p=3, pixels=200, seed=0):
    """Linear mixture with exact one-hot columns embedded."""
    rng = np.random.default_rng(seed)
    spectra = rng.uniform(0.1, 1.0, (bands, p))
    abund = rng.dirichlet(np.ones(p), pixels).T
    pure_at = [5, 50, 120][:p]
    for j, col in enumerate(pure_at):
        abund[:, col] = 0.0
        abund[j, col] = 1.0
    return spectra @ abund, spectra, abund


def low_rank_scene(height=8, width=8, ratio=2, p=3, seed=1):
    rng = np.random.default_rng(seed)
    bands = 10
    spectra = rng.uniform(0.1, 1.0, (bands, p))
    hp, wp = height * ratio, width * ratio
    abund = rng.dirichlet(np.ones(p), hp * wp).T
    truth = SpectralImage(hp, wp, spectra @ abund)
    model = SensorModel(
        ratio, kernel_from_mtf(ratio, 0.5), np.full((1, bands), 1.0 / bands)
    )
    from hspansharp.sensorsim import blur_downsample, synth_pan

    y_h = blur_downsample(truth, model.blur, ratio)
    pan = synth_pan(truth, model.spectral_response[0])
    return truth, y_h, pan, model


class TestVca:
    def test_recovers_pure_pixels_up_to_permutation(self):
        y, spectra, _ = pure_pixel_data()
        got = vca(y, 3, seed=4)
        taken = set()
        for j in range(3):
            dists = np.abs(spectra - got[:, [j]]).max(axis=0)
            k = int(np.argmin(dists))
            assert dists[k] <= 1e-8
            assert k not in taken
            taken.add(k)

    def test_columns_are_actual_pixels(self):
        y, _, _ = pure_pixel_data(seed=2)
        got = vca(y, 3, seed=0)
        for j in range(3):
            matches = np.abs(y - got[:, [j]]).max(axis=0)
            assert matches.min() == 0.0

    def test_single_endmember(self):
        y, _, _ = pure_pixel_data(seed=3)
        got = vca(y, 1)
        assert got.shape == (y.shape[0], 1)
        assert np.abs(y - got).max(axis=0).min() == 0.0

    def test_deterministic_for_fixed_seed(self):
        y, _, _ = pure_pixel_data(seed=5)
        np.testing.assert_array_equal(vca(y, 3, seed=9), vca(y, 3, seed=9))

    def test_rank_deficient_data_rejected(self):
        y, _, _ = pure_pixel_data(p=2, seed=6)  # rank 2 mixture
        with pytest.raises(ValueError):
            vca(y, 3)

    def test_validation(self):
        y, _, _ = pure_pixel_data()
        with pytest.raises(ValueError):
            vca(y, 0)
        with pytest.raises(ValueError):
            vca(y, y.shape[0] + 1)
        with pytest.raises(ValueError):
            vca(-y, 2)
        with pytest.raises(ValueError):
            vca(y.ravel(), 2)


def objective(h, u, y):
    r = y - h @ u
    return float((r * r).sum())


def nmf_update_abundances(spectra, abundances, data):
    """CNMF's multiplicative abundance step taken from the full factors, on a
    copy of the abundances."""
    return _abundance_step(abundances.copy(), spectra.T @ data, spectra.T @ spectra)


class TestMultiplicativeUpdates:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.y = rng.uniform(0.0, 1.0, (8, 60))
        self.h = rng.uniform(0.1, 1.0, (8, 4))
        self.u = rng.uniform(0.1, 1.0, (4, 60))

    def test_spectra_update_never_increases_objective(self):
        h, u, y = self.h, self.u, self.y
        for _ in range(25):
            before = objective(h, u, y)
            h = nmf_update_spectra(h, u, y)
            after = objective(h, u, y)
            assert after <= before * (1.0 + 1e-12)

    def test_abundance_update_never_increases_objective(self):
        h, u, y = self.h, self.u, self.y
        for _ in range(25):
            before = objective(h, u, y)
            u = nmf_update_abundances(h, u, y)
            after = objective(h, u, y)
            assert after <= before * (1.0 + 1e-12)

    def test_nonnegativity_preserved(self):
        h = nmf_update_spectra(self.h, self.u, self.y)
        u = nmf_update_abundances(self.h, self.u, self.y)
        assert (h >= 0).all() and (u >= 0).all()

    def test_zero_entries_stay_zero(self):
        h = self.h.copy()
        h[2, 1] = 0.0
        out = nmf_update_spectra(h, self.u, self.y)
        assert out[2, 1] == 0.0


class TestEndmembers:
    def test_validation(self):
        with pytest.raises(ValueError):
            Endmembers(np.ones((3, 2)), np.ones((3, 5)))
        with pytest.raises(ValueError):
            Endmembers(-np.ones((3, 2)), np.ones((2, 5)))
        # A NaN compares false with 0, so a sign test alone takes it.
        with pytest.raises(ValueError, match="finite"):
            Endmembers(np.full((2, 1), np.nan), np.ones((1, 3)))
        with pytest.raises(ValueError, match="finite"):
            Endmembers(np.ones((2, 1)), np.full((1, 3), np.inf))

    def test_arrays_readonly(self):
        e = Endmembers(np.ones((3, 2)), np.ones((2, 5)))
        with pytest.raises(ValueError):
            e.spectra[0, 0] = 2.0


class TestCnmfSolve:
    def test_traces_non_increasing_and_factors_valid(self):
        _, y_h, pan, model = low_rank_scene()
        result = cnmf_solve(y_h, pan, model, p=3, outer_iters=2, inner_iters=40)
        assert isinstance(result, CnmfResult)
        assert len(result.hs_objectives) == len(result.hs_steps) == 2
        assert len(result.pan_objectives) == len(result.pan_steps) == 2
        for trace in result.hs_objectives + result.pan_objectives:
            assert (np.diff(trace) <= 1e-9 * np.maximum(trace[:-1], 1e-12)).all()
        assert (result.endmembers.spectra >= 0).all()
        assert (result.endmembers.abundances >= 0).all()
        assert (result.abundances_low >= 0).all()

    def test_abundance_columns_near_sum_to_one(self):
        _, y_h, pan, model = low_rank_scene(seed=8)
        result = cnmf_solve(y_h, pan, model, p=3, outer_iters=2, inner_iters=200)
        col_sums = result.endmembers.abundances.sum(axis=0)
        assert np.abs(col_sums - 1.0).max() <= 0.05

    def test_validation(self):
        _, y_h, pan, model = low_rank_scene()
        with pytest.raises(ValueError):
            cnmf_solve(y_h, pan, model, p=3, outer_iters=0)
        with pytest.raises(ValueError):
            cnmf_solve(y_h, pan, model, p=3, inner_iters=0)
        bad_pan = SpectralImage(pan.height, pan.width + 2, np.ones((1, pan.height * (pan.width + 2))))
        with pytest.raises(ValueError):
            cnmf_solve(y_h, bad_pan, model, p=3)
        narrow = SensorModel(
            model.ratio, model.blur, np.full((1, y_h.bands - 1), 1.0 / (y_h.bands - 1))
        )
        with pytest.raises(ValueError):
            cnmf_solve(y_h, pan, narrow, p=3)


def bilinear_patch_scene(bands=10, ratio=5, n=40, seed=11):
    """Mixture whose abundances are the bilinear interpolation of a coarse
    field holding a 3x3 pure patch per endmember, so the coupled
    factorization's own initialization path can reproduce them exactly."""
    rng = np.random.default_rng(seed)
    nc = n // ratio
    spectra = rng.uniform(0.1, 1.0, (bands, 3))
    centers = [(1, 1), (1, 6), (6, 1)]
    a_c = np.zeros((3, nc, nc))
    ii, jj = np.mgrid[0:nc, 0:nc]
    for k, (ci, cj) in enumerate(centers):
        a_c[k] = 1.0 / (1.0 + (ii - ci) ** 2 + (jj - cj) ** 2)
    a_c /= a_c.sum(axis=0, keepdims=True)
    for k, (ci, cj) in enumerate(centers):
        a_c[:, ci - 1 : ci + 2, cj - 1 : cj + 2] = 0.0
        a_c[k, ci - 1 : ci + 2, cj - 1 : cj + 2] = 1.0
    from hspansharp.resample import upsample

    coarse = SpectralImage(nc, nc, a_c.reshape(3, -1))
    u_true = np.maximum(upsample(coarse, ratio, "bilinear").data, 0.0)
    truth = SpectralImage(n, n, spectra @ u_true)
    model = SensorModel(
        ratio, kernel_from_mtf(ratio, 0.99), np.full((1, bands), 1.0 / bands)
    )
    from hspansharp.sensorsim import blur_downsample, synth_pan

    y_h = blur_downsample(truth, model.blur, ratio)
    pan = synth_pan(truth, model.spectral_response[0])
    return truth, y_h, pan, model


def loop_oracle_run(y_h, pan, model, p, outer_iters, inner_iters, seed, delta, tol):
    """`oracle_cnmf_loops` from cnmf_solve's initialization: VCA spectra and
    NNLS abundances against the stacked penalty row, from `nnls_columns`
    (checked against scipy's NNLS in TestNnlsColumns)."""
    data_h = np.maximum(y_h.data, 0.0)
    spectra = vca(data_h, p, seed)
    stack = np.vstack([spectra, np.full((1, p), delta)])
    data_aug = np.vstack([data_h, np.full((1, y_h.pixels), delta)])
    abund_low = nnls_columns(stack, data_aug)
    ratio = model.ratio

    def to_low(abund_high):
        img = SpectralImage(pan.height, pan.width, abund_high)
        return np.maximum(blur_downsample(img, model.blur, ratio).data, 0.0)

    def to_high(abund_low):
        img = SpectralImage(y_h.height, y_h.width, abund_low)
        return np.maximum(upsample(img, ratio, "bilinear").data, 0.0)

    return oracle_cnmf_loops(
        data_h, np.maximum(pan.data, 0.0), model.spectral_response, spectra,
        abund_low, to_low, to_high, nmf_update_spectra, nmf_update_abundances,
        outer_iters, inner_iters, delta, tol,
    )


class Scripted:
    """A step that counts itself in a one-entry state array and an objective
    read from a script by that count: halved at each step, and moved by a
    hundredth of the test's tolerance at the steps in `settled`, so every
    value is distinct. Both record how often they ran."""

    def __init__(self, budget, settled=()):
        values = [1.0]
        for k in range(1, budget + 1):
            values.append(values[-1] * (1 - 1e-8 if k in settled else 0.5))
        self.values = values
        self.state = np.zeros(1)
        self.steps = self.objectives = 0

    def step(self):
        self.state += 1
        self.steps += 1

    def objective(self):
        self.objectives += 1
        return self.values[int(self.state[0])]

    def run(self, budget, tol=1e-6):
        trace, taken = _run_windows(self.step, self.objective, (self.state,), budget, tol)
        assert self.state[0] == taken
        return [self.values.index(v) for v in trace], taken


class TestRunWindows:
    # Traces are given as the steps whose objective they hold.
    def test_stop_at_step_one(self):
        # A loop that starts at its fixed point: every step is settled.
        loop = Scripted(60, settled=range(1, 61))
        assert loop.run(60) == ([0, 1], 1)
        # One window forward, tested after its last two steps, then a
        # replay of its first step.
        assert (loop.steps, loop.objectives) == (_WINDOW + 1, 4)

    def test_stop_at_a_window_end(self):
        loop = Scripted(60, settled={2 * _WINDOW})
        steps, taken = loop.run(60)
        assert taken == 2 * _WINDOW
        assert steps == [0, _WINDOW] + list(range(_WINDOW + 1, 2 * _WINDOW + 1))

    def test_final_window_of_one_step(self):
        budget = 2 * _WINDOW + 1
        assert Scripted(budget).run(budget) == ([0, _WINDOW, 2 * _WINDOW, budget], budget)
        loop = Scripted(budget, settled={budget})
        assert loop.run(budget) == ([0, _WINDOW, 2 * _WINDOW, budget], budget)
        # The one-step window is tested against its start's objective.
        assert loop.objectives == 1 + 2 * 2 + 1 + 1

    def test_zero_tol_runs_the_whole_budget(self):
        budget = 2 * _WINDOW + 5
        loop = Scripted(budget)
        assert loop.run(budget, tol=0.0) == ([0, _WINDOW, 2 * _WINDOW, budget], budget)
        assert (loop.steps, loop.objectives) == (budget, 1 + 3 * 2)

    def test_settled_step_before_an_unsettled_window_end_runs_on(self):
        # The per-step rule would stop at step 5; the window rule tests only
        # the window's last step, which is not settled, and runs on.
        assert Scripted(60, settled={5}).run(60) == ([0, _WINDOW, 2 * _WINDOW, 60], 60)
        # Once the window's last step settles too, its replay stops at 5.
        assert Scripted(60, settled={5, _WINDOW}).run(60) == ([0, 1, 2, 3, 4, 5], 5)


def traced_steps(steps, budget, length):
    """The steps at which a loop under the window rule traced its `length`
    objectives, having taken `steps` of `budget`: step 0 and each window's
    end, or, when it stopped, the window ends before the window it stopped
    in and each replayed step of that window."""
    start = (steps - 1) // _WINDOW * _WINDOW
    stopped = list(range(0, start + 1, _WINDOW)) + list(range(start + 1, steps + 1))
    ran = list(range(0, budget, _WINDOW)) + [budget]
    return ran if steps == budget and length == len(ran) else stopped


class TestCnmfLoopOracle:
    @pytest.mark.parametrize(
        "scene, tol, budget, hs_first",
        [
            pytest.param(low_rank_scene, 0.0, 60, 60, id="low_rank_scene-3-0.0"),
            pytest.param(bilinear_patch_scene, 0.0, 60, 60, id="bilinear_patch_scene-3-0.0"),
            # Both loops stop early.
            pytest.param(low_rank_scene, 1e-4, 60, 14, id="low_rank_scene-3-0.0001"),
            # A last window of 7 steps.
            pytest.param(low_rank_scene, 0.0, 47, 47, id="budget-47"),
            # A stop in the second window, at its 8th step.
            pytest.param(low_rank_scene, 3.1e-5, 60, 28, id="stop-at-28"),
        ],
    )
    def test_bit_identical_to_published_loops(self, scene, tol, budget, hs_first):
        # The window rule forms fewer objectives than the published per-step
        # rule, but on these scenes it stops at the same steps, so the
        # factors agree bit for bit and each traced objective is the
        # oracle's at the step it was formed.
        _, y_h, pan, model = scene()
        result = cnmf_solve(y_h, pan, model, 3, 2, budget, 5, tol)
        spectra, abund_low, abund_high, hs, pan_traces = loop_oracle_run(
            y_h, pan, model, 3, 2, budget, 5, _DELTA, tol
        )
        np.testing.assert_array_equal(
            result.endmembers.spectra @ result.endmembers.abundances,
            spectra @ abund_high,
        )
        np.testing.assert_array_equal(result.abundances_low, abund_low)
        assert result.hs_steps[0] == hs_first
        assert result.hs_steps == tuple(len(t) - 1 for t in hs)
        assert result.pan_steps == tuple(len(t) - 1 for t in pan_traces)
        for got, steps, want in zip(
            result.hs_objectives + result.pan_objectives,
            result.hs_steps + result.pan_steps,
            hs + pan_traces,
        ):
            marks = traced_steps(steps, budget, len(got))
            np.testing.assert_array_equal(got, want[marks])

    def test_update_leaves_its_input_alone(self):
        # The spectra step returns a new array and writes none of its inputs.
        rng = np.random.default_rng(3)
        inputs = (
            rng.uniform(0.1, 1.0, (6, 3)),
            rng.uniform(0.1, 1.0, (3, 9)),
            rng.uniform(size=(6, 9)),
        )
        before = [a.copy() for a in inputs]
        nmf_update_spectra(*inputs)
        for got, want in zip(inputs, before):
            np.testing.assert_array_equal(got, want)


def scipynnls_columns(a, b):
    return np.column_stack([nnls(a, b[:, j])[0] for j in range(b.shape[1])])


def assert_kkt(a, b, x):
    # x >= 0; the gradient a^T (b - a x) is at most tol where x = 0 and
    # vanishes where x > 0.
    grad = a.T @ (b - a @ x)
    scale = np.abs(a.T @ b).max() + np.abs(a.T @ a).max() * np.abs(x).max()
    assert (x >= 0).all()
    assert (grad[x == 0] <= 1e-12 * scale).all()
    np.testing.assert_allclose(grad[x > 0], 0.0, rtol=0, atol=1e-12 * scale)


def assert_matches_scipy(a, b):
    x = nnls_columns(a, b)
    want = scipynnls_columns(a, b)
    assert np.abs(x - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)
    assert_kkt(a, b, x)


class TestNnlsColumns:
    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cnmf_start_matches_scipy(self, p, seed):
        # The augmented problems cnmf_solve starts from on a bench scene: VCA
        # spectra and the low-resolution pixels over the penalty row.
        config = RunConfig(height=50, width=50, endmembers=4, seed=seed)
        y_h = wald_inputs(reference_scene(config), config)[0]
        data_h = np.maximum(y_h.data, 0.0)
        assert_matches_scipy(_augment(vca(data_h, p, seed)), _augment(data_h))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_tall_problems_match_scipy(self, seed):
        # The shape CNMF solves: at least as many rows as coefficients.
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 10))
        m = int(rng.integers(max(p, 3), 31))
        assert_matches_scipy(rng.standard_normal((m, p)), rng.standard_normal((m, 12)))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_wide_problems_meet_kkt(self, seed):
        # Fewer rows than coefficients: the passive set stops at m entries.
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 8))
        p = int(rng.integers(m + 1, 10))
        a, b = rng.standard_normal((m, p)), rng.standard_normal((m, 12))
        x = nnls_columns(a, b)
        assert ((x > 0).sum(axis=0) <= m).all()
        assert_kkt(a, b, x)
        np.testing.assert_allclose(
            np.linalg.norm(a @ x - b, axis=0),
            np.linalg.norm(a @ scipynnls_columns(a, b) - b, axis=0),
            rtol=1e-10,
            atol=1e-12 * np.linalg.norm(b),
        )

    def test_single_coefficient(self):
        a = np.array([[1.0], [2.0], [2.0]])
        b = np.array([[3.0, -3.0, 0.0], [6.0, -1.0, 1.0], [0.0, -2.0, 1.0]])
        np.testing.assert_allclose(nnls_columns(a, b), [[15.0 / 9.0, 0.0, 4.0 / 9.0]])
        assert_matches_scipy(a, b)

    def test_feasible_column_is_least_squares(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0.1, 1.0, (8, 3))
        want = np.array([0.5, 1.5, 2.0])
        b = a @ want + 1e-3 * rng.standard_normal(8)
        np.testing.assert_allclose(
            nnls_columns(a, b[:, np.newaxis])[:, 0],
            np.linalg.lstsq(a, b, rcond=None)[0],
            rtol=1e-12,
        )

    def test_zero_column(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 4))
        b = np.column_stack([np.zeros(6), rng.standard_normal(6)])
        x = nnls_columns(a, b)
        np.testing.assert_array_equal(x[:, 0], 0.0)
        assert_matches_scipy(a, b)


class TestFuseCnmf:
    def test_pure_patch_scene_recovered(self):
        truth, y_h, pan, model = bilinear_patch_scene()
        fused = cnmf_stream(y_h, pan, model, p=3, outer_iters=2, inner_iters=100).image()
        assert (fused.bands, fused.height, fused.width) == (
            truth.bands,
            truth.height,
            truth.width,
        )
        err = np.sqrt(np.mean((fused.data - truth.data) ** 2))
        span = truth.data.max() - truth.data.min()
        assert err <= 0.01 * span

    def test_wavelengths_carried(self):
        truth, y_h, pan, model = low_rank_scene(seed=10)
        wl = tuple(0.4 + 0.01 * k for k in range(y_h.bands))
        y_h = SpectralImage(y_h.height, y_h.width, y_h.data, wl)
        fused = cnmf_stream(y_h, pan, model, p=3, outer_iters=2, inner_iters=20).image()
        assert fused.wavelengths == wl
