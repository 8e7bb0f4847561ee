import numpy as np
import pytest
from scipy.optimize import nnls

from hspansharp.fusion.cnmf import (
    _DELTA,
    CnmfResult,
    Endmembers,
    _abundance_step,
    cnmf_solve,
    fuse_cnmf,
    nmf_update_spectra,
    vca,
)
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

    def test_arrays_readonly(self):
        e = Endmembers(np.ones((3, 2)), np.ones((2, 5)))
        with pytest.raises(ValueError):
            e.spectra[0, 0] = 2.0


class TestCnmfSolve:
    def test_traces_non_increasing_and_factors_valid(self):
        _, y_h, pan, model = low_rank_scene()
        result = cnmf_solve(y_h, pan, model, p=3, outer_iters=2, inner_iters=40)
        assert isinstance(result, CnmfResult)
        assert len(result.hs_objectives) == 2
        assert len(result.pan_objectives) == 2
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
    per-pixel NNLS abundances against the stacked penalty row."""
    data_h = np.maximum(y_h.data, 0.0)
    spectra = vca(data_h, p, seed)
    stack = np.vstack([spectra, np.full((1, p), delta)])
    data_aug = np.vstack([data_h, np.full((1, y_h.pixels), delta)])
    abund_low = np.column_stack(
        [nnls(stack, data_aug[:, j])[0] for j in range(y_h.pixels)]
    )
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


class TestCnmfLoopOracle:
    @pytest.mark.parametrize(
        "scene, p, tol",
        [
            (low_rank_scene, 3, 0.0),
            (bilinear_patch_scene, 3, 0.0),
            (low_rank_scene, 3, 1e-4),  # both loops stop early
        ],
    )
    def test_bit_identical_to_published_loops(self, scene, p, tol):
        _, y_h, pan, model = scene()
        result = cnmf_solve(y_h, pan, model, p, 2, 60, 5, tol)
        spectra, abund_low, abund_high, hs, pan_traces = loop_oracle_run(
            y_h, pan, model, p, 2, 60, 5, _DELTA, tol
        )
        np.testing.assert_array_equal(
            result.endmembers.spectra @ result.endmembers.abundances,
            spectra @ abund_high,
        )
        np.testing.assert_array_equal(result.abundances_low, abund_low)
        assert len(result.hs_objectives) == len(hs) == 2
        assert len(result.pan_objectives) == len(pan_traces) == 2
        for got, want in zip(
            result.hs_objectives + result.pan_objectives, hs + pan_traces
        ):
            np.testing.assert_array_equal(got, want)

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


class TestFuseCnmf:
    def test_pure_patch_scene_recovered(self):
        truth, y_h, pan, model = bilinear_patch_scene()
        fused = fuse_cnmf(y_h, pan, model, p=3, inner_iters=100)
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
        fused = fuse_cnmf(y_h, pan, model, p=3, inner_iters=20)
        assert fused.wavelengths == wl
