import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import convolve1d

from hspansharp.fusion.bayes import (
    HySureParams,
    bayes_naive_solve,
    default_hysure_params,
    estimate_sensor,
    hysure_solve,
    learn_subspace,
)
from hspansharp.fusion.cnmf import cnmf_solve, vca
from hspansharp.fusion.cs import fuse_gs, fuse_gsa, fuse_pca
from hspansharp.fusion.hybrid import _axis_window_mean, gfpca_stream
from hspansharp.fusion.mra import box_lowpass, fuse_mtf_glp, fuse_mtf_glp_hpm, fuse_sfim
from hspansharp.harness.cli import main
from hspansharp.harness.config import RunConfig
from hspansharp.imgcore import DynamicRange, SpectralImage
from hspansharp.resample import _axis_matrix, interpolate, upsample
from hspansharp.sensorsim import (
    GNYQ,
    BlurKernel,
    SensorModel,
    add_gaussian_noise,
    assumed_model,
    blur_downsample,
    default_pan_response,
    default_phase,
    degrade,
    degrade_axis,
    kernel_from_mtf,
    separable,
    synth_pan,
)

from oracles import oracle_blur_cube, oracle_blur_downsample, oracle_synth_pan


def random_img(bands, height, width, seed=0):
    rng = np.random.default_rng(seed)
    return SpectralImage(height, width, rng.uniform(0.1, 1.0, (bands, height * width)))


def dtft_mag(taps: np.ndarray, omega: float) -> float:
    radius = taps.size // 2
    k = np.arange(-radius, radius + 1)
    return float(abs(np.sum(taps * np.exp(-1j * omega * k))))


class TestBlurKernel:
    def test_accepts_valid_taps(self):
        k = BlurKernel([0.25, 0.5, 0.25])
        assert k.radius == 1

    def test_impulse(self):
        k = BlurKernel.impulse()
        assert k.taps.tolist() == [1.0]
        assert k.radius == 0

    def test_rejects_even_count(self):
        with pytest.raises(ValueError):
            BlurKernel([0.5, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BlurKernel([-0.1, 1.2, -0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # Checked before the symmetry test, which a NaN tap also fails.
        with pytest.raises(ValueError, match="^kernel taps must be finite$"):
            BlurKernel([0.25, bad, 0.25])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            BlurKernel([0.2, 0.5, 0.3])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            BlurKernel([0.3, 0.3, 0.3])

    def test_taps_readonly(self):
        k = BlurKernel([0.25, 0.5, 0.25])
        with pytest.raises(ValueError):
            k.taps[0] = 1.0


class TestSensorModel:
    def test_basic_construction(self):
        m = SensorModel(4, BlurKernel.impulse(), np.full((1, 5), 0.2))
        assert m.ratio == 4
        assert m.spectral_response.shape == (1, 5)

    def test_response_row_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SensorModel(4, BlurKernel.impulse(), np.full((1, 5), 0.5))

    def test_response_must_be_nonnegative(self):
        row = np.array([1.5, -0.5])
        with pytest.raises(ValueError):
            SensorModel(4, BlurKernel.impulse(), row)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_response_must_be_finite(self, bad):
        # Refused as non-finite, not as a row that misses its unit sum.
        with pytest.raises(ValueError, match="weights must be finite"):
            SensorModel(2, BlurKernel.impulse(), np.array([[bad, 0.5]]))

    def test_noise_std_must_be_nonnegative(self):
        resp = np.full((1, 4), 0.25)
        with pytest.raises(ValueError, match="nonnegative"):
            SensorModel(4, BlurKernel.impulse(), resp, hs_noise_std=[0.1, -1.0, 0.1, 0.1])
        with pytest.raises(ValueError, match="nonnegative"):
            SensorModel(4, BlurKernel.impulse(), resp, pan_noise_std=-0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_noise_std_must_be_finite(self, bad):
        resp = np.full((1, 4), 0.25)
        with pytest.raises(ValueError, match="finite"):
            SensorModel(4, BlurKernel.impulse(), resp, hs_noise_std=[0.1, bad, 0.1, 0.1])
        with pytest.raises(ValueError, match="finite"):
            SensorModel(4, BlurKernel.impulse(), resp, pan_noise_std=bad)
        with pytest.raises(ValueError, match="finite"):
            add_gaussian_noise(SpectralImage(1, 2, np.zeros((1, 2))), bad, seed=0)

    def test_noise_std_rule_has_one_home(self):
        # The Y_H stds, the PAN std and `add_gaussian_noise`'s stds are
        # refused by one check, so the message is written once.
        message = "noise standard deviations must be finite and nonnegative"
        with pytest.raises(ValueError, match=message):
            add_gaussian_noise(SpectralImage(1, 1, np.zeros((1, 1))), -0.1, seed=0)

    def test_unknown_noise_is_zero_per_band(self):
        m = SensorModel(4, BlurKernel.impulse(), np.full((2, 5), 0.2))
        np.testing.assert_array_equal(m.hs_noise_std, np.zeros(5))
        assert not m.hs_noise_std.flags.writeable

    @pytest.mark.parametrize("stds", [[], [0.1], [0.1] * 3, [0.1] * 5])
    def test_noise_std_needs_one_per_band(self, stds):
        resp = np.full((1, 4), 0.25)
        with pytest.raises(ValueError, match=f"{len(stds)} noise stds for 4 bands"):
            SensorModel(4, BlurKernel.impulse(), resp, hs_noise_std=stds)

    def test_ratio_must_be_positive(self):
        with pytest.raises(ValueError):
            SensorModel(0, BlurKernel.impulse(), np.full((1, 4), 0.25))


class TestAssumedModel:
    def test_is_the_default_blur_and_pan_response(self):
        wl = np.linspace(0.4, 0.9, 12)
        for gnyq in (GNYQ, 0.45):
            model = assumed_model(3, 12, wl, gnyq)
            assert model.ratio == 3
            assert model.blur == kernel_from_mtf(3, gnyq)
            np.testing.assert_array_equal(
                model.spectral_response, default_pan_response(12, wl)[np.newaxis, :]
            )
            np.testing.assert_array_equal(model.hs_noise_std, np.zeros(12))
            assert model.pan_noise_std == 0.0

    def test_kernel_gain_defaults_to_gnyq(self):
        assert GNYQ == 0.3
        assert kernel_from_mtf(4) == kernel_from_mtf(4, GNYQ)



# Every public entry point that takes a resolution ratio, as a call of the
# ratio alone on a 3-band 4x4 Y_H and its 8x8 PAN (a ratio-2 pair).
_Y_H = SpectralImage(4, 4, np.random.default_rng(3).uniform(0.1, 1.0, (3, 16)))
_PAN = SpectralImage(8, 8, np.random.default_rng(4).uniform(0.1, 1.0, (1, 64)))
_RANGE = DynamicRange(0.0, 2.0)
RATIO_TAKERS = {
    "kernel_from_mtf": lambda r: kernel_from_mtf(r),
    "SensorModel": lambda r: SensorModel(r, BlurKernel.impulse(), np.full((1, 3), 1 / 3)),
    "blur_downsample": lambda r: blur_downsample(_PAN, BlurKernel.impulse(), r),
    "degrade": lambda r: degrade(_PAN.to_cube(), np.ones(1), r),
    "upsample": lambda r: upsample(_Y_H, r),
    "interpolate": lambda r: interpolate(_Y_H.to_cube(), r),
    "box_lowpass": lambda r: box_lowpass(_PAN.to_cube(), r),
    "fuse_sfim": lambda r: fuse_sfim(_Y_H, _PAN, r, _RANGE),
    "fuse_mtf_glp": lambda r: fuse_mtf_glp(_Y_H, _PAN, r, GNYQ, _RANGE),
    "fuse_mtf_glp_hpm": lambda r: fuse_mtf_glp_hpm(_Y_H, _PAN, r, GNYQ, _RANGE),
    "fuse_gs": lambda r: fuse_gs(_Y_H, _PAN, r),
    "fuse_gsa": lambda r: fuse_gsa(_Y_H, _PAN, r, kernel_from_mtf(2)),
    "fuse_pca": lambda r: fuse_pca(_Y_H, _PAN, r),
    "fuse_gfpca": lambda r: gfpca_stream(_Y_H, _PAN, r).image(),
}


class TestCheckRatio:
    """A ratio is a positive integer everywhere, refused and never truncated,
    with one message written once, in `sensorsim.check_ratio`."""

    @pytest.mark.parametrize("ratio", [2.5, 2.0, True, 0], ids=["2.5", "2.0", "True", "0"])
    @pytest.mark.parametrize("taker", [*RATIO_TAKERS, "eval"])
    def test_bad_ratio_is_refused(self, taker, ratio, capsys):
        message = f"ratio must be a positive integer, got {ratio!r}"
        if taker != "eval":
            with pytest.raises(ValueError) as caught:
                RATIO_TAKERS[taker](ratio)
            assert str(caught.value) == message
            return
        argv = ["eval", "--fused", "f", "--truth", "t", "--ratio", str(ratio)]
        if ratio == 0:
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            return
        # argparse refuses what is not an int before the command runs.
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        assert "invalid int value" in capsys.readouterr().err

    @pytest.mark.parametrize("taker", RATIO_TAKERS)
    def test_numpy_integer_is_accepted(self, taker):
        assert RATIO_TAKERS[taker](np.int64(2)) is not None

    def test_numpy_integer_comes_back_as_int(self):
        model = SensorModel(np.int64(2), BlurKernel.impulse(), np.full((1, 3), 1 / 3))
        assert type(model.ratio) is int and model.ratio == 2



# Every entry point that takes a size, count, budget or seed other than a
# ratio, as a call of that integer alone on the ratio-2 pair above.
_MODEL = assumed_model(2, 3, None, GNYQ)
INTEGER_TAKERS = {
    "SpectralImage height": lambda v: SpectralImage(v, 1, np.ones((1, 3))),
    "SpectralImage width": lambda v: SpectralImage(1, v, np.ones((1, 3))),
    "learn_subspace": lambda v: learn_subspace(_Y_H, v),
    "vca": lambda v: vca(_Y_H.data, v),
    "estimate_sensor support": lambda v: estimate_sensor(_Y_H, _PAN, v),
    "estimate_sensor max_alternations": lambda v: estimate_sensor(
        _Y_H, _PAN, 1, max_alternations=v
    ),
    "cnmf_solve outer_iters": lambda v: cnmf_solve(
        _Y_H, _PAN, _MODEL, 2, outer_iters=v, inner_iters=1
    ),
    "cnmf_solve inner_iters": lambda v: cnmf_solve(
        _Y_H, _PAN, _MODEL, 2, outer_iters=1, inner_iters=v
    ),
    "HySureParams": lambda v: HySureParams(max_iters=v),
    "bayes_naive_solve": lambda v: bayes_naive_solve(
        _Y_H, _PAN, _MODEL, learn_subspace(_Y_H, 2), sigma_rounds=v
    ),
    "add_gaussian_noise": lambda v: add_gaussian_noise(_Y_H, 0.1, v),
}


# Every model-based solver, as a call of the sensor model alone on the
# ratio-2 pair above.
MODEL_TAKERS = {
    "cnmf_solve": lambda m: cnmf_solve(_Y_H, _PAN, m, 2, outer_iters=1, inner_iters=1),
    "bayes_naive_solve": lambda m: bayes_naive_solve(_Y_H, _PAN, m, learn_subspace(_Y_H, 2)),
    "hysure_solve": lambda m: hysure_solve(
        _Y_H, _PAN, learn_subspace(_Y_H, 2), m, HySureParams(max_iters=1)
    ),
    "default_hysure_params": lambda m: default_hysure_params(
        _Y_H, _PAN, learn_subspace(_Y_H, 2), m
    ),
}


class TestModelPair:
    """A pair that does not fit the sensor model's spectral response is
    refused by every model-based solver with one message, written once, in
    `sensorsim.check_model_pair`."""

    @pytest.mark.parametrize(
        "response, shape",
        [(np.full((2, 3), 1 / 3), "2x3"), (np.full((1, 4), 1 / 4), "1x4")],
        ids=["two-rows", "four-columns"],
    )
    @pytest.mark.parametrize("taker", MODEL_TAKERS)
    def test_response_that_misses_the_pair_is_refused(self, taker, response, shape):
        model = SensorModel(2, kernel_from_mtf(2), response)
        with pytest.raises(ValueError) as caught:
            MODEL_TAKERS[taker](model)
        assert str(caught.value) == (
            f"spectral response is {shape}, not 1x3 (PAN bands x Y_H bands)"
        )

class TestIntegerRule:
    """Sizes, counts, budgets and seeds follow `imgcore.is_integer`: a float
    or a bool is refused with a message that names it, never truncated."""

    @pytest.mark.parametrize("value", [2.5, 2.0, True], ids=["2.5", "2.0", "True"])
    @pytest.mark.parametrize("taker", INTEGER_TAKERS)
    def test_bad_integer_is_refused(self, taker, value):
        with pytest.raises(ValueError) as caught:
            INTEGER_TAKERS[taker](value)
        assert repr(value) in str(caught.value)

    @pytest.mark.parametrize("taker", INTEGER_TAKERS)
    def test_numpy_integer_is_accepted(self, taker):
        assert INTEGER_TAKERS[taker](np.int64(3)) is not None

    @pytest.mark.parametrize(
        "taker, value",
        [("estimate_sensor max_alternations", 0), ("bayes_naive_solve", -1),
         ("add_gaussian_noise", -1)],
    )
    def test_budget_below_range_is_refused(self, taker, value):
        # Zero alternations returned the uniform start and -1 sigma rounds
        # the prior mean, each without an error.
        with pytest.raises(ValueError, match=f"got {value}$"):
            INTEGER_TAKERS[taker](value)

class TestKernelFromMtf:
    @pytest.mark.parametrize("ratio", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("gnyq", [0.2, 0.3, 0.5])
    def test_response_at_output_nyquist(self, ratio, gnyq):
        taps = kernel_from_mtf(ratio, gnyq).taps
        assert abs(dtft_mag(taps, np.pi / ratio) - gnyq) <= 0.02

    def test_unit_dc_gain(self):
        taps = kernel_from_mtf(5, 0.3).taps
        assert taps.sum() == pytest.approx(1.0, abs=1e-15)

    def test_wider_for_lower_gain(self):
        assert kernel_from_mtf(5, 0.1).radius > kernel_from_mtf(5, 0.6).radius

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            kernel_from_mtf(5, 0.0)
        with pytest.raises(ValueError):
            kernel_from_mtf(5, 1.0)
        with pytest.raises(ValueError):
            kernel_from_mtf(0, 0.3)

    @pytest.mark.parametrize("gnyq", [0.0, 1.0, 1.5, -0.3])
    def test_gain_rule_has_one_message(self, gnyq):
        message = "gnyq must lie strictly between 0 and 1"
        with pytest.raises(ValueError, match=f"^{message}$"):
            kernel_from_mtf(5, gnyq)
        with pytest.raises(ValueError, match=f"^{message}$"):
            RunConfig(gnyq=gnyq).validate()


class TestBlur:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 4), (2, 3), (5, 7), (9, 4)])
    @pytest.mark.parametrize("ratio", [2, 3, 4, 5, 6])
    def test_matches_loop_oracle(self, ratio, shape):
        # The blur is `degrade` at ratio 1. Most of these grids are smaller
        # than the kernel radius.
        cube = random_img(2, *shape, seed=ratio).to_cube()
        taps = kernel_from_mtf(ratio, 0.3).taps
        np.testing.assert_allclose(
            degrade(cube, taps, 1), oracle_blur_cube(cube, taps), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize(
        "taps",
        [kernel_from_mtf(r, g).taps for r in range(1, 8) for g in (0.2, 0.3, 0.5)]
        + [np.full(k, 1.0 / k) for k in (1, 3, 5, 9)],
        ids=[f"mtf{r}-{g}" for r in range(1, 8) for g in (0.2, 0.3, 0.5)]
        + [f"box{k}" for k in (1, 3, 5, 9)],
    )
    def test_axis_matrix_is_scipy_reflect_convolution(self, taps):
        # scipy.ndimage's "reflect" mode is the definition of the boundary
        # rule that `stencil_matrix` implements; many of these lines are
        # shorter than the kernel radius.
        for n in [*range(1, 61), 97, 100, 125, 320, 480]:
            want = convolve1d(np.eye(n), taps, axis=0, mode="reflect")
            np.testing.assert_allclose(degrade_axis(n, taps, 1), want, rtol=0, atol=1e-15)

    def test_cli_import_loads_no_scipy(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); "
            "import hspansharp.harness.cli, hspansharp.harness.bench; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, timeout=120,
        )
        assert out.stdout.strip() == "[]"



def axis_pairs(family):
    """(rows, cols) pairs of one family of per-axis matrices the package
    builds. Heights and widths, in and out, fall below, above and between
    multiples of the 32-sample block of either product, and below the blur
    radius and the window width. The eigenbases are dense, as in
    BayesNaive's transforms."""
    sizes = [(5, 3), (31, 70), (70, 45), (1, 7), (33, 97)]
    pairs = []
    for h, w in sizes:
        if family in ("bilinear", "bicubic"):
            pairs += [(_axis_matrix(h, r, family), _axis_matrix(w, r, family))
                      for r in range(1, 7)]
        elif family == "interpolation-gram":
            for r in range(1, 7):
                rows, cols = _axis_matrix(h, r, "bicubic"), _axis_matrix(w, r, "bicubic")
                pairs.append((rows.T @ rows, cols.T @ cols))
        elif family in ("degrade", "degrade-adjoint", "degrade-eigenbasis"):
            for r in range(1, 6):
                taps = kernel_from_mtf(r, 0.3).taps
                rows, cols = degrade_axis(h, taps, r), degrade_axis(w, taps, r)
                if family == "degrade-adjoint":
                    rows, cols = rows.T, cols.T
                elif family == "degrade-eigenbasis":
                    rows, cols = (np.linalg.eigh(m.T @ m)[1] for m in (rows, cols))
                pairs.append((rows, cols))
        elif family == "window":
            pairs += [(_axis_window_mean(h, d), _axis_window_mean(w, d))
                      for d in range(1, 7)]
    return pairs


class TestSeparable:
    FAMILIES = ["bilinear", "bicubic", "interpolation-gram", "degrade",
                "degrade-adjoint", "degrade-eigenbasis", "window"]

    @pytest.mark.parametrize("planes", [(), (3,)], ids=["plane", "stack"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_dense_product(self, family, planes):
        rng = np.random.default_rng(len(family))
        eps = np.finfo(np.float64).eps
        for rows, cols in axis_pairs(family):
            z = rng.uniform(-1.0, 1.0, planes + (rows.shape[1], cols.shape[1]))
            want = rows @ z @ cols.T
            got = separable(rows, z, cols)
            assert got.shape == want.shape
            scale = np.abs(want).max(initial=0.0)
            np.testing.assert_allclose(got, want, rtol=0, atol=4 * eps * scale)
            assert not np.shares_memory(got, z)

    @pytest.mark.parametrize("expanding", [False, True])
    def test_out_is_written_in_place(self, expanding):
        # Either order of the two products; `out` starts as NaN, so every
        # sample must be written.
        rng = np.random.default_rng(3)
        if expanding:
            rows, cols = _axis_matrix(13, 3, "bicubic"), _axis_matrix(23, 3, "bicubic")
        else:
            taps = kernel_from_mtf(3, 0.3).taps
            rows, cols = degrade_axis(39, taps, 3), degrade_axis(69, taps, 3)
        z = rng.uniform(-1.0, 1.0, (2, rows.shape[1], cols.shape[1]))
        out = np.full((2, rows.shape[0], cols.shape[0]), np.nan)
        assert separable(rows, z, cols, out) is out
        np.testing.assert_array_equal(out, separable(rows, z, cols))
        want = rows @ z @ cols.T
        eps = np.finfo(np.float64).eps
        np.testing.assert_allclose(out, want, rtol=0, atol=4 * eps * np.abs(want).max())

    def test_columns_without_weights_give_zeros(self):
        # Column blocks whose outputs read nothing multiply an empty span,
        # also into an `out` that held other values.
        rng = np.random.default_rng(4)
        rows = rng.uniform(size=(9, 6))
        cols = rng.uniform(size=(100, 40))
        cols[10:80] = 0.0
        z = rng.uniform(size=(2, 6, 40))
        out = np.full((2, 9, 100), np.nan)
        separable(rows, z, cols, out)
        np.testing.assert_array_equal(out[..., 10:80], 0.0)
        np.testing.assert_allclose(out, rows @ z @ cols.T, rtol=1e-14, atol=0)

    def test_rows_without_weights_give_zeros(self):
        # Blocks whose rows read nothing multiply an empty span.
        rng = np.random.default_rng(2)
        rows = rng.uniform(size=(100, 40))
        rows[10:80] = 0.0
        cols = rng.uniform(size=(9, 6))
        z = rng.uniform(size=(2, 40, 6))
        got = separable(rows, z, cols)
        np.testing.assert_array_equal(got[:, 10:80], 0.0)
        np.testing.assert_allclose(got, rows @ z @ cols.T, rtol=1e-14, atol=0)


class TestBlurDownsample:
    def test_matches_loop_oracle(self):
        img = random_img(3, 6, 4, seed=3)
        kernel = kernel_from_mtf(2, 0.5)
        got = blur_downsample(img, kernel, 2)
        want = oracle_blur_downsample(img.to_cube(), kernel.taps, 2, default_phase(2))
        assert got.height == 3 and got.width == 2
        np.testing.assert_allclose(got.to_cube(), want, rtol=0, atol=1e-12)

    def test_impulse_kernel_is_pure_decimation(self):
        img = random_img(2, 6, 6, seed=1)
        out = blur_downsample(img, BlurKernel.impulse(), 3)
        phase = default_phase(3)
        np.testing.assert_array_equal(
            out.to_cube(), img.to_cube()[:, phase::3, phase::3]
        )

    def test_constant_preserved_exactly(self):
        img = SpectralImage(6, 6, np.full((2, 36), 0.7))
        out = blur_downsample(img, kernel_from_mtf(3, 0.3), 3)
        np.testing.assert_allclose(out.data, 0.7, rtol=0, atol=1e-12)

    def test_default_phase_centers_blocks(self):
        assert default_phase(5) == 2
        assert default_phase(4) == 2
        assert default_phase(1) == 0

    def test_phase_range(self):
        # The one decimation phase lies inside each block, and the impulse
        # kernel keeps exactly its rows and columns.
        for ratio in range(1, 8):
            phase = default_phase(ratio)
            assert 0 <= phase < ratio
            img = random_img(1, 2 * ratio, 3 * ratio, seed=ratio)
            out = blur_downsample(img, BlurKernel.impulse(), ratio)
            np.testing.assert_array_equal(
                out.to_cube(), img.to_cube()[:, phase::ratio, phase::ratio]
            )

    def test_dimension_divisibility(self):
        img = random_img(1, 5, 4)
        with pytest.raises(ValueError):
            blur_downsample(img, BlurKernel.impulse(), 3)

    def test_wavelengths_carried(self):
        img = SpectralImage(4, 4, np.ones((2, 16)), wavelengths=(0.4, 0.5))
        out = blur_downsample(img, BlurKernel.impulse(), 2)
        assert out.wavelengths == (0.4, 0.5)


class TestSynthPan:
    def test_matches_loop_oracle(self):
        img = random_img(5, 3, 4, seed=9)
        row = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
        got = synth_pan(img, row)
        assert got.bands == 1
        np.testing.assert_allclose(
            got.data[0], oracle_synth_pan(img.data, row), rtol=0, atol=1e-12
        )

    def test_linearity(self):
        a = random_img(3, 2, 2, seed=1)
        b = random_img(3, 2, 2, seed=2)
        row = np.array([0.5, 0.25, 0.25])
        lhs = synth_pan(a.with_data(a.data + 2.0 * b.data), row)
        rhs = synth_pan(a, row).data + 2.0 * synth_pan(b, row).data
        np.testing.assert_allclose(lhs.data, rhs, rtol=0, atol=1e-12)

    def test_weight_count_mismatch(self):
        with pytest.raises(ValueError):
            synth_pan(random_img(3, 2, 2), [0.5, 0.5])


class TestAddGaussianNoise:
    def test_deterministic_given_seed(self):
        img = random_img(3, 4, 4, seed=5)
        a = add_gaussian_noise(img, 0.05, seed=11)
        b = add_gaussian_noise(img, 0.05, seed=11)
        assert a == b
        c = add_gaussian_noise(img, 0.05, seed=12)
        assert a != c

    def test_per_band_substreams(self):
        # Band k's samples depend only on (seed, k), not on the other bands.
        img = random_img(3, 4, 4, seed=5)
        full = add_gaussian_noise(img, [0.1, 0.2, 0.3], seed=7)
        for k in range(3):
            rng = np.random.default_rng([7, k])
            want = img.data[k] + [0.1, 0.2, 0.3][k] * rng.standard_normal(16)
            np.testing.assert_array_equal(full.data[k], want)

    def test_zero_std_band_untouched(self):
        img = random_img(2, 3, 3)
        out = add_gaussian_noise(img, [0.0, 0.5], seed=3)
        np.testing.assert_array_equal(out.data[0], img.data[0])
        assert not np.array_equal(out.data[1], img.data[1])

    def test_scalar_std_broadcasts(self):
        img = random_img(2, 3, 3)
        a = add_gaussian_noise(img, 0.2, seed=1)
        b = add_gaussian_noise(img, [0.2, 0.2], seed=1)
        assert a == b

    def test_validation(self):
        img = random_img(2, 3, 3)
        with pytest.raises(ValueError):
            add_gaussian_noise(img, [0.1, 0.1, 0.1], seed=0)
        with pytest.raises(ValueError):
            add_gaussian_noise(img, -0.1, seed=0)


class TestDefaultPanResponse:
    def test_window_selection(self):
        # default window is (0.48, 0.69), so only 0.50 and 0.60 qualify
        wl = (0.40, 0.50, 0.60, 0.70, 0.80)
        row = default_pan_response(5, wl)
        np.testing.assert_allclose(row, [0.0, 0.5, 0.5, 0.0, 0.0])

    def test_fallback_without_wavelengths(self):
        row = default_pan_response(6)
        np.testing.assert_allclose(row, [1 / 3, 1 / 3, 1 / 3, 0.0, 0.0, 0.0])
        assert row.sum() == pytest.approx(1.0)

    def test_empty_window_errors(self):
        with pytest.raises(ValueError):
            default_pan_response(2, (1.5, 1.6))
