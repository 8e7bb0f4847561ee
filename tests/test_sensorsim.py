import ast
from pathlib import Path

import numpy as np
import pytest

from hspansharp.imgcore import SpectralImage
from hspansharp.sensorsim import (
    BlurKernel,
    SensorModel,
    add_gaussian_noise,
    blur,
    blur_downsample,
    default_pan_response,
    default_phase,
    kernel_from_mtf,
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

    def test_noise_std_must_be_nonnegative(self):
        resp = np.full((1, 4), 0.25)
        with pytest.raises(ValueError):
            SensorModel(4, BlurKernel.impulse(), resp, hs_noise_std=[-1.0])
        with pytest.raises(ValueError):
            SensorModel(4, BlurKernel.impulse(), resp, pan_noise_std=-0.1)

    def test_ratio_must_be_positive(self):
        with pytest.raises(ValueError):
            SensorModel(0, BlurKernel.impulse(), np.full((1, 4), 0.25))


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


class TestBlur:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 4), (2, 3), (5, 7), (9, 4)])
    @pytest.mark.parametrize("ratio", [2, 3, 4, 5, 6])
    def test_matches_loop_oracle(self, ratio, shape):
        # Most of these grids are smaller than the kernel radius.
        cube = random_img(2, *shape, seed=ratio).to_cube()
        taps = kernel_from_mtf(ratio, 0.3).taps
        np.testing.assert_allclose(
            blur(cube, taps), oracle_blur_cube(cube, taps), rtol=0, atol=1e-12
        )

    def test_only_sensorsim_imports_scipy_ndimage(self):
        # The reflect boundary rule is defined once, by `degrade_axis`.
        package = Path(__file__).resolve().parents[1] / "src" / "hspansharp"
        importers = set()
        for path in package.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                else:
                    continue
                if any(n == "scipy.ndimage" or n.startswith("scipy.ndimage.") for n in names):
                    importers.add(path.relative_to(package).as_posix())
        assert importers == {"sensorsim.py"}

    def test_each_public_name_has_one_module(self):
        # A module's `__all__` lists exactly its public top-level functions,
        # classes and constants, and a package binds no public name, so each
        # name is imported from the one module that defines it.
        package = Path(__file__).resolve().parents[1] / "src" / "hspansharp"
        for path in sorted(package.rglob("*.py")):
            where = path.relative_to(package).as_posix()
            bound, imported, exported = set(), set(), None
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    bound.add(node.name)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    imported.update((a.asname or a.name).split(".")[0] for a in node.names)
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if target.id == "__all__":
                            exported = ast.literal_eval(node.value)
                        bound.add(target.id)
            public = {n for n in bound if not n.startswith("_")}
            if path.name == "__init__.py":
                assert exported is None, where
                assert not {n for n in bound | imported if not n.startswith("_")}, where
            elif path.name != "__main__.py":
                assert exported is not None, where
                assert len(exported) == len(set(exported)), where
                assert set(exported) == public, where


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
