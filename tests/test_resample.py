import numpy as np
import pytest

from hspansharp.imgcore import SpectralImage
from hspansharp.resample import _axis_matrix, upsample, upsample_data, upsampled_moments
from hspansharp.sensorsim import BlurKernel, blur_downsample, default_phase

from oracles import oracle_upsample


def ramp_img(bands, height, width):
    y, x = np.mgrid[0:height, 0:width]
    plane = (2.0 * x + 3.0 * y).astype(np.float64)
    data = np.stack([plane + k for k in range(bands)]).reshape(bands, -1)
    return SpectralImage(height, width, data)


class TestUpsample:
    def test_ratio_one_is_identity_copy(self):
        img = ramp_img(2, 3, 4)
        out = upsample(img, 1)
        assert out == img
        assert out is not img

    @pytest.mark.parametrize("method", ["bilinear", "bicubic"])
    @pytest.mark.parametrize("ratio", [2, 3, 5])
    def test_round_trip_through_decimation(self, method, ratio):
        # Input samples land exactly on the kept decimation sites.
        rng = np.random.default_rng(4)
        img = SpectralImage(4, 3, rng.uniform(size=(2, 12)))
        up = upsample(img, ratio, method)
        assert (up.height, up.width) == (4 * ratio, 3 * ratio)
        down = blur_downsample(up, BlurKernel.impulse(), ratio)
        np.testing.assert_allclose(down.data, img.data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(1, 4), (2, 3), (5, 3)])
    @pytest.mark.parametrize("method", ["bilinear", "bicubic"])
    @pytest.mark.parametrize("ratio", [2, 3, 4, 5])
    def test_matches_loop_oracle(self, ratio, method, shape):
        # Every output sample, the mirrored borders included.
        height, width = shape
        rng = np.random.default_rng(7)
        img = SpectralImage(height, width, rng.uniform(size=(2, height * width)))
        got = upsample(img, ratio, method).to_cube()
        want = oracle_upsample(img.to_cube(), ratio, method)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("method", ["bilinear", "bicubic"])
    def test_linear_ramp_reproduced_in_interior(self, method):
        ratio = 4
        img = ramp_img(1, 6, 6)
        out = upsample(img, ratio, method)
        phase = default_phase(ratio)
        y, x = np.mgrid[0 : 6 * ratio, 0 : 6 * ratio]
        want = 2.0 * (x - phase) / ratio + 3.0 * (y - phase) / ratio
        cube = out.to_cube()[0]
        # Stay clear of the mirrored border where the ramp is no longer linear.
        margin = 2 * ratio
        inner = np.s_[margin:-margin, margin:-margin]
        np.testing.assert_allclose(cube[inner], want[inner], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("method", ["bilinear", "bicubic"])
    def test_constant_exact_everywhere(self, method):
        img = SpectralImage(3, 3, np.full((2, 9), 0.42))
        out = upsample(img, 5, method)
        np.testing.assert_allclose(out.data, 0.42, rtol=0, atol=1e-12)

    def test_bilinear_hand_value(self):
        # 1-D pair (0, 1) upsampled by 2 with phase 1: output sample 2 sits
        # halfway between the two inputs.
        img = SpectralImage(1, 2, np.array([[0.0, 1.0]]))
        out = upsample(img, 2, "bilinear")
        assert out.to_cube()[0, 0, 2] == pytest.approx(0.5, abs=1e-15)
        # Samples aligned with the inputs keep their values.
        assert out.to_cube()[0, 1, 1] == pytest.approx(0.0, abs=1e-15)

    def test_wavelengths_preserved(self):
        img = SpectralImage(2, 2, np.ones((2, 4)), wavelengths=(0.4, 0.5))
        assert upsample(img, 3).wavelengths == (0.4, 0.5)

    def test_invalid_args(self):
        img = ramp_img(1, 2, 2)
        for fn in (upsample, upsample_data, upsampled_moments):
            with pytest.raises(ValueError):
                fn(img, 0)
            with pytest.raises(ValueError):
                fn(img, 2, method="nearest")


class TestUpsampleData:
    @pytest.mark.parametrize("method", ["bilinear", "bicubic"])
    @pytest.mark.parametrize("ratio", [1, 2, 3])
    def test_fresh_writable_copy_of_upsample(self, ratio, method):
        img = ramp_img(3, 4, 5)
        got = upsample_data(img, ratio, method)
        np.testing.assert_array_equal(got, upsample(img, ratio, method).data)
        assert got.shape == (3, 20 * ratio * ratio)
        assert got.flags.writeable
        assert not np.shares_memory(got, img.data)


class TestUpsampledMoments:
    @pytest.mark.parametrize("method", ["bilinear", "bicubic"])
    @pytest.mark.parametrize("ratio", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_axis_rows_sum_to_one(self, n, ratio, method):
        # Interpolation maps a constant to itself, so centring commutes with
        # it; `upsampled_moments` is exact only because of this. Up to four
        # cubic-polynomial taps are summed, so allow a few ulps of rounding.
        rows = _axis_matrix(n, ratio, method).sum(axis=1)
        np.testing.assert_allclose(rows, 1.0, rtol=0, atol=8 * np.finfo(float).eps)

    @pytest.mark.parametrize("method", ["bilinear", "bicubic"])
    @pytest.mark.parametrize("ratio", [2, 3, 4, 5])
    @pytest.mark.parametrize("shape", [(4, 7), (6, 3), (1, 5), (5, 1)])
    def test_match_formed_cube(self, shape, ratio, method):
        height, width = shape
        rng = np.random.default_rng(ratio * 10 + height)
        img = SpectralImage(
            height, width, rng.uniform(0.1, 1.0, (4, height * width)) + np.arange(4)[:, None]
        )
        means, cov = upsampled_moments(img, ratio, method)
        formed = upsample_data(img, ratio, method)
        want_cov = np.cov(formed, bias=True)
        np.testing.assert_allclose(
            means, formed.mean(axis=1), rtol=0, atol=1e-12 * np.abs(formed).max()
        )
        np.testing.assert_allclose(
            cov, want_cov, rtol=0, atol=1e-12 * np.abs(want_cov).max()
        )
