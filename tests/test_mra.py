import numpy as np
import pytest

from hspansharp.fusion.mra import (
    _equalized_fusion,
    _hpm_gain,
    box_lowpass,
    fuse_mtf_glp,
    fuse_mtf_glp_hpm,
    fuse_sfim,
    glp_lowpass,
)
from hspansharp.imgcore import DynamicRange, SpectralImage
from hspansharp.resample import upsample

from oracles import oracle_blur_cube, oracle_equalized_fusion

WIDE = DynamicRange(-1e6, 1e6)


def random_img(bands, height, width, seed=0):
    rng = np.random.default_rng(seed)
    return SpectralImage(height, width, rng.uniform(0.1, 1.0, (bands, height * width)))


class TestBoxLowpass:
    def test_matches_separable_loop_oracle(self):
        pan = random_img(1, 6, 5, seed=1)
        ratio = 2
        taps = np.full(2 * ratio + 1, 1.0 / (2 * ratio + 1))
        got = box_lowpass(pan, ratio)
        want = oracle_blur_cube(pan.to_cube(), taps)
        np.testing.assert_allclose(got.to_cube(), want, rtol=0, atol=1e-12)

    def test_interior_impulse_response(self):
        data = np.zeros((1, 49))
        data[0, 3 * 7 + 3] = 1.0
        pan = SpectralImage(7, 7, data)
        out = box_lowpass(pan, 1).to_cube()[0]
        np.testing.assert_allclose(out[2:5, 2:5], 1.0 / 9.0, rtol=0, atol=1e-15)
        assert out[0, 0] == 0.0

    def test_constant_preserved(self):
        pan = SpectralImage(6, 6, np.full((1, 36), 0.3))
        out = box_lowpass(pan, 2)
        np.testing.assert_allclose(out.data, 0.3, rtol=0, atol=1e-12)


class TestGlpLowpass:
    def test_constant_preserved_exactly(self):
        pan = SpectralImage(8, 8, np.full((1, 64), 1.25))
        out = glp_lowpass(pan, 2, 0.3)
        np.testing.assert_allclose(out.data, 1.25, rtol=0, atol=1e-12)

    def test_output_grid_nyquist_stripes_removed(self):
        # Columns alternating 0/1 sit at the Nyquist frequency of the
        # decimated grid for ratio 2; the GLP must attenuate them to well
        # under 0.35 of the input amplitude. Mirror extension breaks the
        # alternation at the frame, so amplitude is measured away from it.
        height, width = 20, 40
        cols = np.tile(np.arange(width) % 2, (height, 1)).astype(np.float64)
        pan = SpectralImage(height, width, cols.reshape(1, -1))
        out = glp_lowpass(pan, 2, 0.3).to_cube()[0]
        interior = out[:, 10:-10]
        amplitude = np.abs(interior - 0.5).max()
        assert amplitude <= 0.35 * 0.5
        assert amplitude <= 0.05

    def test_geometry_preserved(self):
        pan = random_img(1, 10, 10, seed=2)
        out = glp_lowpass(pan, 5, 0.3)
        assert (out.height, out.width) == (10, 10)


class TestHpmGain:
    def test_hand_value(self):
        # gain = Y / P_L = 3 / 1.5 = 2
        out = np.empty(1)
        gain = _hpm_gain(np.array([3.0]), np.array([1.5]), DynamicRange(0.0, 10.0), out)
        assert gain is out
        assert gain[0] == 2.0

    def test_guard_on_vanishing_lowpass(self):
        # The guard is 1e-8 of the span 10: |P_L| = 5e-8 falls below it and
        # gets unit gain instead of a division; 2e-7 lies above and divides.
        rng = DynamicRange(0.0, 10.0)
        gain = _hpm_gain(np.array([3.0, 3.0]), np.array([5e-8, 2e-7]), rng, np.empty(2))
        assert gain[0] == 1.0
        assert gain[1] == pytest.approx(3.0 / 2e-7)


class TestConstantPanFixedPoint:
    # A flat PAN carries no detail, so each method must return the plain
    # interpolated bands.
    @pytest.mark.parametrize(
        "method",
        [
            lambda y, p, r: fuse_sfim(y, p, r, WIDE),
            lambda y, p, r: fuse_mtf_glp(y, p, r, 0.3, WIDE),
            lambda y, p, r: fuse_mtf_glp_hpm(y, p, r, 0.3, WIDE),
        ],
        ids=["sfim", "mtf_glp", "mtf_glp_hpm"],
    )
    def test_constant_pan(self, method):
        y_h = random_img(3, 4, 4, seed=7)
        ratio = 3
        pan = SpectralImage(12, 12, np.full((1, 144), 0.6))
        fused = method(y_h, pan, ratio)
        want = upsample(y_h, ratio, "bicubic")
        np.testing.assert_allclose(fused.data, want.data, rtol=0, atol=1e-10)


class TestEqualizedFusion:
    def test_sfim_constant_scene_identity(self):
        # Flat bands with a varying PAN: equalization scales detail by
        # std(Y) = 0, so the bands pass through (HPM multiplies zero detail).
        y_h = SpectralImage(4, 4, np.full((2, 16), 0.4))
        pan = random_img(1, 8, 8, seed=8)
        fused = fuse_sfim(y_h, pan, 2, DynamicRange(0.0, 1.0))
        np.testing.assert_allclose(fused.data, 0.4, rtol=0, atol=1e-12)

    def test_mtf_glp_injects_detail(self):
        y_h = random_img(3, 4, 4, seed=9)
        pan = random_img(1, 12, 12, seed=10)
        fused = fuse_mtf_glp(y_h, pan, 3, 0.3, WIDE)
        flat = upsample(y_h, 3, "bicubic")
        assert not np.allclose(fused.data, flat.data)
        assert (fused.bands, fused.height, fused.width) == (3, 12, 12)

    def test_hpm_respects_range(self):
        y_h = random_img(2, 4, 4, seed=11)
        pan = random_img(1, 8, 8, seed=12)
        rng = DynamicRange(0.0, 1.0)
        for fn in (fuse_sfim, fuse_mtf_glp_hpm):
            fused = (
                fn(y_h, pan, 2, rng)
                if fn is fuse_sfim
                else fn(y_h, pan, 2, 0.3, rng)
            )
            assert fused.data.min() >= 0.0
            assert fused.data.max() <= 1.0

    @pytest.mark.parametrize("name", ["sfim", "mtf_glp", "mtf_glp_hpm"])
    def test_matches_loop_oracle(self, name):
        # A range narrower than the data makes HPM clip.
        y_h = random_img(3, 5, 4, seed=21)
        pan = random_img(1, 15, 12, seed=22)
        ratio = 3
        rng = DynamicRange(0.3, 0.7)
        if name == "sfim":
            got = fuse_sfim(y_h, pan, ratio, rng)
            pan_low, gains = box_lowpass(pan, ratio), "hpm"
        elif name == "mtf_glp":
            got = fuse_mtf_glp(y_h, pan, ratio, 0.3, rng)
            pan_low, gains = glp_lowpass(pan, ratio, 0.3), "additive"
        else:
            got = fuse_mtf_glp_hpm(y_h, pan, ratio, 0.3, rng)
            pan_low, gains = glp_lowpass(pan, ratio, 0.3), "hpm"
        want = oracle_equalized_fusion(
            upsample(y_h, ratio, "bicubic").data,
            pan.data[0],
            pan_low.data[0],
            rng.lo,
            rng.hi,
            gains,
        )
        scale = np.abs(want).max()
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12 * scale)
        if gains == "hpm":
            at_bound = (got.data == rng.lo) | (got.data == rng.hi)
            assert at_bound.any() and not at_bound.all()

    def test_hpm_divisor_guard_matches_loop_oracle(self):
        # Band 0 has mean exactly 0 and P_L equals mean(P) at pixel 0, so
        # P_L,eq^0 vanishes there and the guard sets the gain to 1 while
        # the detail is nonzero. Ratio 1 keeps the bands as given.
        rng_gen = np.random.default_rng(23)
        band0 = np.tile([0.5, -0.5, 0.25, -0.25], 4)
        data = np.vstack([band0, rng_gen.uniform(0.1, 1.0, 16)])
        y_h = SpectralImage(4, 4, data)
        pan = random_img(1, 4, 4, seed=24)
        p_l = rng_gen.uniform(0.1, 1.0, 16)
        p_l[0] = pan.data[0].mean()
        pan_low = SpectralImage(4, 4, p_l[np.newaxis, :])
        rng = DynamicRange(-2.0, 2.0)
        got = _equalized_fusion(y_h, pan, pan_low, 1, rng, "hpm")
        want = oracle_equalized_fusion(data, pan.data[0], p_l, rng.lo, rng.hi, "hpm")
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)
        assert pan.data[0, 0] != p_l[0]
        scale = band0.std() / p_l.std()
        gain_one = band0[0] + scale * (pan.data[0, 0] - p_l[0])
        assert got.data[0, 0] == pytest.approx(gain_one, abs=1e-12)

    def test_pan_dims_validated(self):
        y_h = random_img(2, 4, 4)
        pan = random_img(1, 9, 9)
        with pytest.raises(ValueError):
            fuse_sfim(y_h, pan, 2, WIDE)

    @pytest.mark.parametrize("fuse", [
        lambda y_h, pan: fuse_sfim(y_h, pan, 2, WIDE),
        lambda y_h, pan: fuse_mtf_glp(y_h, pan, 2, 0.3, WIDE),
        lambda y_h, pan: fuse_mtf_glp_hpm(y_h, pan, 2, 0.3, WIDE),
    ], ids=["SFIM", "MTF-GLP", "MTF-GLP-HPM"])
    def test_multi_band_pan_rejected(self, fuse):
        y_h = random_img(2, 4, 4)
        pan = random_img(3, 8, 8, seed=1)
        with pytest.raises(ValueError, match="PAN image must hold a single band"):
            fuse(y_h, pan)
