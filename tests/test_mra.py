import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hspansharp.fusion.cs import front_end
from hspansharp.fusion.mra import (
    _guarded,
    _hpm_stream,
    _modulate,
    box_lowpass,
    fuse_mtf_glp,
    fuse_mtf_glp_hpm,
    fuse_sfim,
    glp_lowpass,
)
from hspansharp.imgcore import DynamicRange, SpectralImage
from hspansharp.resample import upsample
from hspansharp.sensorsim import kernel_from_mtf

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
        got = box_lowpass(pan.to_cube(), ratio)
        want = oracle_blur_cube(pan.to_cube(), taps)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_interior_impulse_response(self):
        data = np.zeros((1, 49))
        data[0, 3 * 7 + 3] = 1.0
        out = box_lowpass(data.reshape(7, 7), 1)
        np.testing.assert_allclose(out[2:5, 2:5], 1.0 / 9.0, rtol=0, atol=1e-15)
        assert out[0, 0] == 0.0

    def test_constant_preserved(self):
        out = box_lowpass(np.full((1, 6, 6), 0.3), 2)
        np.testing.assert_allclose(out, 0.3, rtol=0, atol=1e-12)


class TestGlpLowpass:
    def test_constant_preserved_exactly(self):
        out = glp_lowpass(np.full((1, 8, 8), 1.25), 2, kernel_from_mtf(2, 0.3))
        np.testing.assert_allclose(out, 1.25, rtol=0, atol=1e-12)

    def test_output_grid_nyquist_stripes_removed(self):
        # Columns alternating 0/1 sit at the Nyquist frequency of the
        # decimated grid for ratio 2; the GLP must attenuate them to well
        # under 0.35 of the input amplitude. Mirror extension breaks the
        # alternation at the frame, so amplitude is measured away from it.
        height, width = 20, 40
        cols = np.tile(np.arange(width) % 2, (height, 1)).astype(np.float64)
        out = glp_lowpass(cols, 2, kernel_from_mtf(2, 0.3))
        interior = out[:, 10:-10]
        amplitude = np.abs(interior - 0.5).max()
        assert amplitude <= 0.35 * 0.5
        assert amplitude <= 0.05

    def test_geometry_preserved(self):
        pan = random_img(1, 10, 10, seed=2)
        out = glp_lowpass(pan.to_cube(), 5, kernel_from_mtf(5, 0.3))
        assert out.shape == (1, 10, 10)


class TestHpmGain:
    # The HPM gain Y / P_L,eq is applied as Y P_eq / P_L,eq (`_modulate`),
    # and 1 on the voxels `_guarded` finds below the divisor guard.
    NONE = np.empty(0, dtype=np.intp)

    def test_hand_value(self):
        # gain = Y / P_L,eq = 3 / 1.5 = 2, so F = 2 P_eq = 6
        band = np.array([3.0])
        _modulate(band, np.array([3.0]), np.array([1.5]), self.NONE)
        assert band[0] == 6.0

    def test_guard_on_vanishing_lowpass(self):
        # The guard is 1e-8 of the span 10: |P_L,eq| = 5e-8 falls below it
        # and gets unit gain, F = Y + (P_eq - P_L,eq); 2e-7 lies above and
        # divides.
        guard = 1e-8 * DynamicRange(0.0, 10.0).span
        pl_eq = np.array([5e-8, 2e-7])
        guarded = _guarded(pl_eq, (5e-8, 2e-7), 1.0, 0.0, guard)
        np.testing.assert_array_equal(guarded, [0])
        band = np.array([3.0, 3.0])
        _modulate(band, np.array([1.0, 1.0]), pl_eq, guarded)
        assert band[0] == 3.0 + (1.0 - 5e-8)
        assert band[1] == pytest.approx(3.0 / 2e-7)

    def test_band_clear_of_the_guard_is_not_searched(self):
        # The ends of P_L,eq, here 1 +- 0.05 or -1 +- 0.05, decide alone:
        # the buffer, zero throughout, is not read unless they reach the guard.
        pl_eq = np.zeros(3)
        for band_mean in (1.0, -1.0):
            assert _guarded(pl_eq, (-0.5, 0.5), 0.1, band_mean, 1e-3).size == 0
        np.testing.assert_array_equal(_guarded(pl_eq, (-0.5, 0.5), 0.1, 0.0, 1e-3), [0, 1, 2])

    @settings(max_examples=300, deadline=None)
    @given(
        centred=arrays(np.float64, st.integers(1, 40), elements=st.floats(-1e3, 1e3)),
        scale=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
        near=st.integers(0, 39),
        offset=st.floats(-3.0, 3.0),
        guard=st.floats(1e-12, 1e-2),
    )
    def test_range_test_never_skips_a_guarded_voxel(self, centred, scale, near, offset, guard):
        # P_L,eq is formed as the stream forms it, with its mean chosen to put
        # one voxel within a few guards of zero; the range test must find
        # exactly the voxels a full search finds.
        product = centred * scale
        band_mean = -product[near % centred.size] + offset * guard
        pl_eq = product + band_mean
        ends = (centred.min(), centred.max())
        got = _guarded(pl_eq, ends, scale, band_mean, guard)
        np.testing.assert_array_equal(got, np.flatnonzero(np.abs(pl_eq) < guard))


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
        glp = glp_lowpass(pan.to_cube(), ratio, kernel_from_mtf(ratio, 0.3))
        if name == "sfim":
            got = fuse_sfim(y_h, pan, ratio, rng)
            pan_low, gains = box_lowpass(pan.to_cube(), ratio), "hpm"
        elif name == "mtf_glp":
            got = fuse_mtf_glp(y_h, pan, ratio, 0.3, rng)
            pan_low, gains = glp, "additive"
        else:
            got = fuse_mtf_glp_hpm(y_h, pan, ratio, 0.3, rng)
            pan_low, gains = glp, "hpm"
        want = oracle_equalized_fusion(
            upsample(y_h, ratio, "bicubic").data,
            pan.data[0],
            pan_low.ravel(),
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
        # One block of bands that the guard treats differently; ratio 1
        # keeps the bands as given.
        # - band 0 has mean exactly 0 and P_L equals mean(P) at pixel 0, so
        #   P_L,eq^0 vanishes there and the gain is 1 while the detail is not
        #   zero; its range straddles the guard;
        # - band 1 is positive and band 2 negative throughout, both clear of
        #   the guard;
        # - band 3 crosses zero with no voxel below the guard;
        # - bands 4 and 5 have zero variance (scale 0); band 5 is all zero,
        #   so every voxel is guarded.
        rng_gen = np.random.default_rng(23)
        band0 = np.tile([0.5, -0.5, 0.25, -0.25], 4)
        data = np.vstack([
            band0,
            rng_gen.uniform(0.1, 1.0, 16),
            rng_gen.uniform(-1.0, -0.5, 16),
            rng_gen.uniform(-0.2, 0.8, 16),
            np.full(16, 0.3),
            np.zeros(16),
        ])
        y_h = SpectralImage(4, 4, data)
        pan = random_img(1, 4, 4, seed=24)
        p_l = rng_gen.uniform(0.1, 1.0, 16)
        p_l[0] = pan.data[0].mean()
        rng = DynamicRange(-2.0, 2.0)
        got = _hpm_stream(y_h, 1, front_end(y_h, pan, 1), p_l, rng).image()
        want = oracle_equalized_fusion(data, pan.data[0], p_l, rng.lo, rng.hi, "hpm")
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)
        assert pan.data[0, 0] != p_l[0]
        scale = band0.std() / p_l.std()
        gain_one = band0[0] + scale * (pan.data[0, 0] - p_l[0])
        assert got.data[0, 0] == pytest.approx(gain_one, abs=1e-12)
        np.testing.assert_array_equal(got.data[4:], data[4:])
        # The bands fall in the cases above.
        guard = 1e-8 * rng.span
        scales = data.std(axis=1) / p_l.std()
        means = data.mean(axis=1, keepdims=True)
        pl_eq = (p_l - pan.data[0].mean()) * scales[:, np.newaxis] + means
        assert abs(pl_eq[0, 0]) < guard < pl_eq[0].max()
        assert pl_eq[1].min() > guard and pl_eq[2].max() < -guard
        assert pl_eq[3].min() < 0.0 < pl_eq[3].max() and np.abs(pl_eq[3]).min() > guard
        assert scales[4] == scales[5] == 0.0 and not pl_eq[5].any()
        at_bound = (got.data == rng.lo) | (got.data == rng.hi)
        assert at_bound.any() and not at_bound.all()

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
