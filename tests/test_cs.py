import numpy as np
import pytest

from hspansharp.fusion.cs import (
    PcaTransform,
    _inject,
    _principal_axes,
    fuse_gs,
    fuse_gsa,
    fuse_pca,
    gsa_weights,
    match_moments,
    pca_transform,
)
from hspansharp.imgcore import SpectralImage
from hspansharp.resample import upsample, upsampled_moments
from hspansharp.sensorsim import BlurKernel, blur_downsample


def random_img(bands, height, width, seed=0):
    rng = np.random.default_rng(seed)
    return SpectralImage(height, width, rng.uniform(0.1, 1.0, (bands, height * width)))


class TestMatchMoments:
    def test_matches_first_two_moments(self):
        rng = np.random.default_rng(0)
        v = rng.normal(3.0, 2.0, 200)
        t = rng.normal(-1.0, 0.5, 200)
        out = match_moments(v, t)
        assert out.mean() == pytest.approx(t.mean(), abs=1e-12)
        assert out.std() == pytest.approx(t.std(), rel=1e-12)

    def test_zero_variance_input_returns_target(self):
        t = np.array([1.0, 2.0, 3.0])
        out = match_moments(np.full(3, 5.0), t)
        np.testing.assert_array_equal(out, t)
        assert out is not t

    def test_identity_when_already_matched(self):
        v = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(match_moments(v, v), v, rtol=0, atol=1e-12)


class TestPcaTransform:
    def test_orthonormal_descending_round_trip(self):
        img = random_img(5, 6, 6, seed=2)
        t = pca_transform(img)
        np.testing.assert_allclose(
            t.loadings @ t.loadings.T, np.eye(5), rtol=0, atol=1e-10
        )
        assert (np.diff(t.variances) <= 1e-10).all()
        round_trip = t.loadings.T @ t.forward(img.data) + t.band_means[:, np.newaxis]
        np.testing.assert_allclose(round_trip, img.data, rtol=0, atol=1e-10)

    def test_scores_are_decorrelated_with_matching_variance(self):
        img = random_img(4, 8, 8, seed=3)
        t = pca_transform(img)
        scores = t.forward(img.data)
        cov = scores @ scores.T / img.pixels
        np.testing.assert_allclose(cov, np.diag(t.variances), rtol=0, atol=1e-10)

    def test_sign_convention(self):
        t = pca_transform(random_img(4, 5, 5, seed=4))
        for row in t.loadings:
            assert row[np.abs(row).argmax()] > 0

    def test_degenerate_image_rejected(self):
        img = SpectralImage(2, 2, np.full((3, 4), 0.5))
        with pytest.raises(ValueError):
            pca_transform(img)

    def test_validation(self):
        with pytest.raises(ValueError):
            PcaTransform(np.array([[1.0, 1.0], [0.0, 1.0]]), [0.0, 0.0], [1.0, 0.5])
        eye = np.eye(2)
        with pytest.raises(ValueError):
            PcaTransform(eye, [0.0, 0.0], [0.5, 1.0])
        with pytest.raises(ValueError):
            PcaTransform(eye, [0.0], [1.0, 0.5])


class TestCsFuse:
    """The injection GS, GSA and PCA share, F_k += g_k (match(P, O_L) - O_L),
    and their PAN checks."""

    def inject(self, y, pan, w, g):
        fused = np.array(y.data)
        _inject(fused, pan.data[0], np.asarray(w) @ y.data, np.asarray(g, dtype=float))
        return fused

    def test_matches_direct_formula(self):
        y_up = random_img(3, 4, 4, seed=5)
        pan = random_img(1, 4, 4, seed=6)
        w = np.array([0.2, 0.5, 0.3])
        g = np.array([1.1, 0.9, 1.4])
        fused = self.inject(y_up, pan, w, g)
        o_l = w @ y_up.data
        detail = match_moments(pan.data[0], o_l) - o_l
        for k in range(3):
            np.testing.assert_allclose(
                fused[k], y_up.data[k] + g[k] * detail, rtol=0, atol=1e-12
            )

    def test_injected_detail_is_rank_one(self):
        y_up = random_img(4, 5, 5, seed=7)
        pan = random_img(1, 5, 5, seed=8)
        fused = self.inject(y_up, pan, np.full(4, 0.25), [1.0, 2.0, 3.0, 4.0])
        delta = fused - y_up.data
        assert np.linalg.matrix_rank(delta, tol=1e-10) == 1

    def test_histogram_matching_applied(self):
        # With unit gains the injected P carries O_L's mean and std.
        y_up = random_img(2, 4, 4, seed=9)
        pan = random_img(1, 4, 4, seed=10)
        w = np.array([0.5, 0.5])
        fused = self.inject(y_up, pan, w, [1.0, 1.0])
        o_l = w @ y_up.data
        matched = fused[0] - y_up.data[0] + o_l
        assert matched.mean() == pytest.approx(o_l.mean(), abs=1e-12)
        assert matched.std() == pytest.approx(o_l.std(), rel=1e-12)
        np.testing.assert_allclose(fused[1] - y_up.data[1], matched - o_l, rtol=0, atol=1e-12)

    def test_validation(self):
        y_h = random_img(3, 2, 2)
        with pytest.raises(ValueError, match="single band"):
            fuse_gs(y_h, random_img(2, 4, 4), 2)
        with pytest.raises(ValueError, match="PAN dims"):
            fuse_gs(y_h, random_img(1, 5, 5), 2)


class TestFusePca:
    def test_substituting_own_component_is_identity(self):
        img = random_img(4, 6, 6, seed=11)
        scores = pca_transform(img).forward(img.data)
        pan = SpectralImage(6, 6, scores[0][np.newaxis, :])
        fused = fuse_pca(img, pan, ratio=1)
        np.testing.assert_allclose(fused.data, img.data, rtol=0, atol=1e-10)

    def test_matches_component_substitution(self):
        # Forward PCA of the interpolated bands, first score replaced by the
        # moment-matched PAN, inverse PCA.
        img = random_img(4, 5, 4, seed=30)
        pan = random_img(1, 10, 8, seed=31)
        y_up = upsample(img, 2, "bicubic")
        transform = pca_transform(y_up)
        scores = transform.forward(y_up.data)
        scores[0] = match_moments(pan.data[0], scores[0])
        want = transform.loadings.T @ scores + transform.band_means[:, np.newaxis]
        got = fuse_pca(img, pan, 2)
        np.testing.assert_allclose(
            got.data, want, rtol=0, atol=1e-12 * np.abs(want).max()
        )

    def test_output_geometry(self):
        img = random_img(3, 4, 4, seed=12)
        pan = random_img(1, 8, 8, seed=13)
        fused = fuse_pca(img, pan, ratio=2)
        assert (fused.bands, fused.height, fused.width) == (3, 8, 8)

    def test_scale_equivariance(self):
        img = random_img(3, 4, 4, seed=14)
        pan = random_img(1, 8, 8, seed=15)
        base = fuse_pca(img, pan, 2)
        scaled = fuse_pca(
            img.with_data(3.7 * img.data), pan.with_data(3.7 * pan.data), 2
        )
        np.testing.assert_allclose(scaled.data, 3.7 * base.data, rtol=1e-10, atol=1e-10)


class TestFuseGs:
    def test_single_band_returns_matched_pan(self):
        img = random_img(1, 4, 4, seed=16)
        pan = random_img(1, 8, 8, seed=17)
        fused = fuse_gs(img, pan, 2)
        y_up = upsample(img, 2, "bicubic")
        want = match_moments(pan.data[0], y_up.data[0])
        np.testing.assert_allclose(fused.data[0], want, rtol=0, atol=1e-10)

    def test_scale_equivariance(self):
        img = random_img(3, 4, 4, seed=18)
        pan = random_img(1, 8, 8, seed=19)
        base = fuse_gs(img, pan, 2)
        scaled = fuse_gs(
            img.with_data(2.5 * img.data), pan.with_data(2.5 * pan.data), 2
        )
        np.testing.assert_allclose(scaled.data, 2.5 * base.data, rtol=1e-10, atol=1e-10)


class TestGsaWeights:
    def test_recovers_true_mixing_weights(self):
        rng = np.random.default_rng(20)
        y = rng.uniform(0.1, 1.0, (5, 400))
        w_true = rng.uniform(0.1, 1.0, 5)
        w = gsa_weights(y, w_true @ y)
        np.testing.assert_allclose(w, w_true, rtol=0, atol=1e-8)

    def test_ridge_handles_duplicated_band(self):
        rng = np.random.default_rng(21)
        base = rng.uniform(0.1, 1.0, (3, 100))
        y = np.vstack([base, base[2]])
        p = np.array([0.4, 0.3, 0.3, 0.0]) @ y
        w = gsa_weights(y, p)
        np.testing.assert_allclose(w @ y, p, rtol=0, atol=1e-6)

    def test_pixel_count_mismatch(self):
        with pytest.raises(ValueError):
            gsa_weights(np.ones((2, 10)), np.ones(9))


class TestFuseGsa:
    def test_recovery_when_pan_is_exact_mixture(self):
        # PAN formed from the truth with the same weights GSA regresses for,
        # impulse blur so the degraded PAN is exactly representable.
        rng = np.random.default_rng(22)
        truth = random_img(5, 8, 8, seed=22)
        w_true = rng.uniform(0.1, 1.0, 5)
        pan = SpectralImage(8, 8, (w_true @ truth.data)[np.newaxis, :])
        from hspansharp.sensorsim import blur_downsample

        y_h = blur_downsample(truth, BlurKernel.impulse(), 2)
        fused = fuse_gsa(y_h, pan, 2, BlurKernel.impulse())
        assert (fused.bands, fused.height, fused.width) == (5, 8, 8)

    def test_scale_equivariance(self):
        img = random_img(3, 4, 4, seed=23)
        pan = random_img(1, 8, 8, seed=24)
        kernel = BlurKernel([0.25, 0.5, 0.25])
        base = fuse_gsa(img, pan, 2, kernel)
        scaled = fuse_gsa(
            img.with_data(1.8 * img.data), pan.with_data(1.8 * pan.data), 2, kernel
        )
        np.testing.assert_allclose(scaled.data, 1.8 * base.data, rtol=1e-10, atol=1e-10)


class TestStatisticsFromLowResolution:
    """GS and GSA gains and the PCA loading come from the low-resolution
    cube; they must equal the values taken from the formed interpolated
    cube."""

    @staticmethod
    def formed_cube_gs(img, pan, ratio, w):
        y_up = upsample(img, ratio, "bicubic").data
        o_l = w @ y_up
        centred = o_l - o_l.mean()
        gains = (y_up - y_up.mean(axis=1, keepdims=True)) @ centred / (centred @ centred)
        return y_up + np.outer(gains, match_moments(pan.data[0], o_l) - o_l)

    @pytest.mark.parametrize("ratio", [2, 3, 4, 5])
    def test_gs_and_gsa_gains(self, ratio):
        img = random_img(5, 4, 3, seed=40 + ratio)
        pan = random_img(1, 4 * ratio, 3 * ratio, seed=50 + ratio)
        kernel = BlurKernel([0.25, 0.5, 0.25])
        w_gsa = gsa_weights(img.data, blur_downsample(pan, kernel, ratio).data[0])
        for got, w in (
            (fuse_gs(img, pan, ratio), np.full(5, 0.2)),
            (fuse_gsa(img, pan, ratio, kernel), w_gsa),
        ):
            want = self.formed_cube_gs(img, pan, ratio, w)
            np.testing.assert_allclose(
                got.data, want, rtol=0, atol=1e-12 * np.abs(want).max()
            )

    @pytest.mark.parametrize("ratio", [2, 3, 4, 5])
    def test_pca_first_loading(self, ratio):
        img = random_img(6, 3, 5, seed=60 + ratio)
        _, cov = upsampled_moments(img, ratio, "bicubic")
        got = _principal_axes(cov, img.data)[1][0]
        want = pca_transform(upsample(img, ratio, "bicubic")).loadings[0]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
