import numpy as np
import pytest

from hspansharp.fusion.cs import pca_transform
from hspansharp.fusion.hybrid import (
    _axis_window_mean,
    default_component_count,
    fuse_gfpca,
    guided_filter_plane,
    soft_threshold,
)
from hspansharp.imgcore import SpectralImage
from hspansharp.resample import upsample

from oracles import oracle_guided_filter


def random_plane(height, width, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 1.0, (height, width))


def loop_window_mean(plane, d):
    height, width = plane.shape
    out = np.zeros_like(plane)
    for y in range(height):
        for x in range(width):
            out[y, x] = plane[
                max(0, y - d) : min(height, y + d + 1),
                max(0, x - d) : min(width, x + d + 1),
            ].mean()
    return out


class TestAxisWindowMean:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_loops(self, d):
        plane = random_plane(6, 7, seed=1)
        got = _axis_window_mean(6, d) @ plane @ _axis_window_mean(7, d).T
        np.testing.assert_allclose(got, loop_window_mean(plane, d), rtol=1e-12, atol=0)

    def test_clipped_window_sizes(self):
        rows = (_axis_window_mean(6, 1) > 0).sum(axis=1)
        cols = (_axis_window_mean(7, 1) > 0).sum(axis=1)
        sizes = np.outer(rows, cols)
        assert sizes[0, 0] == 4  # 2x2 corner window
        assert sizes[2, 3] == 9
        assert sizes[5, 6] == 4


class TestGuidedFilterPlane:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("eps", [0.01, 0.1])
    def test_matches_per_window_oracle(self, d, eps):
        inp = random_plane(8, 8, seed=2)
        guide = random_plane(8, 8, seed=3)
        got = guided_filter_plane(inp, guide, d, eps)
        want = oracle_guided_filter(inp, guide, d, eps)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 6])
    def test_stack_matches_oracle_per_pair(self, d):
        # (3, 1) components against (1, 2) guide planes filter all six pairs;
        # at d = 6 every window of the 5 x 7 grid is clipped.
        rng = np.random.default_rng(10)
        inp = rng.uniform(0.0, 1.0, (3, 1, 5, 7))
        guide = rng.uniform(0.0, 1.0, (1, 2, 5, 7))
        got = guided_filter_plane(inp, guide, d, 0.05)
        assert got.shape == (3, 2, 5, 7)
        for i in range(3):
            for g in range(2):
                want = oracle_guided_filter(inp[i, 0], guide[0, g], d, 0.05)
                np.testing.assert_allclose(got[i, g], want, rtol=0, atol=1e-10)

    def test_self_guide_zero_eps_is_identity(self):
        plane = np.arange(36.0).reshape(6, 6) + random_plane(6, 6, seed=4)
        out = guided_filter_plane(plane, plane, 1, 0.0)
        np.testing.assert_allclose(out, plane, rtol=0, atol=1e-10)

    def test_constant_guide_returns_local_means(self):
        inp = random_plane(6, 6, seed=5)
        guide = np.full((6, 6), 0.7)
        out = guided_filter_plane(inp, guide, 1, 0.0)
        want = loop_window_mean(loop_window_mean(inp, 1), 1)
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-10)

    def test_huge_eps_approaches_double_box_mean(self):
        inp = random_plane(6, 6, seed=6)
        guide = random_plane(6, 6, seed=7)
        out = guided_filter_plane(inp, guide, 1, 1e12)
        want = loop_window_mean(loop_window_mean(inp, 1), 1)
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-8)

    def test_single_window_output_is_affine_in_guide(self):
        # d >= side - 1 makes every window the full image, so the output is
        # exactly a * guide + b for one global least-squares pair (a, b).
        inp = random_plane(5, 5, seed=8)
        guide = random_plane(5, 5, seed=9)
        eps = 0.05
        out = guided_filter_plane(inp, guide, 4, eps)
        mi, mp = guide.mean(), inp.mean()
        var = (guide * guide).mean() - mi * mi
        cov = (guide * inp).mean() - mi * mp
        a = cov / (var + eps)
        b = mp - a * mi
        np.testing.assert_allclose(out, a * guide + b, rtol=0, atol=1e-12)


class TestSoftThreshold:
    def test_hand_values(self):
        out = soft_threshold(np.array([3.0, -0.5, 0.2, -2.0]), 0.5)
        np.testing.assert_allclose(out, [2.5, 0.0, 0.0, -1.5], rtol=0, atol=1e-15)

    def test_zero_threshold_is_identity(self):
        v = np.array([1.0, -2.0, 0.0])
        np.testing.assert_array_equal(soft_threshold(v, 0.0), v)

    def test_shrinks_magnitude_and_keeps_sign(self):
        rng = np.random.default_rng(12)
        v = rng.normal(0, 2, 100)
        out = soft_threshold(v, 0.3)
        assert (np.abs(out) <= np.abs(v)).all()
        assert (out * v >= 0).all()

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones(3), -0.1)


class TestDefaultComponentCount:
    def test_picks_smallest_sufficient_count(self):
        assert default_component_count(np.array([10.0, 1.0, 0.001])) == 2

    def test_cap_applies(self):
        assert default_component_count(np.ones(20)) == 10

    def test_never_exceeds_band_count(self):
        assert default_component_count(np.array([1.0, 0.5])) == 2


class TestFuseGfpca:
    def make_scene(self, seed=13, p=5):
        """A 5-band 6 x 6 Y_H whose first p principal components carry all
        but a trace of its variance, and a 12 x 12 PAN."""
        rng = np.random.default_rng(seed)
        weights = np.full(5, 1e-3)
        weights[:p] = 1.0
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        data = 0.5 + 0.1 * (q * weights) @ rng.normal(size=(5, 36))
        y_h = SpectralImage(6, 6, data)
        pan = SpectralImage(12, 12, rng.uniform(0.1, 1.0, (1, 144)))
        return y_h, pan

    def test_output_geometry_and_wavelengths(self):
        rng = np.random.default_rng(14)
        y_h = SpectralImage(
            6, 6, rng.uniform(0.1, 1.0, (3, 36)), wavelengths=(0.4, 0.5, 0.6)
        )
        pan = SpectralImage(12, 12, rng.uniform(0.1, 1.0, (1, 144)))
        fused = fuse_gfpca(y_h, pan, 2)
        assert (fused.bands, fused.height, fused.width) == (3, 12, 12)
        assert fused.wavelengths == (0.4, 0.5, 0.6)

    @pytest.mark.parametrize("p", [2, 5])
    def test_matches_per_component_composition(self, p):
        # Each component on its own: upsample, then either guided-filter
        # against the PAN (window radius = ratio, eps = 1e-4 span^2), or
        # soft-threshold at the MAD scale of the trailing scores first.
        y_h, pan = self.make_scene(p=p)
        transform = pca_transform(y_h)
        scores = transform.forward(y_h.data)
        assert default_component_count(transform.variances) == p
        eps = 1e-4 * float(y_h.data.max() - y_h.data.min()) ** 2
        trailing = scores[p:].ravel()
        tau = 1.4826 * np.median(np.abs(trailing - np.median(trailing))) if p < 5 else 0.0
        rows = []
        for i in range(y_h.bands):
            component = SpectralImage(6, 6, scores[i : i + 1])
            if i < p:
                up = upsample(component, 2).to_cube()[0]
                rows.append(guided_filter_plane(up, pan.to_cube()[0], 2, eps).ravel())
            else:
                shrunk = component.with_data(soft_threshold(component.data, tau))
                rows.append(upsample(shrunk, 2).data[0])
        scores_fused = np.vstack(rows)
        want = transform.loadings.T @ scores_fused + transform.band_means[:, np.newaxis]
        got = fuse_gfpca(y_h, pan, 2)
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)

    def test_validation(self):
        y_h, pan = self.make_scene()
        with pytest.raises(ValueError, match="single band"):
            fuse_gfpca(y_h, SpectralImage(12, 12, np.ones((2, 144))), 2)
        with pytest.raises(ValueError, match="single band"):
            fuse_gfpca(y_h, SpectralImage(12, 12, np.ones((3, 144))), 2)
        with pytest.raises(ValueError):
            fuse_gfpca(y_h, SpectralImage(11, 12, np.ones((1, 132))), 2)
