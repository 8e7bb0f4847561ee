import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hspansharp.imgcore import SpectralImage
from hspansharp.metrics import (
    Reference,
    cc,
    compute_report,
    ergas,
    rmse,
    sam,
)

from oracles import oracle_cc, oracle_ergas, oracle_rmse, oracle_sam


def img_pair(seed, bands=4, height=5, width=6):
    rng = np.random.default_rng(seed)
    shape = (bands, height * width)
    x = SpectralImage(height, width, rng.uniform(0.2, 1.0, shape))
    xhat = x.with_data(x.data + rng.normal(0, 0.05, shape))
    return xhat, x


class TestAgainstOracles:
    @pytest.mark.parametrize("seed", range(5))
    def test_cc(self, seed):
        xhat, x = img_pair(seed)
        assert cc(xhat, x) == pytest.approx(
            oracle_cc(xhat.data, x.data), rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_sam(self, seed):
        xhat, x = img_pair(seed)
        assert sam(xhat, x) == pytest.approx(
            oracle_sam(xhat.data, x.data), rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_rmse(self, seed):
        xhat, x = img_pair(seed)
        assert rmse(xhat, x) == pytest.approx(
            oracle_rmse(xhat.data, x.data), rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_ergas(self, seed):
        xhat, x = img_pair(seed)
        for d in (0.25, 0.2):
            assert ergas(xhat, x, d) == pytest.approx(
                oracle_ergas(xhat.data, x.data, d), rel=1e-12
            )


class TestIdealValues:
    def test_identical_images_hit_ideals_exactly(self):
        _, x = img_pair(3)
        assert cc(x, x) == 1.0
        assert sam(x, x) == 0.0
        assert rmse(x, x) == 0.0
        assert ergas(x, x, 0.25) == 0.0

    def test_anticorrelated_cc(self):
        x = SpectralImage(1, 4, np.array([[1.0, 2.0, 3.0, 4.0]]))
        flipped = x.with_data(-x.data)
        assert cc(flipped, x) == pytest.approx(-1.0, abs=1e-15)


class TestHandValues:
    def test_rmse_hand_value(self):
        x = SpectralImage(1, 2, np.array([[0.0, 0.0], [0.0, 0.0]]).reshape(2, 2))
        xhat = x.with_data(np.array([[3.0, 0.0], [0.0, 4.0]]).reshape(2, 2))
        # sqrt((9 + 16) / 4) = 2.5
        assert rmse(xhat, x) == pytest.approx(2.5, abs=1e-15)

    def test_sam_hand_value(self):
        # (1, 0) vs (1, 1) is 45 degrees; (1, 0) vs (1, 0) is 0.
        x = SpectralImage(1, 2, np.array([[1.0, 1.0], [0.0, 0.0]]))
        xhat = x.with_data(np.array([[1.0, 1.0], [1.0, 0.0]]))
        assert sam(xhat, x) == pytest.approx(22.5, abs=1e-12)

    def test_ergas_hand_value(self):
        x = SpectralImage(1, 2, np.array([[2.0, 2.0]]))
        xhat = x.with_data(np.array([[2.2, 1.8]]))
        # band RMSE 0.2, mean 2.0, d = 1/4: 100 * 0.25 * 0.1 = 2.5
        assert ergas(xhat, x, 0.25) == pytest.approx(2.5, rel=1e-12)


class TestRmseDecompositions:
    def test_rmse_consistent_with_per_band_and_map(self):
        xhat, x = img_pair(8)
        total = rmse(xhat, x)
        rep = compute_report(xhat, x, 0.2)
        per_band = np.array(rep.rmse_per_band)
        assert total**2 == pytest.approx(np.mean(per_band**2), rel=1e-12)
        assert total**2 == pytest.approx(np.mean(rep.rmse_map.data**2), rel=1e-12)

    def test_rmse_map_geometry(self):
        xhat, x = img_pair(9, bands=3, height=4, width=7)
        m = compute_report(xhat, x, 0.2).rmse_map
        assert (m.bands, m.height, m.width) == (1, 4, 7)
        assert m.wavelengths is None


class TestErrorCases:
    def test_shape_mismatch(self):
        a = SpectralImage(2, 2, np.ones((1, 4)))
        b = SpectralImage(2, 3, np.ones((1, 6)))
        for fn in (cc, sam, rmse):
            with pytest.raises(ValueError):
                fn(a, b)
        with pytest.raises(ValueError):
            compute_report(a, b, 0.25)
        with pytest.raises(ValueError):
            ergas(a, b, 0.25)

    def test_cc_zero_variance_band(self):
        a = SpectralImage(1, 3, np.array([[1.0, 1.0, 1.0]]))
        b = SpectralImage(1, 3, np.array([[1.0, 2.0, 3.0]]))
        with pytest.raises(ValueError):
            cc(a, b)

    def test_cc_all_constant_reference(self):
        xhat, x = img_pair(2, bands=2)
        flat = x.with_data(np.array([[0.1], [0.7]]) * np.ones((2, x.pixels)))
        with pytest.raises(ValueError):
            cc(xhat, flat)

    def test_sam_zero_spectrum(self):
        a = SpectralImage(1, 2, np.array([[0.0, 1.0], [0.0, 1.0]]))
        b = SpectralImage(1, 2, np.ones((2, 2)))
        with pytest.raises(ValueError):
            sam(a, b)

    def test_ergas_rejects_bad_d_and_zero_mean(self):
        xhat, x = img_pair(1)
        with pytest.raises(ValueError):
            ergas(xhat, x, 0.0)
        zero = SpectralImage(1, 2, np.array([[1.0, -1.0]]))
        near = zero.with_data(np.array([[1.0, -0.9]]))
        with pytest.raises(ValueError):
            ergas(near, zero, 0.25)


def rounding_band_pair(seed):
    """A pair whose reference band 2 is 0.1 plus noise of ~1e-17, a band
    that is constant up to rounding. Enough pixels that a band mean
    summed in another order is off by more than the noise."""
    xhat, x = img_pair(seed, bands=4, height=80, width=90)
    data = x.data.copy()
    noise = np.random.default_rng(seed + 100).normal(0.0, 1e-17, x.pixels)
    data[2] = 0.1 + noise
    assert data[2].std() > 0
    return xhat, x.with_data(data)


class TestCcRoundingRule:
    @pytest.mark.parametrize("seed", range(3))
    def test_rounding_band_left_out_of_mean(self, seed):
        xhat, x = rounding_band_pair(seed)
        keep = [0, 1, 3]
        assert cc(xhat, x) == pytest.approx(
            oracle_cc(xhat.data[keep], x.data[keep]), rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_stable_under_pixel_permutation(self, seed):
        xhat, x = rounding_band_pair(seed)
        order = np.random.default_rng(seed).permutation(x.pixels)
        shuffled = cc(
            xhat.with_data(xhat.data[:, order]), x.with_data(x.data[:, order])
        )
        assert abs(shuffled - cc(xhat, x)) <= 1e-14

    def test_estimate_rounding_band_raises_where_reference_varies(self):
        xhat, x = img_pair(5)
        data = xhat.data.copy()
        data[1] = 0.4 + np.random.default_rng(5).normal(0.0, 1e-17, x.pixels)
        with pytest.raises(ValueError):
            cc(xhat.with_data(data), x)


class TestComputeReport:
    def test_fields_match_individual_metrics(self):
        xhat, x = img_pair(4)
        rep = compute_report(xhat, x, 0.2, wall_time_s=1.5)
        assert rep.cc == cc(xhat, x)
        assert rep.sam_deg == sam(xhat, x)
        assert rep.rmse == rmse(xhat, x)
        assert rep.ergas == ergas(xhat, x, 0.2)
        diff = xhat.data - x.data
        np.testing.assert_allclose(
            rep.rmse_per_band, np.sqrt((diff**2).mean(axis=1)), rtol=1e-14, atol=0
        )
        np.testing.assert_allclose(
            rep.rmse_map.data[0], np.sqrt((diff**2).mean(axis=0)), rtol=1e-14, atol=0
        )
        assert rep.wall_time_s == 1.5
        scalars = rep.scalars()
        assert set(scalars) == {"CC", "SAM", "RMSE", "ERGAS", "time_s"}

    def test_prepared_reference_gives_same_report(self):
        xhat, x = img_pair(6)
        reference = Reference(x)
        for _ in range(2):
            assert compute_report(xhat, reference, 0.2) == compute_report(xhat, x, 0.2)
        other, _ = img_pair(7)
        assert compute_report(other, reference, 0.2) == compute_report(other, x, 0.2)


finite_pairs = arrays(
    np.float64,
    (3, 8),
    elements=st.floats(0.05, 10.0, allow_nan=False, allow_infinity=False),
)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(a=finite_pairs, b=finite_pairs)
    def test_cc_bounded(self, a, b):
        assume(a.var(axis=1).min() > 0 and b.var(axis=1).min() > 0)
        assert -1.0 <= cc(SpectralImage(2, 4, a), SpectralImage(2, 4, b)) <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(a=finite_pairs, b=finite_pairs)
    def test_sam_bounded(self, a, b):
        val = sam(SpectralImage(2, 4, a), SpectralImage(2, 4, b))
        assert 0.0 <= val <= 180.0

    @settings(max_examples=40, deadline=None)
    @given(a=finite_pairs, b=finite_pairs, scale=st.floats(0.1, 100.0))
    def test_sam_scale_invariant(self, a, b, scale):
        base = sam(SpectralImage(2, 4, a), SpectralImage(2, 4, b))
        scaled = sam(SpectralImage(2, 4, scale * a), SpectralImage(2, 4, b))
        # arccos near 1 amplifies ulp-level rounding to ~1e-6 degrees
        assert scaled == pytest.approx(base, abs=1e-5)
