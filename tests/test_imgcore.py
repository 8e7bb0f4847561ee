import numpy as np
import pytest

from hspansharp.harness.scene import synth_scene
from hspansharp.imgcore import DynamicRange, SpectralImage, is_integer


def make_img(bands=3, height=2, width=4, seed=0):
    rng = np.random.default_rng(seed)
    return SpectralImage(height, width, rng.uniform(size=(bands, height * width)))


@pytest.mark.parametrize(
    "value, expected",
    [(3, True), (0, True), (-2, True), (np.int64(3), True), (np.uint8(3), True),
     (True, False), (np.bool_(True), False), (2.0, False), (np.float64(2), False),
     ("2", False), (None, False)],
)
def test_is_integer(value, expected):
    assert is_integer(value) is expected


class TestDynamicRange:
    def test_span(self):
        assert DynamicRange(-1.0, 3.0).span == 4.0

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            DynamicRange(1.0, 1.0)
        with pytest.raises(ValueError):
            DynamicRange(2.0, 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DynamicRange(0.0, np.inf)

    def test_equality(self):
        assert DynamicRange(0, 1) == DynamicRange(0.0, 1.0)
        assert DynamicRange(0, 1) != DynamicRange(0, 2)

    def test_spanning_widens_constant_values(self):
        assert DynamicRange.spanning(np.array([0.5, -1.0, 2.0])) == DynamicRange(-1.0, 2.0)
        assert DynamicRange.spanning(np.full(4, 3.0)) == DynamicRange(3.0, 4.0)


class TestSpectralImage:
    def test_shape_accessors(self):
        img = make_img(bands=5, height=3, width=7)
        assert img.bands == 5
        assert img.pixels == 21
        assert img.data.shape == (5, 21)

    def test_data_is_readonly_float64(self):
        img = make_img()
        assert img.data.dtype == np.float64
        with pytest.raises(ValueError):
            img.data[0, 0] = 1.0

    def test_input_array_is_copied(self):
        raw = np.ones((2, 6))
        img = SpectralImage(2, 3, raw)
        raw[0, 0] = 99.0
        assert img.data[0, 0] == 1.0

    def test_pixel_count_mismatch(self):
        with pytest.raises(ValueError):
            SpectralImage(2, 3, np.zeros((1, 5)))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            SpectralImage(0, 3, np.zeros((1, 0)))
        with pytest.raises(ValueError):
            SpectralImage(2, -1, np.zeros((1, 2)))

    def test_rejects_non_finite(self):
        data = np.ones((1, 4))
        data[0, 2] = np.nan
        with pytest.raises(ValueError):
            SpectralImage(2, 2, data)

    def test_rejects_zero_bands(self):
        with pytest.raises(ValueError, match="at least one band"):
            SpectralImage(2, 2, np.empty((0, 4)))
        with pytest.raises(ValueError, match="at least one band"):
            SpectralImage._adopt(2, 2, np.empty((0, 4)))

    def test_rejects_3d_data(self):
        with pytest.raises(ValueError):
            SpectralImage(2, 2, np.zeros((1, 2, 2)))

    def test_to_cube_is_view_in_raster_order(self):
        img = SpectralImage(2, 3, np.arange(12.0).reshape(2, 6))
        cube = img.to_cube()
        assert cube.shape == (2, 2, 3)
        # row-major: pixel (row y, col x) is column y * width + x
        assert cube[1, 1, 2] == img.data[1, 1 * 3 + 2]
        assert cube.base is not None

    def test_column_indexed_data_stored_in_c_order(self):
        # `x.data[:, perm]` is Fortran-ordered. Stored as given, its band means
        # summed in another order and moved by 1.6e-14 (`wald-100` scene 3).
        truth = synth_scene(3, 3, 100, 100, 40)
        perm = np.random.default_rng(0).permutation(truth.pixels)
        raw = truth.data[:, perm]
        img = SpectralImage(truth.height, truth.width, raw)
        assert img.data.flags.c_contiguous
        want = np.ascontiguousarray(raw).mean(axis=1)
        assert np.array_equal(img.data.mean(axis=1), want)

    def test_wavelengths_validation(self):
        SpectralImage(1, 2, np.zeros((2, 2)), wavelengths=(0.4, 0.5))
        with pytest.raises(ValueError):
            SpectralImage(1, 2, np.zeros((2, 2)), wavelengths=(0.5, 0.5))
        with pytest.raises(ValueError):
            SpectralImage(1, 2, np.zeros((2, 2)), wavelengths=(0.4,))

    @pytest.mark.parametrize("wavelengths", [(0.5, np.nan, 0.7), (0.5, 0.6, np.inf)])
    def test_non_finite_wavelengths_refused(self, wavelengths):
        # A NaN compares false, so it passed the strictly-increasing test.
        with pytest.raises(ValueError, match="wavelengths must be finite"):
            SpectralImage(1, 2, np.zeros((3, 2)), wavelengths=wavelengths)

    def test_with_data_preserves_geometry_and_wavelengths(self):
        img = SpectralImage(1, 2, np.zeros((2, 2)), wavelengths=(0.4, 0.5))
        out = img.with_data(np.ones((2, 2)))
        assert out.height == 1 and out.width == 2
        assert out.wavelengths == (0.4, 0.5)
        assert out.data[0, 0] == 1.0

    def test_equality_covers_data_and_geometry(self):
        a = make_img(seed=1)
        b = SpectralImage(a.height, a.width, a.data)
        assert a == b
        assert a != a.with_data(a.data + 1.0)
        assert a != SpectralImage(a.width, a.height, a.data)
        assert a != "not an image"

