"""The handover of fresh arrays to `SpectralImage`: outputs that are adopted
without a copy must still be read-only, must share no memory with their
inputs, and must still be checked for non-finite samples."""

import tracemalloc

import numpy as np
import pytest

from hspansharp.fusion import cs, mra
from hspansharp.harness.bench import reference_scene, wald_inputs
from hspansharp.harness.config import RunConfig
from hspansharp.harness.envi import load_raster, save_raster
from hspansharp.harness.registry import MethodContext, get_method, method_names
from hspansharp.imgcore import DynamicRange, SpectralImage
from hspansharp.resample import upsample, upsample_bands

CONFIG = RunConfig(height=20, width=20, bands=11, ratio=2).validate()


@pytest.fixture(scope="module")
def context():
    y_h, pan, model = wald_inputs(reference_scene(CONFIG), CONFIG)
    rng = DynamicRange.spanning(y_h.data)
    return MethodContext(y_h, pan, model, rng, CONFIG.gnyq, CONFIG.seed)


def argument_arrays(ctx):
    model = ctx.model
    return [
        ctx.y_h.data,
        ctx.pan.data,
        model.blur.taps,
        model.spectral_response,
        model.hs_noise_std,
    ]


def assert_adopted_safely(img, inputs):
    assert not img.data.flags.writeable
    assert img.data.dtype == np.float64 and img.data.flags.c_contiguous
    for arr in inputs:
        assert not np.shares_memory(img.data, arr)


@pytest.mark.parametrize("name", method_names())
def test_method_output_is_read_only_and_unshared(context, name):
    before = [arr.copy() for arr in argument_arrays(context)]
    fused = get_method(name)(context)
    assert_adopted_safely(fused, argument_arrays(context))
    for arr, kept in zip(argument_arrays(context), before):
        np.testing.assert_array_equal(arr, kept)


def test_upsample_output_is_read_only_and_unshared(context):
    assert_adopted_safely(upsample(context.y_h, 3), [context.y_h.data])


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_loaded_raster_is_read_only_and_unshared(tmp_path, dtype):
    rng = np.random.default_rng(1)
    path = str(tmp_path / "img")
    save_raster(path, SpectralImage(3, 4, rng.uniform(size=(2, 12))), dtype)
    first, second = load_raster(path), load_raster(path)
    assert_adopted_safely(first, [second.data])
    assert not second.data.flags.writeable


@pytest.mark.parametrize(
    "fuse",
    [
        lambda y, p: mra.fuse_sfim(y, p, 2, DynamicRange(-10.0, 10.0)),
        lambda y, p: cs.fuse_gs(y, p, 2),
    ],
    ids=["sfim", "gs"],
)
def test_nan_in_working_cube_still_raises(context, monkeypatch, fuse):
    # `cs.front_end` is the one front end of both methods; the poison lands
    # in the first block of interpolated bands.
    def poisoned(img, ratio, method="bicubic"):
        bands = upsample_bands(img, ratio, method)

        def fill(start, stop, out):
            bands.fill(start, stop, out)
            out[0, 0] = np.nan

        return bands.refill(fill)

    monkeypatch.setattr(cs, "upsample_bands", poisoned)
    with pytest.raises(ValueError, match="non-finite"):
        fuse(context.y_h, context.pan)


class TestAdopt:
    def test_adopts_without_copy_and_freezes(self):
        data = np.arange(8.0).reshape(2, 4)
        img = SpectralImage._adopt(2, 2, data, (0.5, 0.6))
        assert img.data is data
        assert not data.flags.writeable
        assert img == SpectralImage(2, 2, np.arange(8.0).reshape(2, 4), (0.5, 0.6))

    def test_non_finite_raises(self):
        data = np.ones((1, 4))
        data[0, 3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            SpectralImage._adopt(2, 2, data)

    @pytest.mark.parametrize("where", [0, 99_999, 200_000, -1])
    def test_non_finite_found_anywhere_in_a_large_cube(self, where):
        for bad in (np.nan, -np.inf):
            data = np.ones((4, 100 * 700))
            data.reshape(-1)[where] = bad
            with pytest.raises(ValueError, match="image contains non-finite samples"):
                SpectralImage._adopt(100, 700, data)

    def test_finiteness_check_copies_no_cube(self):
        data = np.ones((16, 256 * 256))  # 8 MiB
        tracemalloc.start()
        try:
            SpectralImage._adopt(256, 256, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < data.nbytes / 16, f"adopting peaked at {peak} bytes"

    @pytest.mark.parametrize(
        "data",
        [
            np.ones((1, 4), dtype=np.float32),
            np.ones((4, 2)).T,
            np.ones((2, 8))[:, ::2],
            [[1.0, 2.0, 3.0, 4.0]],
        ],
        ids=["float32", "fortran", "strided", "list"],
    )
    def test_refuses_what_it_cannot_take_over(self, data):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            SpectralImage._adopt(2, 2, data)
        if isinstance(data, np.ndarray):
            assert data.flags.writeable

    def test_refuses_read_only_array(self):
        img = SpectralImage(2, 2, np.ones((1, 4)))
        with pytest.raises(ValueError, match="writable"):
            SpectralImage._adopt(2, 2, img.data)

    def test_geometry_checked(self):
        with pytest.raises(ValueError, match="pixels"):
            SpectralImage._adopt(2, 3, np.ones((1, 4)))
