"""The handover of fresh arrays to `SpectralImage`: outputs that are adopted
without a copy must still be read-only, must share no memory with their
inputs, and must still be checked for non-finite samples. Fusion methods
hand over only through `imgcore.BandStream`, and rasters are written only
by `envi.save_raster`."""

import ast
import tracemalloc
from pathlib import Path

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


def package_modules():
    """(path relative to the package, parsed module) of every module of
    `hspansharp`."""
    package = Path(__file__).resolve().parents[1] / "src" / "hspansharp"
    return [
        (path.relative_to(package).as_posix(), ast.parse(path.read_text()))
        for path in sorted(package.rglob("*.py"))
    ]


def test_no_fusion_module_adopts_an_array():
    # Each method forms its image as a `BandStream`; `BandStream.image` is
    # the one place a fused image is adopted.
    adopting = {
        where
        for where, tree in package_modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_adopt"
    }
    assert adopting and not any(where.startswith("fusion/") for where in adopting)


def test_fusion_calls_the_spatial_operators_on_arrays():
    # The methods interpolate and degrade arrays (`resample.interpolate`,
    # `sensorsim.degrade`); the image forms serve the commands and the
    # criteria, and no method wraps a scratch array in an image to call them.
    image_forms = {"upsample", "blur_downsample"}
    named = set()
    for where, tree in package_modules():
        if not where.startswith("fusion/"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name in image_forms:
                named.add((where, name))
    assert named == set()


def test_periodic_differences_have_one_home():
    # HySure's periodic boundary lives in bayes' difference helpers: the
    # solver, `vtv` and `default_hysure_params` call them, and no other code
    # shifts an array cyclically.
    rolling = set()
    for where, tree in package_modules():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            named = {getattr(n, "attr", None) or getattr(n, "id", None) for n in ast.walk(node)}
            if "roll" in named:
                rolling.add((where, node.name))
    assert rolling == {
        ("fusion/bayes.py", "_differences"),
        ("fusion/bayes.py", "_differences_adjoint"),
    }


def test_no_module_names_fft_or_complex_numbers():
    # Both of HySure's boundary models, like everything else, work on real
    # per-axis matrices: no module names an FFT, and none writes an
    # imaginary literal or names a complex type.
    transforming = set()
    for where, tree in package_modules():
        for node in ast.walk(tree):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            name = name or getattr(node, "name", None)
            if isinstance(name, str) and ("fft" in name.split(".") or "complex" in name):
                transforming.add((where, name))
            if isinstance(node, ast.Constant) and isinstance(node.value, complex):
                transforming.add((where, repr(node.value)))
    assert transforming == set()


def test_only_envi_writes_binary_files():
    # `save_raster` is the one writer of images and of streamed blocks.
    writers = set()
    for where, tree in package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "tofile":
                writers.add(where)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                modes = [a.value for a in node.args[1:2] if isinstance(a, ast.Constant)]
                modes += [k.value.value for k in node.keywords if k.arg == "mode"]
                if any("b" in m and ("w" in m or "a" in m) for m in modes):
                    writers.add(where)
    assert writers == {"harness/envi.py"}


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
