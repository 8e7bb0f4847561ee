"""Raster header/payload I/O."""

import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from hspansharp import imgcore
from hspansharp.imgcore import BandStream, SpectralImage
from hspansharp.harness.cli import main
from hspansharp.harness.envi import load_raster, raster_paths, save_raster


def make_image(seed=0, wavelengths=None):
    rng = np.random.default_rng(seed)
    return SpectralImage(4, 5, rng.normal(size=(3, 20)), wavelengths)


class TestRasterPaths:
    def test_base_name(self):
        assert raster_paths("/tmp/scene") == ("/tmp/scene.hdr", "/tmp/scene.dat")

    def test_header_member(self):
        assert raster_paths("/tmp/scene.hdr") == ("/tmp/scene.hdr", "/tmp/scene.dat")

    def test_payload_member(self):
        assert raster_paths("/tmp/scene.dat") == ("/tmp/scene.hdr", "/tmp/scene.dat")

    def test_unrelated_extension_kept(self):
        hdr, dat = raster_paths("/tmp/scene.v2")
        assert hdr == "/tmp/scene.v2.hdr"
        assert dat == "/tmp/scene.v2.dat"


class TestRoundTrip:
    def test_float64_bit_exact(self, tmp_path):
        img = make_image(1)
        save_raster(str(tmp_path / "a"), img, dtype="float64")
        back = load_raster(str(tmp_path / "a"))
        assert np.array_equal(back.data, img.data)
        assert (back.height, back.width) == (img.height, img.width)

    def test_float32_round_trips_representable_values(self, tmp_path):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(3, 20)).astype(np.float32).astype(np.float64)
        img = SpectralImage(4, 5, data)
        save_raster(str(tmp_path / "b"), img, dtype="float32")
        back = load_raster(str(tmp_path / "b"))
        assert np.array_equal(back.data, data)

    def test_float32_quantizes(self, tmp_path):
        img = SpectralImage(1, 1, np.array([[0.1]]))
        save_raster(str(tmp_path / "c"), img, dtype="float32")
        back = load_raster(str(tmp_path / "c"))
        assert back.data[0, 0] == np.float32(0.1)
        assert back.data[0, 0] != 0.1

    def test_wavelengths_round_trip(self, tmp_path):
        wl = [0.45, 0.55, 0.6512345678901234]
        img = make_image(3, wavelengths=wl)
        save_raster(str(tmp_path / "d"), img)
        back = load_raster(str(tmp_path / "d"))
        assert np.array_equal(back.wavelengths, np.asarray(wl))

    def test_no_wavelengths(self, tmp_path):
        img = make_image(4)
        save_raster(str(tmp_path / "e"), img)
        assert load_raster(str(tmp_path / "e")).wavelengths is None

    def test_band_order_is_sequential(self, tmp_path):
        # band 0 fully precedes band 1 in the payload
        img = SpectralImage(2, 2, np.array([[1.0, 2.0, 3.0, 4.0],
                                            [5.0, 6.0, 7.0, 8.0]]))
        _, dat = save_raster(str(tmp_path / "f"), img, dtype="float64")
        raw = np.fromfile(dat, dtype="<f8")
        assert np.array_equal(raw, np.arange(1.0, 9.0))


class TestBandByBandWrite:
    @pytest.mark.parametrize("dtype, code", [("float32", "<f4"), ("float64", "<f8")])
    def test_payload_equals_whole_array_conversion(self, tmp_path, dtype, code):
        rng = np.random.default_rng(6)
        img = SpectralImage(7, 9, rng.normal(0.0, 1e3, (6, 63)))
        _, dat = save_raster(str(tmp_path / "g"), img, dtype=dtype)
        with open(dat, "rb") as fh:
            assert fh.read() == np.ascontiguousarray(img.data, dtype=code).tobytes()

    def test_float32_write_holds_a_few_bands(self, tmp_path):
        # 120 bands of 100 x 100: 9.6 MB as float64, 40 kB per float32 band.
        img = SpectralImage(
            100, 100, np.random.default_rng(7).uniform(size=(120, 10_000))
        )
        tracemalloc.start()
        try:
            save_raster(str(tmp_path / "h"), img, dtype="float32")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.01 * img.data.nbytes


# A 2 x 3 raster of two bands with wavelengths, and its header lines
# before the data type.
GOLDEN_VALUES = [0.5, -1.25, 3.0, 1e-3, 2.0**-30, 7.0, 0.1, -0.0, 1e6, 2.5, -3.75, 4.0]
GOLDEN_HEADER = (
    "ENVI\n"
    "description = { hspansharp raster }\n"
    "samples = 3\n"
    "lines = 2\n"
    "bands = 2\n"
    "header offset = 0\n"
    "file type = ENVI Standard\n"
)


def golden_image():
    return SpectralImage(2, 3, np.reshape(GOLDEN_VALUES, (2, 6)), (0.45, 0.6512345678901234))


def as_stream(img):
    """`img` as a `BandStream` that copies its bands."""

    def fill(start, stop, out):
        out[...] = img.data[start:stop]

    return BandStream(img.height, img.width, img.bands, fill, img.wavelengths)


class TestGoldenBytes:
    @pytest.mark.parametrize("dtype, code, fmt", [("float32", 4, "<12f"), ("float64", 5, "<12d")])
    @pytest.mark.parametrize("streamed", [False, True], ids=["image", "stream"])
    def test_header_and_payload_bytes(self, tmp_path, dtype, code, fmt, streamed):
        img = golden_image()
        hdr, dat = save_raster(str(tmp_path / "g"), as_stream(img) if streamed else img, dtype)
        with open(hdr, "rb") as fh:
            assert fh.read() == (
                GOLDEN_HEADER
                + f"data type = {code}\n"
                "interleave = bsq\n"
                "byte order = 0\n"
                "wavelength = { 0.45000000000000001, 0.65123456789012335 }\n"
            ).encode("ascii")
        with open(dat, "rb") as fh:
            assert fh.read() == struct.pack(fmt, *GOLDEN_VALUES)


class TestStreamWrite:
    @pytest.fixture
    def two_band_blocks(self, monkeypatch):
        # Blocks of two bands: 5 bands of 4 x 5 are written as 2, 2 and 1.
        monkeypatch.setattr(imgcore, "_BLOCK_BYTES", 2 * 20 * 8)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_blocks_write_the_image_bytes(self, tmp_path, two_band_blocks, dtype):
        img = SpectralImage(4, 5, np.random.default_rng(9).normal(size=(5, 20)))
        stream = as_stream(img)
        assert stream.blocks() == [(0, 2), (2, 4), (4, 5)]
        _, whole = save_raster(str(tmp_path / "whole"), img, dtype)
        _, blocked = save_raster(str(tmp_path / "blocked"), stream, dtype)
        with open(whole, "rb") as fa, open(blocked, "rb") as fb:
            assert fa.read() == fb.read()
        assert stream.image() == img

    def test_non_finite_block_leaves_no_raster(self, tmp_path, two_band_blocks):
        img = SpectralImage(4, 5, np.random.default_rng(10).normal(size=(5, 20)))
        base = str(tmp_path / "out")
        save_raster(base, img)  # an earlier raster at the same path
        filled = []

        def fill(start, stop, out):
            filled.append(start)
            out[...] = img.data[start:stop]
            if start == 2:
                out[-1, -1] = np.nan

        stream = BandStream(4, 5, 5, fill)
        with pytest.raises(ValueError, match="^image contains non-finite samples$"):
            save_raster(base, stream, "float32")
        assert filled == [0, 2]
        assert not any(tmp_path.iterdir())

    def test_stream_write_holds_one_block(self, tmp_path):
        # 120 bands of 100 x 100: 9.6 MB as float64, 80 kB per band.
        rng = np.random.default_rng(11)
        band = rng.uniform(size=10_000)

        def fill(start, stop, out):
            out[...] = band

        stream = BandStream(100, 100, 120, fill)
        (start, stop), *_ = stream.blocks()
        tracemalloc.start()
        try:
            save_raster(str(tmp_path / "s"), stream, "float32")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (stop - start + 2) * band.nbytes


@pytest.mark.parametrize("value", [1e39, -1e39])
class TestFloat32Overflow:
    """A finite float64 sample beyond the float32 range is refused, not
    written as an infinity that `load_raster` would then refuse."""

    MESSAGE = "^image holds samples beyond the float32 range$"

    def image(self, value):
        data = np.random.default_rng(15).normal(size=(3, 20))
        data[1, 7] = value
        return SpectralImage(4, 5, data)

    def test_image_write_refused_and_leaves_no_raster(self, tmp_path, value):
        base = str(tmp_path / "out")
        save_raster(base, make_image(16))  # an earlier raster at the same path
        with pytest.raises(ValueError, match=self.MESSAGE):
            save_raster(base, self.image(value), "float32")
        assert not any(tmp_path.iterdir())

    def test_stream_write_refused_and_leaves_no_raster(self, tmp_path, value):
        with pytest.raises(ValueError, match=self.MESSAGE):
            save_raster(str(tmp_path / "out"), as_stream(self.image(value)), "float32")
        assert not any(tmp_path.iterdir())

    def test_float64_write_keeps_the_sample(self, tmp_path, value):
        base = str(tmp_path / "out")
        save_raster(base, self.image(value), "float64")
        assert load_raster(base).data[1, 7] == value

    def test_fuse_exits_two_and_leaves_no_raster(self, tmp_path, capsys, value):
        # Inputs of the size of `value` fuse to float64 samples of that size.
        rng = np.random.default_rng(17)
        scale = value
        hs, pan = str(tmp_path / "hs"), str(tmp_path / "pan")
        save_raster(hs, SpectralImage(4, 4, scale * rng.uniform(0.5, 1.0, (6, 16))))
        save_raster(pan, SpectralImage(8, 8, scale * rng.uniform(0.5, 1.0, (1, 64))))
        out = str(tmp_path / "out")
        argv = ["fuse", "--method", "GS", "--hs", hs, "--pan", pan, "--out", out]
        assert main(argv + ["--dtype", "float32"]) == 2
        assert capsys.readouterr() == (
            "", "error: method GS failed: image holds samples beyond the float32 range\n"
        )
        assert not any(tmp_path.glob("out*"))
        assert main(argv + ["--dtype", "float64"]) == 0


class TestHeaderFormat:
    def test_single_value_header_contents(self, tmp_path):
        img = SpectralImage(1, 1, np.array([[7.0]], dtype=np.float64))
        hdr, dat = save_raster(str(tmp_path / "g"), img, dtype="float32")
        text = open(hdr, encoding="ascii").read()
        assert text.splitlines()[0] == "ENVI"
        assert "samples = 1" in text
        assert "lines = 1" in text
        assert "bands = 1" in text
        assert "data type = 4" in text
        assert "interleave = bsq" in text
        assert "byte order = 0" in text
        raw = np.fromfile(dat, dtype="<f4")
        assert raw.shape == (1,)
        assert raw[0] == 7.0

    def test_deterministic_bytes(self, tmp_path):
        img = make_image(5, wavelengths=[0.4, 0.5, 0.6])
        h1, d1 = save_raster(str(tmp_path / "h1"), img)
        h2, d2 = save_raster(str(tmp_path / "h2"), img)
        assert open(h1, "rb").read() == open(h2, "rb").read()
        assert open(d1, "rb").read() == open(d2, "rb").read()

    def test_multi_line_brace_block_parsed(self, tmp_path):
        img = make_image(6)
        hdr, dat = save_raster(str(tmp_path / "i"), img)
        text = open(hdr, encoding="ascii").read()
        text = text.replace(
            "byte order = 0",
            "byte order = 0\nwavelength = {\n 0.40, 0.50,\n 0.60 }",
        )
        open(hdr, "w", encoding="ascii").write(text)
        back = load_raster(str(tmp_path / "i"))
        assert np.array_equal(back.wavelengths, [0.4, 0.5, 0.6])

    def test_comment_and_blank_lines_ignored(self, tmp_path):
        img = make_image(7)
        hdr, _ = save_raster(str(tmp_path / "j"), img)
        text = open(hdr, encoding="ascii").read()
        lines = text.splitlines()
        lines.insert(1, "; produced by a test")
        lines.insert(2, "")
        open(hdr, "w", encoding="ascii").write("\n".join(lines) + "\n")
        assert np.array_equal(load_raster(str(tmp_path / "j")).data, img.data)


class TestErrorPaths:
    def write_pair(self, tmp_path, name="k", seed=8):
        img = make_image(seed)
        return save_raster(str(tmp_path / name), img), img

    def test_missing_signature(self, tmp_path):
        (hdr, _), _ = self.write_pair(tmp_path)
        text = open(hdr).read().replace("ENVI\n", "NOPE\n", 1)
        open(hdr, "w").write(text)
        with pytest.raises(ValueError, match="signature"):
            load_raster(hdr)

    def test_missing_required_key_named(self, tmp_path):
        (hdr, _), _ = self.write_pair(tmp_path)
        text = "\n".join(
            ln for ln in open(hdr).read().splitlines() if not ln.startswith("bands")
        )
        open(hdr, "w").write(text + "\n")
        with pytest.raises(ValueError, match="'bands'"):
            load_raster(hdr)

    def test_non_integer_value_reported(self, tmp_path):
        (hdr, _), _ = self.write_pair(tmp_path)
        text = open(hdr).read().replace("lines = 4", "lines = four")
        open(hdr, "w").write(text)
        with pytest.raises(ValueError, match="'lines'"):
            load_raster(hdr)

    def test_malformed_line(self, tmp_path):
        (hdr, _), _ = self.write_pair(tmp_path)
        open(hdr, "a").write("just words\n")
        with pytest.raises(ValueError, match="malformed"):
            load_raster(hdr)

    def test_unterminated_block(self, tmp_path):
        (hdr, _), _ = self.write_pair(tmp_path)
        open(hdr, "a").write("wavelength = { 0.4, 0.5\n")
        with pytest.raises(ValueError, match="unterminated"):
            load_raster(hdr)

    def test_unsupported_dtype_code(self, tmp_path):
        (hdr, _), _ = self.write_pair(tmp_path)
        text = open(hdr).read().replace("data type = 5", "data type = 12")
        open(hdr, "w").write(text)
        with pytest.raises(ValueError, match="data type"):
            load_raster(hdr)

    def test_unsupported_interleave(self, tmp_path):
        (hdr, _), _ = self.write_pair(tmp_path)
        text = open(hdr).read().replace("interleave = bsq", "interleave = bil")
        open(hdr, "w").write(text)
        with pytest.raises(ValueError, match="interleave"):
            load_raster(hdr)

    def test_unsupported_byte_order(self, tmp_path):
        (hdr, _), _ = self.write_pair(tmp_path)
        text = open(hdr).read().replace("byte order = 0", "byte order = 1")
        open(hdr, "w").write(text)
        with pytest.raises(ValueError, match="byte order"):
            load_raster(hdr)

    def test_payload_size_mismatch_reports_counts(self, tmp_path):
        (hdr, dat), img = self.write_pair(tmp_path)
        raw = open(dat, "rb").read()
        open(dat, "wb").write(raw[:-8])
        with pytest.raises(ValueError, match="59.*60"):
            load_raster(hdr)

    @pytest.mark.parametrize(
        "dtype, extra", [("float32", 1), ("float32", 3), ("float64", 3), ("float64", 7)]
    )
    def test_partial_trailing_value_rejected(self, tmp_path, dtype, extra):
        # A payload whose byte count is no whole number of values loaded,
        # its stray trailing bytes dropped.
        hdr, dat = save_raster(str(tmp_path / "p"), make_image(8), dtype=dtype)
        size = 60 * np.dtype(dtype).itemsize
        open(dat, "ab").write(b"\x00" * extra)
        want = f"60 values \\({size + extra} bytes.*{size} bytes"
        with pytest.raises(ValueError, match=want):
            load_raster(hdr)

    @pytest.mark.parametrize("key, value", [("samples", 0), ("lines", -3), ("bands", -1)])
    def test_non_positive_dims_refused_from_the_header(self, tmp_path, key, value):
        (hdr, _), _ = self.write_pair(tmp_path)
        text = re.sub(rf"^{key} = \d+$", f"{key} = {value}", open(hdr).read(), flags=re.M)
        open(hdr, "w").write(text)
        want = f"^{re.escape(hdr)}: header key '{key}' must be at least 1, got {value}$"
        with pytest.raises(ValueError, match=want):
            load_raster(hdr)

    def test_zero_bands_rejected(self, tmp_path, capsys):
        # Loaded as a (0, N) image, it made `fuse` fail later with a message
        # about the spectral response.
        (hdr, dat), _ = self.write_pair(tmp_path)
        text = open(hdr).read().replace("bands = 3", "bands = 0")
        open(hdr, "w").write(text)
        open(dat, "wb").close()
        message = "header key 'bands' must be at least 1, got 0"
        with pytest.raises(ValueError, match=message):
            load_raster(hdr)
        pan = SpectralImage(8, 10, np.random.default_rng(2).uniform(0.1, 1.0, (1, 80)))
        save_raster(str(tmp_path / "pan"), pan)
        argv = ["fuse", "--method", "GSA", "--hs", hdr, "--pan", str(tmp_path / "pan"),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert not any(name.startswith("out") for name in os.listdir(tmp_path))

    def with_offset(self, tmp_path, offset, cut=0):
        """The pair rewritten so that its payload starts `offset` bytes into
        the file behind a run of 0xFF bytes, less `cut` trailing bytes."""
        (hdr, dat), img = self.write_pair(tmp_path)
        text = open(hdr).read().replace("header offset = 0", f"header offset = {offset}")
        open(hdr, "w").write(text)
        raw = open(dat, "rb").read()
        open(dat, "wb").write(b"\xff" * max(offset, 0) + raw[: len(raw) - cut])
        return hdr, img

    @pytest.mark.parametrize("offset", [0, 80, 128])
    def test_payload_read_from_header_offset(self, tmp_path, offset):
        hdr, img = self.with_offset(tmp_path, offset)
        assert load_raster(hdr) == img

    def test_truncated_payload_behind_offset_rejected(self, tmp_path):
        # Read from byte 0, this file holds exactly the 60 values the header
        # implies, the first 10 of them the offset's filler.
        hdr, _ = self.with_offset(tmp_path, 80, cut=80)
        with pytest.raises(ValueError, match="50.*60"):
            load_raster(hdr)

    @pytest.mark.parametrize("offset", ["-8", "eight"])
    def test_bad_header_offset_rejected(self, tmp_path, offset):
        (hdr, _), _ = self.write_pair(tmp_path)
        text = open(hdr).read().replace("header offset = 0", f"header offset = {offset}")
        open(hdr, "w").write(text)
        with pytest.raises(ValueError, match="header offset"):
            load_raster(hdr)

    def test_missing_header_offset_means_zero(self, tmp_path):
        (hdr, _), img = self.write_pair(tmp_path)
        text = open(hdr).read().replace("header offset = 0\n", "")
        open(hdr, "w").write(text)
        assert load_raster(hdr) == img

    def test_wavelength_count_mismatch(self, tmp_path):
        (hdr, _), _ = self.write_pair(tmp_path)
        open(hdr, "a").write("wavelength = { 0.4, 0.5 }\n")
        with pytest.raises(ValueError, match="wavelength"):
            load_raster(hdr)

    def test_non_numeric_wavelength_names_the_header(self, tmp_path):
        (hdr, _), _ = self.write_pair(tmp_path)
        open(hdr, "a").write("wavelength = { 0.4, abc, 0.6 }\n")
        want = f"^{re.escape(hdr)}: header key 'wavelength' has non-numeric value 'abc'$"
        with pytest.raises(ValueError, match=want):
            load_raster(hdr)

    @pytest.mark.parametrize("listed", ["nan, 0.5, 0.6", "0.4, 0.5, inf"])
    def test_non_finite_wavelength_refused(self, tmp_path, listed):
        (hdr, _), _ = self.write_pair(tmp_path)
        open(hdr, "a").write("wavelength = { %s }\n" % listed)
        with pytest.raises(ValueError, match="wavelengths must be finite"):
            load_raster(hdr)

    def test_save_rejects_unknown_dtype(self, tmp_path):
        with pytest.raises(ValueError, match="float32 or float64"):
            save_raster(str(tmp_path / "m"), make_image(9), dtype="int16")

    def test_missing_files_raise(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_raster(str(tmp_path / "absent"))


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
class TestNonFinitePayload:
    """A payload holding a NaN or an infinity is refused on load, and the
    commands that read it exit 1 without writing anything."""

    MESSAGE = "image contains non-finite samples"

    def poisoned(self, tmp_path, name, img, dtype, value):
        """Base path of `img` saved as `dtype` with one payload sample
        overwritten by `value`."""
        base = str(tmp_path / name)
        _, dat = save_raster(base, img, dtype)
        payload = np.fromfile(dat, dtype="<f4" if dtype == "float32" else "<f8")
        payload[1] = value
        payload.tofile(dat)
        return base

    def test_load_refuses(self, tmp_path, dtype, value):
        base = self.poisoned(tmp_path, "x", make_image(10), dtype, value)
        with pytest.raises(ValueError, match=f"^{self.MESSAGE}$"):
            load_raster(base)

    def test_eval_exits_one(self, tmp_path, capsys, dtype, value):
        truth = str(tmp_path / "truth")
        save_raster(truth, make_image(11))
        fused = self.poisoned(tmp_path, "fused", make_image(12), dtype, value)
        assert main(["eval", "--fused", fused, "--truth", truth, "--ratio", "2"]) == 1
        assert capsys.readouterr() == ("", f"error: {self.MESSAGE}\n")

    def test_fuse_exits_one(self, tmp_path, capsys, dtype, value):
        rng = np.random.default_rng(13)
        hs_img = SpectralImage(2, 2, rng.uniform(0.1, 1.0, (3, 4)))
        hs = self.poisoned(tmp_path, "hs", hs_img, dtype, value)
        pan = str(tmp_path / "pan")
        save_raster(pan, SpectralImage(4, 4, rng.uniform(0.1, 1.0, (1, 16))))
        out = str(tmp_path / "out")
        argv = ["fuse", "--method", "GS", "--hs", hs, "--pan", pan, "--out", out,
                "--dtype", dtype]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {self.MESSAGE}\n")
        assert not any(tmp_path.glob("out*"))
