"""Raster header/payload I/O."""

import tracemalloc

import numpy as np
import pytest

from hspansharp.imgcore import SpectralImage
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

    def test_wavelength_count_mismatch(self, tmp_path):
        (hdr, _), _ = self.write_pair(tmp_path)
        open(hdr, "a").write("wavelength = { 0.4, 0.5 }\n")
        with pytest.raises(ValueError, match="wavelength"):
            load_raster(hdr)

    def test_save_rejects_unknown_dtype(self, tmp_path):
        with pytest.raises(ValueError, match="float32 or float64"):
            save_raster(str(tmp_path / "m"), make_image(9), dtype="int16")

    def test_missing_files_raise(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_raster(str(tmp_path / "absent"))
