"""Flat-binary raster I/O with ENVI-style text headers.

A raster is a `<base>.hdr` text header plus a `<base>.dat` band-sequential
payload in little-endian float32 or float64. Headers are written with a
fixed key order and float formatting so identical images always produce
identical bytes. `save_raster` is the one writer, of whole images and of
images formed block by block (`imgcore.BandStream`).
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from ..imgcore import BandStream, SpectralImage

__all__ = ["load_raster", "save_raster", "raster_paths"]

_DTYPE_CODES = {4: np.dtype("<f4"), 5: np.dtype("<f8")}
_CODE_FOR = {"float32": 4, "float64": 5}


def raster_paths(path: str) -> tuple[str, str]:
    """Header and payload paths for a base name or either member's path."""
    base, ext = os.path.splitext(path)
    if ext.lower() not in ("", ".hdr", ".dat"):
        base = path
    return base + ".hdr", base + ".dat"


def _parse_header(text: str, path: str) -> dict:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ENVI":
        raise ValueError(f"{path}: missing ENVI signature line")
    fields = {}
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line or line.startswith(";"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: malformed header line {line!r}")
        key, _, value = line.partition("=")
        key = " ".join(key.lower().split())
        value = value.strip()
        if value.startswith("{"):
            block = value[1:]
            while "}" not in block:
                if i >= len(lines):
                    raise ValueError(f"{path}: unterminated block for key {key!r}")
                block += " " + lines[i].strip()
                i += 1
            value = block[: block.index("}")].strip()
        fields[key] = value
    return fields


def _number(text: str, key: str, path: str, kind=int):
    """`text` as a `kind`, or an error that names the header and the key."""
    try:
        return kind(text)
    except ValueError:
        noun = "integer" if kind is int else "numeric"
        raise ValueError(f"{path}: header key {key!r} has non-{noun} value {text!r}") from None


def _require_int(fields: dict, key: str, path: str, least: int | None = None) -> int:
    if key not in fields:
        raise ValueError(f"{path}: header is missing required key {key!r}")
    value = _number(fields[key], key, path)
    if least is not None and value < least:
        raise ValueError(f"{path}: header key {key!r} must be at least {least}, got {value}")
    return value


def load_raster(path: str) -> SpectralImage:
    """Read a raster pair; payload values are widened to float64. The payload
    starts `header offset` bytes into its file (0 when the key is absent)."""
    hdr_path, dat_path = raster_paths(path)
    with open(hdr_path, "r", encoding="ascii") as fh:
        fields = _parse_header(fh.read(), hdr_path)

    samples = _require_int(fields, "samples", hdr_path, least=1)
    lines = _require_int(fields, "lines", hdr_path, least=1)
    bands = _require_int(fields, "bands", hdr_path, least=1)
    dtype_code = _require_int(fields, "data type", hdr_path)
    byte_order = _require_int(fields, "byte order", hdr_path)
    if "interleave" not in fields:
        raise ValueError(f"{hdr_path}: header is missing required key 'interleave'")
    interleave = fields["interleave"].lower()

    if dtype_code not in _DTYPE_CODES:
        raise ValueError(
            f"{hdr_path}: unsupported 'data type' {dtype_code} (need 4 or 5)"
        )
    if interleave != "bsq":
        raise ValueError(f"{hdr_path}: unsupported 'interleave' {interleave!r}")
    if byte_order != 0:
        raise ValueError(f"{hdr_path}: unsupported 'byte order' {byte_order}")

    offset = 0
    if "header offset" in fields:
        offset = _require_int(fields, "header offset", hdr_path, least=0)

    dtype = _DTYPE_CODES[dtype_code]
    expected = bands * lines * samples
    size = max(os.path.getsize(dat_path) - offset, 0)
    if size != expected * dtype.itemsize:
        raise ValueError(
            f"{dat_path}: payload holds {size // dtype.itemsize} values ({size} bytes "
            f"past header offset {offset}), header implies {expected} "
            f"({expected * dtype.itemsize} bytes)"
        )
    raw = np.fromfile(dat_path, dtype=dtype, offset=offset)

    wavelengths = None
    if "wavelength" in fields and fields["wavelength"]:
        values = [v for v in fields["wavelength"].replace(",", " ").split() if v]
        if len(values) != bands:
            raise ValueError(
                f"{hdr_path}: 'wavelength' lists {len(values)} values for {bands} bands"
            )
        wavelengths = [_number(v, "wavelength", hdr_path, float) for v in values]

    # A float64 payload is adopted as read; float32 is widened once.
    data = raw.astype(np.float64, copy=False).reshape(bands, lines * samples)
    return SpectralImage._adopt(lines, samples, data, wavelengths)


def _drop(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def _convert(band: np.ndarray, values: np.ndarray) -> None:
    """`values` cast into `band`, or an error if a sample overflows it."""
    try:
        with np.errstate(over="raise"):
            band[...] = values
    except FloatingPointError:
        raise ValueError(f"image holds samples beyond the {band.dtype} range") from None


def save_raster(
    path: str, img: SpectralImage | BandStream, dtype: str = "float64"
) -> tuple[str, str]:
    """Write the header/payload pair; returns their paths.

    A `BandStream` is written block by block through `checked_blocks`, so
    one block of the image is held at a time. A sample beyond the range of
    `dtype` is refused, not written as an infinity. The payload is written
    first and the header last; if anything fails once the payload is
    opened, neither file is left behind."""
    if dtype not in _CODE_FOR:
        raise ValueError(f"unsupported dtype {dtype!r} (need float32 or float64)")
    hdr_path, dat_path = raster_paths(path)
    code = _CODE_FOR[dtype]

    parts = [
        "ENVI",
        "description = { hspansharp raster }",
        f"samples = {img.width}",
        f"lines = {img.height}",
        f"bands = {img.bands}",
        "header offset = 0",
        "file type = ENVI Standard",
        f"data type = {code}",
        "interleave = bsq",
        "byte order = 0",
    ]
    if img.wavelengths is not None:
        listed = ", ".join("%.17g" % v for v in img.wavelengths)
        parts.append("wavelength = { %s }" % listed)
    header = "\n".join(parts) + "\n"

    blocks = [img.data] if isinstance(img, SpectralImage) else img.checked_blocks()
    # A block in the file's type is written as it is; otherwise one band at
    # a time goes through one buffer, so a float32 write converts without a
    # second copy of the block.
    band = np.empty(img.pixels, dtype=_DTYPE_CODES[code])
    fh = open(dat_path, "wb")
    try:
        with fh:
            for block in blocks:
                if block.dtype == band.dtype:
                    fh.write(block)
                    continue
                for values in block:
                    _convert(band, values)
                    fh.write(band)
        with open(hdr_path, "w", encoding="ascii", newline="\n") as out:
            out.write(header)
    except BaseException:
        _drop(hdr_path)
        _drop(dat_path)
        raise
    return hdr_path, dat_path
