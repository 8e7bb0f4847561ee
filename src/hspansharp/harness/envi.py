"""Flat-binary raster I/O with ENVI-style text headers.

A raster is a `<base>.hdr` text header plus a `<base>.dat` band-sequential
payload in little-endian float32 or float64. Headers are written with a
fixed key order and float formatting so identical images always produce
identical bytes.
"""

from __future__ import annotations

import os

import numpy as np

from ..imgcore import SpectralImage

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


def _require_int(fields: dict, key: str, path: str) -> int:
    if key not in fields:
        raise ValueError(f"{path}: header is missing required key {key!r}")
    try:
        return int(fields[key])
    except ValueError:
        raise ValueError(
            f"{path}: header key {key!r} has non-integer value {fields[key]!r}"
        ) from None


def load_raster(path: str) -> SpectralImage:
    """Read a raster pair; payload values are widened to float64."""
    hdr_path, dat_path = raster_paths(path)
    with open(hdr_path, "r", encoding="ascii") as fh:
        fields = _parse_header(fh.read(), hdr_path)

    samples = _require_int(fields, "samples", hdr_path)
    lines = _require_int(fields, "lines", hdr_path)
    bands = _require_int(fields, "bands", hdr_path)
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

    dtype = _DTYPE_CODES[dtype_code]
    raw = np.fromfile(dat_path, dtype=dtype)
    expected = bands * lines * samples
    if raw.size != expected:
        raise ValueError(
            f"{dat_path}: payload holds {raw.size} values, header implies {expected}"
        )

    wavelengths = None
    if "wavelength" in fields and fields["wavelength"]:
        values = [v for v in fields["wavelength"].replace(",", " ").split() if v]
        if len(values) != bands:
            raise ValueError(
                f"{hdr_path}: 'wavelength' lists {len(values)} values for {bands} bands"
            )
        wavelengths = [float(v) for v in values]

    # A float64 payload is adopted as read; float32 is widened once.
    data = raw.astype(np.float64, copy=False).reshape(bands, lines * samples)
    return SpectralImage._adopt(lines, samples, data, wavelengths)


def save_raster(path: str, img: SpectralImage, dtype: str = "float64") -> tuple[str, str]:
    """Write the header/payload pair; returns their paths."""
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

    with open(hdr_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header)
    # One band at a time through one buffer, so a float32 write converts
    # without a second copy of the whole image.
    band = np.empty(img.pixels, dtype=_DTYPE_CODES[code])
    with open(dat_path, "wb") as fh:
        for values in img.data:
            band[...] = values
            fh.write(band)
    return hdr_path, dat_path
