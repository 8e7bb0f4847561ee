"""Wald-protocol benchmark: degrade a reference scene, run every selected
fusion method on the degraded pair, and score the results against the
reference.

Timing covers the fusion call only (not I/O or metric evaluation) and can
be disabled (`timing = off`) to make report bytes reproducible run to run.
"""

from __future__ import annotations

import json
import operator
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from ..imgcore import DynamicRange, SpectralImage
from ..metrics import QualityReport, Reference, compute_report
from ..sensorsim import (
    NOISE_ALGORITHM,
    SensorModel,
    add_gaussian_noise,
    assumed_model,
    blur_downsample,
    synth_pan,
)
from .config import RunConfig
from .envi import load_raster, save_raster
from .registry import MethodContext, get_method, method_names
from .scene import synth_scene
from .. import __version__

__all__ = [
    "MethodResult",
    "BenchmarkReport",
    "reference_scene",
    "wald_inputs",
    "run_method",
    "run_wald",
    "percentile_spectrum",
    "emit_report",
]


@dataclass(frozen=True)
class MethodResult:
    """One method's scores and its `(q, pixel, reference, estimate)`
    percentile spectra, one per `config.percentiles` entry; a failed method
    has neither. The fused image is not kept: `fused` runs the method's step
    again on each access, so a caller that needs it twice should keep it."""

    name: str
    report: QualityReport | None
    spectra: tuple = ()
    error: str | None = None
    step: Callable[[], SpectralImage] | None = field(default=None, repr=False)

    @property
    def fused(self) -> SpectralImage | None:
        return None if self.step is None else self.step()


@dataclass(frozen=True)
class BenchmarkReport:
    config: RunConfig
    results: tuple[MethodResult, ...]
    truth: SpectralImage
    y_h: SpectralImage


def _snr_std(rms, snr_db):
    return rms * 10.0 ** (-snr_db / 20.0)


def reference_scene(config: RunConfig) -> SpectralImage:
    """The reference image: loaded from `input` when set, synthetic otherwise."""
    if config.input is not None:
        return load_raster(config.input)
    return synth_scene(
        config.seed, config.endmembers, config.height, config.width, config.bands
    )


def wald_inputs(
    truth: SpectralImage, config: RunConfig
) -> tuple[SpectralImage, SpectralImage, SensorModel]:
    """Degrade the reference into the observed pair under
    `sensorsim.assumed_model`, with the noise standard deviations that
    `snr-db` gives each image (none when unset)."""
    model = assumed_model(config.ratio, truth.bands, truth.wavelengths, config.gnyq)
    y_h = blur_downsample(truth, model.blur, config.ratio)
    pan = synth_pan(truth, model.spectral_response[0])

    if config.snr_db is not None:
        hs_std = _snr_std(np.sqrt((y_h.data**2).mean(axis=1)), config.snr_db)
        pan_std = _snr_std(float(np.sqrt((pan.data**2).mean())), config.snr_db)
        model = replace(model, hs_noise_std=hs_std, pan_noise_std=pan_std)
    if model.hs_noise_std.any():
        y_h = add_gaussian_noise(y_h, model.hs_noise_std, config.seed)
    if model.pan_noise_std > 0:
        pan = add_gaussian_noise(pan, model.pan_noise_std, config.seed + 1)
    return y_h, pan, model


def run_method(
    config: RunConfig, name: str, y_h: SpectralImage, pan: SpectralImage,
    model: SensorModel, seed: int, sink=None,
):
    """Fuse the observed pair with method `name` under `model`: the one
    step every command runs a method through. The dynamic range spans Y_H;
    the gain, the subspace dimension and the method's parameters come from
    `config`. The method is looked up in `REGISTRY` at each call, so a
    rebound entry runs.

    Without `sink` the fused `SpectralImage` is returned. With it, the
    method hands `sink` its image block by block (`MethodContext.sink`) and
    what `sink` returns is returned."""
    ctx = MethodContext(
        y_h=y_h,
        pan=pan,
        model=model,
        range=DynamicRange.spanning(y_h.data),
        gnyq=config.gnyq,
        seed=seed,
        subspace_dim=config.subspace_dim,
        params=config.method_params.get(name),
        sink=sink,
    )
    return get_method(name)(ctx)


def _method_seed(seed: int, name: str) -> int:
    """The seed of method `name` in a run seeded `seed`: from its place in
    the registry, so that it does not depend on which other methods run."""
    index = method_names().index(name)
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def run_wald(config: RunConfig) -> BenchmarkReport:
    """Run every selected method on the degraded pair; one method failing
    does not abort the rest. One fused image is held at a time."""
    config = config.validate()
    truth = reference_scene(config)
    config.check_bands(truth.bands)
    y_h, pan, model = wald_inputs(truth, config)
    reference = Reference(truth)
    results = tuple(
        _scored(config, name, y_h, pan, model, reference)
        for name in config.selected_methods()
    )
    return BenchmarkReport(config, results, truth, y_h)


def _scored(
    config: RunConfig, name: str, y_h: SpectralImage, pan: SpectralImage,
    model: SensorModel, reference: Reference,
) -> MethodResult:
    """Run method `name` and score its image against `reference`, keeping
    the scores and the percentile spectra; the image is dropped on return."""
    step = partial(
        run_method, config, name, y_h, pan, model, _method_seed(config.seed, name)
    )
    try:
        start = time.perf_counter()
        fused = step()
        elapsed = time.perf_counter() - start if config.timing == "wall" else 0.0
        report = compute_report(fused, reference, 1.0 / config.ratio, elapsed)
        spectra = tuple(
            (q,) + percentile_spectrum(fused, reference.image, report.rmse_map, q)
            for q in config.percentiles
        )
    except Exception as exc:
        return MethodResult(name, None, error=str(exc))
    return MethodResult(name, report, spectra, step=step)


def percentile_spectrum(
    xhat: SpectralImage, x: SpectralImage, rmse_map: SpectralImage, q: float
) -> tuple[int, np.ndarray, np.ndarray]:
    """Pixel whose per-pixel error sits at the q-th percentile of the error
    map (nearest-rank; ties resolved to the lowest pixel index), with the
    reference and estimated spectra at that pixel."""
    if not 0.0 < q <= 100.0:
        raise ValueError("percentile must lie in (0, 100]")
    if rmse_map.bands != 1:
        raise ValueError("the error map must have exactly one band")
    if xhat.pixels != rmse_map.pixels or x.pixels != rmse_map.pixels:
        raise ValueError("images and error map must share pixel count")
    values = rmse_map.data[0]
    rank = int(np.ceil(q / 100.0 * values.size))
    value = np.partition(values, rank - 1)[rank - 1]
    pixel = int(np.flatnonzero(values == value)[0])
    return pixel, x.data[:, pixel].copy(), xhat.data[:, pixel].copy()


def _safe_name(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name.lower())


def emit_report(report: BenchmarkReport) -> dict:
    """Write report.csv, report.json, spectra.csv, and per-method RMSE map
    rasters; returns the artifact paths.

    All text artifacts use fixed formatting; with timing disabled the bytes
    are identical across repeated runs of the same configuration.
    """
    config = report.config
    out_dir = config.output_dir
    os.makedirs(out_dir, exist_ok=True)

    rows = ["method,CC,SAM,RMSE,ERGAS,time_s"]
    for res in report.results:
        if res.report is None:
            rows.append("%s,nan,nan,nan,nan,nan" % res.name)
            continue
        scalars = res.report.scalars()
        rows.append(
            ",".join(
                [res.name]
                + [
                    "%.17g" % scalars[key]
                    for key in ("CC", "SAM", "RMSE", "ERGAS", "time_s")
                ]
            )
        )
    csv_path = os.path.join(out_dir, "report.csv")
    with open(csv_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")

    spectra = [(res,) + spectrum for res in report.results for spectrum in res.spectra]
    spectra_path = os.path.join(out_dir, "spectra.csv")
    with open(spectra_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("method,percentile,pixel,band,reference,estimate\n")
        for res, q, pixel, ref, est in spectra:
            for band in range(ref.size):
                fh.write(
                    "%s,%.17g,%d,%d,%.17g,%.17g\n"
                    % (res.name, q, pixel, band, ref[band], est[band])
                )

    spectra_json = {r.name: {} for r in report.results if r.report is not None}
    for res, q, pixel, ref, est in spectra:
        spectra_json[res.name]["%g" % q] = {
            "pixel": pixel,
            "reference": [float(v) for v in ref],
            "estimate": [float(v) for v in est],
        }
    payload = {
        "version": __version__,
        "noise_algorithm": NOISE_ALGORITHM,
        "config": config.to_dict(),
        "errors": {r.name: r.error for r in report.results if r.error},
        "percentile_spectra": spectra_json,
    }
    json_path = os.path.join(out_dir, "report.json")
    with open(json_path, "w", encoding="ascii", newline="\n") as fh:
        # A numpy integer, which `RunConfig` accepts, is written as an int.
        json.dump(payload, fh, indent=2, sort_keys=True, default=operator.index)
        fh.write("\n")

    map_paths = {}
    for res in report.results:
        if res.report is None:
            continue
        base = os.path.join(out_dir, "rmse_map_" + _safe_name(res.name))
        map_paths[res.name] = save_raster(base, res.report.rmse_map)
    return {
        "csv": csv_path,
        "json": json_path,
        "spectra": spectra_path,
        "rmse_maps": map_paths,
    }
