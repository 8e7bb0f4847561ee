"""Synthetic scenes, run configuration, the benchmark loop, report
artifacts, and the command line."""

import json
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from hspansharp import imgcore
from hspansharp.fusion import cs
from hspansharp.fusion.mra import fuse_mtf_glp, fuse_mtf_glp_hpm
from hspansharp.imgcore import DynamicRange, SpectralImage
from hspansharp.harness import bench
from hspansharp.harness.bench import (
    emit_report,
    percentile_spectrum,
    reference_scene,
    run_method,
    run_wald,
    wald_inputs,
)
from hspansharp.harness import cli
from hspansharp.harness.cli import main
from hspansharp.harness.config import RunConfig, apply_overrides, parse_config
from hspansharp.harness.envi import load_raster, save_raster
from hspansharp.harness.registry import (
    REGISTRY,
    MethodContext,
    get_method,
    method_names,
)
from hspansharp.harness.scene import synth_scene, synth_scene_factors
from hspansharp.metrics import Reference, compute_report
from hspansharp.sensorsim import (
    GNYQ,
    SensorModel,
    assumed_model,
    default_pan_response,
    kernel_from_mtf,
)

from oracles import oracle_cc

SMALL = dict(height=20, width=20, bands=11, endmembers=3, ratio=2)
# CNMF parameters in range that fail inside the method: the 3-endmember
# scenes here have rank 3, so VCA cannot find 4 endmembers.
FAILING_CNMF = {"CNMF": {"endmembers": 4}}


def tiny_pair(tmp_path):
    """Paths of a 3-band 2x2 HS raster and a 4x4 PAN raster."""
    rng = np.random.default_rng(5)
    hs = str(tmp_path / "hs")
    pan = str(tmp_path / "pan")
    save_raster(hs, SpectralImage(2, 2, rng.uniform(0.1, 1.0, (3, 4))))
    save_raster(pan, SpectralImage(4, 4, rng.uniform(0.1, 1.0, (1, 16))))
    return hs, pan


def small_config(**extra):
    merged = dict(SMALL)
    merged.update(extra)
    return RunConfig(**merged).validate()


class TestSynthScene:
    def test_deterministic(self):
        a = synth_scene(3, 3, 10, 12, 6)
        b = synth_scene(3, 3, 10, 12, 6)
        assert a == b

    def test_seed_changes_scene(self):
        a = synth_scene(3, 3, 10, 12, 6)
        b = synth_scene(4, 3, 10, 12, 6)
        assert not np.array_equal(a.data, b.data)

    def test_factors_compose_scene(self):
        factors = synth_scene_factors(5, 4, 8, 8, 10)
        assert np.abs(
            factors.spectra @ factors.abundances - factors.image.data
        ).max() <= 1e-12

    def test_abundances_sum_to_one(self):
        factors = synth_scene_factors(6, 3, 9, 9, 6)
        sums = factors.abundances.sum(axis=0)
        assert np.abs(sums - 1.0).max() <= 1e-12
        assert factors.abundances.min() >= 0.0

    def test_pure_pixels_planted(self):
        factors = synth_scene_factors(7, 3, 10, 10, 6)
        assert len(factors.pure_pixels) == 3
        for j, site in enumerate(factors.pure_pixels):
            column = factors.abundances[:, site]
            expected = np.zeros(3)
            expected[j] = 1.0
            assert np.array_equal(column, expected)

    def test_spectra_span_and_rank(self):
        factors = synth_scene_factors(8, 4, 8, 8, 12)
        assert factors.spectra.min() >= 0.1 - 1e-12
        assert factors.spectra.max() <= 1.0 + 1e-12
        assert np.linalg.matrix_rank(factors.spectra) == 4

    def test_wavelength_grid(self):
        scene = synth_scene(9, 3, 8, 8, 5)
        assert np.array_equal(scene.wavelengths, np.linspace(0.4, 2.5, 5))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(seed=0, endmembers=1, height=8, width=8, bands=5),
            dict(seed=0, endmembers=6, height=8, width=8, bands=5),
            dict(seed=0, endmembers=3, height=0, width=8, bands=5),
            dict(seed=0, endmembers=5, height=2, width=2, bands=5),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            synth_scene(**kwargs)


class TestRunConfig:
    def test_defaults_validate(self):
        config = RunConfig().validate()
        assert config.selected_methods() == method_names()

    def test_methods_subset_preserved(self):
        config = small_config(methods=("PCA", "SFIM"))
        assert config.selected_methods() == ("PCA", "SFIM")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(ratio=1),
            dict(height=21),
            dict(gnyq=0.0),
            dict(gnyq=1.0),
            dict(snr_db=0.0),
            dict(methods=()),
            dict(methods=("PCA", "PCA")),
            dict(timing="cpu"),
            dict(methods=("PCA", "Nope")),
            dict(method_params={"Nope": {}}),
            dict(method_params={"HySure": {"max_iters": 1}}),
            dict(percentiles=(0.0,)),
            dict(percentiles=(101.0,)),
            dict(height="abc"),
            dict(seed=1.5),
            dict(ratio=2.5),
            dict(ratio=True),
            dict(snr_db="abc"),
            dict(gnyq=None),
            dict(output_dir=None),
            dict(output_dir=""),
            dict(methods=["PCA"]),
            dict(percentiles=(50.0, "x")),
            dict(method_params=None),
            dict(subspace_dim=0),
            dict(seed=-1),
            dict(snr_db=float("nan")),
            dict(snr_db=float("inf")),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            small_config(**kwargs)

    def test_dict_round_trip(self):
        # The config echo `report.json` holds, written back as config text,
        # parses to the same config.
        config = small_config(
            methods=("PCA",), snr_db=30.0, percentiles=(25.0, 75.0),
            method_params={"CNMF": {"endmembers": 4}},
        )
        lines, sections = [], []
        for key, value in config.to_dict().items():
            if key == "method_params":
                for name, params in value.items():
                    sections.append(f"[{name}]")
                    sections += [f"{k} = {v}" for k, v in params.items()]
            elif value is not None:
                text = ", ".join(map(str, value)) if isinstance(value, list) else value
                lines.append(f"{key.replace('_', '-')} = {text}")
        assert parse_config("\n".join(lines + sections)) == config


class TestParseConfig:
    TEXT = """
# benchmark setup
height = 20
width = 20
bands = 11
endmembers = 3
ratio = 2
snr-db = 35
methods = PCA, SFIM
percentiles = 25, 75
timing = off

[CNMF]
inner-iters = 50
"""

    def test_full_file(self):
        config = parse_config(self.TEXT)
        assert config.height == 20
        assert config.bands == 11
        assert config.snr_db == 35
        assert config.methods == ("PCA", "SFIM")
        assert config.percentiles == (25.0, 75.0)
        assert config.timing == "off"
        assert config.method_params == {"CNMF": {"inner_iters": 50}}

    def test_comments_and_blanks_ignored(self):
        config = parse_config("; note\n\nheight = 20\nwidth=20\nbands=8\nratio=2\n")
        assert config.height == 20

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("just words\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="mystery"):
            parse_config("mystery = 2\n")

    def test_unknown_method_section_rejected(self):
        with pytest.raises(ValueError, match="Nope"):
            parse_config("[Nope]\nx = 1\n")

    def test_empty_output_dir_rejected(self):
        with pytest.raises(ValueError, match="output-dir"):
            parse_config("output-dir =\n")

    def test_overrides_replace_values(self):
        config = parse_config(self.TEXT)
        updated = apply_overrides(config, ["seed=9", "methods=GSA"])
        assert updated.seed == 9
        assert updated.methods == ("GSA",)
        # the original is untouched
        assert config.seed == 0

    def test_method_override_merges(self):
        config = parse_config(self.TEXT)
        updated = apply_overrides(config, ["CNMF.outer-iters=1"])
        assert updated.method_params["CNMF"] == {
            "inner_iters": 50,
            "outer_iters": 1,
        }

    @pytest.mark.parametrize("pair", ["nonsense", "mystery=1"])
    def test_bad_override_rejected(self, pair):
        with pytest.raises(ValueError):
            apply_overrides(small_config(), [pair])

    @pytest.mark.parametrize("value", ["3", "0.5", "true", "none", "abc"])
    def test_fuse_and_bench_parse_method_values_alike(self, value, tmp_path, monkeypatch):
        seen = []

        def capture(ctx):
            seen.append(ctx.params)
            return ctx.sink(ctx.y_h)

        monkeypatch.setitem(REGISTRY, "CNMF", capture)
        hs, pan = tiny_pair(tmp_path)
        code = main([
            "fuse", "--method", "CNMF", "--hs", hs, "--pan", pan,
            "--out", str(tmp_path / "out"), "--set", f"endmembers={value}",
        ])
        pair = [f"CNMF.endmembers={value}"]
        if value not in ("3", "none"):
            # Not an integer or none: both refuse it before the method runs.
            assert code == 1 and seen == []
            with pytest.raises(ValueError, match="must be int or none"):
                apply_overrides(RunConfig(), pair)
            return
        assert code == 0
        bench_value = apply_overrides(RunConfig(), pair).method_params["CNMF"]["endmembers"]
        assert seen == [{"endmembers": bench_value}]
        assert type(seen[0]["endmembers"]) is type(bench_value)


class TestRegistry:
    def test_zero_sigma_rounds_is_valid(self):
        # BayesNaive may solve once under its initial prior covariance.
        config = apply_overrides(RunConfig(), ["BayesNaive.sigma-rounds=0"]).validate()
        assert config.method_params == {"BayesNaive": {"sigma_rounds": 0}}

    def test_presentation_order(self):
        assert method_names() == (
            "SFIM",
            "MTF-GLP",
            "MTF-GLP-HPM",
            "GS",
            "GSA",
            "PCA",
            "GFPCA",
            "CNMF",
            "BayesNaive",
            "HySure",
        )

    def test_get_method_known(self):
        for name in method_names():
            assert get_method(name) is REGISTRY[name]

    def test_get_method_unknown(self):
        with pytest.raises(KeyError, match="Nope"):
            get_method("Nope")

    @pytest.mark.parametrize("name", method_names())
    def test_pan_one_row_short_rejected(self, name):
        config = small_config()
        truth = synth_scene(0, 3, 20, 20, 11)
        y_h, pan, model = wald_inputs(truth, config)
        short = SpectralImage(19, 20, pan.data[:, :-20])
        message = "PAN dims 19x20 are not 2 times the Y_H dims 10x10"
        with pytest.raises(ValueError, match=message):
            run_method(config, name, y_h, short, model, 0)


    @pytest.mark.parametrize("name", method_names())
    def test_constant_band_fuses(self, name):
        # A reference with one zero-variance band still fuses to a finite
        # image of the reference's shape.
        config = small_config()
        truth = reference_scene(config)
        data = truth.data.copy()
        data[4] = data[4].mean()
        truth = SpectralImage(truth.height, truth.width, data, truth.wavelengths)
        y_h, pan, model = wald_inputs(truth, config)
        fused = run_method(config, name, y_h, pan, model, 0)
        assert fused.data.shape == truth.data.shape
        assert np.isfinite(fused.data).all()


class TestPercentileSpectrum:
    def make_instance(self):
        values = np.array([[4.0, 1.0, 3.0, 2.0]])
        rmse_map = SpectralImage(2, 2, values)
        x = SpectralImage(2, 2, np.arange(8.0).reshape(2, 4))
        xhat = SpectralImage(2, 2, np.arange(8.0).reshape(2, 4) + 10.0)
        return xhat, x, rmse_map

    def test_median_nearest_rank(self):
        xhat, x, rmse_map = self.make_instance()
        # rank ceil(0.5 * 4) = 2, second smallest value 2.0 sits at pixel 3
        pixel, ref, est = percentile_spectrum(xhat, x, rmse_map, 50.0)
        assert pixel == 3
        assert np.array_equal(ref, x.data[:, 3])
        assert np.array_equal(est, xhat.data[:, 3])

    def test_extremes(self):
        xhat, x, rmse_map = self.make_instance()
        assert percentile_spectrum(xhat, x, rmse_map, 100.0)[0] == 0
        assert percentile_spectrum(xhat, x, rmse_map, 1.0)[0] == 1

    def test_ties_take_lowest_pixel(self):
        rmse_map = SpectralImage(2, 2, np.full((1, 4), 0.5))
        x = SpectralImage(2, 2, np.zeros((2, 4)))
        assert percentile_spectrum(x, x, rmse_map, 50.0)[0] == 0

    def test_invalid_inputs(self):
        xhat, x, rmse_map = self.make_instance()
        with pytest.raises(ValueError):
            percentile_spectrum(xhat, x, rmse_map, 0.0)
        with pytest.raises(ValueError):
            percentile_spectrum(xhat, x, SpectralImage(2, 2, np.zeros((2, 4))), 50.0)
        with pytest.raises(ValueError):
            percentile_spectrum(
                xhat, SpectralImage(1, 2, np.zeros((2, 2))), rmse_map, 50.0
            )


class TestWaldInputs:
    def test_shapes_and_model(self):
        config = small_config()
        truth = reference_scene(config)
        y_h, pan, model = wald_inputs(truth, config)
        assert (y_h.height, y_h.width, y_h.bands) == (10, 10, 11)
        assert (pan.height, pan.width, pan.bands) == (20, 20, 1)
        assert model.ratio == 2
        assert abs(model.spectral_response.sum() - 1.0) <= 1e-12
        want = assumed_model(2, truth.bands, truth.wavelengths, config.gnyq)
        assert model.blur == want.blur
        np.testing.assert_array_equal(model.spectral_response, want.spectral_response)

    def test_noiseless_by_default(self):
        config = small_config()
        truth = reference_scene(config)
        y_h, pan, model = wald_inputs(truth, config)
        assert not model.hs_noise_std.any()
        assert model.pan_noise_std == 0.0
        y_h2, pan2, _ = wald_inputs(truth, config)
        assert np.array_equal(y_h.data, y_h2.data)
        assert np.array_equal(pan.data, pan2.data)

    def test_snr_sets_noise(self):
        config = small_config(snr_db=30.0)
        truth = reference_scene(config)
        y_h, pan, model = wald_inputs(truth, config)
        assert (model.hs_noise_std > 0).all()
        assert model.pan_noise_std > 0
        clean_cfg = small_config()
        clean, clean_pan, _ = wald_inputs(truth, clean_cfg)
        assert not np.array_equal(y_h.data, clean.data)
        # SNR definition: noise std is signal rms scaled by 10^(-snr/20)
        rms = np.sqrt((clean.data**2).mean(axis=1))
        assert np.abs(model.hs_noise_std - rms * 10.0**-1.5).max() <= 1e-12

    def test_indivisible_dims_rejected(self):
        truth = synth_scene(0, 3, 9, 9, 8)
        with pytest.raises(ValueError):
            wald_inputs(truth, small_config())


class TestRunMethod:
    def test_context_comes_from_the_config(self, monkeypatch):
        # The range spans Y_H, the seed is the one given, and the method is
        # looked up when called, so a rebound registry entry runs.
        seen = []
        monkeypatch.setitem(REGISTRY, "CNMF", lambda ctx: seen.append(ctx) or ctx.y_h)
        config = small_config(
            gnyq=0.45, subspace_dim=4, method_params={"CNMF": {"outer_iters": 3}}
        )
        y_h, pan, model = wald_inputs(reference_scene(config), config)
        assert run_method(config, "CNMF", y_h, pan, model, 17) is y_h
        (ctx,) = seen
        assert ctx.y_h is y_h and ctx.pan is pan and ctx.model is model
        assert ctx.range == DynamicRange.spanning(y_h.data)
        assert (ctx.gnyq, ctx.seed, ctx.subspace_dim) == (0.45, 17, 4)
        assert ctx.params == {"outer_iters": 3}

    @pytest.mark.parametrize(
        "name, fuse",
        [("MTF-GLP", fuse_mtf_glp), ("MTF-GLP-HPM", fuse_mtf_glp_hpm)],
        ids=["MTF-GLP", "MTF-GLP-HPM"],
    )
    def test_glp_fuses_under_the_model_blur(self, name, fuse):
        # A model built at gain 0.45 under a config of gain 0.3: the GLP
        # methods follow the model's blur, as GSA and the solvers do.
        config = small_config(gnyq=0.3)
        y_h, pan, model = wald_inputs(reference_scene(config), config)
        model = replace(model, blur=kernel_from_mtf(config.ratio, 0.45))
        got = run_method(config, name, y_h, pan, model, 0)
        rng = DynamicRange.spanning(y_h.data)
        assert got == fuse(y_h, pan, config.ratio, 0.45, rng)
        assert got != fuse(y_h, pan, config.ratio, 0.3, rng)


class TestRunWald:
    def test_single_method_smoke(self):
        report = run_wald(small_config(methods=("PCA",)))
        assert len(report.results) == 1
        result = report.results[0]
        assert result.error is None
        assert result.fused.bands == report.truth.bands
        scalars = result.report.scalars()
        assert np.isfinite(scalars["RMSE"])
        assert scalars["RMSE"] > 0

    def test_deterministic_rerun(self):
        config = small_config(methods=("PCA", "SFIM"), snr_db=30.0)
        a = run_wald(config)
        b = run_wald(config)
        for ra, rb in zip(a.results, b.results):
            assert np.array_equal(ra.fused.data, rb.fused.data)

    def test_bayes_naive_fuses_near_noiseless_pair(self):
        # At 200 dB the noise weights are floored at 1e-6 of each image's
        # RMS, so the solve's pencil stays positive definite.
        (result,) = run_wald(small_config(methods=("BayesNaive",), snr_db=200.0)).results
        assert result.error is None
        assert np.isfinite(result.report.scalars()["ERGAS"])

    def test_failure_is_isolated(self):
        config = small_config(
            methods=("PCA", "CNMF"),
            method_params=FAILING_CNMF,
        )
        report = run_wald(config)
        by_name = {r.name: r for r in report.results}
        assert by_name["PCA"].error is None
        assert by_name["CNMF"].report is None
        assert by_name["CNMF"].error

    def test_one_report_per_scored_method(self, monkeypatch):
        # The traced `metrics.compute_report` span counts these calls.
        calls = []
        real = bench.compute_report

        def counting(fused, reference, *args, **kwargs):
            calls.append(reference)
            return real(fused, reference, *args, **kwargs)

        monkeypatch.setattr(bench, "compute_report", counting)
        config = small_config(
            methods=("PCA", "CNMF", "SFIM"),
            method_params=FAILING_CNMF,
        )
        report = run_wald(config)
        scored = [r for r in report.results if r.report is not None]
        assert len(scored) == 2
        assert len(calls) == len(scored)
        assert all(isinstance(r, Reference) for r in calls)
        assert calls[0] is calls[1]

    def test_timing_off_zeroes_time(self):
        config = small_config(methods=("SFIM",), timing="off")
        report = run_wald(config)
        assert report.results[0].report.scalars()["time_s"] == 0.0

    def test_rerun_image_scores_as_recorded(self):
        # The run keeps no image: `fused` runs the method's step again.
        config = small_config(timing="off")
        report = run_wald(config)
        assert [r.name for r in report.results] == list(method_names())
        for r in report.results:
            assert r.error is None, f"{r.name}: {r.error}"
            fused = r.fused
            again = compute_report(fused, report.truth, 1.0 / config.ratio)
            assert again.scalars() == r.report.scalars(), r.name
            assert [s[0] for s in r.spectra] == list(config.percentiles)
            for q, pixel, ref, est in r.spectra:
                want = percentile_spectrum(fused, report.truth, r.report.rmse_map, q)
                assert pixel == want[0]
                assert np.array_equal(ref, want[1]) and np.array_equal(est, want[2])

    def test_failed_method_keeps_no_image_or_spectra(self):
        config = small_config(
            methods=("CNMF",), method_params=FAILING_CNMF
        )
        (result,) = run_wald(config).results
        assert result.error
        assert result.fused is None
        assert result.spectra == ()


class TestEmitReport:
    def test_no_methods_header_only(self, tmp_path):
        # A config names at least one method, so the empty report is built
        # directly.
        config = small_config(output_dir=str(tmp_path))
        truth = synth_scene(0, 3, 20, 20, 11)
        y_h, _, _ = wald_inputs(truth, config)
        report = bench.BenchmarkReport(config, (), truth, y_h)
        paths = emit_report(report)
        lines = open(paths["csv"]).read().splitlines()
        assert lines == ["method,CC,SAM,RMSE,ERGAS,time_s"]
        spectra = open(paths["spectra"]).read().splitlines()
        assert spectra == ["method,percentile,pixel,band,reference,estimate"]

    def test_one_method_artifacts(self, tmp_path):
        config = small_config(methods=("SFIM",), timing="off", output_dir=str(tmp_path))
        report = run_wald(config)
        paths = emit_report(report)

        lines = open(paths["csv"]).read().splitlines()
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "SFIM"
        assert len(cells) == 6

        payload = json.loads(open(paths["json"]).read())
        assert set(payload) == {
            "version",
            "noise_algorithm",
            "config",
            "errors",
            "percentile_spectra",
        }
        assert payload["errors"] == {}
        assert set(payload["percentile_spectra"]["SFIM"]) == {"10", "50", "90"}

        spectra_lines = open(paths["spectra"]).read().splitlines()
        assert len(spectra_lines) == 1 + 3 * config.bands

        rmse_map = load_raster(paths["rmse_maps"]["SFIM"][0])
        assert rmse_map.bands == 1
        assert rmse_map.height == config.height

    def test_numpy_integers_are_echoed_as_ints(self, tmp_path):
        # `RunConfig` takes numpy integers as integers; the echo is plain JSON.
        config = small_config(
            seed=np.int64(3), methods=("CNMF",), timing="off", output_dir=str(tmp_path),
            method_params={"CNMF": {"inner_iters": np.int64(2)}},
        )
        payload = json.loads(open(emit_report(run_wald(config))["json"]).read())
        assert payload["config"]["seed"] == 3
        assert payload["config"]["method_params"] == {"CNMF": {"inner_iters": 2}}
        assert payload["errors"] == {}

    def test_spectra_rows_only_for_scored_methods(self, tmp_path):
        config = small_config(
            methods=("PCA", "CNMF", "SFIM"),
            method_params=FAILING_CNMF,
            timing="off",
            output_dir=str(tmp_path),
        )
        paths = emit_report(run_wald(config))
        rows = open(paths["spectra"]).read().splitlines()[1:]
        per_method = len(config.percentiles) * config.bands
        names = [row.split(",")[0] for row in rows]
        assert names == ["PCA"] * per_method + ["SFIM"] * per_method
        payload = json.loads(open(paths["json"]).read())
        assert set(payload["percentile_spectra"]) == {"PCA", "SFIM"}
        assert set(payload["errors"]) == {"CNMF"}

    def test_failed_method_row_is_nan(self, tmp_path):
        config = small_config(
            methods=("CNMF",),
            method_params=FAILING_CNMF,
            output_dir=str(tmp_path),
        )
        report = run_wald(config)
        paths = emit_report(report)
        lines = open(paths["csv"]).read().splitlines()
        assert lines[1] == "CNMF,nan,nan,nan,nan,nan"
        payload = json.loads(open(paths["json"]).read())
        assert "CNMF" in payload["errors"]


class TestCli:
    def test_pipeline_synth_degrade_fuse_eval(self, tmp_path, capsys):
        truth = str(tmp_path / "truth")
        hs = str(tmp_path / "hs")
        pan = str(tmp_path / "pan")
        fused = str(tmp_path / "fused")
        assert main([
            "synth", "--out", truth, "--height", "20", "--width", "20",
            "--bands", "11", "--endmembers", "3", "--seed", "1",
        ]) == 0
        assert main([
            "degrade", "--truth", truth, "--out-hs", hs, "--out-pan", pan,
            "--ratio", "2",
        ]) == 0
        assert main([
            "fuse", "--method", "SFIM", "--hs", hs, "--pan", pan,
            "--out", fused,
        ]) == 0
        assert main([
            "eval", "--fused", fused, "--truth", truth, "--ratio", "2",
        ]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2] == "CC,SAM,RMSE,ERGAS"
        values = [float(v) for v in out[-1].split(",")]
        assert all(np.isfinite(values))

    def test_fuse_respects_method_params(self, tmp_path):
        truth = str(tmp_path / "truth")
        hs = str(tmp_path / "hs")
        pan = str(tmp_path / "pan")
        main(["synth", "--out", truth, "--height", "16", "--width", "16",
              "--bands", "11", "--seed", "2"])
        main(["degrade", "--truth", truth, "--out-hs", hs, "--out-pan", pan,
              "--ratio", "2"])
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        c = str(tmp_path / "c")
        assert main([
            "fuse", "--method", "BayesNaive", "--hs", hs, "--pan", pan,
            "--out", a,
        ]) == 0
        assert main([
            "fuse", "--method", "BayesNaive", "--hs", hs, "--pan", pan,
            "--out", b, "--subspace-dim", "1",
        ]) == 0
        assert main([
            "fuse", "--method", "BayesNaive", "--hs", hs, "--pan", pan,
            "--out", c, "--set", "BayesNaive.sigma-rounds=0",
        ]) == 0
        assert not np.array_equal(load_raster(a).data, load_raster(b).data)
        assert not np.array_equal(load_raster(a).data, load_raster(c).data)

    def fuse_scene(self, tmp_path, method, dtype, ratio=4, width=32):
        """`fuse --dtype dtype` on a non-square 48 x `width` scene at `ratio`
        from float32 rasters, as in the real-data path; returns the written
        payload and the context of the same call made in process on the
        same rasters."""
        p = {k: str(tmp_path / k) for k in ("truth", "hs", "pan", "out")}
        assert main(["synth", "--out", p["truth"], "--height", "48", "--width", str(width),
                     "--bands", "24", "--seed", "3", "--dtype", "float32"]) == 0
        assert main(["degrade", "--truth", p["truth"], "--out-hs", p["hs"],
                     "--out-pan", p["pan"], "--ratio", str(ratio), "--snr-db", "30",
                     "--seed", "3", "--dtype", "float32"]) == 0
        assert main(["fuse", "--method", method, "--hs", p["hs"], "--pan", p["pan"],
                     "--out", p["out"], "--dtype", dtype]) == 0
        assert load_raster(p["out"]).to_cube().shape == (24, 48, width)
        got = np.fromfile(p["out"] + ".dat", dtype=np.dtype(dtype).newbyteorder("<"))
        y_h, pan = load_raster(p["hs"]), load_raster(p["pan"])
        response = default_pan_response(y_h.bands, y_h.wavelengths)
        lo, hi = float(y_h.data.min()), float(y_h.data.max())
        ctx = MethodContext(
            y_h=y_h,
            pan=pan,
            model=SensorModel(ratio, kernel_from_mtf(ratio, 0.3), response[np.newaxis, :]),
            range=DynamicRange(lo, hi if hi > lo else lo + 1.0),
            gnyq=0.3,
            seed=0,
        )
        return got, ctx

    # At ratio 3 the scene is 48 x 36: the output's second column block
    # begins inside the interpolation and filter stencils.
    @pytest.mark.parametrize(
        "method, ratio, width",
        [pytest.param(m, 4, 32, id=m) for m in method_names()]
        + [pytest.param(m, 3, 36, id=f"{m}-ratio3") for m in method_names()],
    )
    def test_fuse_float32_writes_the_in_process_result(self, tmp_path, method, ratio, width):
        # The written payload is the method's output rounded once.
        got, ctx = self.fuse_scene(tmp_path, method, "float32", ratio, width)
        want = get_method(method)(ctx).data.astype("<f4")
        np.testing.assert_array_equal(got, want.ravel())

    @pytest.mark.parametrize("method", method_names())
    def test_fuse_float64_writes_the_in_process_result(self, tmp_path, method):
        got, ctx = self.fuse_scene(tmp_path, method, "float64")
        np.testing.assert_array_equal(got, get_method(method)(ctx).data.ravel())

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("method", method_names())
    def test_fuse_in_band_blocks_writes_the_in_process_result(
        self, tmp_path, monkeypatch, method, dtype
    ):
        # Blocks of 5 of the 24 bands, the last one partial, each written as
        # it is formed; the in-process result is formed in one block.
        real_save = cli.save_raster
        starts = []

        def recording_save(path, stream, dtype):
            if isinstance(stream, SpectralImage):  # synth and degrade
                return real_save(path, stream, dtype)
            fill = stream.fill

            def recorded(start, stop, out):
                starts.append(start)
                fill(start, stop, out)

            return real_save(path, stream.refill(recorded), dtype)

        monkeypatch.setattr(cli, "save_raster", recording_save)
        with monkeypatch.context() as patch:
            patch.setattr(imgcore, "_BLOCK_BYTES", 5 * 48 * 32 * 8)
            got, ctx = self.fuse_scene(tmp_path, method, dtype)
        assert starts == [0, 5, 10, 15, 20]
        assert len(imgcore.BandStream(48, 32, 24, None).blocks()) == 1
        want = get_method(method)(ctx).data.astype(dtype)
        np.testing.assert_array_equal(got, want.ravel())

    def test_fuse_failing_after_writing_began_exits_two_and_leaves_no_raster(
        self, tmp_path, monkeypatch, capsys
    ):
        hs, pan = str(tmp_path / "hs"), str(tmp_path / "pan")
        rng = np.random.default_rng(14)
        save_raster(hs, SpectralImage(4, 4, rng.uniform(0.1, 1.0, (6, 16))))
        save_raster(pan, SpectralImage(8, 8, rng.uniform(0.1, 1.0, (1, 64))))
        out = str(tmp_path / "out")
        argv = ["fuse", "--method", "GS", "--hs", hs, "--pan", pan, "--out", out]
        assert main(argv) == 0  # an earlier raster at the same path
        capsys.readouterr()
        # Blocks of 2 of the 6 bands; the second block holds a NaN.
        monkeypatch.setattr(imgcore, "_BLOCK_BYTES", 2 * 64 * 8)
        real_bands = cs.upsample_bands
        filled = []

        def poisoned(img, ratio, method="bicubic"):
            bands = real_bands(img, ratio, method)

            def fill(start, stop, out):
                filled.append(start)
                bands.fill(start, stop, out)
                if start == 2:
                    out[0, 0] = np.nan

            return bands.refill(fill)

        monkeypatch.setattr(cs, "upsample_bands", poisoned)
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: method GS failed: image contains non-finite samples\n"
        )
        assert filled == [0, 2]
        assert not os.path.exists(out + ".hdr") and not os.path.exists(out + ".dat")

    def test_module_entry_point_runs(self):
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run(
            [sys.executable, "-m", "hspansharp", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "bench" in proc.stdout

    def test_bad_usage_exits_one(self):
        with pytest.raises(SystemExit) as info:
            main(["fuse", "--method", "Nope", "--hs", "x", "--pan", "y",
                  "--out", "z"])
        assert info.value.code == 1

    def test_missing_input_returns_one(self, tmp_path, capsys):
        code = main(["eval", "--fused", str(tmp_path / "a"),
                     "--truth", str(tmp_path / "b")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_eval_ratio_zero_returns_one(self, tmp_path, capsys):
        img = SpectralImage(4, 4, np.random.default_rng(3).uniform(size=(2, 16)))
        path = str(tmp_path / "img")
        save_raster(path, img)
        code = main(["eval", "--fused", path, "--truth", path, "--ratio", "0"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ratio")

    def test_eval_leaves_out_constant_truth_band(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        data = rng.uniform(0.2, 1.0, (3, 16))
        data[2] = 0.25
        truth = SpectralImage(4, 4, data)
        fused = truth.with_data(data + rng.normal(0.0, 0.05, data.shape))
        truth_path = str(tmp_path / "truth")
        fused_path = str(tmp_path / "fused")
        save_raster(truth_path, truth)
        save_raster(fused_path, fused)
        code = main(["eval", "--fused", fused_path, "--truth", truth_path])
        assert code == 0
        cc_value = float(capsys.readouterr().out.splitlines()[-1].split(",")[0])
        expected = oracle_cc(fused.data[:2], truth.data[:2])
        assert cc_value == pytest.approx(expected, rel=1e-12)

    def test_bad_config_returns_one(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("mystery = 1\n")
        assert main(["bench", "--config", str(cfg)]) == 1
        assert "mystery" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "pair, message",
        [
            ("HySure.max-iters=1", "method HySure does not read parameter"
             " 'max-iters' (accepted: none)"),
            ("CNMF.inner-iter=1", "method CNMF does not read parameter"
             " 'inner-iter' (accepted: endmembers, outer-iters, inner-iters)"),
            ("BayesNaive.endmembers=3", "method BayesNaive does not read parameter"
             " 'endmembers' (accepted: sigma-rounds)"),
        ],
    )
    def test_bench_unread_method_key_returns_one(self, tmp_path, capsys, pair, message):
        out_dir = str(tmp_path / "out")
        assert main(["bench", "--output-dir", out_dir, "--set", pair]) == 1
        assert message in capsys.readouterr().err
        assert not os.path.exists(out_dir)

    def test_bench_config_section_unread_key_returns_one(self, tmp_path, capsys):
        cfg = self.bench_config(tmp_path, extra="[CNMF]\ninner-iter = 1\n")
        assert main(["bench", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 1
        assert "'inner-iter'" in capsys.readouterr().err

    @pytest.mark.parametrize("pair", ["endmembers=3", "GS.endmembers=3"])
    def test_fuse_unread_method_key_returns_one(self, tmp_path, capsys, pair):
        hs, pan = tiny_pair(tmp_path)
        out = str(tmp_path / "out")
        code = main([
            "fuse", "--method", "GS", "--hs", hs, "--pan", pan, "--out", out,
            "--set", pair,
        ])
        assert code == 1
        assert "method GS does not read parameter 'endmembers'" in capsys.readouterr().err
        assert not os.path.exists(out + ".dat")

    @pytest.mark.parametrize(
        "pair, message",
        [
            ("CNMF.endmembers=2.7", "parameter 'endmembers' must be int or none, got 2.7"),
            ("CNMF.inner-iters=abc", "parameter 'inner-iters' must be int, got 'abc'"),
            ("BayesNaive.sigma-rounds=-1", "parameter 'sigma-rounds' must not be negative"),
            ("CNMF.outer-iters=0", "parameter 'outer-iters' must be at least 1, got 0"),
            ("CNMF.inner-iters=0", "parameter 'inner-iters' must be at least 1, got 0"),
            ("CNMF.endmembers=0", "parameter 'endmembers' must be at least 1, got 0"),
            # Y_H has 40 bands under `bench` and 3 under `fuse`.
            ("CNMF.endmembers=41", "parameter 'endmembers' must be at most the"),
            ("subspace-dim=41", "subspace-dim must be at most the"),
        ],
    )
    @pytest.mark.parametrize("command", ["bench", "fuse"])
    def test_mistyped_method_value_returns_one_before_any_method(
        self, tmp_path, capsys, monkeypatch, command, pair, message
    ):
        calls = []
        for name in method_names():
            monkeypatch.setitem(REGISTRY, name, lambda ctx, name=name: calls.append(name))
        out = str(tmp_path / "out")
        if command == "bench":
            argv = ["bench", "--output-dir", out, "--set", pair]
        else:
            hs, pan = tiny_pair(tmp_path)
            # `fuse` takes the subspace dimension as an option of its own.
            key, _, value = pair.partition("=")
            given = ["--subspace-dim", value] if key == "subspace-dim" else ["--set", pair]
            argv = ["fuse", "--method", "CNMF", "--hs", hs, "--pan", pan,
                    "--out", out, *given]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert calls == []
        assert not os.path.exists(out) and not os.path.exists(out + ".dat")

    @pytest.mark.parametrize(
        "pair, message",
        [
            ("height=abc", "height must be an integer, got 'abc'"),
            ("snr-db=abc", "snr-db must be a number, got 'abc'"),
            # A NaN reached the noise and failed as a non-finite image; an
            # infinity ran noiseless and wrote `Infinity` into report.json.
            ("snr-db=nan", "snr-db must be positive and finite when set, got nan"),
            ("snr-db=inf", "snr-db must be positive and finite when set, got inf"),
            ("seed=1.5", "seed must be an integer, got 1.5"),
            ("seed=true", "seed must be an integer, got 'true'"),
            ("ratio=2.5", "ratio must be an integer, got 2.5"),
            ("subspace-dim=0", "subspace-dim must be at least 1"),
            ("seed=-1", "seed must be nonnegative"),
            ("output-dir=", "output-dir must be a non-empty string, got None"),
            ("percentiles=abc", "percentiles must be a list of numbers, got ('abc',)"),
            ("methods=", "methods must name at least one method"),
            ("methods=PCA,PCA", "methods names 'PCA' twice"),
            ("percentiles=", "percentiles must name at least one percentile"),
            ("percentiles=50,50", "percentiles names 50.0 twice"),
        ],
    )
    def test_bad_config_value_returns_one_before_any_method(
        self, tmp_path, capsys, monkeypatch, pair, message
    ):
        calls = []
        for name in method_names():
            monkeypatch.setitem(REGISTRY, name, lambda ctx, name=name: calls.append(name))
        monkeypatch.chdir(tmp_path)
        cfg = self.bench_config(tmp_path)
        assert main(["bench", "--config", cfg, "--set", pair]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert calls == []
        assert os.listdir(tmp_path) == ["bench.cfg"]

    @pytest.mark.parametrize("snr_db", ["nan", "inf", "0"])
    def test_degrade_bad_snr_returns_one_before_writing(self, tmp_path, capsys, snr_db):
        truth, hs, pan = (str(tmp_path / name) for name in ("truth", "hs", "pan"))
        save_raster(truth, SpectralImage(4, 4, np.full((3, 16), 0.5)))
        argv = ["degrade", "--truth", truth, "--out-hs", hs, "--out-pan", pan,
                "--ratio", "2", "--snr-db", snr_db]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: snr-db must be positive and finite when set")
        assert sorted(os.listdir(tmp_path)) == ["truth.dat", "truth.hdr"]

    @pytest.mark.parametrize("gnyq", ["0", "1", "1.5", "-0.3"])
    def test_fuse_bad_gnyq_returns_one_before_reading_rasters(
        self, tmp_path, capsys, monkeypatch, gnyq
    ):
        reads = []
        monkeypatch.setattr(cli, "load_raster", lambda path: reads.append(path))
        out = str(tmp_path / "out")
        argv = ["fuse", "--method", "MTF-GLP", "--hs", "hs", "--pan", "pan",
                "--out", out, "--gnyq", gnyq]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: gnyq must lie strictly between 0 and 1\n"
        assert reads == [] and not os.path.exists(out + ".dat")

    @pytest.mark.parametrize("extra", [[], ["--gnyq", "0.45"]])
    def test_fuse_runs_under_the_assumed_model(self, tmp_path, monkeypatch, extra):
        # fuse knows no noise: zero stds, so BayesNaive weighs every band alike.
        seen = []
        monkeypatch.setitem(REGISTRY, "PCA", lambda ctx: seen.append(ctx) or ctx.sink(ctx.y_h))
        hs, pan = tiny_pair(tmp_path)
        argv = ["fuse", "--method", "PCA", "--hs", hs, "--pan", pan,
                "--out", str(tmp_path / "out"), *extra]
        assert main(argv) == 0
        gnyq = float(extra[1]) if extra else GNYQ
        want = assumed_model(2, 3, None, gnyq)
        (ctx,) = seen
        assert ctx.gnyq == gnyq
        assert ctx.model.ratio == 2 and ctx.model.blur == want.blur
        np.testing.assert_array_equal(ctx.model.spectral_response, want.spectral_response)
        np.testing.assert_array_equal(ctx.model.hs_noise_std, np.zeros(3))
        assert ctx.model.pan_noise_std == 0.0

    @pytest.mark.parametrize("method", method_names())
    def test_fuse_multi_band_pan_returns_one_before_any_method(self, tmp_path, capsys, method):
        hs, _ = tiny_pair(tmp_path)
        pan = str(tmp_path / "pan2")
        save_raster(pan, SpectralImage(4, 4, np.random.default_rng(6).uniform(0.1, 1.0, (2, 16))))
        out = str(tmp_path / "out")
        argv = ["fuse", "--method", method, "--hs", hs, "--pan", pan, "--out", out]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: PAN image must hold a single band\n"
        assert not os.path.exists(out + ".hdr") and not os.path.exists(out + ".dat")

    @pytest.mark.parametrize("method", method_names())
    def test_fuse_ratio_one_pair_returns_one_before_any_method(
        self, tmp_path, capsys, monkeypatch, method
    ):
        # A PAN on the Y_H grid is refused with `bench`'s message for ratio 1.
        calls = []
        monkeypatch.setitem(REGISTRY, method, lambda ctx: calls.append(ctx))
        rng = np.random.default_rng(7)
        hs, pan, out = (str(tmp_path / name) for name in ("hs", "pan", "out"))
        save_raster(hs, SpectralImage(20, 20, rng.uniform(0.1, 1.0, (40, 400))))
        save_raster(pan, SpectralImage(20, 20, rng.uniform(0.1, 1.0, (1, 400))))
        argv = ["fuse", "--method", method, "--hs", hs, "--pan", pan, "--out", out]
        assert main(argv) == 1
        message = "error: ratio must be at least 2 for fusion runs\n"
        assert capsys.readouterr().err == message
        assert calls == []
        assert not os.path.exists(out + ".hdr") and not os.path.exists(out + ".dat")
        assert main(["bench", "--output-dir", out, "--set", "ratio=1"]) == 1
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("method", method_names())
    def test_fuse_negative_seed_returns_one_before_any_method(self, tmp_path, capsys, method):
        # The seed goes through `RunConfig`'s rule, as `bench`'s does.
        hs, pan = tiny_pair(tmp_path)
        out = str(tmp_path / "out")
        argv = ["fuse", "--method", method, "--hs", hs, "--pan", pan, "--out", out,
                "--seed", "-1"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: seed must be nonnegative\n"
        assert not os.path.exists(out + ".hdr") and not os.path.exists(out + ".dat")

    def test_fuse_zero_subspace_dim_returns_one_before_any_method(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []
        monkeypatch.setitem(REGISTRY, "HySure", lambda ctx: calls.append(ctx))
        hs, pan = tiny_pair(tmp_path)
        out = str(tmp_path / "out")
        argv = ["fuse", "--method", "HySure", "--hs", hs, "--pan", pan,
                "--out", out, "--subspace-dim", "0"]
        assert main(argv) == 1
        assert "subspace-dim must be at least 1" in capsys.readouterr().err
        assert calls == [] and not os.path.exists(out + ".dat")

    # The least argv of each command that reads RunConfig values, and the
    # options it shares with RunConfig fields.
    MINIMAL_ARGV = {
        "synth": (["--out", "o"], {"height", "width", "bands", "endmembers", "seed"}),
        "degrade": (
            ["--truth", "t", "--out-hs", "h", "--out-pan", "p"],
            {"ratio", "gnyq", "snr_db", "seed"},
        ),
        "fuse": (
            ["--method", "PCA", "--hs", "h", "--pan", "p", "--out", "o"],
            {"gnyq", "seed", "subspace_dim"},
        ),
        "eval": (["--fused", "f", "--truth", "t"], {"ratio"}),
    }

    @pytest.mark.parametrize("command", sorted(MINIMAL_ARGV))
    def test_option_defaults_are_the_config_defaults(self, command):
        argv, shared = self.MINIMAL_ARGV[command]
        args = cli.build_parser().parse_args([command, *argv])
        assert {f.name for f in fields(RunConfig)} & set(vars(args)) == shared
        for name in shared:
            assert getattr(args, name) == getattr(RunConfig(), name), name

    def bench_config(self, tmp_path, name="bench.cfg", extra=""):
        cfg = tmp_path / name
        cfg.write_text(
            "height = 20\nwidth = 20\nbands = 11\nendmembers = 3\n"
            "ratio = 2\nmethods = PCA, SFIM\ntiming = off\n" + extra
        )
        return str(cfg)

    def test_bench_success(self, tmp_path, capsys):
        cfg = self.bench_config(tmp_path)
        out_dir = str(tmp_path / "out")
        assert main(["bench", "--config", cfg, "--output-dir", out_dir]) == 0
        stdout = capsys.readouterr().out
        assert "PCA" in stdout and "SFIM" in stdout
        assert os.path.exists(os.path.join(out_dir, "report.csv"))

    def test_bench_partial_failure_exits_two(self, tmp_path):
        cfg = self.bench_config(
            tmp_path, extra="methods = PCA, CNMF\n[CNMF]\nendmembers = 4\n"
        )
        out_dir = str(tmp_path / "out")
        assert main(["bench", "--config", cfg, "--output-dir", out_dir]) == 2
        lines = open(os.path.join(out_dir, "report.csv")).read().splitlines()
        assert any(line.startswith("CNMF,nan") for line in lines)

    def test_bench_row_does_not_depend_on_the_other_methods(self, tmp_path):
        # A method's seed comes from its place in the registry, not in the
        # selection, so CNMF scores the same beside HySure alone as in the
        # full run.
        rows = {}
        for label, extra in (("all", []), ("two", ["--set", "methods=HySure,CNMF"])):
            out_dir = str(tmp_path / label)
            argv = ["bench", "--output-dir", out_dir, "--set", "timing=off",
                    "--set", "snr-db=30", "--set", "height=40", "--set", "width=40",
                    "--set", "bands=20", "--set", "ratio=4", *extra]
            assert main(argv) == 0
            with open(os.path.join(out_dir, "report.csv"), encoding="ascii") as fh:
                rows[label] = {line.split(",")[0]: line for line in fh.read().splitlines()}
        assert list(rows["two"]) == ["method", "HySure", "CNMF"]
        assert rows["two"]["CNMF"] == rows["all"]["CNMF"]
        assert rows["two"]["HySure"] == rows["all"]["HySure"]

    def test_bench_timing_off_is_byte_identical(self, tmp_path):
        cfg = self.bench_config(tmp_path)
        dir_a = str(tmp_path / "a")
        dir_b = str(tmp_path / "b")
        assert main(["bench", "--config", cfg, "--output-dir", dir_a]) == 0
        assert main(["bench", "--config", cfg, "--output-dir", dir_b]) == 0
        for name in ("report.csv", "spectra.csv"):
            with open(os.path.join(dir_a, name), "rb") as fa:
                with open(os.path.join(dir_b, name), "rb") as fb:
                    assert fa.read() == fb.read()
        # JSON differs only in the embedded output_dir setting
        pa = json.loads(open(os.path.join(dir_a, "report.json")).read())
        pb = json.loads(open(os.path.join(dir_b, "report.json")).read())
        pa["config"].pop("output_dir")
        pb["config"].pop("output_dir")
        assert pa == pb
