"""Synthetic scenes, run configuration, the benchmark loop, report
artifacts, and the command line."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hspansharp.imgcore import SpectralImage
from hspansharp.harness import bench
from hspansharp.harness.bench import (
    emit_report,
    percentile_spectrum,
    reference_scene,
    run_wald,
    wald_inputs,
)
from hspansharp.harness.cli import main
from hspansharp.harness.config import RunConfig, apply_overrides, parse_config
from hspansharp.harness.envi import load_raster, save_raster
from hspansharp.harness.registry import REGISTRY, get_method, method_names
from hspansharp.harness.scene import synth_scene, synth_scene_factors
from hspansharp.metrics import Reference

from oracles import oracle_cc

SMALL = dict(height=20, width=20, bands=11, endmembers=3, ratio=2)


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
            dict(hs_noise_std=-1.0),
            dict(pan_noise_std=-0.5),
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
            return ctx.y_h

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
        y_h, pan, model, bounds = wald_inputs(truth, config)
        assert (y_h.height, y_h.width, y_h.bands) == (10, 10, 11)
        assert (pan.height, pan.width, pan.bands) == (20, 20, 1)
        assert model.ratio == 2
        assert abs(model.spectral_response.sum() - 1.0) <= 1e-12
        assert bounds.lo == y_h.data.min()
        assert bounds.hi == y_h.data.max()

    def test_noiseless_by_default(self):
        config = small_config()
        truth = reference_scene(config)
        y_h, pan, model, _ = wald_inputs(truth, config)
        assert not model.hs_noise_std.any()
        assert model.pan_noise_std == 0.0
        y_h2, pan2, _, _ = wald_inputs(truth, config)
        assert np.array_equal(y_h.data, y_h2.data)
        assert np.array_equal(pan.data, pan2.data)

    def test_snr_sets_noise(self):
        config = small_config(snr_db=30.0)
        truth = reference_scene(config)
        y_h, pan, model, _ = wald_inputs(truth, config)
        assert (model.hs_noise_std > 0).all()
        assert model.pan_noise_std > 0
        clean_cfg = small_config()
        clean, clean_pan, _, _ = wald_inputs(truth, clean_cfg)
        assert not np.array_equal(y_h.data, clean.data)
        # SNR definition: noise std is signal rms scaled by 10^(-snr/20)
        rms = np.sqrt((clean.data**2).mean(axis=1))
        assert np.abs(model.hs_noise_std - rms * 10.0**-1.5).max() <= 1e-12

    def test_indivisible_dims_rejected(self):
        truth = synth_scene(0, 3, 9, 9, 8)
        with pytest.raises(ValueError):
            wald_inputs(truth, small_config())


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

    def test_failure_is_isolated(self):
        config = small_config(
            methods=("PCA", "CNMF"),
            method_params={"CNMF": {"endmembers": 99}},
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
            method_params={"CNMF": {"endmembers": 99}},
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


class TestEmitReport:
    def test_no_methods_header_only(self, tmp_path):
        report = run_wald(small_config(methods=()))
        paths = emit_report(report, str(tmp_path))
        lines = open(paths["csv"]).read().splitlines()
        assert lines == ["method,CC,SAM,RMSE,ERGAS,time_s"]
        spectra = open(paths["spectra"]).read().splitlines()
        assert spectra == ["method,percentile,pixel,band,reference,estimate"]

    def test_one_method_artifacts(self, tmp_path):
        config = small_config(methods=("SFIM",), timing="off")
        report = run_wald(config)
        paths = emit_report(report, str(tmp_path))

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

    def test_failed_method_row_is_nan(self, tmp_path):
        config = small_config(
            methods=("CNMF",), method_params={"CNMF": {"endmembers": 99}}
        )
        report = run_wald(config)
        paths = emit_report(report, str(tmp_path))
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
            argv = ["fuse", "--method", "CNMF", "--hs", hs, "--pan", pan,
                    "--out", out, "--set", pair]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert calls == []
        assert not os.path.exists(out) and not os.path.exists(out + ".dat")

    @pytest.mark.parametrize(
        "pair, message",
        [
            ("height=abc", "height must be an integer, got 'abc'"),
            ("snr-db=abc", "snr-db must be a number, got 'abc'"),
            ("seed=1.5", "seed must be an integer, got 1.5"),
            ("ratio=2.5", "ratio must be an integer, got 2.5"),
            ("subspace-dim=0", "subspace-dim must be at least 1"),
            ("seed=-1", "seed must be nonnegative"),
            ("output-dir=", "output-dir must be a non-empty string, got None"),
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
            tmp_path, extra="methods = PCA, CNMF\n[CNMF]\nendmembers = 99\n"
        )
        out_dir = str(tmp_path / "out")
        assert main(["bench", "--config", cfg, "--output-dir", out_dir]) == 2
        lines = open(os.path.join(out_dir, "report.csv")).read().splitlines()
        assert any(line.startswith("CNMF,nan") for line in lines)

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
