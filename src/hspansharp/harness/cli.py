"""Command-line harness.

Subcommands: synth (make a reference scene), degrade (produce the observed
pair), fuse (run one method), eval (score a fused raster), bench (full
Wald-protocol benchmark with report artifacts).

Exit codes: 0 success, 1 configuration or input error, 2 partial failure
(at least one method errored during a run).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ..imgcore import DynamicRange
from ..metrics import compute_report
from ..sensorsim import SensorModel, default_pan_response, kernel_from_mtf
from .bench import emit_report, run_wald, wald_inputs
from .config import RunConfig, apply_overrides, parse_config
from .envi import load_raster, save_raster
from .registry import MethodContext, get_method, method_names
from .scene import synth_scene

__all__ = ["build_parser", "main", "entry"]


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors: exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hspansharp",
        description="Hyperspectral pansharpening toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_synth = sub.add_parser("synth", help="generate a synthetic reference scene")
    p_synth.add_argument("--out", required=True, help="output raster base path")
    p_synth.add_argument("--height", type=int, default=100)
    p_synth.add_argument("--width", type=int, default=100)
    p_synth.add_argument("--bands", type=int, default=40)
    p_synth.add_argument("--endmembers", type=int, default=3)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--dtype", choices=("float32", "float64"), default="float64")

    p_deg = sub.add_parser("degrade", help="degrade a reference into HS + PAN")
    p_deg.add_argument("--truth", required=True, help="reference raster")
    p_deg.add_argument("--out-hs", required=True)
    p_deg.add_argument("--out-pan", required=True)
    p_deg.add_argument("--ratio", type=int, default=5)
    p_deg.add_argument("--gnyq", type=float, default=0.3)
    p_deg.add_argument("--snr-db", type=float, default=None)
    p_deg.add_argument("--seed", type=int, default=0)
    p_deg.add_argument("--dtype", choices=("float32", "float64"), default="float64")

    p_fuse = sub.add_parser("fuse", help="fuse an HS + PAN pair with one method")
    p_fuse.add_argument("--method", required=True, choices=method_names())
    p_fuse.add_argument("--hs", required=True)
    p_fuse.add_argument("--pan", required=True)
    p_fuse.add_argument("--out", required=True)
    p_fuse.add_argument("--gnyq", type=float, default=0.3)
    p_fuse.add_argument("--seed", type=int, default=0)
    p_fuse.add_argument("--subspace-dim", type=int, default=None)
    p_fuse.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="method parameter override, may repeat",
    )
    p_fuse.add_argument("--dtype", choices=("float32", "float64"), default="float64")

    p_eval = sub.add_parser("eval", help="score a fused raster against a reference")
    p_eval.add_argument("--fused", required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--ratio", type=int, default=5, help="resolution ratio")

    p_bench = sub.add_parser("bench", help="run the Wald-protocol benchmark")
    p_bench.add_argument("--config", default=None, help="config file path")
    p_bench.add_argument("--output-dir", default=None, help="override the output dir")
    p_bench.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="config override, may repeat",
    )
    return parser


def _cmd_synth(args) -> int:
    scene = synth_scene(args.seed, args.endmembers, args.height, args.width, args.bands)
    hdr, dat = save_raster(args.out, scene, args.dtype)
    print(f"wrote {hdr} and {dat}")
    return 0


def _cmd_degrade(args) -> int:
    truth = load_raster(args.truth)
    config = RunConfig(
        height=truth.height,
        width=truth.width,
        bands=truth.bands,
        ratio=args.ratio,
        gnyq=args.gnyq,
        snr_db=args.snr_db,
        seed=args.seed,
    ).validate()
    y_h, pan, _, _ = wald_inputs(truth, config)
    save_raster(args.out_hs, y_h, args.dtype)
    save_raster(args.out_pan, pan, args.dtype)
    print(f"wrote {args.out_hs} ({y_h.bands} bands) and {args.out_pan} (PAN)")
    return 0


def _cmd_fuse(args) -> int:
    # Bare keys name parameters of --method; the config grammar parses and
    # checks every pair, and the subspace dimension with them.
    pairs = [
        pair if "." in pair.partition("=")[0] else f"{args.method}.{pair}"
        for pair in args.overrides
    ]
    config = apply_overrides(RunConfig(subspace_dim=args.subspace_dim), pairs)
    y_h = load_raster(args.hs)
    pan = load_raster(args.pan)
    if pan.height % y_h.height or pan.width % y_h.width:
        raise ValueError("PAN dims are not an integer multiple of the HS dims")
    ratio = pan.height // y_h.height
    if pan.width // y_h.width != ratio:
        raise ValueError("height and width ratios disagree")
    kernel = kernel_from_mtf(ratio, args.gnyq)
    response = default_pan_response(y_h.bands, y_h.wavelengths)
    model = SensorModel(
        ratio=ratio,
        blur=kernel,
        spectral_response=response[np.newaxis, :],
    )
    lo, hi = float(y_h.data.min()), float(y_h.data.max())
    ctx = MethodContext(
        y_h=y_h,
        pan=pan,
        model=model,
        range=DynamicRange(lo, hi if hi > lo else lo + 1.0),
        gnyq=args.gnyq,
        seed=args.seed,
        subspace_dim=config.subspace_dim,
        params=config.method_params.get(args.method),
    )
    try:
        fused = get_method(args.method)(ctx)
    except Exception as exc:
        print(f"error: method {args.method} failed: {exc}", file=sys.stderr)
        return 2
    hdr, dat = save_raster(args.out, fused, args.dtype)
    print(f"wrote {hdr} and {dat}")
    return 0


def _cmd_eval(args) -> int:
    if args.ratio < 1:
        raise ValueError(f"ratio must be a positive integer, got {args.ratio}")
    fused = load_raster(args.fused)
    truth = load_raster(args.truth)
    report = compute_report(fused, truth, 1.0 / args.ratio)
    scalars = report.scalars()
    print("CC,SAM,RMSE,ERGAS")
    print(",".join("%.17g" % scalars[k] for k in ("CC", "SAM", "RMSE", "ERGAS")))
    return 0


def _cmd_bench(args) -> int:
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = parse_config(fh.read())
    else:
        config = RunConfig().validate()
    overrides = list(args.overrides)
    if args.output_dir is not None:
        overrides.append(f"output-dir={args.output_dir}")
    if overrides:
        config = apply_overrides(config, overrides)

    report = run_wald(config)
    paths = emit_report(report)

    print(f"{'method':<12} {'CC':>8} {'SAM':>8} {'RMSE':>10} {'ERGAS':>8} {'time_s':>8}")
    failed = 0
    for res in report.results:
        if res.report is None:
            failed += 1
            print(f"{res.name:<12} failed: {res.error}")
            continue
        s = res.report.scalars()
        print(
            f"{res.name:<12} {s['CC']:>8.4f} {s['SAM']:>8.4f}"
            f" {s['RMSE']:>10.5g} {s['ERGAS']:>8.4f} {s['time_s']:>8.3f}"
        )
    print(f"report: {paths['csv']}")
    return 2 if failed else 0


_COMMANDS = {
    "synth": _cmd_synth,
    "degrade": _cmd_degrade,
    "fuse": _cmd_fuse,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
