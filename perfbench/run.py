#!/usr/bin/env python3
"""hspansharp benchmark.

    python3 perfbench/run.py --workload wald-100 --seed 0 --seconds 10 --trace 0

Runs one workload in this process through the public CLI entry point
(`hspansharp.harness.cli.main`) for `--seconds` of summed op time, checks
every op's output, and prints as its last line one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` ops alternate untraced and
traced, and the metrics are per-layer span timings and counts, the tracing
overhead, and one op timed in a child process on one BLAS thread.

A run record (and, when traced, the spans) is written under `.perfbench/`
at the root of the checkout. See perfbench/README.md for the metrics.
"""

import time

T0 = time.perf_counter()

import argparse
import contextlib
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
WALL_CAP_S = 100.0  # stop starting ops after this long, to exit well in time
EXIT_BY_S = 170.0  # the single-thread child is stopped by then
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a name in workloads.WORKLOADS")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--threads1-op", action="store_true",
        help="internal: time one op after set-up and a warm-up op, print JSON",
    )
    return parser.parse_args(argv)


def limit_blas_threads() -> int:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def import_program():
    """Import hspansharp from this checkout's `src`, and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import hspansharp

    where = os.path.dirname(os.path.abspath(hspansharp.__file__))
    if os.path.commonpath([where, src]) != src:
        raise ImportError(f"hspansharp imported from {where}, not from {src}")
    return hspansharp


def blas_threads():
    """Threads of numpy's bundled OpenBLAS, or None when not found."""
    import ctypes

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def llc_mib():
    """Size of the largest cache level cpu0 reports, in MiB, or None."""
    sizes = []
    for path in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size"):
        with open(path, encoding="ascii") as fh:
            text = fh.read().strip()
        scale = {"K": 1 / 1024, "M": 1, "G": 1024}.get(text[-1:], None)
        if scale is not None and text[:-1].isdigit():
            sizes.append(int(text[:-1]) * scale)
    return max(sizes) if sizes else None


def tail(values):
    """(value, percentile, samples): the highest percentile (nearest rank)
    with at least ten samples above it, or the median when that would lie
    below the median (fewer than 21 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


class Runner:
    """One process's ops on one workload, with their checks and timings."""

    def __init__(self, workload, cli, tracer=None):
        self.workload = workload
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.ergas = []  # (scene, method, ERGAS) of every op that passed

    def op(self, index: int, traced: bool = False, label=None):
        """Run, time and check op `index`; returns its wall seconds."""
        self.workload.prepare(index)
        argv = self.workload.argv(index)
        ctx = self.tracer.installed() if traced else contextlib.nullcontext()
        rc = None
        with ctx, contextlib.redirect_stdout(io.StringIO()):
            if traced:
                self.tracer.op = index if label is None else label
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:  # a crash is a failed op; keep measuring
                self.errors.append(traceback.format_exc(limit=3))
            op_s = time.perf_counter() - start
        self.attempted += 1
        try:
            scores = self.workload.check(index, rc)
        except Exception as exc:  # any check error fails the op
            self.failed += 1
            self.errors.append(f"op {index} ({' '.join(argv[:3])}): {exc}")
        else:
            scene = self.workload.scene(index)
            self.ergas += [(scene, m, s["ERGAS"]) for m, s in scores.items()]
        return op_s

    def measure(self, seconds: float, alternate: bool):
        """Ops from index 1 until their summed time reaches `seconds` and
        whole cycles of the workload's op mix have run; with `alternate`,
        every second op is traced and both halves get whole cycles.
        Returns (untraced, traced) lists of (index, seconds)."""
        untraced, traced = [], []
        step = self.workload.cycle * (2 if alternate else 1)
        loop_start = time.perf_counter()
        index = 1
        while True:
            is_traced = alternate and index % 2 == 0
            (traced if is_traced else untraced).append((index, self.op(index, is_traced)))
            total = sum(s for _, s in untraced + traced)
            if total >= seconds and index % step == 0:
                return untraced, traced
            if time.perf_counter() - loop_start > WALL_CAP_S:
                return untraced, traced
            index += 1


def ergas_rel(ergas_rows, reference) -> float:
    """Geometric mean over (op, method) of ERGAS over its recorded value."""
    logs = [math.log(v / reference[str(scene)][m]["ERGAS"]) for scene, m, v in ergas_rows]
    return math.exp(statistics.fmean(logs)) if logs else float("nan")


def run_child(args) -> dict:
    """Time one untraced op in a child process on one BLAS thread."""
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_VARS})
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--threads1-op"]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(EXIT_BY_S - (time.perf_counter() - T0), 1.0))
    except subprocess.TimeoutExpired:
        return {"op_s": 0.0, "ok": False, "error": "timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"op_s": 0.0, "ok": False, "error": proc.stderr[-2000:]}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = limit_blas_threads()
    try:
        hspansharp = import_program()
        from hspansharp.harness import cli
        import numpy
        import scipy
        import spans
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program or the benchmark: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0

    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="ascii") as fh:
        reference = json.load(fh)["scores"][args.workload]
    os.makedirs(OUT_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT)
    try:
        workload = workloads.make_workload(args.workload, work_dir, args.seed, reference)
        if args.threads1_op:
            return child_op(workload, cli)
        tracer = spans.Tracer() if args.trace else None
        runner = Runner(workload, cli, tracer)

        setup_times = []
        if tracer:
            tracer.op = "setup"
        for _ in range(1 if tracer else SETUP_REPEATS):
            ctx = tracer.installed() if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            with ctx, contextlib.redirect_stdout(io.StringIO()):
                workload.setup()
            setup_times.append(time.perf_counter() - start)
        warmup_s = runner.op(0, traced=tracer is not None, label="setup")
        setup_s = import_s + statistics.median(setup_times) + warmup_s

        untraced, traced = runner.measure(args.seconds, alternate=tracer is not None)
        op_times = [s for _, s in untraced]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        child = run_child(args) if tracer else None
        if child is not None:
            runner.attempted += 1
            if not child["ok"]:
                runner.failed += 1
                runner.errors.append(f"single-thread op: {child.get('error')}")

        p50 = statistics.median(op_times)
        tail_s, tail_q, samples = tail(op_times)
        if tracer:
            traced_p50 = statistics.median(s for _, s in traced)
            metrics = tracer.layer_metrics([i for i, _ in traced])
            metrics["trace.op_s.p50"] = (traced_p50, "s")
            metrics["trace.overhead_s"] = (traced_p50 - p50, "s")
            metrics["baseline.threads1.op_s"] = (child["op_s"], "s")
        else:
            metrics = {
                "op_s.p50": (p50, "s"),
                "op_s.tail": (tail_s, "s"),
                "mvox_per_s": (workload.voxels_per_op * len(op_times) / sum(op_times) / 1e6, "Mvox/s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (rss_mb, "MB"),
                "ergas_rel": (ergas_rel(runner.ergas, reference), "ratio"),
            }

        ergas_values = [v for _, _, v in runner.ergas]
        llc = llc_mib()
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "heldout_seed": args.seed + 1000,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": nproc,
            "blas_threads": blas_threads(),
            "blas_env": {var: os.environ[var] for var in BLAS_VARS},
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "hspansharp": hspansharp.__version__,
            "scenes": sorted({workload.scene(i) for i, _ in untraced + traced}),
            "op_s": {"untraced": untraced, "traced": traced},
            "op_s.tail": {"value": tail_s, "percentile": tail_q, "samples": samples},
            "setup": {"import_s": import_s, "repeats_s": setup_times, "warmup_op_s": warmup_s},
            "peak_rss_mb": rss_mb,
            "failed_ratio": runner.failed / runner.attempted,
            "errors": runner.errors,
            "ergas_median_raw": statistics.median(ergas_values) if ergas_values else None,
            "cube_mb": workload.cube_mb,
            "llc_mib": llc,
            "cube_vs_llc": None if llc is None else workload.cube_mb / (llc * 1.048576),
            "child_threads1": child,
            "mb_computed": "*.mb_computed are computed from array sizes (input + output), not measured traffic",
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        stem = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        with open(stem + ".json", "w", encoding="ascii") as fh:
            json.dump(record, fh, indent=1)
        if tracer:
            with open(stem + ".spans.json", "w", encoding="ascii") as fh:
                json.dump(tracer.dump(), fh)

        for error in runner.errors:
            print(f"error: {error}", file=sys.stderr)
        print(
            f"{args.workload} seed={args.seed} ops={samples} failed_ratio="
            f"{record['failed_ratio']:.4g} op_s.tail=p{tail_q:g} of {samples}"
            f" ergas_median_raw={record['ergas_median_raw']} record={stem}.json"
        )
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
        result = {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def child_op(workload, cli) -> int:
    runner = Runner(workload, cli)
    with contextlib.redirect_stdout(io.StringIO()):
        workload.setup()
    runner.op(0)
    op_s = runner.op(1)
    ok = runner.failed == 0
    print(json.dumps({"op_s": op_s, "ok": ok, "error": "; ".join(runner.errors) or None}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
