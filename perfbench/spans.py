"""Span tracing around the public functions of each hspansharp layer.

`Tracer.installed()` rebinds every `hspansharp.*` module attribute that
refers to a traced function (and each `REGISTRY` entry) to a wrapper that
records a span, and restores the originals on exit. Spans are kept in
memory as `[name, start, end, parent, op]` and written out by the caller.
Counts are read from the values the wrapped functions return.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

# (span prefix, module, function): one span per public function of a layer.
TARGETS = (
    ("scene", "hspansharp.harness.scene", "synth_scene"),
    ("bench", "hspansharp.harness.bench", "wald_inputs"),
    ("sensorsim", "hspansharp.sensorsim", "add_gaussian_noise"),
    ("sensorsim", "hspansharp.sensorsim", "synth_pan"),
    ("sensorsim", "hspansharp.sensorsim", "blur_downsample"),
    ("metrics", "hspansharp.metrics", "compute_report"),
    ("resample", "hspansharp.resample", "upsample"),
    ("cnmf", "hspansharp.fusion.cnmf", "vca"),
    ("cnmf", "hspansharp.fusion.cnmf", "cnmf_solve"),
    ("bayes", "hspansharp.fusion.bayes", "learn_subspace"),
    ("bayes", "hspansharp.fusion.bayes", "default_subspace_dim"),
    ("bayes", "hspansharp.fusion.bayes", "bayes_naive_solve"),
    ("bayes", "hspansharp.fusion.bayes", "default_hysure_params"),
    ("bayes", "hspansharp.fusion.bayes", "hysure_solve"),
    ("cs", "hspansharp.fusion.cs", "pca_transform"),
    ("hybrid", "hspansharp.fusion.hybrid", "guided_filter_plane"),
    ("envi", "hspansharp.harness.envi", "load_raster"),
    ("envi", "hspansharp.harness.envi", "save_raster"),
    ("bench", "hspansharp.harness.bench", "run_wald"),
    ("bench", "hspansharp.harness.bench", "emit_report"),
    ("cli", "hspansharp.harness.cli", "main"),
)
REGISTRY_MODULE = "hspansharp.harness.registry"
METHODS = (
    "SFIM", "MTF-GLP", "MTF-GLP-HPM", "GS", "GSA",
    "PCA", "GFPCA", "CNMF", "BayesNaive", "HySure",
)
SPAN_NAMES = tuple(f"{p}.{f}" for p, _, f in TARGETS) + tuple(
    f"registry.{m}" for m in METHODS
)
SETUP_SPANS = (
    "scene.synth_scene",
    "bench.wald_inputs",
    "sensorsim.add_gaussian_noise",
    "sensorsim.synth_pan",
    "envi.save_raster",
    "cli.main",
)
# Counts: name -> (unit, reducer). "sum" totals per op then averages over
# ops; "mean" averages over every call seen in the traced ops.
COUNTS = {
    "resample.upsample.mb_computed": ("MB", "sum"),
    "sensorsim.blur_downsample.mb_computed": ("MB", "sum"),
    "cnmf.hs_iters": ("count", "sum"),
    "cnmf.pan_iters": ("count", "sum"),
    "cnmf.iters_per_budget": ("ratio", "mean"),
    "bayes.cg_iterations_last": ("count", "mean"),
    "bayes.hysure_iters": ("count", "sum"),
    "bayes.hysure_converged": ("ratio", "mean"),
    "bayes.hysure_iters_per_budget": ("ratio", "mean"),
    "envi.mb_read": ("MB", "sum"),
    "envi.mb_written": ("MB", "sum"),
}


def _arrays_mb(*images) -> float:
    """Megabytes of the images' data arrays: computed from array sizes."""
    return sum(img.data.nbytes for img in images) / 1e6


def _bound(fn, args, kwargs) -> dict:
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except TypeError:
        return {}
    bound.apply_defaults()
    return bound.arguments


def _mb_computed(name):
    def hook(fn, args, kwargs, result):
        yield name, _arrays_mb(args[0], result)

    return hook


def _cnmf_counts(fn, args, kwargs, result):
    hs = sum(len(t) - 1 for t in result.hs_objectives)
    pan = sum(len(t) - 1 for t in result.pan_objectives)
    yield "cnmf.hs_iters", hs
    yield "cnmf.pan_iters", pan
    call = _bound(fn, args, kwargs)
    if "outer_iters" in call and "inner_iters" in call:
        budget = 2 * call["outer_iters"] * call["inner_iters"]
        yield "cnmf.iters_per_budget", (hs + pan) / budget


def _bayes_naive_counts(fn, args, kwargs, result):
    yield "bayes.cg_iterations_last", result.cg_iterations


def _hysure_counts(fn, args, kwargs, result):
    yield "bayes.hysure_iters", result.iterations
    yield "bayes.hysure_converged", float(result.converged)
    params = _bound(fn, args, kwargs).get("params")
    if params is not None:
        yield "bayes.hysure_iters_per_budget", result.iterations / params.max_iters


def _file_mb(path: str) -> float:
    return os.path.getsize(path) / 1e6


def _read_counts(fn, args, kwargs, result):
    envi = sys.modules["hspansharp.harness.envi"]
    hdr, dat = envi.raster_paths(args[0])
    yield "envi.mb_read", _file_mb(hdr) + _file_mb(dat)


def _write_counts(fn, args, kwargs, result):
    yield "envi.mb_written", sum(_file_mb(p) for p in result)


HOOKS = {
    "resample.upsample": _mb_computed("resample.upsample.mb_computed"),
    "sensorsim.blur_downsample": _mb_computed("sensorsim.blur_downsample.mb_computed"),
    "cnmf.cnmf_solve": _cnmf_counts,
    "bayes.bayes_naive_solve": _bayes_naive_counts,
    "bayes.hysure_solve": _hysure_counts,
    "envi.load_raster": _read_counts,
    "envi.save_raster": _write_counts,
}


class Tracer:
    """Records spans and counts while installed; `op` labels new spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple] = []  # (op, name, value)
        self.op = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.op]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if hook is not None:
                try:
                    for count, value in hook(fn, args, kwargs, result):
                        self.counts.append((self.op, count, value))
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # the function's signature or result changed shape
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every reference to a traced function; restore on exit."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "hspansharp" or n.startswith("hspansharp."))
        ]
        saved = []  # (module, attribute, original)
        for prefix, module_name, func in TARGETS:
            original = getattr(importlib.import_module(module_name), func, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{prefix}.{func}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
        registry = importlib.import_module(REGISTRY_MODULE).REGISTRY
        originals = dict(registry)
        for method, fn in originals.items():
            registry[method] = self._wrap(f"registry.{method}", fn)
        try:
            yield self
        finally:
            registry.update(originals)
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self, ops: list) -> dict:
        """Per-op means over `ops` of each span's calls, seconds and self
        seconds, plus the counts; set-up spans are totals over set-up."""
        ops = list(ops)
        n = max(len(ops), 1)
        child_s = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        setup = defaultdict(float)
        wanted = set(ops)
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if op == "setup":
                setup[name] += end - start
            if op not in wanted:
                continue
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child_s[index]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name] / n, "count")
            out[f"{name}.s"] = (total[name] / n, "s")
            out[f"{name}.self_s"] = (self_s[name] / n, "s")
        for name in SETUP_SPANS:
            out[f"setup.{name}.s"] = (setup[name], "s")
        for name, (unit, reducer) in COUNTS.items():
            values = [v for op, c, v in self.counts if c == name and op in wanted]
            if reducer == "sum":
                value = sum(values) / n
            else:
                value = statistics.fmean(values) if values else 0.0
            out[name] = (value, unit)
        return out

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counts": [list(c) for c in self.counts],
        }
