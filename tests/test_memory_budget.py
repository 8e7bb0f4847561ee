"""Peak traced memory of the non-iterative fusion methods.

Each component-substitution, multiresolution and hybrid method interpolates
into one working cube, injects its detail into it in place and hands that
cube to the output image without a copy, so its traced peak stays within a
small multiple of the output cube's bytes: the working cube, the
interpolation's one-axis intermediate (a 1/ratio share of the cube), the
guided filter's component stack for GFPCA, and band-sized temporaries. Band
statistics of the interpolated cube come from the low-resolution cube, so no
centred copy of the working cube is made.

Scoring walks the pixels in strips through a few strip-sized buffers, so a
report forms no cube-sized array, and a prepared reference holds only band-
and pixel-sized sums beside its image.

A whole Wald run holds one fused cube at a time: it keeps each method's
scores and percentile spectra, not its image, so its peak stays near that of
its costliest method run alone (with the reference, its prepared sums and
the degraded pair) and does not grow with the number of methods.
"""

import tracemalloc

import pytest

from hspansharp.harness.bench import reference_scene, run_wald, wald_inputs
from hspansharp.harness.config import RunConfig
from hspansharp.harness.registry import MethodContext, get_method
from hspansharp.imgcore import DynamicRange
from hspansharp.metrics import Reference, compute_report

METHODS = ["SFIM", "MTF-GLP", "MTF-GLP-HPM", "GS", "GSA", "PCA", "GFPCA"]
# Peak traced bytes over the output cube's bytes.
BUDGET = 1.75
REPORT_BUDGET = 0.5
# Bytes a `Reference` keeps beyond its image, over the image's bytes.
REFERENCE_BUDGET = 0.05
# Peak traced bytes of a ten-method `run_wald` over the reference cube's
# bytes.
RUN_BUDGET = 4.0
CONFIG = RunConfig(height=160, width=160, bands=60, ratio=4).validate()


@pytest.fixture(scope="module")
def truth():
    return reference_scene(CONFIG)


@pytest.fixture(scope="module")
def context(truth):
    y_h, pan, model = wald_inputs(truth, CONFIG)
    rng = DynamicRange.spanning(y_h.data)
    return MethodContext(y_h, pan, model, rng, CONFIG.gnyq, CONFIG.seed)


@pytest.mark.parametrize("name", METHODS)
def test_peak_within_budget(context, name):
    method = get_method(name)
    tracemalloc.start()
    try:
        fused = method(context)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ratio = peak / fused.data.nbytes
    assert ratio <= BUDGET, f"{name} peaked at {ratio:.2f}x the output"


def test_report_peak_within_budget(context, truth):
    fused = get_method("GSA")(context)
    reference = Reference(truth)
    tracemalloc.start()
    try:
        compute_report(fused, reference, 1.0 / CONFIG.ratio)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ratio = peak / truth.data.nbytes
    assert ratio <= REPORT_BUDGET, f"compute_report peaked at {ratio:.2f}x the cube"


def test_reference_holds_only_band_and_pixel_sums(truth):
    tracemalloc.start()
    try:
        reference = Reference(truth)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reference.image is truth
    ratio = held / truth.data.nbytes
    assert ratio <= REFERENCE_BUDGET, f"a Reference holds {ratio:.3f}x the cube"


def test_run_peak_within_budget(truth):
    run_wald(CONFIG)  # warm: one-off tables and imports are not counted
    tracemalloc.start()
    try:
        report = run_wald(CONFIG)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.results) == 10
    assert all(r.error is None for r in report.results)
    ratio = peak / truth.data.nbytes
    assert ratio < RUN_BUDGET, f"run_wald peaked at {ratio:.2f}x the cube"
