"""Peak traced memory of the non-iterative fusion methods.

Each component-substitution, multiresolution and hybrid method interpolates
into one working cube, injects its detail into it in place and hands that
cube to the output image without a copy, so its traced peak stays within a
small multiple of the output cube's bytes: the working cube, the
interpolation's one-axis intermediate (a 1/ratio share of the cube), the
guided filter's component stack for GFPCA, and band-sized temporaries. Band
statistics of the interpolated cube come from the low-resolution cube, so no
centred copy of the working cube is made.

Scoring against a prepared reference forms one working array per report.
"""

import tracemalloc

import pytest

from hspansharp.harness.bench import reference_scene, wald_inputs
from hspansharp.harness.config import RunConfig
from hspansharp.harness.registry import MethodContext, get_method
from hspansharp.metrics import Reference, compute_report

METHODS = ["SFIM", "MTF-GLP", "MTF-GLP-HPM", "GS", "GSA", "PCA", "GFPCA"]
# Peak traced bytes over the output cube's bytes.
BUDGET = 1.75
REPORT_BUDGET = 1.5
CONFIG = RunConfig(height=160, width=160, bands=60, ratio=4).validate()


@pytest.fixture(scope="module")
def truth():
    return reference_scene(CONFIG)


@pytest.fixture(scope="module")
def context(truth):
    y_h, pan, model, rng = wald_inputs(truth, CONFIG)
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
