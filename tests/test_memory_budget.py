"""Peak traced memory of the non-iterative fusion methods.

Each component-substitution, multiresolution and hybrid method interpolates
into one working cube, injects its detail into it in place and wraps it once,
so its traced peak stays within a small multiple of the output cube's bytes:
the working cube, the image's own copy and band-sized temporaries (PCA's
centred covariance copy is freed before the image is built).
"""

import tracemalloc

import pytest

from hspansharp.harness.bench import reference_scene, wald_inputs
from hspansharp.harness.config import RunConfig
from hspansharp.harness.registry import MethodContext, get_method

METHODS = ["SFIM", "MTF-GLP", "MTF-GLP-HPM", "GS", "GSA", "PCA", "GFPCA"]
# Peak traced bytes over the output cube's bytes.
BUDGET = 2.5


@pytest.fixture(scope="module")
def context():
    config = RunConfig(height=160, width=160, bands=60, ratio=4).validate()
    y_h, pan, model, rng = wald_inputs(reference_scene(config), config)
    return MethodContext(y_h, pan, model, rng, config.gnyq, config.seed)


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
