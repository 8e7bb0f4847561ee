"""Uniform access to the fusion methods for the benchmark harness.

Every method is exposed as a callable taking a `MethodContext`. It forms
the method's image as an `imgcore.BandStream` and returns the whole image,
or, when the context has a `sink`, hands the stream to the sink and returns
what the sink returns. The registry preserves a fixed presentation order
so reports are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..imgcore import BandStream, DynamicRange, SpectralImage, is_integer
from ..sensorsim import SensorModel
from ..fusion.bayes import (
    bayes_naive_stream,
    default_subspace_dim,
    hysure_stream,
    learn_subspace,
)
from ..fusion.cnmf import cnmf_stream
from ..fusion.cs import gs_stream, gsa_stream, pca_stream
from ..fusion.hybrid import gfpca_stream
from ..fusion.mra import mtf_glp_hpm_stream, mtf_glp_stream, sfim_stream

__all__ = [
    "MethodContext",
    "REGISTRY",
    "PARAMS",
    "resolve_params",
    "method_names",
    "get_method",
]


@dataclass(frozen=True)
class MethodContext:
    """Everything a fusion method may draw on; `bench.run_method` builds it.
    No method reads `gnyq`: the blur is `model.blur`. `sink`, when set,
    takes the method's `BandStream` in place of the whole image
    (`envi.save_raster` writes it block by block)."""

    y_h: SpectralImage
    pan: SpectralImage
    model: SensorModel
    range: DynamicRange
    gnyq: float
    seed: int
    subspace_dim: int | None = None
    params: dict | None = None
    sink: Callable[[BandStream], object] | None = None

    @property
    def ratio(self) -> int:
        return self.model.ratio

    def dim(self) -> int:
        if self.subspace_dim is not None:
            return self.subspace_dim
        return default_subspace_dim(self.y_h)


def _emit(ctx: MethodContext, stream: BandStream):
    """The whole image, or what `ctx.sink` returns for the stream."""
    return stream.image() if ctx.sink is None else ctx.sink(stream)


def _run_sfim(ctx: MethodContext):
    return _emit(ctx, sfim_stream(ctx.y_h, ctx.pan, ctx.ratio, ctx.range))


def _run_mtf_glp(ctx: MethodContext):
    return _emit(ctx, mtf_glp_stream(ctx.y_h, ctx.pan, ctx.ratio, ctx.model.blur))


def _run_mtf_glp_hpm(ctx: MethodContext):
    stream = mtf_glp_hpm_stream(ctx.y_h, ctx.pan, ctx.ratio, ctx.model.blur, ctx.range)
    return _emit(ctx, stream)


def _run_gs(ctx: MethodContext):
    return _emit(ctx, gs_stream(ctx.y_h, ctx.pan, ctx.ratio))


def _run_gsa(ctx: MethodContext):
    return _emit(ctx, gsa_stream(ctx.y_h, ctx.pan, ctx.ratio, ctx.model.blur))


def _run_pca(ctx: MethodContext):
    return _emit(ctx, pca_stream(ctx.y_h, ctx.pan, ctx.ratio))


def _run_gfpca(ctx: MethodContext):
    return _emit(ctx, gfpca_stream(ctx.y_h, ctx.pan, ctx.ratio))


def _run_cnmf(ctx: MethodContext):
    p = resolve_params("CNMF", ctx.params)
    endmembers = p["endmembers"]
    stream = cnmf_stream(
        ctx.y_h,
        ctx.pan,
        ctx.model,
        max(ctx.dim(), 2) if endmembers is None else endmembers,
        outer_iters=p["outer_iters"],
        inner_iters=p["inner_iters"],
        seed=ctx.seed,
    )
    return _emit(ctx, stream)


def _run_bayes_naive(ctx: MethodContext):
    basis = learn_subspace(ctx.y_h, ctx.dim())
    stream = bayes_naive_stream(
        ctx.y_h,
        ctx.pan,
        ctx.model,
        basis,
        sigma_rounds=resolve_params("BayesNaive", ctx.params)["sigma_rounds"],
    )
    return _emit(ctx, stream)


def _run_hysure(ctx: MethodContext):
    basis = learn_subspace(ctx.y_h, ctx.dim())
    return _emit(ctx, hysure_stream(ctx.y_h, ctx.pan, basis, ctx.model, rng=ctx.range))


REGISTRY = {
    "SFIM": _run_sfim,
    "MTF-GLP": _run_mtf_glp,
    "MTF-GLP-HPM": _run_mtf_glp_hpm,
    "GS": _run_gs,
    "GSA": _run_gsa,
    "PCA": _run_pca,
    "GFPCA": _run_gfpca,
    "CNMF": _run_cnmf,
    "BayesNaive": _run_bayes_naive,
    "HySure": _run_hysure,
}


# The parameters each method reads from `MethodContext.params`, with the
# only defaults the fuse functions run with; a method not listed reads none.
# Every parameter is a positive integer, except BayesNaive's `sigma_rounds`,
# which may be 0 (`_ZERO_ALLOWED`). A default of None means "unset" and may
# also be given. CNMF's endmember count of None means the subspace
# dimension, at least 2. CNMF runs 300 inner iterations: the multiplicative
# updates are slow and `cnmf_solve`'s default of 100 leaves visible residual.
PARAMS = {
    "CNMF": {"endmembers": None, "outer_iters": 2, "inner_iters": 300},
    "BayesNaive": {"sigma_rounds": 5},
}
# The parameters that may be 0: BayesNaive may solve once under its initial
# prior covariance, without refitting it.
_ZERO_ALLOWED = {("BayesNaive", "sigma_rounds")}


def resolve_params(name: str, given: dict | None) -> dict:
    """`given` over the defaults of the parameters `name` reads. A key the
    method does not read, or a value that is no integer (`imgcore.is_integer`),
    is negative, or is 0 outside `_ZERO_ALLOWED`, raises ValueError."""
    accepted = PARAMS.get(name, {})
    given = given or {}
    unknown = sorted(set(given) - set(accepted))
    if unknown:
        shown = ", ".join(k.replace("_", "-") for k in accepted) or "none"
        raise ValueError(
            f"method {name} does not read parameter {unknown[0].replace('_', '-')!r}"
            f" (accepted: {shown})"
        )
    resolved = dict(accepted)
    for key, value in given.items():
        nullable = accepted[key] is None
        where = f"method {name} parameter {key.replace('_', '-')!r}"
        if not (is_integer(value) or (value is None and nullable)):
            raise ValueError(
                f"{where} must be int{' or none' if nullable else ''}, got {value!r}"
            )
        if value is not None and value < 0:
            raise ValueError(f"{where} must not be negative, got {value!r}")
        if value == 0 and (name, key) not in _ZERO_ALLOWED:
            raise ValueError(f"{where} must be at least 1, got 0")
        resolved[key] = value
    return resolved


def method_names() -> tuple[str, ...]:
    return tuple(REGISTRY)


def get_method(name: str):
    if name not in REGISTRY:
        known = ", ".join(REGISTRY)
        raise KeyError(f"unknown method {name!r} (known: {known})")
    return REGISTRY[name]
