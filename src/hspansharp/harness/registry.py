"""Uniform access to the fusion methods for the benchmark harness.

Every method is exposed as a callable taking a `MethodContext` and
returning the fused image; the registry preserves a fixed presentation
order so reports are stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..imgcore import DynamicRange, SpectralImage
from ..sensorsim import SensorModel
from ..fusion.bayes import (
    default_subspace_dim,
    fuse_bayes_naive,
    fuse_hysure,
    learn_subspace,
)
from ..fusion.cnmf import fuse_cnmf
from ..fusion.cs import fuse_gs, fuse_gsa, fuse_pca
from ..fusion.hybrid import fuse_gfpca
from ..fusion.mra import fuse_mtf_glp, fuse_mtf_glp_hpm, fuse_sfim

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
    """Everything a fusion method may draw on for one benchmark run."""

    y_h: SpectralImage
    pan: SpectralImage
    model: SensorModel
    range: DynamicRange
    gnyq: float
    seed: int
    subspace_dim: int | None = None
    params: dict | None = None

    @property
    def ratio(self) -> int:
        return self.model.ratio

    def dim(self) -> int:
        if self.subspace_dim is not None:
            return self.subspace_dim
        return default_subspace_dim(self.y_h)


def _run_sfim(ctx: MethodContext) -> SpectralImage:
    return fuse_sfim(ctx.y_h, ctx.pan, ctx.ratio, ctx.range)


def _run_mtf_glp(ctx: MethodContext) -> SpectralImage:
    return fuse_mtf_glp(ctx.y_h, ctx.pan, ctx.ratio, ctx.gnyq, ctx.range)


def _run_mtf_glp_hpm(ctx: MethodContext) -> SpectralImage:
    return fuse_mtf_glp_hpm(ctx.y_h, ctx.pan, ctx.ratio, ctx.gnyq, ctx.range)


def _run_gs(ctx: MethodContext) -> SpectralImage:
    return fuse_gs(ctx.y_h, ctx.pan, ctx.ratio)


def _run_gsa(ctx: MethodContext) -> SpectralImage:
    return fuse_gsa(ctx.y_h, ctx.pan, ctx.ratio, ctx.model.blur)


def _run_pca(ctx: MethodContext) -> SpectralImage:
    return fuse_pca(ctx.y_h, ctx.pan, ctx.ratio)


def _run_gfpca(ctx: MethodContext) -> SpectralImage:
    return fuse_gfpca(ctx.y_h, ctx.pan, ctx.ratio)


def _run_cnmf(ctx: MethodContext) -> SpectralImage:
    p = resolve_params("CNMF", ctx.params)
    endmembers = p["endmembers"]
    return fuse_cnmf(
        ctx.y_h,
        ctx.pan,
        ctx.model,
        max(ctx.dim(), 2) if endmembers is None else endmembers,
        outer_iters=p["outer_iters"],
        inner_iters=p["inner_iters"],
        seed=ctx.seed,
    )


def _run_bayes_naive(ctx: MethodContext) -> SpectralImage:
    basis = learn_subspace(ctx.y_h, ctx.dim())
    return fuse_bayes_naive(
        ctx.y_h,
        ctx.pan,
        ctx.model,
        basis,
        sigma_rounds=resolve_params("BayesNaive", ctx.params)["sigma_rounds"],
    )


def _run_hysure(ctx: MethodContext) -> SpectralImage:
    basis = learn_subspace(ctx.y_h, ctx.dim())
    return fuse_hysure(ctx.y_h, ctx.pan, basis, ctx.model, rng=ctx.range)


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


# The parameters each method reads from `MethodContext.params`, as
# (type, default); a method not listed reads none. A default of None means
# "unset" and may also be given. CNMF's endmember count of None means the
# subspace dimension, at least 2. CNMF runs 300 inner iterations: the
# multiplicative updates are slow and `fuse_cnmf`'s default of 100 leaves
# visible residual on smooth scenes.
PARAMS = {
    "CNMF": {
        "endmembers": (int, None),
        "outer_iters": (int, 2),
        "inner_iters": (int, 300),
    },
    "BayesNaive": {"sigma_rounds": (int, 5)},
}


def resolve_params(name: str, given: dict | None) -> dict:
    """`given` over the defaults of the parameters `name` reads. A key the
    method does not read, or a value not of the key's type, raises
    ValueError."""
    accepted = PARAMS.get(name, {})
    given = given or {}
    unknown = sorted(set(given) - set(accepted))
    if unknown:
        shown = ", ".join(k.replace("_", "-") for k in accepted) or "none"
        raise ValueError(
            f"method {name} does not read parameter {unknown[0].replace('_', '-')!r}"
            f" (accepted: {shown})"
        )
    resolved = {key: default for key, (_, default) in accepted.items()}
    for key, value in given.items():
        kind, default = accepted[key]
        # bool is an int subclass, but `true` is no count.
        if not (value is None and default is None) and (
            isinstance(value, bool) or not isinstance(value, kind)
        ):
            raise ValueError(
                f"method {name} parameter {key.replace('_', '-')!r} must be"
                f" {kind.__name__}{' or none' if default is None else ''}, got {value!r}"
            )
        resolved[key] = value
    return resolved


def method_names() -> tuple[str, ...]:
    return tuple(REGISTRY)


def get_method(name: str):
    if name not in REGISTRY:
        known = ", ".join(REGISTRY)
        raise KeyError(f"unknown method {name!r} (known: {known})")
    return REGISTRY[name]
