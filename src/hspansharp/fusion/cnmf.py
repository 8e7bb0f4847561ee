"""Coupled nonnegative matrix factorization fusion.

The hyperspectral image and the PAN are alternately unmixed with shared
endmember spectra: spectra come from the low-resolution data, abundances
from the high-resolution PAN, coupled through the known sensor model.
Abundance updates use the penalty-row augmentation that softly enforces
sum-to-one columns.

`nnls_columns`, the Lawson-Hanson solver that seeds the abundances, is the
one nonnegative least-squares solver in the package: `bayes.estimate_sensor`
solves its response rows and blur taps with it, and borrows `_DELTA` for
its taps' unit-sum row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..imgcore import BandStream, SpectralImage, is_integer
from ..resample import interpolate
from ..sensorsim import SensorModel, check_model_pair, degrade
from .cs import signed_axes

__all__ = [
    "Endmembers",
    "CnmfResult",
    "vca",
    "nmf_update_spectra",
    "cnmf_solve",
    "cnmf_stream",
    "nnls_columns",
]

# Added to each multiplicative update's denominator; also the floor of the
# relative stopping test.
_EPS = 1e-12
# Entry of the stacked sum-to-one penalty row: the larger, the closer each
# abundance column sums to one.
_DELTA = 10.0
# Steps each loop runs between two stopping tests (`_run_windows`).
_WINDOW = 20


@dataclass(frozen=True)
class Endmembers:
    """Spectra (bands x p) and abundances (p x pixels), both finite and
    nonnegative."""

    spectra: np.ndarray
    abundances: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.spectra, dtype=np.float64).copy()
        U = np.asarray(self.abundances, dtype=np.float64).copy()
        if H.ndim != 2 or U.ndim != 2 or H.shape[1] != U.shape[0]:
            raise ValueError("spectra and abundances disagree in endmember count")
        if not (np.isfinite(H).all() and np.isfinite(U).all()):
            raise ValueError("endmember factors must be finite")
        if (H < 0).any() or (U < 0).any():
            raise ValueError("endmember factors must be nonnegative")
        H.flags.writeable = False
        U.flags.writeable = False
        object.__setattr__(self, "spectra", H)
        object.__setattr__(self, "abundances", U)


@dataclass(frozen=True)
class CnmfResult:
    """The factors, the low-resolution abundances and, per outer iteration,
    each loop's traced objectives and the number of steps it took. A trace
    holds the objectives the loop formed, not one per step (`_run_windows`)."""

    endmembers: Endmembers
    abundances_low: np.ndarray
    hs_objectives: tuple
    pan_objectives: tuple
    hs_steps: tuple
    pan_steps: tuple


def vca(y: np.ndarray, p: int, seed: int = 0) -> np.ndarray:
    """Vertex component analysis, pixel-purity convention.

    Projects the data onto its top-p singular subspace, normalizes columns
    onto the hyperplane through the data mean, and repeatedly picks the pixel
    maximizing |f^T y| for directions f orthogonal to the vertices found so
    far. Every returned column is an actual column of y.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError("data must be a bands x pixels matrix")
    m, n = y.shape
    if not (is_integer(p) and 1 <= p <= min(m, n)):
        raise ValueError(f"endmember count {p!r} out of range for {m}x{n} data")
    if (y < 0).any():
        raise ValueError("data must be nonnegative")
    left, sing, _ = np.linalg.svd(y, full_matrices=False)
    if sing[p - 1] <= max(m, n) * np.finfo(np.float64).eps * sing[0]:
        raise ValueError(f"data rank is below the requested {p} endmembers")
    basis = signed_axes(left[:, :p])
    if p == 1:
        k = int(np.argmax(basis[:, 0] @ y))
        return y[:, [k]].copy()

    z = basis.T @ y
    u = z.mean(axis=1)
    denom = u @ z
    floor = 1e-12 * np.abs(denom).max()
    denom = np.where(np.abs(denom) < floor, floor, denom)
    z_proj = z / denom

    rng = np.random.default_rng(seed)
    ortho = np.zeros((p, 0))
    indices = []
    for _ in range(p):
        while True:
            w = rng.standard_normal(p)
            f = w - ortho @ (ortho.T @ w)
            norm = np.linalg.norm(f)
            if norm > 1e-9:
                break
        f /= norm
        k = int(np.argmax(np.abs(f @ z_proj)))
        indices.append(k)
        v = z_proj[:, k] - ortho @ (ortho.T @ z_proj[:, k])
        vn = np.linalg.norm(v)
        if vn > 1e-12:
            ortho = np.column_stack([ortho, v / vn])
    return y[:, indices].copy()


def nmf_update_spectra(
    spectra: np.ndarray, abundances: np.ndarray, data: np.ndarray
) -> np.ndarray:
    """Multiplicative spectra step: H <- H (Y U^T) / (H U U^T + eps)."""
    return spectra * (data @ abundances.T) / (spectra @ (abundances @ abundances.T) + _EPS)


def _abundance_step(
    abundances: np.ndarray, hty: np.ndarray, hth: np.ndarray, denom: np.ndarray | None = None
) -> np.ndarray:
    """Multiplicative abundance step U <- U (H^T Y) / (H^T H U + eps) from the
    products H^T Y and H^T H, written over `abundances` and returned. The
    denominator is formed in `denom` when one is given."""
    denom = np.matmul(hth, abundances, out=denom)
    denom += _EPS
    abundances *= hty
    abundances /= denom
    return abundances


def _passive_solve(gram: np.ndarray, rhs: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Per column j, the solution s of gram[P, P] s_P = rhs[P, j] with
    P = passive[:, j], and s = 0 off P: one batched solve of p x p systems
    that hold the identity off P."""
    p = gram.shape[0]
    both = passive.T[:, :, np.newaxis] & passive.T[:, np.newaxis, :]
    mats = np.where(both, gram, np.eye(p))
    vecs = np.where(passive, rhs, 0.0).T[:, :, np.newaxis]
    return np.linalg.solve(mats, vecs)[:, :, 0].T


def nnls_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin ||a x - b_j||, x >= 0, for every column b_j of b at once.

    Lawson-Hanson active-set NNLS (Lawson & Hanson, Solving Least Squares
    Problems, 1974, ch. 23) on the Gram form a^T a, a^T b. Every column runs
    its own passive set P: the free coefficient of largest gradient enters
    P while that gradient exceeds the tolerance and P has fewer than
    a.shape[0] entries; each infeasible passive solve steps back to the
    boundary and drops the coefficients it zeroes, at most 3 p times per
    column."""
    m, p = a.shape
    gram = a.T @ a
    atb = a.T @ b
    tol = 10 * max(m, p) * np.finfo(np.float64).eps
    x = np.zeros_like(atb)
    passive = np.zeros(atb.shape, dtype=bool)
    grad = atb.copy()
    steps = np.zeros(atb.shape[1], dtype=np.int64)
    while True:
        free = np.where(passive, -np.inf, grad)
        cols = np.flatnonzero((free.max(axis=0) > tol) & (passive.sum(axis=0) < m))
        if cols.size == 0:
            return x
        passive[free[:, cols].argmax(axis=0), cols] = True
        s = _passive_solve(gram, atb[:, cols], passive[:, cols])
        while True:
            cut = passive[:, cols] & (s < 0)
            back = np.flatnonzero(cut.any(axis=0))
            if back.size == 0:
                break
            idx = cols[back]
            steps[idx] += 1
            if steps[idx].max() > 3 * p:
                raise RuntimeError("NNLS did not converge in 3 p steps")
            xb, sb, cb = x[:, idx], s[:, back], cut[:, back]
            alpha = np.where(cb, xb / np.where(cb, xb - sb, 1.0), np.inf).min(axis=0)
            x[:, idx] = xb + alpha * (sb - xb)
            passive[:, idx] &= x[:, idx] > tol
            s[:, back] = _passive_solve(gram, atb[:, idx], passive[:, idx])
        x[:, cols] = s
        grad[:, cols] = atb[:, cols] - gram @ s


def _augment(matrix: np.ndarray) -> np.ndarray:
    """Stack the sum-to-one penalty row (every entry `_DELTA`) under `matrix`."""
    return np.vstack([matrix, np.full((1, matrix.shape[1]), _DELTA)])


def _objective(
    spectra: np.ndarray, abundances: np.ndarray, data: np.ndarray, resid: np.ndarray
) -> float:
    """||data - spectra abundances||^2, formed in the buffer `resid`."""
    np.matmul(spectra, abundances, out=resid)
    np.subtract(data, resid, out=resid)
    np.multiply(resid, resid, out=resid)
    return float(resid.sum())


def _settled(before: float, after: float, tol: float) -> bool:
    """The relative-change stopping test of one step."""
    return abs(before - after) <= tol * max(before, _EPS)


def _run_windows(step, objective, state: tuple, budget: int, tol: float) -> tuple:
    """Run up to `budget` calls of `step`, which updates the arrays of
    `state` in place, and stop at a settled step; return the traced
    objectives and the number of steps taken.

    The steps run in windows of `_WINDOW`, and `objective` is formed only
    after a window's last two steps, to test its last step. When that step
    is settled, the window is replayed from a checkpoint of `state`, one
    tested step at a time, up to its first settled step. So the loop stops
    where the per-step rule would, unless a settled step is followed in its
    window by a last step that is not: the loop then runs on. The trace
    holds the objective at step 0, at each window's end and at each
    replayed step."""
    trace = [objective()]
    saved = tuple(np.empty_like(a) for a in state)
    taken = 0
    while taken < budget:
        size = min(_WINDOW, budget - taken)
        for keep, a in zip(saved, state):
            np.copyto(keep, a)
        for _ in range(size - 1):
            step()
        before = objective() if size > 1 else trace[-1]
        step()
        after = objective()
        if not _settled(before, after, tol):
            trace.append(after)
            taken += size
            continue
        for keep, a in zip(saved, state):
            np.copyto(a, keep)
        for k in range(1, size + 1):
            step()
            trace.append(objective())
            if _settled(trace[-2], trace[-1], tol):
                return trace, taken + k
    return trace, taken


def cnmf_solve(
    y_h: SpectralImage,
    pan: SpectralImage,
    model: SensorModel,
    p: int,
    outer_iters: int = 2,
    inner_iters: int = 100,
    seed: int = 0,
    tol: float = 1e-6,
) -> CnmfResult:
    """Run the coupled factorization and return factors plus objective traces.

    Each outer iteration runs an HS loop (abundances and spectra against
    Y_H) and a PAN loop (abundances against the PAN) of at most
    `inner_iters` steps each. A loop stops at a step whose objective changed
    by at most `tol` of its previous value, tested once per window of
    `_WINDOW` steps (`_run_windows`). `hs_steps` and `pan_steps` count each
    loop's steps; its trace holds the objective at step 0, at each window's
    end and at each replayed step. Traced objectives include the sum-to-one
    penalty row, which is the quantity the multiplicative updates provably
    never increase.
    """
    for budget in (outer_iters, inner_iters):
        if not (is_integer(budget) and budget >= 1):
            raise ValueError(f"iteration budgets must be integers >= 1, got {budget!r}")
    ratio = check_model_pair(y_h, pan, model)
    data_h = np.maximum(y_h.data, 0.0)
    data_p = np.maximum(pan.data, 0.0)
    response = model.spectral_response

    spectra = vca(data_h, p, seed)
    # Nonnegative per-pixel unmixing against the VCA spectra seeds the
    # abundances; a flat start lets the first spectra updates drift away
    # from the vertices VCA already found.
    h_aug = _augment(spectra)
    y_aug = _augment(data_h)
    p_aug = _augment(data_p)
    abund_low = nnls_columns(h_aug, y_aug)
    # The spectra live in the top rows of h_aug, so each spectra update
    # rewrites them in place and h_aug serves the objective and the next
    # abundance step without restacking.
    spectra = h_aug[:-1]
    y_resid = np.empty_like(y_aug)
    p_resid = np.empty_like(p_aug)
    abund_high = None
    hs_traces, pan_traces, hs_steps, pan_steps = [], [], [], []

    for outer in range(outer_iters):
        if outer > 0:
            planes = abund_high.reshape(-1, pan.height, pan.width)
            low = degrade(planes, model.blur.taps, ratio)
            abund_low = np.maximum(low.reshape(planes.shape[0], -1), 0.0)

        def hs_step():
            _abundance_step(abund_low, h_aug.T @ y_aug, h_aug.T @ h_aug)
            spectra[...] = nmf_update_spectra(spectra, abund_low, data_h)

        trace, taken = _run_windows(
            hs_step,
            lambda: _objective(h_aug, abund_low, y_aug, y_resid),
            (abund_low, spectra),
            inner_iters,
            tol,
        )
        hs_traces.append(np.array(trace))
        hs_steps.append(taken)

        if abund_high is None:
            planes = abund_low.reshape(-1, y_h.height, y_h.width)
            abund_high = interpolate(planes, ratio, "bilinear").reshape(p, -1)
            np.maximum(abund_high, 0.0, out=abund_high)
        # The PAN loop updates only the abundances, so H^T Y and H^T H of the
        # stacked PAN spectra are formed once per loop, and each step forms
        # H^T H U in one reused buffer.
        hp_aug = _augment(response @ spectra)
        hty, hth = hp_aug.T @ p_aug, hp_aug.T @ hp_aug
        denom = np.empty_like(abund_high)
        trace, taken = _run_windows(
            lambda: _abundance_step(abund_high, hty, hth, denom),
            lambda: _objective(hp_aug, abund_high, p_aug, p_resid),
            (abund_high,),
            inner_iters,
            tol,
        )
        pan_traces.append(np.array(trace))
        pan_steps.append(taken)

    return CnmfResult(
        endmembers=Endmembers(spectra, abund_high),
        abundances_low=abund_low,
        hs_objectives=tuple(hs_traces),
        pan_objectives=tuple(pan_traces),
        hs_steps=tuple(hs_steps),
        pan_steps=tuple(pan_steps),
    )


def cnmf_stream(
    y_h: SpectralImage,
    pan: SpectralImage,
    model: SensorModel,
    p: int,
    outer_iters: int,
    inner_iters: int,
    seed: int = 0,
) -> BandStream:
    """Fused image H U from the coupled factorization."""
    result = cnmf_solve(y_h, pan, model, p, outer_iters, inner_iters, seed)
    ends = result.endmembers
    return BandStream.product(
        pan.height, pan.width, ends.spectra, ends.abundances, y_h.wavelengths
    )
