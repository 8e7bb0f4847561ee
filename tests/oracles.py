"""Independent brute-force oracles used by the test suite.

Everything here is written with explicit scalar loops and no shared code
with the package, so agreement is meaningful evidence of correctness.
Slow on purpose; keep inputs tiny. The one exception is
`oracle_hysure_loop`, which applies its per-axis products with
`sensorsim.separable` so that it can pin the solver bit for bit.
"""

import math

import numpy as np

from hspansharp.sensorsim import separable


def mirror_index(i: int, n: int) -> int:
    """Half-sample symmetric extension: ... 1 0 | 0 1 ... n-1 | n-1 ..."""
    if n == 1:
        return 0
    period = 2 * n
    j = i % period
    return j if j < n else period - 1 - j


def oracle_blur_cube(cube: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Separable symmetric-boundary convolution, one multiply at a time."""
    bands, height, width = cube.shape
    radius = len(taps) // 2
    tmp = np.zeros_like(cube)
    for b in range(bands):
        for y in range(height):
            for x in range(width):
                acc = 0.0
                for t in range(-radius, radius + 1):
                    acc += taps[t + radius] * cube[b, y, mirror_index(x + t, width)]
                tmp[b, y, x] = acc
    out = np.zeros_like(cube)
    for b in range(bands):
        for y in range(height):
            for x in range(width):
                acc = 0.0
                for t in range(-radius, radius + 1):
                    acc += taps[t + radius] * tmp[b, mirror_index(y + t, height), x]
                out[b, y, x] = acc
    return out


def oracle_blur_downsample(cube: np.ndarray, taps: np.ndarray, ratio: int, phase: int) -> np.ndarray:
    blurred = oracle_blur_cube(cube, taps)
    bands, height, width = cube.shape
    out = np.zeros((bands, height // ratio, width // ratio))
    for b in range(bands):
        for y in range(height // ratio):
            for x in range(width // ratio):
                out[b, y, x] = blurred[b, phase + y * ratio, phase + x * ratio]
    return out


def _oracle_cubic_weight(t: float) -> float:
    """Catmull-Rom kernel, a = -0.5."""
    a = -0.5
    t = abs(t)
    if t <= 1.0:
        return (a + 2.0) * t**3 - (a + 3.0) * t**2 + 1.0
    if t < 2.0:
        return a * t**3 - 5.0 * a * t**2 + 8.0 * a * t - 4.0 * a
    return 0.0


def _oracle_interp_taps(j: int, n: int, ratio: int, method: str) -> list:
    """(input index, weight) pairs for output sample j of one axis, which
    sits at input position (j - ratio // 2) / ratio."""
    pos = (j - ratio // 2) / ratio
    base = math.floor(pos)
    t = pos - base
    if method == "bilinear":
        return [(mirror_index(base, n), 1.0 - t), (mirror_index(base + 1, n), t)]
    return [(mirror_index(base + o, n), _oracle_cubic_weight(t - o)) for o in (-1, 0, 1, 2)]


def oracle_upsample(cube: np.ndarray, ratio: int, method: str) -> np.ndarray:
    """Separable bilinear or bicubic interpolation by an integer factor."""
    bands, height, width = cube.shape
    out = np.zeros((bands, height * ratio, width * ratio))
    for b in range(bands):
        for y in range(height * ratio):
            for x in range(width * ratio):
                acc = 0.0
                for iy, wy in _oracle_interp_taps(y, height, ratio, method):
                    for ix, wx in _oracle_interp_taps(x, width, ratio, method):
                        acc += wy * wx * cube[b, iy, ix]
                out[b, y, x] = acc
    return out


def oracle_synth_pan(data: np.ndarray, weights: np.ndarray) -> np.ndarray:
    bands, pixels = data.shape
    out = np.zeros(pixels)
    for j in range(pixels):
        acc = 0.0
        for b in range(bands):
            acc += weights[b] * data[b, j]
        out[j] = acc
    return out


def oracle_cc(a: np.ndarray, b: np.ndarray) -> float:
    bands, pixels = a.shape
    total = 0.0
    for k in range(bands):
        ma = sum(a[k]) / pixels
        mb = sum(b[k]) / pixels
        num = va = vb = 0.0
        for j in range(pixels):
            da = a[k, j] - ma
            db = b[k, j] - mb
            num += da * db
            va += da * da
            vb += db * db
        total += num / math.sqrt(va * vb)
    return total / bands


def oracle_sam(a: np.ndarray, b: np.ndarray) -> float:
    bands, pixels = a.shape
    total = 0.0
    for j in range(pixels):
        dot = na = nb = 0.0
        for k in range(bands):
            dot += a[k, j] * b[k, j]
            na += a[k, j] ** 2
            nb += b[k, j] ** 2
        cosv = dot / math.sqrt(na * nb)
        cosv = min(1.0, max(-1.0, cosv))
        total += math.degrees(math.acos(cosv))
    return total / pixels


def oracle_rmse(a: np.ndarray, b: np.ndarray) -> float:
    bands, pixels = a.shape
    acc = 0.0
    for k in range(bands):
        for j in range(pixels):
            acc += (a[k, j] - b[k, j]) ** 2
    return math.sqrt(acc / (bands * pixels))


def oracle_ergas(xhat: np.ndarray, x: np.ndarray, d: float) -> float:
    bands, pixels = x.shape
    acc = 0.0
    for k in range(bands):
        sq = 0.0
        for j in range(pixels):
            sq += (xhat[k, j] - x[k, j]) ** 2
        band_rmse = math.sqrt(sq / pixels)
        mean = sum(x[k]) / pixels
        acc += (band_rmse / mean) ** 2
    return 100.0 * d * math.sqrt(acc / bands)


def oracle_guided_filter(inp: np.ndarray, guide: np.ndarray, d: int, eps: float) -> np.ndarray:
    """Per-window least squares, then per-pixel averaging of (a, b) over
    every window containing the pixel; windows are clipped at borders."""
    height, width = inp.shape
    a = np.zeros((height, width))
    b = np.zeros((height, width))
    for cy in range(height):
        for cx in range(width):
            ys = range(max(0, cy - d), min(height, cy + d + 1))
            xs = range(max(0, cx - d), min(width, cx + d + 1))
            vals_i, vals_p = [], []
            for y in ys:
                for x in xs:
                    vals_i.append(guide[y, x])
                    vals_p.append(inp[y, x])
            n = len(vals_i)
            mi = sum(vals_i) / n
            mp = sum(vals_p) / n
            var = sum((v - mi) ** 2 for v in vals_i) / n
            cov = sum((vi - mi) * (vp - mp) for vi, vp in zip(vals_i, vals_p)) / n
            denom = var + eps
            ak = cov / denom if denom > 0 else 0.0
            a[cy, cx] = ak
            b[cy, cx] = mp - ak * mi
    out = np.zeros((height, width))
    for y in range(height):
        for x in range(width):
            acc_a = acc_b = 0.0
            count = 0
            for cy in range(max(0, y - d), min(height, y + d + 1)):
                for cx in range(max(0, x - d), min(width, x + d + 1)):
                    acc_a += a[cy, cx]
                    acc_b += b[cy, cx]
                    count += 1
            out[y, x] = (acc_a / count) * guide[y, x] + acc_b / count
    return out


def oracle_vtv(cube: np.ndarray) -> float:
    bands, height, width = cube.shape
    total = 0.0
    for y in range(height):
        for x in range(width):
            acc = 0.0
            for b in range(bands):
                dh = cube[b, y, (x + 1) % width] - cube[b, y, x]
                dv = cube[b, (y + 1) % height, x] - cube[b, y, x]
                acc += dh * dh + dv * dv
            total += math.sqrt(acc)
    return total


def oracle_degrade_axis(n: int, taps: np.ndarray, ratio: int, phase: int) -> np.ndarray:
    """One spatial axis of blur-then-decimate as a dense matrix: row y holds
    the mirrored tap weights of output sample phase + y * ratio."""
    radius = len(taps) // 2
    rows = []
    for i in range(phase, n, ratio):
        row = [0.0] * n
        for t in range(-radius, radius + 1):
            row[mirror_index(i + t, n)] += taps[t + radius]
        rows.append(row)
    return np.array(rows)


def oracle_bayes_naive_system(
    y_h: np.ndarray,
    pan: np.ndarray,
    basis: np.ndarray,
    response: np.ndarray,
    taps: np.ndarray,
    ratio: int,
    phase: int,
    height: int,
    width: int,
    hs_std: np.ndarray,
    pan_std: float,
    mu: np.ndarray,
    sigma: np.ndarray,
):
    """Dense normal equations (A, b) of the Gaussian-prior posterior over
    the row-major vec(U), U being p x (height * width), with positive noise
    stds:

        0.5 ||W_H (Y_H - H U S^T)||^2 + 0.5 ||(P - R H U) / pan_std||^2
        + 0.5 sum_pixels (U - mu)^T Sigma^-1 (U - mu),

    where S = kron(Dh, Dw) applies both axes of blur-then-decimate."""
    pixels = height * width
    spatial = np.kron(
        oracle_degrade_axis(height, taps, ratio, phase),
        oracle_degrade_axis(width, taps, ratio, phase),
    )
    weights = 1.0 / np.asarray(hs_std, dtype=np.float64)
    obs = np.vstack(
        [
            np.kron(weights[:, np.newaxis] * basis, spatial),
            np.kron(response @ basis, np.eye(pixels)) / pan_std,
        ]
    )
    data = np.concatenate(
        [(weights[:, np.newaxis] * y_h).ravel(), pan.ravel() / pan_std]
    )
    prior = np.kron(np.linalg.inv(sigma), np.eye(pixels))
    return obs.T @ obs + prior, obs.T @ data + prior @ mu.ravel()


def oracle_equalized_fusion(
    y_up: np.ndarray,
    pan: np.ndarray,
    pan_low: np.ndarray,
    lo: float,
    hi: float,
    gains: str,
) -> np.ndarray:
    """SFIM / MTF-GLP injection from its defining formula, band by band and
    pixel by pixel. y_up is bands x pixels, pan and pan_low hold one value
    per pixel:

        P_eq^k = (P - mean P) std(Y^k) / std(P_L) + mean(Y^k), likewise P_L,eq^k
        F^k = Y^k + G^k (P_eq^k - P_L,eq^k)

    with G = 1 ("additive") or Y^k / P_L,eq^k ("hpm"; 1 where
    |P_L,eq^k| < 1e-8 (hi - lo), and F clipped to [lo, hi]). std(P_L) at or
    below 1e-12 max(|P|, |P_L|) counts as zero."""
    bands, pixels = y_up.shape

    def mean(values):
        return sum(values) / len(values)

    def std(values):
        m = mean(values)
        return math.sqrt(sum((v - m) ** 2 for v in values) / len(values))

    p_mean = mean(pan)
    pl_std = std(pan_low)
    floor = 1e-12 * max(max(abs(v) for v in pan), max(abs(v) for v in pan_low))
    out = np.zeros((bands, pixels))
    for k in range(bands):
        band = list(y_up[k])
        scale = std(band) / pl_std if pl_std > floor else 0.0
        band_mean = mean(band)
        for j in range(pixels):
            p_eq = (pan[j] - p_mean) * scale + band_mean
            pl_eq = (pan_low[j] - p_mean) * scale + band_mean
            if gains == "additive":
                gain = 1.0
            elif abs(pl_eq) < 1e-8 * (hi - lo):
                gain = 1.0
            else:
                gain = band[j] / pl_eq
            value = band[j] + gain * (p_eq - pl_eq)
            if gains == "hpm":
                value = min(max(value, lo), hi)
            out[k, j] = value
    return out


def oracle_cnmf_loops(
    data_h: np.ndarray,
    data_p: np.ndarray,
    response: np.ndarray,
    spectra: np.ndarray,
    abund_low: np.ndarray,
    to_low,
    to_high,
    update_spectra,
    update_abundances,
    outer_iters: int,
    inner_iters: int,
    delta: float,
    tol: float,
):
    """CNMF's alternating loops as published (Yokoya, Yairi & Iwasaki, 2012),
    with nothing hoisted: every step restacks the sum-to-one penalty row with
    np.vstack, recomputes its products inside the update, and forms the
    objective from a fresh residual. The update steps, the initial factors
    and the maps between the two resolutions (`to_low`, `to_high`) are passed
    in. Returns the spectra, both abundances and the HS and PAN traces."""

    def augment(matrix):
        return np.vstack([matrix, np.full((1, matrix.shape[1]), delta)])

    def objective(h, u, y):
        resid = y - h @ u
        return float((resid * resid).sum())

    def stop(trace):
        return abs(trace[-2] - trace[-1]) <= tol * max(trace[-2], 1e-12)

    y_aug = augment(data_h)
    p_aug = augment(data_p)
    abund_high = None
    hs_traces, pan_traces = [], []
    for outer in range(outer_iters):
        if outer > 0:
            abund_low = to_low(abund_high)
        trace = [objective(augment(spectra), abund_low, y_aug)]
        for _ in range(inner_iters):
            abund_low = update_abundances(augment(spectra), abund_low, y_aug)
            spectra = update_spectra(spectra, abund_low, data_h)
            trace.append(objective(augment(spectra), abund_low, y_aug))
            if stop(trace):
                break
        hs_traces.append(np.array(trace))
        if abund_high is None:
            abund_high = to_high(abund_low)
        trace = [objective(augment(response @ spectra), abund_high, p_aug)]
        for _ in range(inner_iters):
            abund_high = update_abundances(
                augment(response @ spectra), abund_high, p_aug
            )
            trace.append(objective(augment(response @ spectra), abund_high, p_aug))
            if stop(trace):
                break
        pan_traces.append(np.array(trace))
    return spectra, abund_low, abund_high, hs_traces, pan_traces


def periodic_differences(u: np.ndarray):
    """The periodic forward differences x[i + 1] - x[i] of a stack of
    planes along the width and the height."""
    return np.roll(u, -1, axis=-1) - u, np.roll(u, -1, axis=-2) - u


def periodic_differences_adjoint(dh: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """D_h^T dh + D_v^T dv for `periodic_differences`: x[i - 1] - x[i]."""
    return (np.roll(dh, 1, axis=-1) - dh) + (np.roll(dv, 1, axis=-2) - dv)


def _zero_padded(x: np.ndarray, axis: int, front: bool) -> np.ndarray:
    """x with one zero sample put in front of, or after, its samples along
    `axis`."""
    zero = np.zeros_like(np.take(x, [0], axis=axis))
    return np.concatenate([zero, x] if front else [x, zero], axis=axis)


def neumann_differences(u: np.ndarray):
    """The forward differences along the width and the height of a stack of
    planes, the last one of each line zero (the reflect extension's)."""
    return (
        _zero_padded(np.diff(u, axis=-1), -1, front=False),
        _zero_padded(np.diff(u, axis=-2), -2, front=False),
    )


def neumann_differences_adjoint(dh: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """D_h^T dh + D_v^T dv for `neumann_differences`: y[i - 1] - y[i], each
    term present where its index is a difference (the last sample of a line
    is none)."""
    dh, dv = dh[..., :-1], dv[..., :-1, :]
    across = _zero_padded(dh, -1, front=True) - _zero_padded(dh, -1, front=False)
    return (across - _zero_padded(dv, -2, front=False)) + _zero_padded(dv, -2, front=True)


def oracle_hysure_loop(
    data_h: np.ndarray,
    data_p: np.ndarray,
    basis: np.ndarray,
    response: np.ndarray,
    u0: np.ndarray,
    axes,
    differences,
    ratio: int,
    phase: int,
    lambda_m: float,
    lambda_phi: float,
    admm_mu: float,
    tol: float,
    max_iters: int,
):
    """HySure's ADMM loop in the site form, with named splittings and duals
    and a rollback: the blurred splitting `v_b` and its dual `d_b` hold the
    Y_H sites only, the two difference fields and their duals are whole
    planes, each step returns its whole state, and a step whose objective
    rises is discarded, the penalty doubled, the duals halved and the whole
    step retried. The coefficients are rotated into the eigenvectors of
    lambda_m (R H)^T R H, so the U step divides each coefficient of the
    per-axis transform Q_h U Q_w^T once, and the data term is read at the
    sites, as ||H^T Y_H - S B U||^2 past the constant ||Y_H - H H^T Y_H||^2
    (H orthonormal).

    `axes` holds, for the height and then the width, an orthonormal basis
    Q, the blur's eigenvalues b in it (Q B Q^T = diag(b)) and the
    eigenvalues of the axis differences' D^T D in it; `differences` is the
    pair (differences, adjoint) of the boundary model, each taking and
    giving the width and height fields separately. As B Q^T = Q^T diag(b),
    S B U is the product with each axis's site columns of Q scaled by b,
    and the transform of B^T S^T E the product with their transposes. The
    products go through `sensorsim.separable`, so that the loop's rounding
    is the package's. The U step's right-hand side takes the blur as b_h^2
    b_w^2 times the previous U's transform plus the transform of B^T S^T E,
    E = v_b + d_b - S B U_prev. `u0` (p x height x width) is the initial
    coefficient field. Returns U (p x pixels), the objective trace, the
    iterations, whether the relative change of U fell below `tol`, and the
    number of penalty doublings."""
    p, h, w = u0.shape
    mu = admm_mu
    diff, diff_adjoint = differences
    (qh, beta_h, eig_v), (qw, beta_w, eig_h) = axes

    def joint_norms(dh, dv):
        pair = np.stack([dh, dv])
        return np.sqrt(np.einsum("kpij,kpij->ij", pair, pair))

    site_h = qh[:, phase::ratio] * beta_h[:, np.newaxis]
    site_w = qw[:, phase::ratio] * beta_w[:, np.newaxis]

    def forward(planes):
        return separable(qh, planes, qw)

    def at_sites(coeffs):
        return separable(site_h.T, coeffs, site_w.T)

    gram_b = np.outer(beta_h, beta_w) ** 2
    psi = gram_b + eig_h[np.newaxis, :] + eig_v[:, np.newaxis]

    rh = response @ basis
    evals, evecs = np.linalg.eigh(lambda_m * (rh.T @ rh))
    evals = np.maximum(evals, 0.0)[:, np.newaxis, np.newaxis]
    h_rot, r_rot = basis @ evecs, rh @ evecs
    proj = h_rot.T @ data_h
    outside = float(((data_h - h_rot @ proj) ** 2).sum())
    hty = proj.reshape(p, h // ratio, w // ratio)
    pan_term = lambda_m * (r_rot.T @ data_p).reshape(p, h, w)

    def objective(u, ub, uh, uv):
        resid_m = data_p - r_rot @ u.reshape(p, -1)
        return (
            0.5 * (outside + float(((hty - ub) ** 2).sum()))
            + 0.5 * lambda_m * float((resid_m**2).sum())
            + lambda_phi * float(joint_norms(uh, uv).sum())
        )

    u = (evecs.T @ u0.reshape(p, -1)).reshape(p, h, w)
    u_coeffs = forward(u)
    ub = at_sites(u_coeffs)
    gram = u_coeffs * gram_b
    v_b = ub.copy()
    v_h, v_v = diff(u)
    d_b, d_h, d_v = np.zeros_like(v_b), np.zeros_like(v_h), np.zeros_like(v_v)
    trace = [objective(u, ub, v_h, v_v)]
    converged = False
    iterations = 0
    escalations = 0

    def iterate(ub, gram, v_b, v_h, v_v, d_b, d_h, d_v, mu):
        s = diff_adjoint(v_h + d_h, v_v + d_v)
        s = s * mu + pan_term
        coupling = (separable(site_h, v_b + d_b - ub, site_w) + gram) * mu
        u_coeffs = (forward(s) + coupling) / (psi * mu + evals)
        u = separable(qh.T, u_coeffs, qw.T)
        ub = at_sites(u_coeffs)
        uh, uv = diff(u)

        v_b = (hty + mu * (ub - d_b)) / (1.0 + mu)
        nu_h, nu_v = uh - d_h, uv - d_v
        if lambda_phi > 0:
            t = lambda_phi / mu
            factor = 1.0 - t / np.maximum(joint_norms(nu_h, nu_v), t)
            v_h, v_v = nu_h * factor, nu_v * factor
        else:
            v_h, v_v = nu_h, nu_v

        value = objective(u, ub, uh, uv)
        state = (
            u, ub, u_coeffs * gram_b, v_b, v_h, v_v,
            d_b - (ub - v_b), d_h - (uh - v_h), d_v - (uv - v_v),
        )
        return state, value

    for iterations in range(1, max_iters + 1):
        while True:
            state, value = iterate(ub, gram, v_b, v_h, v_v, d_b, d_h, d_v, mu)
            if value <= trace[-1] * (1.0 + 1e-9) or escalations >= 30:
                break
            mu *= 2.0
            d_b /= 2.0
            d_h /= 2.0
            d_v /= 2.0
            escalations += 1
        u_prev = u
        u, ub, gram, v_b, v_h, v_v, d_b, d_h, d_v = state

        trace.append(value)
        change = np.linalg.norm(u - u_prev) / max(np.linalg.norm(u_prev), 1e-30)
        if change < tol:
            converged = True
            break

    return evecs @ u.reshape(p, -1), np.array(trace), iterations, converged, escalations


def cyclic_kernel_rfft(taps: np.ndarray, height: int, width: int) -> np.ndarray:
    """Half spectrum (rfft2, height x (width // 2 + 1)) of the cyclic blur
    whose taps wrap around a height x width grid."""
    radius = taps.size // 2
    kern2 = np.outer(taps, taps)
    grid = np.zeros((height, width))
    rows = np.arange(-radius, radius + 1) % height
    cols = np.arange(-radius, radius + 1) % width
    np.add.at(grid, (rows[:, np.newaxis], cols[np.newaxis, :]), kern2)
    return np.fft.rfft2(grid)


def oracle_hysure_full_grid_loop(
    data_h: np.ndarray,
    data_p: np.ndarray,
    basis: np.ndarray,
    response: np.ndarray,
    u0: np.ndarray,
    taps: np.ndarray,
    ratio: int,
    phase: int,
    lambda_m: float,
    lambda_phi: float,
    admm_mu: float,
    tol: float,
    max_iters: int,
):
    """The loop of `oracle_hysure_loop` in the whole-grid form: three named
    splittings on the whole grid (the blurred image, off the sites the
    identity's prox of B U, and the two periodic difference fields), three
    scaled duals, the unrotated coefficients, a right-hand side that blurs
    the splitting by conj(fb), and a rollback: each step returns its whole
    state, and a step whose objective rises is discarded, the penalty
    doubled, the duals halved and the whole step retried. The blur is
    cyclic, its half spectrum fb (`cyclic_kernel_rfft`) that of the `taps`
    wrapped around the grid, and the differences periodic. `u0` (p x height
    x width) is the initial coefficient field. Returns U (p x pixels), the
    objective trace, the iterations, whether the relative change of U fell
    below `tol`, and the number of penalty doublings."""
    p, h, w = u0.shape
    mu = admm_mu
    fb = cyclic_kernel_rfft(taps, h, w)

    def diff(cube, axis, adjoint=False):
        return np.roll(cube, 1 if adjoint else -1, axis=axis) - cube

    def tv(dh, dv):
        return float(np.sqrt((dh**2 + dv**2).sum(axis=0)).sum())

    fb_conj = np.conj(fb)
    mh = np.exp(2j * np.pi * np.fft.rfftfreq(w))[np.newaxis, :] - 1.0
    mv = np.exp(2j * np.pi * np.fft.fftfreq(h))[:, np.newaxis] - 1.0
    psi = (np.abs(fb) ** 2 + np.abs(mh) ** 2 + np.abs(mv) ** 2).ravel()

    rh = response @ basis
    evals, evecs = np.linalg.eigh(lambda_m * (rh.T @ rh))
    evals = np.maximum(evals, 0.0)

    sites = (slice(None), slice(phase, None, ratio), slice(phase, None, ratio))
    hty = (basis.T @ data_h).reshape(p, h // ratio, w // ratio)
    pan_term = lambda_m * (rh.T @ data_p).reshape(p, h, w)

    def objective(u, ub, uh, uv):
        resid_h = data_h - basis @ ub[sites].reshape(p, -1)
        resid_m = data_p - rh @ u.reshape(p, -1)
        return (
            0.5 * float((resid_h**2).sum())
            + 0.5 * lambda_m * float((resid_m**2).sum())
            + lambda_phi * tv(uh, uv)
        )

    u = u0
    v1 = np.fft.irfft2(np.fft.rfft2(u) * fb, s=(h, w))
    v2 = diff(u, 2)
    v3 = diff(u, 1)
    d1 = np.zeros_like(v1)
    d2 = np.zeros_like(v2)
    d3 = np.zeros_like(v3)
    trace = [objective(u, v1, v2, v3)]
    converged = False
    iterations = 0
    escalations = 0

    def iterate(v1, v2, v3, d1, d2, d3, mu):
        rhs_hat = np.fft.rfft2(
            pan_term
            + mu * diff(v2 + d2, 2, adjoint=True)
            + mu * diff(v3 + d3, 1, adjoint=True)
        ) + mu * fb_conj * np.fft.rfft2(v1 + d1)
        z = evecs.T @ rhs_hat.reshape(p, -1)
        z /= evals[:, np.newaxis] + mu * psi[np.newaxis, :]
        u_hat = (evecs @ z).reshape((p,) + fb.shape)
        u = np.fft.irfft2(u_hat, s=(h, w))
        ub = np.fft.irfft2(u_hat * fb, s=(h, w))

        nu1 = ub - d1
        v1 = nu1.copy()
        v1[sites] = (hty + mu * nu1[sites]) / (1.0 + mu)

        uh, uv = diff(u, 2), diff(u, 1)
        nu2 = uh - d2
        nu3 = uv - d3
        norms = np.sqrt((nu2**2 + nu3**2).sum(axis=0, keepdims=True))
        shrink = np.maximum(0.0, 1.0 - (lambda_phi / mu) / np.where(norms > 0, norms, 1.0))
        shrink = np.where(norms > 0, shrink, 0.0)
        v2 = shrink * nu2
        v3 = shrink * nu3

        value = objective(u, ub, uh, uv)
        state = (u, v1, v2, v3, d1 - (ub - v1), d2 - (uh - v2), d3 - (uv - v3))
        return state, value

    for iterations in range(1, max_iters + 1):
        while True:
            state, value = iterate(v1, v2, v3, d1, d2, d3, mu)
            if value <= trace[-1] * (1.0 + 1e-9) or escalations >= 30:
                break
            mu *= 2.0
            d1 /= 2.0
            d2 /= 2.0
            d3 /= 2.0
            escalations += 1
        u_prev = u
        u, v1, v2, v3, d1, d2, d3 = state

        trace.append(value)
        change = np.linalg.norm(u - u_prev) / max(np.linalg.norm(u_prev), 1e-30)
        if change < tol:
            converged = True
            break

    return u.reshape(p, -1), np.array(trace), iterations, converged, escalations
