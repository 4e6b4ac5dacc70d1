"""Independent brute-force references used by the test suite.

Apart from the references from curvature_extrema on, nothing here
touches the library's closed forms: the matrix exponential is a scaled Taylor series,
maxima come from dense grids or sphere sampling followed by a local
polish.  Slow on purpose; correctness is the only goal.  The direct
envelope sweep and stationary roots reuse the kernel's closed forms but
lay H and the stationarity residual out as full (beta, x) grids, one
transcendental per cell, and bisect each sign change: the companion
solve of `minimax` must find their roots and match their envelopes.  The
one-midpoint tracer is the branch tracer as it was before it solved its
halving midpoints in batches: the tracer must reproduce its branches and
warnings bit for bit.  The curvature-classified extremizer is the
kernel's angle solve as it was before it took the maximizer from the
arcsin branch: the two must agree bit for bit.  The cosine Theta norm is
the 1- and max-norm oscillation factor as it was before it took the real
part of e^{i omega t} v_hat w_hat: one cosine per entry, of a phase
rounded at the size of omega t.
"""
import warnings

import numpy as np
import scipy.linalg
import scipy.optimize

from odecond import minimax
from odecond.errors import BranchLost
from odecond.oscillator import (
    _U_FLOOR_FACTOR,
    VWPair,
    _alpha_extrema_arrays,
    f_vw_max,
    wrap_angle,
)


def taylor_expm(A, t=1.0, terms=60):
    """e^{tA} by scaling until ||tA / 2^k||_2 <= 0.5, a 60-term power
    series, and k repeated squarings, in long double where the platform
    has it: on a far-from-normal matrix the squarings amplify the
    rounding, and in double the demo matrix at t = 6.265625 came out
    1.1e-10 off a 50-digit reference (1.2e-12 in x87 long double).  t A
    is formed in long double too, so a t that is not a power of two does
    not round the oracle's own input."""
    M = np.asarray(A, dtype=float).astype(np.longdouble) * np.longdouble(t)
    norm = scipy.linalg.svdvals(M.astype(float))[0] if M.size else 0.0
    k = 0
    while norm > 0.5:
        norm /= 2.0
        k += 1
    S = M / (2.0 ** k)
    E = np.eye(M.shape[0], dtype=np.longdouble)
    term = E.copy()
    for j in range(1, terms + 1):
        term = term @ S / j
        E = E + term
    for _ in range(k):
        E = E @ E
    return E.astype(float)


def sphere_max(fun, n, rng, samples=10 ** 4, refine=True, rounds=3):
    """Maximum of fun(u) over real unit vectors u.

    fun must accept a batch (m, n) array and return (m,) values.  The best
    sample is polished with Nelder-Mead in tangent coordinates around the
    current best point (the radial direction is factored out, otherwise the
    simplex stalls on the scale-invariant ray), re-centering a few times.
    """
    us = rng.normal(size=(samples, n))
    us /= np.linalg.norm(us, axis=1, keepdims=True)
    vals = fun(us)
    best = int(np.argmax(vals))
    u0, v0 = us[best], vals[best]
    if not refine:
        return v0, u0

    for _ in range(rounds):
        T = scipy.linalg.null_space(u0[None, :])  # (n, n-1) tangent basis

        def neg(theta):
            z = u0 + T @ theta
            return -float(fun((z / np.linalg.norm(z))[None, :])[0])

        res = scipy.optimize.minimize(
            neg, np.zeros(n - 1), method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 6000,
                     "initial_simplex": _init_simplex(n - 1, 1e-2)})
        z = u0 + T @ res.x
        z /= np.linalg.norm(z)
        v1 = float(fun(z[None, :])[0])
        if v1 > v0:
            u0, v0 = z, v1
        else:
            break
    return v0, u0


def _init_simplex(dim, size):
    s = np.zeros((dim + 1, dim))
    s[1:] = np.eye(dim) * size
    return s


def _f_vw_values(V, W, alphas, x):
    return (1.0 + V * np.cos(x + alphas)) / (1.0 - W * np.cos(alphas))


def _polish_1d(fun, lo, hi, sign):
    res = scipy.optimize.minimize_scalar(
        lambda a: sign * fun(a), bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-13})
    return sign * res.fun


def grid_extreme_f(V, W, x, npts=10 ** 5, which="max"):
    """Extreme of alpha -> (1+V cos(x+alpha))/(1-W cos alpha) by a dense
    grid and a bounded 1-D polish around the best cell."""
    alphas = np.linspace(-np.pi, np.pi, npts, endpoint=False)
    vals = _f_vw_values(V, W, alphas, x)
    idx = int(np.argmax(vals) if which == "max" else np.argmin(vals))
    step = 2 * np.pi / npts
    lo, hi = alphas[idx] - step, alphas[idx] + step
    fun = lambda a: float(_f_vw_values(V, W, np.asarray(a), x))
    return _polish_1d(fun, lo, hi, -1.0 if which == "max" else 1.0)


def grid_extreme_1d(fun, lo, hi, npts=10 ** 5, which="max"):
    """Extreme of a scalar function on [lo, hi] by grid plus bounded polish.
    fun must accept a numpy array."""
    xs = np.linspace(lo, hi, npts)
    vals = np.asarray(fun(xs), dtype=float)
    idx = int(np.argmax(vals) if which == "max" else np.argmin(vals))
    a = max(lo, xs[idx] - (hi - lo) / (npts - 1))
    b = min(hi, xs[idx] + (hi - lo) / (npts - 1))
    scalar = lambda x: float(np.asarray(fun(np.asarray([x])))[0])
    return _polish_1d(scalar, a, b, -1.0 if which == "max" else 1.0)


def curvature_extrema(p, x):
    """(amax, amin) of alpha -> f(alpha, x), reduced to (-pi, pi]: the two
    stationary angles of the arcsin solve, told apart by the sign of the
    curvature |U| (-cos(theta_U + alpha)) / (1 - W cos alpha)^2, with the
    continuity limits where |U| is below the kernel's floor."""
    x = np.asarray(x, dtype=float)
    U = p.V * np.exp(1j * x) + p.W
    absU, thU = np.abs(U), np.angle(U)
    tiny = absU <= _U_FLOOR_FACTOR * (p.V + p.W)
    safe = np.where(tiny, 1.0, absU)
    s = np.clip(p.V * p.W * np.sin(x) / safe, -1.0, 1.0)
    asn = np.arcsin(s)
    a1 = asn - thU
    a2 = np.pi - asn - thU
    c1, c2 = (absU * (-np.cos(thU + a)) / (1.0 - p.W * np.cos(a)) ** 2
              for a in (a1, a2))
    amax = np.where(c1 <= c2, a1, a2)
    amin = np.where(c1 <= c2, a2, a1)
    if np.any(tiny):
        x0 = wrap_angle(x)
        g = np.sin(x0 / 2.0)
        aE_max = np.arcsin(p.V * g) - x0 / 2.0
        aE_min = np.pi - np.arcsin(p.V * g) - x0 / 2.0
        amax = np.where(tiny, aE_max, amax)
        amin = np.where(tiny, aE_min, amin)
    return wrap_angle(amax), wrap_angle(amin)


#: a grid point with a residual this small is itself a root
ON_GRID_TOL = 1e-13


def direct_grid_roots(p, xs, amax_xs, betas):
    """Stationary points of H( . , beta) for every beta from the full
    residual grid -sin(x + amax) + sin(x + beta) - V sin(amax - beta):
    (on_grid, root, row), each sign change polished by 48 bisections."""
    D = minimax._residual(p.V, xs, amax_xs, betas[:, None])
    on_grid = np.nonzero(np.abs(D) <= ON_GRID_TOL)
    neg = np.signbit(D)
    row, i_idx = np.nonzero(neg != np.roll(neg, -1, axis=1))
    dlo = D[row, i_idx]
    lo = xs[i_idx]
    hi = lo + 2.0 * np.pi / xs.size
    bb = betas[row]
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        am, _ = _alpha_extrema_arrays(p, mid)
        dm = minimax._residual(p.V, mid, am, bb)
        same = np.signbit(dm) == np.signbit(dlo)
        lo = np.where(same, mid, lo)
        dlo = np.where(same, dm, dlo)
        hi = np.where(same, hi, mid)
    return on_grid, 0.5 * (lo + hi), row


def _direct_grid(V, W, n):
    xs = np.linspace(-np.pi, np.pi, n, endpoint=False)
    p = VWPair(V, W)
    amax, _ = _alpha_extrema_arrays(p, xs)
    return xs, np.asarray(f_vw_max(p, xs)), amax


def direct_envelope_sweep(p, betas, grid_points=4096):
    """(h_max, h_min, argmax_x, argmin_x) of H over x for every beta, with
    H evaluated as fmax / (1 + V cos(x + beta)) on the full grid."""
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    xs, fmax_xs, amax_xs = _direct_grid(p.V, p.W, grid_points)
    Hgrid = fmax_xs / (1.0 + p.V * np.cos(xs + betas[:, None]))
    rows = np.arange(betas.size)
    i_hi = Hgrid.argmax(axis=1)
    i_lo = Hgrid.argmin(axis=1)
    hi_val, lo_val = Hgrid[rows, i_hi], Hgrid[rows, i_lo]
    hi_arg, lo_arg = xs[i_hi], xs[i_lo]
    _, root, row = direct_grid_roots(p, xs, amax_xs, betas)
    hval = minimax.h_func(p, root, betas[row])
    minimax._merge_roots(hi_val, hi_arg, hval, root, row, 1.0)
    minimax._merge_roots(lo_val, lo_arg, hval, root, row, -1.0)
    return hi_val, lo_val, wrap_angle(hi_arg), wrap_angle(lo_arg)


def direct_stationary_roots(p, betas, grid_points=2048):
    """Sorted stationary points in (-pi, pi] for each beta, from the full
    residual grid: on-grid hits and good polished roots, merged when
    closer than the merge tolerance."""
    betas = np.asarray(betas, dtype=float)
    xs, _, amax_xs = _direct_grid(p.V, p.W, grid_points)
    (g_row, g_idx), mid, row = direct_grid_roots(p, xs, amax_xs, betas)
    am, _ = _alpha_extrema_arrays(p, mid)
    good = (np.abs(minimax._residual(p.V, mid, am, betas[row]))
            <= minimax._RESIDUAL_TOL)
    cuts = np.arange(1, betas.size)
    on_grid = np.split(xs[g_idx], np.searchsorted(g_row, cuts))
    polished = np.split(mid[good], np.searchsorted(row[good], cuts))
    out = []
    for grid_hits, mids in zip(on_grid, polished):
        roots = np.sort(wrap_angle(np.concatenate((grid_hits, mids))))
        keep = list(roots[:1])
        for r in roots[1:]:
            if r - keep[-1] > minimax._MERGE_TOL:
                keep.append(r)
        if (len(keep) > 1 and abs(wrap_angle(keep[0] - keep[-1]))
                <= minimax._MERGE_TOL):
            keep.pop()
        out.append(np.asarray(keep))
    return out


def argmin_match(prev_x, roots):
    """The tracer's greedy nearest-neighbour match, one np.argmin per
    pair: {prev index: root index} in the order the pairs are taken."""
    assign = {}
    if len(prev_x) and len(roots):
        dist = np.abs(wrap_angle(np.asarray(prev_x)[:, None]
                                 - np.asarray(roots)[None, :]))
        while True:
            i, j = np.unravel_index(np.argmin(dist), dist.shape)
            if (not np.isfinite(dist[i, j])
                    or dist[i, j] > minimax._TRUST_RADIUS):
                break
            assign[int(i)] = int(j)
            dist[i, :] = np.inf
            dist[:, j] = np.inf
    return assign


def one_midpoint_trace(p, beta_grid):
    """Stationary-point branches as the tracer followed them before its
    halving midpoints were solved in batches: the grid in one batch, and
    each midpoint alone when the depth-first halving first reaches it,
    matched by argmin_match.
    Returns the polylines; BranchLost warnings are raised as the tracer
    raises them."""
    beta_grid = np.asarray(beta_grid, dtype=float)
    solved = dict(zip(beta_grid.tolist(),
                      minimax._branch_points(p, beta_grid)))

    def points_at(beta):
        if beta not in solved:
            solved[beta] = minimax._branch_points(p, [beta])[0]
        return solved[beta]

    active = [minimax._OpenBranch(beta_grid[0], *pt)
              for pt in zip(*points_at(beta_grid[0]))]
    done = []

    def step(b0, b1, depth):
        nonlocal active
        roots, axis, h = points_at(b1)
        assign = argmin_match([br.xs[-1] for br in active], roots)
        taken = np.zeros(len(roots), dtype=bool)
        taken[list(assign.values())] = True
        lost = [i for i in range(len(active)) if i not in assign]
        if lost and depth < minimax._MAX_HALVINGS:
            mid = 0.5 * (b0 + b1)
            step(b0, mid, depth + 1)
            step(mid, b1, depth + 1)
            return
        for i, j in assign.items():
            active[i].extend(b1, roots[j], axis[j], h[j])
        survivors = []
        for i, br in enumerate(active):
            if i in assign:
                survivors.append(br)
            else:
                warnings.warn(
                    f"branch lost at beta={b1:.6g} (last x={br.xs[-1]:.6g})",
                    BranchLost)
                done.append(br.close())
        for j in np.nonzero(~taken)[0]:
            survivors.append(minimax._OpenBranch(b1, roots[j], axis[j], h[j]))
        active = survivors

    for b0, b1 in zip(beta_grid[:-1], beta_grid[1:]):
        step(b0, b1, 0)
    done.extend(br.close() for br in active)
    return done


def cosine_theta_norm_p(block, t, u=None):
    """The Theta norm of a block analyzed with p in {1, inf} at one t,
    entry by entry: |v_k| |w_l| cos(omega t + alpha_k + beta_l) for the
    matrix, |v_k| cos(omega t + alpha_k + gamma(u)) for the vector, with
    alpha, beta the angles of v_hat, w_hat and gamma that of w_hat u."""
    mv, av = np.abs(block.v_hat), np.angle(block.v_hat)
    wt = block.omega * float(t)
    if u is None:
        mw, aw = np.abs(block.w_hat), np.angle(block.w_hat)
        Th = mv[:, None] * mw[None, :] * np.cos(
            wt + av[:, None] + aw[None, :])
        return float(np.linalg.norm(Th, block.norm_p))
    gamma = np.angle(block.w_hat @ np.asarray(u, dtype=float))
    return float(np.linalg.norm(mv * np.cos(wt + av + gamma), block.norm_p))
