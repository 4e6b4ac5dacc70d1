"""Correctness checks for the outputs of one odecond command.

Every check is computed apart from the program or tests a property the
method must have; none compares against a saved copy of earlier output.
Each check returns a list of failure messages (empty when it passes), so a
caller can run them all and report every problem of an operation at once.

Reference values:

- the matrix exponential is a scaled Taylor series of t (A - r1 I), with
  r1 the largest real part of the spectrum; both condition numbers are
  invariant under that shift, and the shifted exponential stays finite
  where e^{tA} itself overflows;
- the extremes of f(alpha, x) = (1 + V cos(x + alpha)) / (1 - W cos alpha)
  over alpha come from a dense alpha grid with a local second pass;
- the maximum over alpha also solves |V e^{ix} + lam W| = lam - 1, a
  quadratic in lam, which gives H(x, beta) = fmax(x) / (1 + V cos(x + beta))
  without the program's extremizer angles.
"""
from __future__ import annotations

import math

import numpy as np

#: relative agreement of k_exact with the Taylor reference; the corrupted
#: value k_exact * (1 + 1e-6) must fail it
K_EXACT_RTOL = 1e-8
#: slack on the dominance certificate for rounding in k_exact / k_asym;
#: on non-normal 3x3 matrices the ratio carries errors near 2e-9
CERT_ATOL = 1e-7
#: relative agreement of closed-form extremes with the dense-grid values
GRID_RTOL = 1e-9


# ------------------------------------------------------------ exponential

def taylor_expm(B, terms=40):
    """e^B by scaling until ||B / 2^k||_1 <= 1/2, a truncated power series
    and k squarings."""
    B = np.asarray(B, dtype=float)
    n = B.shape[0]
    norm = float(np.abs(B).sum(axis=0).max()) if n else 0.0
    k = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    S = B / 2.0 ** k
    E = np.eye(n)
    term = np.eye(n)
    for j in range(1, terms + 1):
        term = term @ S / j
        E = E + term
        if np.abs(term).max() <= 1e-18 * np.abs(E).max():
            break
    for _ in range(k):
        E = E @ E
    return E


def _pnorm(u, p):
    return float(np.linalg.norm(u, p))


def reference_k_exact(A, y0, z0, p, t):
    """Exact condition number at t from the shifted Taylor exponential."""
    A = np.asarray(A, dtype=float)
    r1 = float(np.linalg.eigvals(A).real.max())
    E = taylor_expm(t * (A - r1 * np.eye(A.shape[0])))
    y0_hat = np.asarray(y0, dtype=float) / _pnorm(y0, p)
    denom = _pnorm(E @ y0_hat, p)
    if z0 is not None:
        return _pnorm(E @ np.asarray(z0, dtype=float), p) / denom
    return float(np.linalg.norm(E, p)) / denom


def check_indices(size):
    """A few grid points, always including the last one."""
    return sorted({0, size // 3, (2 * size) // 3, size - 1})


def check_k_exact(series, A, y0, z0, p):
    out = []
    t, ke = series["t"], series["k_exact"]
    for i in check_indices(t.size):
        ref = reference_k_exact(A, y0, z0, p, float(t[i]))
        if not (abs(ke[i] - ref) <= K_EXACT_RTOL * abs(ref)):
            out.append(f"k_exact[{i}] at t={t[i]:.6g} is {ke[i]!r}, "
                       f"reference {ref!r}")
    return out


# ------------------------------------------------------------ certificate

def check_bound_formula(series):
    """precision_bound = (eps_t + eps_tu) / (1 - eps_tu) where eps_tu < 1,
    infinite elsewhere."""
    et, eu, pb = series["eps_t"], series["eps_tu"], series["precision_bound"]
    if np.all(np.isnan(eu)):
        return [] if np.all(np.isinf(pb)) else \
            ["precision_bound is finite without dominance sums"]
    ok = eu < 1.0
    expect = np.where(ok, (et + eu) / np.where(ok, 1.0 - eu, 1.0), np.inf)
    bad = ~np.isclose(pb, expect, rtol=1e-12, atol=0.0)
    bad &= ~(np.isinf(pb) & np.isinf(expect))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        return [f"precision_bound[{i}] = {pb[i]!r} is not "
                f"(eps_t + eps_tu) / (1 - eps_tu) = {expect[i]!r}"]
    return []


def check_certificate(series, bound=None):
    """|k_exact / k_asym - 1| <= bound wherever eps_tu < 1.

    bound defaults to the program's precision_bound column."""
    ke, ka, eu = series["k_exact"], series["k_asym"], series["eps_tu"]
    if bound is None:
        bound = series["precision_bound"]
    cert = eu < 1.0
    gap = np.abs(ke / ka - 1.0)
    bad = cert & ~(gap <= bound + CERT_ATOL)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        return [f"certificate fails at {int(bad.sum())} of {int(cert.sum())} "
                f"certified samples; first t={series['t'][i]:.6g}: "
                f"gap {gap[i]:.6g} > bound {bound[i]:.6g}"]
    return []


def directional_bound(series, eps_z):
    """(eps(t, z0) + eps(t, y0_hat)) / (1 - eps(t, y0_hat)): the bound a
    directional condition number needs, from the dominance sum of z0."""
    eu = series["eps_tu"]
    ok = eu < 1.0
    return np.where(ok, (eps_z + eu) / np.where(ok, 1.0 - eu, 1.0), np.inf)


# ------------------------------------------------------- oscillating term

def check_ot_range(series, profile, euclidean):
    """ot_min <= ot(t) <= ot_max over the series; for p = 2 also
    a_min <= ot_min and ot_max <= a_max."""
    out = []
    ot = series["ot"]
    lo, hi = profile["ot_min"], profile["ot_max"]
    if lo is None or hi is None:
        return ["profile has no ot range"]
    below = ot < lo * (1.0 - GRID_RTOL)
    above = ot > hi * (1.0 + GRID_RTOL)
    if np.any(below) or np.any(above):
        out.append(f"ot spans [{ot.min():.6g}, {ot.max():.6g}] outside the "
                   f"reported range [{lo:.6g}, {hi:.6g}]")
    if euclidean and profile.get("block_kind") == "complex":
        a_min, a_max = profile["a_min"], profile["a_max"]
        if not (a_min <= lo * (1.0 + GRID_RTOL)
                and hi <= a_max * (1.0 + GRID_RTOL)):
            out.append(f"ot range [{lo:.6g}, {hi:.6g}] is outside the "
                       f"universal envelope [{a_min:.6g}, {a_max:.6g}]")
    return out


# ---------------------------------------------------------------- envelopes

def f_kernel(V, W, alpha, x):
    return (1.0 + V * np.cos(x + alpha)) / (1.0 - W * np.cos(alpha))


def _polished_extreme(fun, grid, sign):
    """Extreme of fun on a periodic grid, polished by a finer grid around
    the best grid point.  sign=+1 for the maximum, -1 for the minimum."""
    vals = sign * fun(grid)
    k = int(np.argmax(vals))
    h = grid[1] - grid[0]
    fine = np.linspace(grid[k] - 2.0 * h, grid[k] + 2.0 * h, 4097)
    return sign * max(vals[k], float(np.max(sign * fun(fine))))


def dense_f_extremes(V, W, x, points=16384):
    alphas = np.linspace(-math.pi, math.pi, points, endpoint=False)
    hi = _polished_extreme(lambda a: f_kernel(V, W, a, x), alphas, 1.0)
    lo = _polished_extreme(lambda a: f_kernel(V, W, a, x), alphas, -1.0)
    return hi, lo


def check_f_rows(V, W, xs, fmax, fmin, rows):
    """f_max / f_min at the given rows against a dense alpha grid."""
    out = []
    for i in rows:
        hi, lo = dense_f_extremes(V, W, float(xs[i]))
        if abs(fmax[i] - hi) > GRID_RTOL * abs(hi):
            out.append(f"f_max at x={xs[i]:.6g} is {fmax[i]!r}, "
                       f"dense grid {hi!r}")
        if abs(fmin[i] - lo) > GRID_RTOL * abs(lo):
            out.append(f"f_min at x={xs[i]:.6g} is {fmin[i]!r}, "
                       f"dense grid {lo!r}")
    return out


def fmax_quadratic(V, W, x):
    """max over alpha of f(alpha, x): the larger root of
    (1 - W^2) lam^2 - 2 (1 + V W cos x) lam + (1 - V^2) = 0."""
    b = 1.0 + V * W * np.cos(x)
    disc = np.maximum(b * b - (1.0 - W * W) * (1.0 - V * V), 0.0)
    # larger root in the cancellation-free form
    return (b + np.sqrt(disc)) / (1.0 - W * W)


def h_surface(V, W, x, beta):
    return fmax_quadratic(V, W, x) / (1.0 + V * np.cos(x + beta))


def check_h_rows(V, W, betas, h_max, h_min, rows, points=65536):
    """h_max / h_min at the given rows against a dense x grid of H."""
    out = []
    xs = np.linspace(-math.pi, math.pi, points, endpoint=False)
    for i in rows:
        b = float(betas[i])
        hi = _polished_extreme(lambda x: h_surface(V, W, x, b), xs, 1.0)
        lo = _polished_extreme(lambda x: h_surface(V, W, x, b), xs, -1.0)
        if abs(h_max[i] - hi) > GRID_RTOL * abs(hi):
            out.append(f"h_max at beta={b:.6g} is {h_max[i]!r}, "
                       f"dense grid {hi!r}")
        if abs(h_min[i] - lo) > GRID_RTOL * abs(lo):
            out.append(f"h_min at beta={b:.6g} is {h_min[i]!r}, "
                       f"dense grid {lo!r}")
    return out


#: relative agreement of a branch point's h with H(x, beta); the axis
#: family reports the closed form 1 / (1 - W cos beta), which the program
#: accepts up to an extremizer-angle tolerance of 1e-7
BRANCH_H_RTOL = 1e-6
#: step of the central differences at a branch point
BRANCH_DX = 1e-5


def check_branch_points(V, W, beta, x, h):
    """Each point's h against H(x, beta), and x a local extremum of
    H( . , beta) by central differences."""
    out = []
    H = h_surface(V, W, x, beta)
    bad = np.abs(h - H) > BRANCH_H_RTOL * np.abs(H)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        out.append(f"{int(bad.sum())} branch points have h off H(x, beta); "
                   f"first beta={beta[i]:.6g} x={x[i]:.6g}: h {h[i]!r}, "
                   f"H {H[i]!r}")
    d = BRANCH_DX
    Hp = h_surface(V, W, x + d, beta)
    Hm = h_surface(V, W, x - d, beta)
    # both neighbours on one side: an extremum, also where fmax has the
    # square-root corner of V = W, x = pi; otherwise the slope must vanish
    # to the O(d^2) truncation, which covers degenerate stationary points
    ulp = 1e-13 * np.abs(H)
    extremum = ((Hp <= H + ulp) & (Hm <= H + ulp)) \
        | ((Hp >= H - ulp) & (Hm >= H - ulp))
    slope = (Hp - Hm) / (2.0 * d)
    curv = (Hp - 2.0 * H + Hm) / d ** 2
    flat = np.abs(slope) <= 1e-6 * np.maximum(np.abs(H), 1.0) \
        + 1e-3 * d * np.abs(curv)
    bad = ~(extremum | flat)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        out.append(f"{int(bad.sum())} branch points are not stationary; "
                   f"first beta={beta[i]:.6g} x={x[i]:.6g}: "
                   f"dH/dx {slope[i]:.3g}")
    return out
