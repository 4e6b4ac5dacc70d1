"""Envelopes of the periodic condition-number factor.

The object of study is

    H(x, beta) = fmax(x) / (1 + V cos(x + beta)),

where fmax is the closed-form maximum of the oscillation kernel over its
free angle.  Maximizing and minimizing H over x for each beta gives the
envelopes of the worst-case oscillating term; their extreme values over
beta have closed forms split by the threshold Q1 = (V / 2W)(1 + W).

Stationary points of H( . , beta) satisfy

    -sin(x + amax(x)) + sin(x + beta) - V sin(amax(x) - beta) = 0

with amax the maximizing angle of the kernel.  They are solved for a whole
beta grid in one batch: sign changes of this residual on a dense
(beta, x) grid bracket them, and one bisection polishes every bracket of
every beta at once.  The envelope sweep takes its extremes from them; the
branch tracer solves its beta grid up front, each halving midpoint once,
and follows them across beta for diagnostics.  Envelopes and extremes
hold on all of [0, 1)^2; the beta = 0 analysis and the branch tracer need
the open square (0, 1)^2.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import BranchLost
from .oscillator import VWPair, _alpha_extrema_arrays, f_vw_max, wrap_angle

__all__ = [
    "BranchPolyline",
    "CriticalPointData",
    "HEnvelope",
    "HExtremes",
    "critical_points_beta0",
    "h_envelope",
    "h_envelope_sweep",
    "h_extremes",
    "h_func",
    "h_second_derivatives",
    "stationarity_residual",
    "trace_branches",
]

_DEFAULT_GRID = 4096
#: a polished bracket is a root below this; one across a jump of amax is not
_RESIDUAL_TOL = 1e-11
#: a grid point with a residual this small is itself a root
_ON_GRID_TOL = 1e-13
#: roots this close (circularly) are one root found twice
_MERGE_TOL = 1e-8
_TRUST_RADIUS = 0.3
_MAX_HALVINGS = 12
#: stationary solutions with the extremizer angle within this of beta
#: (mod 2 pi) belong to the axis family and carry h = 1/(1 - W cos beta)
_AXIS_TOL = 1e-7


def _open_unit(p: VWPair):
    if not (0.0 < p.V < 1.0 and 0.0 < p.W < 1.0):
        raise ValueError("V and W must lie in the open interval (0, 1)")


def h_func(p: VWPair, x, beta):
    """H(x, beta); broadcasts over both arguments."""
    x = np.asarray(x, dtype=float)
    val = f_vw_max(p, x) / (1.0 + p.V * np.cos(x + np.asarray(beta, dtype=float)))
    return val if np.ndim(val) else float(val)


def _residual(V: float, x, amax, beta):
    """The stationarity residual at x, given the kernel maximizer amax(x)."""
    return -np.sin(x + amax) + np.sin(x + beta) - V * np.sin(amax - beta)


def stationarity_residual(p: VWPair, x, beta):
    """Left side of the stationarity equation; zero exactly at the
    stationary points of H( . , beta), with the sign of dH/dx."""
    x = np.asarray(x, dtype=float)
    amax, _ = _alpha_extrema_arrays(p, x)
    val = _residual(p.V, x, amax, np.asarray(beta, dtype=float))
    return val if np.ndim(val) else float(val)


class HEnvelope(NamedTuple):
    h_max: float
    h_min: float
    argmax_x: float
    argmin_x: float


class HExtremes(NamedTuple):
    maxmax: float
    minmax: float
    maxmin: float
    minmin: float
    q1: float


@lru_cache(maxsize=16)
def _grid_data(V: float, W: float, n: int):
    xs = np.linspace(-np.pi, np.pi, n, endpoint=False)
    p = VWPair(V, W)
    amax, _ = _alpha_extrema_arrays(p, xs)
    return xs, np.asarray(f_vw_max(p, xs)), amax


def _grid_roots(p: VWPair, xs, amax_xs, betas):
    """Stationary points of H( . , beta) for every beta of the 1-D betas.

    The residual on the (beta, x) grid brackets each root between a sign
    change along its row and the next grid point; 48 bisections polish
    all roots of all rows at once.  Returns (on_grid, root, row): the
    (row, x index) pairs where the grid residual itself vanishes, and each
    polished root with the row of its beta, ordered by row and then x."""
    D = _residual(p.V, xs, amax_xs, betas[:, None])
    on_grid = np.nonzero(np.abs(D) <= _ON_GRID_TOL)
    neg = np.signbit(D)
    row, i_idx = np.nonzero(neg != np.roll(neg, -1, axis=1))
    dlo = D[row, i_idx]
    del D, neg
    lo = xs[i_idx]
    hi = lo + 2.0 * np.pi / xs.size
    bb = betas[row]
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        am, _ = _alpha_extrema_arrays(p, mid)
        dm = _residual(p.V, mid, am, bb)
        same = np.signbit(dm) == np.signbit(dlo)
        lo = np.where(same, mid, lo)
        dlo = np.where(same, dm, dlo)
        hi = np.where(same, hi, mid)
    return on_grid, 0.5 * (lo + hi), row


def _merge_roots(val, arg, hval, root, row, sign):
    """Raise (sign 1) or lower (sign -1) each row's grid extreme to the
    best polished root of that row, in place.  The first root of a row
    wins a tie, as np.argmax would pick it."""
    order = np.lexsort((-sign * hval, row))
    j = order[np.diff(row[order], prepend=-1) != 0]
    j = j[sign * hval[j] > sign * val[row[j]]]
    val[row[j]] = hval[j]
    arg[row[j]] = root[j]


def h_envelope_sweep(p: VWPair, betas, grid_points: int = _DEFAULT_GRID):
    """Envelope of H over x for every beta in one call.

    The kernel maximum on the x-grid does not depend on beta, so a sweep
    shares it; H is laid out as (beta, x) rows, and the stationary points
    of every row are bracketed by sign changes of the residual and
    polished by one batched bisection.  Returns arrays shaped like betas:
    (h_max, h_min, argmax_x, argmin_x).  Holds on all of [0, 1)^2."""
    if grid_points < 2048:
        raise ValueError("grid_points must be at least 2048")
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    xs, fmax_xs, amax_xs = _grid_data(p.V, p.W, grid_points)

    Hgrid = fmax_xs / (1.0 + p.V * np.cos(xs + betas[:, None]))
    rows = np.arange(betas.size)
    i_hi = Hgrid.argmax(axis=1)
    i_lo = Hgrid.argmin(axis=1)
    hi_val, lo_val = Hgrid[rows, i_hi], Hgrid[rows, i_lo]
    hi_arg, lo_arg = xs[i_hi], xs[i_lo]
    del Hgrid

    _, root, row = _grid_roots(p, xs, amax_xs, betas)
    hval = h_func(p, root, betas[row])
    _merge_roots(hi_val, hi_arg, hval, root, row, 1.0)
    _merge_roots(lo_val, lo_arg, hval, root, row, -1.0)
    return hi_val, lo_val, wrap_angle(hi_arg), wrap_angle(lo_arg)


def h_envelope(p: VWPair, beta: float, grid_points: int = _DEFAULT_GRID) -> HEnvelope:
    """Global maximum and minimum of H( . , beta) over one period, with
    their locations in (-pi, pi]."""
    hi, lo, ahi, alo = h_envelope_sweep(p, [beta], grid_points)
    return HEnvelope(float(hi[0]), float(lo[0]), float(ahi[0]), float(alo[0]))


def q1_threshold(p: VWPair) -> float:
    """Q1 = (V / 2W)(1 + W); the envelope case split sits at Q1 = 1.
    Its limits close the square: Q1 = 0 for V = 0, Q1 = inf for
    W = 0 < V."""
    if p.V == 0.0:
        return 0.0
    if p.W == 0.0:
        return math.inf
    return 0.5 * (p.V / p.W) * (1.0 + p.W)


def h_extremes(p: VWPair) -> HExtremes:
    """Closed-form extreme values of the two envelopes over beta; holds
    on all of [0, 1)^2."""
    V, W = p.V, p.W
    q1 = q1_threshold(p)
    maxmax = (1.0 + V) / ((1.0 - W) * (1.0 - V))
    if q1 <= 1.0:
        minmax = (1.0 - V * V) / ((1.0 - W) * (1.0 - q1 * V))
    else:
        minmax = (1.0 + V) / ((1.0 + W) * (1.0 - V))
    maxmin = 1.0 / (1.0 - W)
    if V <= W:
        minmin = (1.0 - V) / ((1.0 - W) * (1.0 + V))
    else:
        minmin = 1.0 / (1.0 + W)
    return HExtremes(maxmax, minmax, maxmin, minmin, q1)


@dataclass(frozen=True)
class CriticalPointData:
    l_coef: float
    k_coef: float
    q1: float
    stationary_points: tuple  # of (x, h_value, kind)


def critical_points_beta0(p: VWPair) -> CriticalPointData:
    """Stationary points of H( . , 0) with their values and kinds.

    Multiples of pi are always stationary; when Q1 <= 1 the pair
    cos x = -Q1 joins them and carries the large envelope value.  Kinds
    come from a central second difference, so coincident roots near
    Q1 = 1 degrade to "other" instead of a wrong label."""
    _open_unit(p)
    V, W = p.V, p.W
    L = (V * V - W) / (V * (1.0 - W))
    K = V - L
    q1 = q1_threshold(p)

    pts = [(0.0, 1.0 / (1.0 - W))]
    odd = 1.0 / (1.0 - W) if V <= W else (1.0 + V) / ((1.0 + W) * (1.0 - V))
    pts.append((np.pi, odd))
    if q1 <= 1.0:
        xb = float(np.arccos(-q1))
        hb = (1.0 - V * V) / ((1.0 - W) * (1.0 - q1 * V))
        pts.extend([(-xb, hb), (xb, hb)])

    out = []
    h = 1e-5
    for x, val in sorted(pts):
        d2 = (h_func(p, x + h, 0.0) - 2.0 * h_func(p, x, 0.0)
              + h_func(p, x - h, 0.0)) / h ** 2
        scale = max(1.0, abs(val))
        if d2 < -1e-4 * scale:
            kind = "max"
        elif d2 > 1e-4 * scale:
            kind = "min"
        else:
            kind = "other"
        out.append((float(x), float(val), kind))
    return CriticalPointData(l_coef=float(L), k_coef=float(K), q1=float(q1),
                             stationary_points=tuple(out))


def h_second_derivatives(p: VWPair, x: float):
    """Closed-form second derivatives of H at beta = 0 and x a multiple
    of pi: (d2_xx, d2_xbeta, lastref_diff), the last being their exact
    difference f''max(x) / (1 + V cos x).

    The f'' term of d2_xx carries (1 + V cos x)^2 in the numerator; with
    sin x = 0 the remaining terms reduce so that d2_xx - d2_xbeta loses a
    single power of the denominator.  f''max itself is numerical: central
    differences with one Richardson pass (no closed form exists for it)."""
    _open_unit(p)
    m = round(x / np.pi)
    if abs(x - m * np.pi) > 1e-9:
        raise ValueError("x must be a multiple of pi (within 1e-9)")
    xm = m * np.pi
    c = 1.0 if m % 2 == 0 else -1.0

    def d2(hh):
        return (f_vw_max(p, xm + hh) - 2.0 * f_vw_max(p, xm)
                + f_vw_max(p, xm - hh)) / hh ** 2

    h = 1e-4
    f2 = (4.0 * d2(h / 2.0) - d2(h)) / 3.0
    fm = f_vw_max(p, xm)
    den = 1.0 + p.V * c
    d2_xx = (f2 * den ** 2 + fm * p.V * (c + p.V)) / den ** 3
    d2_xbeta = fm * p.V * (c + p.V) / den ** 3
    return d2_xx, d2_xbeta, f2 / den


# ------------------------------------------------------------- branches

@dataclass(frozen=True)
class BranchPolyline:
    """One continuous family of stationary points followed across beta."""

    beta_samples: np.ndarray
    x_samples: np.ndarray
    h_samples: np.ndarray
    source: str  # "axis_branch" or "general_branch"

    def __post_init__(self):
        if not (len(self.beta_samples) == len(self.x_samples)
                == len(self.h_samples)):
            raise ValueError("sample arrays must have equal lengths")


def _stationary_roots(p: VWPair, betas, grid_points: int = 2048):
    """All x in (-pi, pi] with zero stationarity residual, for each beta
    of the 1-D betas: a list of sorted root arrays, one per beta, solved
    in one batch."""
    betas = np.asarray(betas, dtype=float)
    xs, _, amax_xs = _grid_data(p.V, p.W, grid_points)
    (g_row, g_idx), mid, row = _grid_roots(p, xs, amax_xs, betas)
    am, _ = _alpha_extrema_arrays(p, mid)
    good = np.abs(_residual(p.V, mid, am, betas[row])) <= _RESIDUAL_TOL
    cuts = np.arange(1, betas.size)
    on_grid = np.split(xs[g_idx], np.searchsorted(g_row, cuts))
    polished = np.split(mid[good], np.searchsorted(row[good], cuts))
    out = []
    for grid_hits, mids in zip(on_grid, polished):
        roots = np.sort(wrap_angle(np.concatenate((grid_hits, mids))))
        keep = list(roots[:1])
        for r in roots[1:]:
            if r - keep[-1] > _MERGE_TOL:
                keep.append(r)
        if len(keep) > 1 and abs(wrap_angle(keep[0] - keep[-1])) <= _MERGE_TOL:
            keep.pop()
        out.append(np.asarray(keep))
    return out


def _circ_dist(a, b):
    return np.abs(wrap_angle(a - b))


def _branch_points(p: VWPair, betas):
    """The stationary points of each beta with their axis flags and h
    values, solved for all betas in one batch: a list of (x, axis, h)
    arrays, one triple per beta.  An axis point carries the exact
    1/(1 - W cos beta) in place of H."""
    betas = np.asarray(betas, dtype=float)
    roots = _stationary_roots(p, betas)
    counts = [r.size for r in roots]
    x = np.concatenate(roots)
    b = np.repeat(betas, counts)
    am, _ = _alpha_extrema_arrays(p, x)
    axis = np.abs(wrap_angle(am - b)) <= _AXIS_TOL
    h = np.where(axis, 1.0 / (1.0 - p.W * np.cos(b)), h_func(p, x, b))
    cuts = np.cumsum(counts)[:-1]
    return list(zip(roots, np.split(axis, cuts), np.split(h, cuts)))


class _OpenBranch:
    def __init__(self, beta, x, axis, h):
        self.betas = [beta]
        self.xs = [x]
        self.axis = [axis]
        self.hs = [h]

    def extend(self, beta, x_wrapped, axis, h):
        self.betas.append(beta)
        self.xs.append(self.xs[-1] + wrap_angle(x_wrapped - self.xs[-1]))
        self.axis.append(axis)
        self.hs.append(h)

    def close(self):
        frac = np.mean(self.axis) if self.axis else 0.0
        return BranchPolyline(
            beta_samples=np.asarray(self.betas),
            x_samples=np.asarray(self.xs),
            h_samples=np.asarray(self.hs),
            source="axis_branch" if frac > 0.5 else "general_branch",
        )


def trace_branches(p: VWPair, beta_grid):
    """Follow every stationary-point family across the beta grid.

    Matching is nearest-neighbour in x (circular); a match farther than
    the trust radius triggers beta-step halving, and a branch whose
    continuation still cannot be matched is closed with a BranchLost
    warning.  Unmatched new roots open new polylines (branch domains need
    not start at the first beta).  The stationary points of the whole grid
    are solved in one batch up front, and those of a halving midpoint when
    it is first reached; no beta is solved twice."""
    _open_unit(p)
    beta_grid = np.asarray(beta_grid, dtype=float)
    if beta_grid.ndim != 1 or beta_grid.size < 2:
        raise ValueError("beta_grid must be a 1-D grid with at least 2 points")
    if np.any(np.diff(beta_grid) <= 0):
        raise ValueError("beta_grid must be strictly increasing")
    if beta_grid[0] < -1e-12 or beta_grid[-1] > np.pi + 1e-12:
        raise ValueError("beta_grid must lie within [0, pi]")

    solved = dict(zip(beta_grid.tolist(), _branch_points(p, beta_grid)))

    def points_at(beta):
        if beta not in solved:
            solved[beta] = _branch_points(p, [beta])[0]
        return solved[beta]

    active = [_OpenBranch(beta_grid[0], *pt)
              for pt in zip(*points_at(beta_grid[0]))]
    done: list[BranchPolyline] = []

    def step(b0, b1, depth):
        nonlocal active
        roots, axis, h = points_at(b1)
        taken = np.zeros(len(roots), dtype=bool)
        assign = {}
        if len(active) and len(roots):
            dist = _circ_dist(np.asarray([br.xs[-1] for br in active])[:, None],
                              roots[None, :])
            while True:
                i, j = np.unravel_index(np.argmin(dist), dist.shape)
                if not np.isfinite(dist[i, j]) or dist[i, j] > _TRUST_RADIUS:
                    break
                assign[i] = j
                taken[j] = True
                dist[i, :] = np.inf
                dist[:, j] = np.inf
        lost = [i for i in range(len(active)) if i not in assign]
        if lost and depth < _MAX_HALVINGS:
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
            survivors.append(_OpenBranch(b1, roots[j], axis[j], h[j]))
        active = survivors

    for b0, b1 in zip(beta_grid[:-1], beta_grid[1:]):
        step(b0, b1, 0)
    done.extend(br.close() for br in active)
    return done
