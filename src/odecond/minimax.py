"""Envelopes of the periodic condition-number factor.

The object of study is

    H(x, beta) = fmax(x) / (1 + V cos(x + beta)),

where fmax is the closed-form maximum of the oscillation kernel over its
free angle.  Maximizing and minimizing H over x for each beta gives the
envelopes of the worst-case oscillating term; their extreme values over
beta have closed forms split by the threshold Q1 = (V / 2W)(1 + W).

Stationary points of H( . , beta) satisfy

    -sin(x + amax(x)) + sin(x + beta) - V sin(amax(x) - beta) = 0

with amax the maximizing angle of the kernel.  It and the kernel's angle
equation are linear in (cos a, sin a); eliminating a leaves a
trigonometric polynomial of degree 3 in x, whose roots for all betas
come from one batch of 6 x 6 companion eigenvalue problems.  Newton on
the residual polishes them and drops those of the minimizing angle; near
V = W a bisection solves the window around x = pi that the eliminant
cannot resolve.  The envelope sweep takes its extremes from H there and
at x = pi.  The branch tracer solves its beta grid in one batch, halves
each interval where a root would go unmatched, and follows the roots
across the refined betas.  Envelopes and extremes hold on [0, 1)^2, the
tracer on (0, 1)^2.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BranchLost
from .matrix_core import stack_slices
from .oscillator import VWPair, _alpha_extrema_arrays, f_vw_max, wrap_angle

__all__ = [
    "BranchPolyline",
    "HEnvelope",
    "HExtremes",
    "h_envelope",
    "h_envelope_sweep",
    "h_extremes",
    "h_func",
    "stationarity_residual",
    "trace_branches",
]

#: a polished root is a stationary point below this residual
_RESIDUAL_TOL = 1e-11
#: roots this close (circularly) are one root found twice
_MERGE_TOL = 1e-8
#: Newton on the residual stops at a step below _STEP_TOL, or after
#: _NEWTON_STEPS near a double root, and drops a seed at a step above
#: _SEED_STEP, a root of the minimizing angle or one it cannot bring home
_NEWTON_STEPS, _STEP_TOL, _SEED_STEP = 8, 1e-12, 1e-2
#: companion eigenvalues within this of real, relative to 1 + |tau|, seed
#: roots (a double root splits by about sqrt(eps)); gaps |V - W| / max(V,
#: W) up to _WINDOW_GAP get the window |x - pi| <= sqrt(gap) bisected
_IMAG_TOL, _WINDOW_GAP = 1e-4, 1e-6
_TRUST_RADIUS = 0.3
_MAX_HALVINGS = 12
#: levels of halving midpoints the branch tracer solves in one batch below
#: an interval that halves: deeper subtrees save rounds of batches but
#: solve midpoints the trace never reaches.  Best of 5, per trace, on 48
#: traces of 91 beta around the four benchmark centres (2-core x86 host):
#: 1 to 6 levels took 18.3, 13.8, 12.3, 11.9, 12.4 and 13.3 ms.  3 levels
#: split the 12 halvings into 4 equal rounds.
_PRESOLVE_LEVELS = 3
#: stationary solutions with the extremizer angle within this of beta
#: (mod 2 pi) belong to the axis family and carry h = 1/(1 - W cos beta)
_AXIS_TOL = 1e-7


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
    amax, _ = _alpha_extrema_arrays(p, x, with_min=False)
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


#: column k: the tau^0 .. tau^5 coefficients of (1 + tau^2)^3 times the k-th
#: of 1, cos t, sin t, ..., sin 3t, t = 2 atan tau (tau^6: the value at pi)
_TAU_BASIS = np.array([
    [1, 1, 0, 1, 0, 1, 0],
    [0, 0, 2, 0, 4, 0, 6],
    [3, 1, 0, -5, 0, -15, 0],
    [0, 0, 4, 0, 0, 0, -20],
    [3, -1, 0, -5, 0, 15, 0],
    [0, 0, 2, 0, -4, 0, 6]], dtype=float)
_NODES = 2.0 * np.pi * np.arange(7) / 7.0
#: the same coefficients from samples at t = pi + _NODES, through the
#: discrete Fourier series
_SAMPLES_TO_TAU = _TAU_BASIS @ np.array(
    [np.full(7, 1.0 / 7.0)] + [2.0 / 7.0 * f(n * (np.pi + _NODES))
                               for n in (1, 2, 3) for f in (np.cos, np.sin)])


def _eliminant(p: VWPair, x, beta):
    """Q / max(V, W)^2 at x for every beta, where Dc^2 + Ds^2 - Dt^2 =
    (1 - V^2) Q with Dt the determinant of the two equations, Dc, Ds its
    Cramer numerators, Q = |U|^2 sin^2(x + beta) - W^2 sin^2 x |E|^2,
    U = V e^{ix} + W, E = 1 + V e^{i(x + beta)}: accurate as V -> 1 or 0."""
    V, W = p.V, p.W
    v, w = V / max(V, W), W / max(V, W)
    s = np.sin(x + beta)
    return (v * (v + 2.0 * w * np.cos(x)) * s * s
            + w * w * np.sin(beta) * np.sin(2.0 * x + beta)
            - w * w * V * np.sin(x) ** 2 * (2.0 * np.cos(x + beta) + V))


def _companion_seeds(p: VWPair, betas):
    """Newton seeds of every beta, as (x, row): x = pi, a root at beta = 0
    and pi that near V = W lies in the steep window, and the real roots of
    the eliminant in tau = tan((x - phi) / 2), phi such that tau = inf, the
    leading coefficient, falls on the row's largest sample (it vanishes at
    x = pi for beta = 0 and pi).  Sums in a fixed order, element by
    element, and eigenvalues in runs of about STACK_BYTES give a row's
    roots the bits of a one-beta solve.  A row of zeros has no roots."""
    P = _eliminant(p, _NODES, betas[:, None])
    top = np.abs(P).argmax(axis=1)
    P = np.take_along_axis(P, (top[:, None] + np.arange(7)) % 7, axis=1)
    coef = P[:, :1] * _SAMPLES_TO_TAU[:, 0]
    for k in range(1, 7):
        coef += P[:, k:k + 1] * _SAMPLES_TO_TAU[:, k]
    lead = np.where(P[:, :1] == 0.0, 1.0, P[:, :1])
    tau = np.empty((betas.size, 6), dtype=complex)
    for sl in stack_slices(betas.size, 6, 2):
        comp = np.tile(np.eye(6, k=-1), (sl.stop - sl.start, 1, 1))
        comp[:, 0] = -coef[sl, ::-1] / lead[sl]
        tau[sl] = np.linalg.eigvals(comp)
    seed = ((np.abs(tau.imag) <= _IMAG_TOL * (1.0 + np.abs(tau)))
            & (P[:, :1] != 0.0))
    row = np.nonzero(seed)[0]
    x = wrap_angle(_NODES[top[row]] - np.pi + 2.0 * np.arctan(tau.real[seed]))
    rows = np.arange(betas.size)
    return np.append(np.full(betas.size, np.pi), x), np.append(rows, row)


def _residual_slope(p: VWPair, x, beta):
    """The residual at x and its slope, da/dx from the angle equation."""
    V, W = p.V, p.W
    a, _ = _alpha_extrema_arrays(p, x, with_min=False)
    cxa = np.cos(x + a)
    da = V * (W * np.cos(x) - cxa) / (V * cxa + W * np.cos(a))
    slope = np.cos(x + beta) - cxa * (1.0 + da) - V * np.cos(a - beta) * da
    return _residual(V, x, a, beta), slope


def _window_roots(p: VWPair, betas):
    """(x, row): if 0 < gap = |V - W| / max(V, W) <= _WINDOW_GAP, the
    residual changes sign once in |x - pi| <= sqrt(gap); each half of it,
    on its side of the cut at pi, is bisected where its ends differ."""
    gap = abs(p.V - p.W) / max(p.V, p.W)
    if not 0.0 < gap <= _WINDOW_GAP:
        return np.empty(0), np.empty(0, dtype=np.intp)
    row = np.tile(np.arange(betas.size), 2)
    lo = np.repeat([np.pi - math.sqrt(gap), -np.pi], betas.size)
    hi = np.repeat([np.pi, math.sqrt(gap) - np.pi], betas.size)
    neg_lo = np.signbit(stationarity_residual(p, lo, betas[row]))
    cross = neg_lo != np.signbit(stationarity_residual(p, hi, betas[row]))
    lo, hi, neg_lo, row = lo[cross], hi[cross], neg_lo[cross], row[cross]
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        same = np.signbit(stationarity_residual(p, mid, betas[row])) == neg_lo
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return _wrap_near(0.5 * (lo + hi)), row


def _wrap_near(x):
    """x into (-pi, pi] by one turn, exact where wrap_angle rounds."""
    return np.where(x > np.pi, x - 2.0 * np.pi,
                    np.where(x <= -np.pi, x + 2.0 * np.pi, x))


def _solve(p: VWPair, betas):
    """The stationary points of every beta of the 1-D betas, from Newton
    on the residual and the window, as (x, row, residual), x in (-pi, pi],
    each residual within its rounding (a steep slope near V = W can put
    that above _RESIDUAL_TOL).  None at V = 0, where H is constant."""
    if p.V == 0.0:
        return np.empty(0), np.empty(0, dtype=np.intp), np.empty(0)
    x, row = _companion_seeds(p, betas)
    live, keep = np.arange(x.size), np.ones(x.size, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            r, slope = _residual_slope(p, x[live], betas[row[live]])
            x[live] = _wrap_near(x[live] - r / slope)
            step = np.abs(r / slope)
            keep[live[~(step <= _SEED_STEP)]] = False
            live = live[(step > _STEP_TOL) & (step <= _SEED_STEP)]
        xw, roww = _window_roots(p, betas)
        x, row = np.append(x[keep], xw), np.append(row[keep], roww)
        r, slope = _residual_slope(p, x, betas[row])
    keep = np.abs(r) <= _RESIDUAL_TOL + 4.0 * np.spacing(np.pi) * np.abs(slope)
    return x[keep], row[keep], r[keep]


def _merge_roots(val, arg, hval, root, row, sign):
    """Raise (sign 1) or lower (sign -1) each row's value at x = pi to the
    best root of that row, in place.  The first root of a row
    wins a tie, as np.argmax would pick it."""
    order = np.lexsort((-sign * hval, row))
    j = order[np.diff(row[order], prepend=-1) != 0]
    j = j[sign * hval[j] > sign * val[row[j]]]
    val[row[j]] = hval[j]
    arg[row[j]] = root[j]


def h_envelope_sweep(p: VWPair, betas):
    """Envelope of H over x for every beta in one call.

    The extremes lie at the stationary points of H( . , beta), solved for
    all betas in one batch, or at x = pi, the corner of fmax at V = W.
    Each row starts from x = pi and takes the best point that beats it,
    the first of equals.  At 721 beta: 7 to 12 ms on a 2-core x86 host
    (best of 15, three runs), over half in the eigenvalues, where the
    scan and 48 bisection steps it replaces took 29 to 44 ms.
    Returns arrays shaped like betas: (h_max, h_min, argmax_x, argmin_x).
    Holds on all of [0, 1)^2."""
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    x, row, _ = _solve(p, betas)
    hval = h_func(p, x, betas[row])
    hi_arg, lo_arg = np.full(betas.size, np.pi), np.full(betas.size, np.pi)
    hi_val, lo_val = h_func(p, hi_arg, betas), h_func(p, lo_arg, betas)
    _merge_roots(hi_val, hi_arg, hval, x, row, 1.0)
    _merge_roots(lo_val, lo_arg, hval, x, row, -1.0)
    return hi_val, lo_val, hi_arg, lo_arg


def h_envelope(p: VWPair, beta: float) -> HEnvelope:
    """Global maximum and minimum of H( . , beta) over one period, with
    their locations in (-pi, pi]."""
    hi, lo, ahi, alo = h_envelope_sweep(p, [beta])
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


def _stationary_roots(p: VWPair, betas):
    """All x in (-pi, pi] with zero stationarity residual, for each beta
    of the 1-D betas: a list of sorted root arrays, one per beta, solved
    in one batch."""
    betas = np.asarray(betas, dtype=float)
    x, row, r = _solve(p, betas)
    order = np.lexsort((x, row))
    order = order[np.abs(r[order]) <= _RESIDUAL_TOL]
    out = []
    for roots in np.split(x[order], np.searchsorted(row[order],
                                                    np.arange(1, betas.size))):
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
    am, _ = _alpha_extrema_arrays(p, x, with_min=False)
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
        # wrap_angle in Python floats: float % takes fmod and the sign of
        # the divisor, as np.mod does
        last = float(self.xs[-1])
        d = float(x_wrapped) - last
        step = math.pi - (math.pi - d) % (2.0 * math.pi)
        self.betas.append(beta)
        self.xs.append(last + step)
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


def _match(prev_x, roots):
    """Greedy nearest-neighbour match of the points prev_x to the roots,
    circular in x, closest pair first, none beyond the trust radius:
    {prev index: root index}.  Pairs come from one stable sort of the
    distances, so of equals the first in row-major order wins."""
    assign, taken = {}, set()
    if len(prev_x) and len(roots):
        dist = _circ_dist(np.asarray(prev_x)[:, None], roots[None, :]).ravel()
        order = np.argsort(dist, kind="stable")
        for k, d in zip(order.tolist(), dist[order].tolist()):
            if d > _TRUST_RADIUS:
                break
            i, j = divmod(k, roots.size)
            if i not in assign and j not in taken:
                assign[i] = j
                taken.add(j)
    return assign


def _midpoints(b0, b1, levels):
    """The halving midpoints of (b0, b1) down to levels halvings, formed
    as the tracer forms them."""
    if levels == 0:
        return []
    mid = 0.5 * (b0 + b1)
    return ([mid] + _midpoints(b0, mid, levels - 1)
            + _midpoints(mid, b1, levels - 1))


def _step_betas(p: VWPair, solved, beta_grid):
    """The betas the trace steps to, in order, each solved into the dict
    solved.  After a step the open branches sit at the roots of its beta,
    so an interval (b0, b1) halves exactly when _match loses a root of b0
    to the roots of b1, down to _MAX_HALVINGS halvings.  Breadth-first,
    each interval that halves at an unsolved midpoint queues its subtree
    of _PRESOLVE_LEVELS levels, and one _branch_points call solves a
    round's queue.  The right ends of the intervals left are the steps."""
    ends = []
    pending = [(b0, b1, 0) for b0, b1 in zip(beta_grid[:-1], beta_grid[1:])]
    while pending:
        queued, waiting = {}, []
        while pending:
            b0, b1, depth = pending.pop()
            prev = solved[b0][0]
            if (depth == _MAX_HALVINGS
                    or len(_match(prev, solved[b1][0])) == len(prev)):
                ends.append(b1)
                continue
            mid = 0.5 * (b0 + b1)
            if mid in solved:
                pending += [(b0, mid, depth + 1), (mid, b1, depth + 1)]
                continue
            levels = min(_PRESOLVE_LEVELS, _MAX_HALVINGS - depth)
            queued.update(dict.fromkeys(
                b for b in _midpoints(b0, b1, levels) if b not in solved))
            waiting.append((b0, b1, depth))
        if queued:
            solved.update(zip(queued, _branch_points(p, list(queued))))
        pending = waiting
    return sorted(ends)


def trace_branches(p: VWPair, beta_grid):
    """Follow every stationary-point family across the beta grid.

    The trace refines, then walks: the grid is solved in one batch, and
    _step_betas halves each interval where a root would go unmatched.
    The walk matches roots nearest-neighbour in x (circular, within the
    trust radius), extends each matched branch, closes each unmatched one
    with a BranchLost warning, and opens a polyline at each unmatched
    root.  No beta is solved twice, and each root has the bits a one-beta
    solve gives it."""
    if not (0.0 < p.V < 1.0 and 0.0 < p.W < 1.0):
        raise ValueError("V and W must lie in the open interval (0, 1)")
    beta_grid = np.asarray(beta_grid, dtype=float)
    if beta_grid.ndim != 1 or beta_grid.size < 2:
        raise ValueError("beta_grid must be a 1-D grid with at least 2 points")
    if np.any(np.diff(beta_grid) <= 0):
        raise ValueError("beta_grid must be strictly increasing")
    if beta_grid[0] < -1e-12 or beta_grid[-1] > np.pi + 1e-12:
        raise ValueError("beta_grid must lie within [0, pi]")

    solved = dict(zip(beta_grid.tolist(), _branch_points(p, beta_grid)))
    active = [_OpenBranch(beta_grid[0], *pt)
              for pt in zip(*solved[beta_grid[0]])]
    done: list[BranchPolyline] = []
    for beta in _step_betas(p, solved, beta_grid):
        roots, axis, h = solved[beta]
        assign = _match([br.xs[-1] for br in active], roots)
        for i, j in assign.items():
            active[i].extend(beta, roots[j], axis[j], h[j])
        for i, br in enumerate(active):
            if i not in assign:
                warnings.warn(
                    f"branch lost at beta={beta:.6g} (last x={br.xs[-1]:.6g})",
                    BranchLost)
                done.append(br.close())
        taken = set(assign.values())
        active = ([br for i, br in enumerate(active) if i in assign]
                  + [_OpenBranch(beta, roots[j], axis[j], h[j])
                     for j in range(roots.size) if j not in taken])
    done.extend(br.close() for br in active)
    return done
