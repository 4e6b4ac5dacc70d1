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
every beta at once.  The residual and the denominator of H are linear in
(cos beta, sin beta), so both grids are scanned as products of x-only
vectors, a block of beta rows at a time, in buffers of one block
allocated once per solve.  Each bisection step forms the residual at the
midpoints only, with the kernel's maximizer alone, and keeps the fixed
sign of each bracket's low end.  The envelope sweep takes its
extremes from them.  The branch tracer refines, then walks: it solves
its beta grid in one batch, halves each interval where a root would go
unmatched, a few batches of midpoints in all, and then follows the
roots once across the refined betas for diagnostics.  Envelopes and
extremes hold on all of [0, 1)^2; the branch tracer needs the open
square (0, 1)^2.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import matrix_core
from .errors import BranchLost
from .oscillator import (VWPair, _alpha_extrema_arrays, _f_extremes, f_vw_max,
                         wrap_angle)

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

_DEFAULT_GRID = 4096
#: a polished bracket is a root below this; one across a jump of amax is not
_RESIDUAL_TOL = 1e-11
#: a grid point with a residual this small is itself a root
_ON_GRID_TOL = 1e-13
#: roots this close (circularly) are one root found twice
_MERGE_TOL = 1e-8
_TRUST_RADIUS = 0.3
_MAX_HALVINGS = 12
#: levels of halving midpoints the branch tracer solves in one batch below
#: an interval that halves.  Each round of batches costs a bisection pass,
#: so deeper subtrees save rounds, but they also solve more midpoints that
#: the trace never reaches.  Best of 5 on 48 traces of 91 beta around the
#: four benchmark (V, W) centres, on a 2-core x86 host: 1 level took 57 ms
#: per trace, 2 levels 38 ms, 3 levels 29 ms, 4 levels 27 ms, 5 and 6
#: levels 36 ms (in an earlier pass 3 and 4 levels both took 42 ms).
#: 3 levels split the 12 halvings into 4 equal rounds.
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


# three x-vectors per entry; the separable vectors of _grid_roots cost a
# few transcendentals of one x-vector per call, so they are not cached
@lru_cache(maxsize=16)
def _grid_data(V: float, W: float, n: int):
    xs = np.linspace(-np.pi, np.pi, n, endpoint=False)
    amax, _, fmax, _ = _f_extremes(VWPair(V, W), xs)
    return xs, fmax, amax


def _grid_roots(p: VWPair, xs, amax_xs, betas, fmax_xs=None):
    """Stationary points of H( . , beta) for every beta of the 1-D betas.

    The (beta, x) grids of the residual and of H separate into x-only
    vectors times cos beta and sin beta,

        D = a(x) + cos beta b(x) + sin beta c(x),
            a = -sin(x + amax), b = sin x - V sin amax, c = cos x + V cos amax,
        1 + V cos(x + beta) = 1 + (V cos beta) cos x - (V sin beta) sin x,

    so a scan over blocks of beta rows costs products and sums, not a
    transcendental per cell, and it runs in buffers of one block,
    allocated once.  A root is bracketed between a sign change of D along
    its row (the last column against the first) and the next grid point;
    48 bisections of the direct residual polish all roots of all rows at
    once.  The low end of a bracket only moves to a midpoint of its own
    sign, so that sign is fixed and only the midpoint residual is formed.
    Returns (on_grid, root, row, ext): the (row, x index) pairs where the
    grid residual itself vanishes, each polished root with the row of its
    beta, ordered by row and then x, and, given fmax_xs, each row's
    (argmax, argmin) x indices of H on the grid (else None)."""
    V, n = p.V, xs.size
    sx, cx = np.sin(xs), np.cos(xs)
    a = -np.sin(xs + amax_xs)
    b = sx - V * np.sin(amax_xs)
    c = cx + V * np.cos(amax_xs)
    cb, sb = np.cos(betas)[:, None], np.sin(betas)[:, None]
    ext = None
    if fmax_xs is not None:
        ext = np.empty((2, betas.size), dtype=np.intp)
        vcb, vsb = V * cb, V * sb
    # (rows, x) buffers: D, H and a temporary in float, which set the
    # block size, then the signs of D and a mask (on-grid hits, then sign
    # changes) in bool
    step = max(1, min(betas.size, matrix_core.STACK_BYTES // (24 * n)))
    D_buf, H_buf, T_buf = np.empty((3, step, n))
    neg_buf, mask_buf = np.empty((2, step, n), dtype=bool)
    parts = []
    for start in range(0, betas.size, step):
        sl = slice(start, start + step)
        rows = cb[sl].shape[0]
        D, H, T = D_buf[:rows], H_buf[:rows], T_buf[:rows]
        neg, mask = neg_buf[:rows], mask_buf[:rows]
        np.multiply(cb[sl], b, out=D)
        np.add(a, D, out=D)
        np.multiply(sb[sl], c, out=T)
        np.add(D, T, out=D)
        np.abs(D, out=T)
        np.less_equal(T, _ON_GRID_TOL, out=mask)
        # flat indices: np.nonzero of a 2-D mask costs ten times more
        hits = np.flatnonzero(mask)
        np.signbit(D, out=neg)
        np.not_equal(neg[:, :-1], neg[:, 1:], out=mask[:, :-1])
        np.not_equal(neg[:, -1], neg[:, 0], out=mask[:, -1])
        cross = np.flatnonzero(mask)
        parts.append((hits + start * n, cross + start * n,
                      neg.ravel()[cross]))
        if ext is not None:
            np.multiply(vcb[sl], cx, out=H)
            np.add(1.0, H, out=H)
            np.multiply(vsb[sl], sx, out=T)
            np.subtract(H, T, out=H)
            np.divide(fmax_xs, H, out=H)
            H.argmax(axis=1, out=ext[0, sl])
            H.argmin(axis=1, out=ext[1, sl])
    hits, cross, neg_lo = (np.concatenate(col) for col in zip(*parts))
    g_row, g_idx = np.divmod(hits, n)
    row, i_idx = np.divmod(cross, n)
    lo = xs[i_idx]
    hi = lo + 2.0 * np.pi / n
    bb = betas[row]
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        am, _ = _alpha_extrema_arrays(p, mid, with_min=False)
        same = np.signbit(_residual(V, mid, am, bb)) == neg_lo
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return (g_row, g_idx), 0.5 * (lo + hi), row, ext


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
    shares it.  One blocked scan of the (beta, x) grid, in the separable
    forms of _grid_roots, locates each row's grid extremes of H and
    brackets its stationary points by sign changes of the residual; one
    batched bisection polishes them.  The located grid extremes are
    valued directly as fmax / (1 + V cos(x + beta)), so the merge with
    the roots compares the values full grids would give.  At 721 beta
    and 4096 x the sweep takes about 28 ms on a 2-core x86 host (best of
    15 CPU-timed calls), roughly half in the scan and half in the
    bisection (12 ms for its 48 steps over 1896 brackets), and its
    traced memory peaks at 1.5 MiB.
    Returns arrays shaped like betas: (h_max, h_min, argmax_x, argmin_x).
    Holds on all of [0, 1)^2."""
    if grid_points < 2048:
        raise ValueError("grid_points must be at least 2048")
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    xs, fmax_xs, amax_xs = _grid_data(p.V, p.W, grid_points)

    _, root, row, (i_hi, i_lo) = _grid_roots(p, xs, amax_xs, betas,
                                             fmax_xs)
    hi_arg, lo_arg = xs[i_hi], xs[i_lo]
    hi_val = fmax_xs[i_hi] / (1.0 + p.V * np.cos(hi_arg + betas))
    lo_val = fmax_xs[i_lo] / (1.0 + p.V * np.cos(lo_arg + betas))
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
    (g_row, g_idx), mid, row, _ = _grid_roots(p, xs, amax_xs, betas)
    am, _ = _alpha_extrema_arrays(p, mid, with_min=False)
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
    circular in x: the closest pair first, then the closest pair left,
    none farther than the trust radius.  Returns {prev index: root
    index}; an unmatched prev point is a lost branch.  Pairs are taken
    in one stable sort of the distances, so of equal distances the first
    in row-major order wins, as a repeated np.argmin would pick it."""
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
    solved.

    After a step ends at beta, the open branches sit at the roots of
    beta: each root extends a branch or opens one, and each unmatched
    branch is closed.  So a grid interval (b0, b1) is halved exactly when
    _match loses a root of b0 to the roots of b1, down to _MAX_HALVINGS
    halvings.  The halvings are found breadth-first: each interval that
    halves at an unsolved midpoint queues its subtree of _PRESOLVE_LEVELS
    levels, and one _branch_points call solves every queued beta of a
    round.  The intervals left over partition the grid; the sorted right
    ends are the steps."""
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

    Matching is nearest-neighbour in x (circular), no farther than the
    trust radius.  The trace first refines, then walks.  The stationary
    points of the whole grid are solved in one batch, and _step_betas
    halves each grid interval where a root would go unmatched, solving
    the midpoints in a few more batches.  The walk then steps once
    through the refined betas: it extends each matched branch, closes
    each unmatched one with a BranchLost warning, and opens a polyline at
    each unmatched root (branch domains need not start at the first
    beta).  No beta is solved twice, and each root has the bits a
    one-beta solve gives it."""
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
