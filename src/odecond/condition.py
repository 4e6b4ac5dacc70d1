"""Condition numbers of initial-value propagation y0 -> e^{tA} y0.

Exact quantities, for a unit perturbation direction z0 and the normalized
initial value y0_hat = y0 / ||y0||:

    directional   K(t) = ||e^{tA} z0|| / ||e^{tA} y0_hat||
    worst-case    K(t) = ||e^{tA}||    / ||e^{tA} y0_hat||

and their large-t asymptotic forms built from the rightmost eigenvalue
block: a constant oscillation scale factor OSF times a periodic
oscillating term OT (identically 1 when the rightmost eigenvalue is
real).  The finite-time gap between the two is controlled by the
dominance sums eps(t) and eps(t, u) over the subdominant blocks, which
yield a computable relative-precision bound.

Exact propagation takes one of two routes per sample, under one tolerance,
_EXPANSION_TOL.  A directional sweep needs only e^{tA} [y0_hat, z0] and
forms it from the analysis's eigendecomposition wherever that route's
error estimate is at most the tolerance; every other sample, the whole
worst case and the scalar k_exact take the batched Pade kernel.  So the
worst case, which certifies the dominance sums, never shares the
eigenvectors of k_asym and the sums, and k_exact is the sweep's
independent oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import OdecondError, UnsupportedBlock, ZeroProjection
from .matrix_core import (
    EigenSystem,
    as_real_matrix,
    eigen_expand,
    expm_grid,
    matrix_norms,
    vector_norms,
    _normalize_p,
    _t_span,
    _unit_scaled,
)
from .minimax import h_envelope, h_extremes, q1_threshold
from .oscillator import VWPair, f_vw, f_vw_max, g_factor, phase_x
from .oscillator import _f_extremes, _require_euclidean
from .spectral import (
    EigenBlock,
    SpectrumAnalysis,
    analyze_spectrum,
    checked_projection,
)

__all__ = [
    "UNBOUNDED",
    "Scenario",
    "OscillationProfile",
    "ConditionSeries",
    "epsilon_bounds",
    "k_asym",
    "k_exact",
    "osf",
    "ot",
    "ot_envelope",
    "precision_bound",
    "sweep",
]

# Flag value for the precision bound where eps(t, y0_hat) >= 1.
UNBOUNDED = math.inf

# z0 is a unit vector to this: norm rounding, far below deliberate scaling
_UNIT_TOL = 1e-12

# a directional sample takes the eigen-expansion where its relative error
# estimate is at most this, and the Pade kernel elsewhere
_EXPANSION_TOL = 1e-12

_CSV_COLUMNS = ("t", "k_exact", "k_asym", "osf", "ot",
                "eps_t", "eps_tu", "precision_bound")


@dataclass(frozen=True)
class Scenario:
    """One conditioning problem: matrix, initial value, optional unit
    perturbation direction, norm selector and time grid.

    y0 may have any nonzero length; the condition numbers only see
    y0_hat = y0 / ||y0||_p.  z0, when given, must already be a unit
    vector in the same norm (it plays the role of a normalized
    perturbation direction, not of a free perturbation).
    """

    matrix: np.ndarray
    y0: np.ndarray
    t_grid: np.ndarray
    z0: Optional[np.ndarray] = None
    norm_p: object = 2

    def __post_init__(self):
        A = as_real_matrix(self.matrix, square=True)
        p = _normalize_p(self.norm_p)
        y0 = np.asarray(self.y0, dtype=float).reshape(-1)
        if y0.shape[0] != A.shape[0]:
            raise ValueError(
                f"y0 has length {y0.shape[0]}, matrix is {A.shape[0]}x{A.shape[0]}"
            )
        if not (np.all(np.isfinite(y0)) and np.any(y0)):
            raise ValueError("y0 must be finite and nonzero")
        z0 = self.z0
        if z0 is not None:
            z0 = np.asarray(z0, dtype=float).reshape(-1)
            if z0.shape != y0.shape:
                raise ValueError("z0 must have the same length as y0")
            if not np.all(np.isfinite(z0)):
                raise ValueError("z0 must be finite")
            if abs(vector_norms(z0, p) - 1.0) > _UNIT_TOL:
                raise ValueError(
                    f"z0 must be a unit vector in the {p}-norm "
                    f"(got ||z0|| = {vector_norms(z0, p):.17g})"
                )
        tg = np.asarray(self.t_grid, dtype=float).reshape(-1)
        if tg.size < 1 or not np.all(np.isfinite(tg)):
            raise ValueError("t_grid must be a nonempty finite sequence")
        if tg.size > 1 and not np.all(np.diff(tg) > 0):
            raise ValueError("t_grid must be strictly increasing")
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "y0", y0)
        object.__setattr__(self, "z0", z0)
        object.__setattr__(self, "norm_p", p)
        object.__setattr__(self, "t_grid", tg)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def y0_hat(self) -> np.ndarray:
        """y0 / ||y0||_p, formed once and read-only, from y0 scaled by the
        exact power of two that brings its largest |entry| to [1/2, 1), so
        neither a norm that overflows nor subnormal entries cost it bits."""
        y, _ = _unit_scaled(self.y0, None)
        y /= vector_norms(y, self.norm_p)
        y.flags.writeable = False
        return y

    @property
    def directional(self) -> bool:
        return self.z0 is not None

    @cached_property
    def _shift(self) -> float:
        """The shift r1 of the scalar k_exact, from the scenario's own
        eigenvalues; sweep and the spot check take it from an analysis."""
        return _shift_for(self.matrix, np.linalg.eigvals(self.matrix))


@dataclass(frozen=True)
class OscillationProfile:
    """Time-independent description of the asymptotic condition number.

    For a real rightmost eigenvalue the asymptotic condition number is the
    constant osf and every oscillation field is None.  For a complex
    rightmost pair, ot_min/ot_max are the extremes of the oscillating term
    over t for this particular scenario, and ot_range_source says where
    they come from: "closed_form" (Euclidean norm, exact over all t) or
    "grid" (p in {1, inf}, the extremes of the series over the sweep's
    grid).  a_max >= a_minmax >= a_maxmin >= a_min are the universal
    envelopes over every admissible initial value (Euclidean norm only;
    None otherwise).
    """

    osf: float
    block_kind: str
    ot_min: float = 1.0
    ot_max: float = 1.0
    ot_range_source: Optional[str] = None
    period: Optional[float] = None
    q1: Optional[float] = None
    a_max: Optional[float] = None
    a_minmax: Optional[float] = None
    a_maxmin: Optional[float] = None
    a_min: Optional[float] = None

    def __post_init__(self):
        if not (self.osf > 0.0):
            raise ValueError("osf must be positive")
        if self.block_kind not in ("real", "complex"):
            raise ValueError(f"unknown block_kind {self.block_kind!r}")
        if self.ot_range_source not in (None, "closed_form", "grid"):
            raise ValueError(
                f"unknown ot_range_source {self.ot_range_source!r}")
        if self.ot_min > self.ot_max * (1.0 + 1e-12):
            raise ValueError("ot_min exceeds ot_max")
        if self.period is not None and not (self.period > 0.0):
            raise ValueError("period must be positive")
        vals = (self.a_min, self.a_maxmin, self.a_minmax, self.a_max)
        if all(v is not None for v in vals):
            lo, mid_lo, mid_hi, hi = vals
            slack = 1e-12 * max(1.0, hi)
            if not (lo <= mid_lo + slack and mid_lo <= mid_hi + slack
                    and mid_hi <= hi + slack):
                raise ValueError(
                    "universal envelopes must satisfy "
                    "a_min <= a_maxmin <= a_minmax <= a_max"
                )


def _norm_label(p) -> object:
    return "inf" if p == np.inf else int(p)


def _finite_or_none(v):
    if v is None:
        return None
    v = float(v)
    return v if math.isfinite(v) else None


@dataclass(frozen=True)
class ConditionSeries:
    """Per-sample results of a sweep plus the scenario-level profile.

    Arrays share the t grid.  precision_bound is UNBOUNDED (= inf) at
    samples where eps(t, y0_hat) >= 1; eps columns are NaN when some
    subdominant block is unsupported (the dominance sums need every block
    classified, the condition numbers themselves do not).
    """

    t: np.ndarray
    k_exact: np.ndarray
    k_asym: np.ndarray
    ot: np.ndarray
    eps_t: np.ndarray
    eps_tu: np.ndarray
    precision_bound: np.ndarray
    profile: OscillationProfile
    block_info: dict
    warnings: tuple = ()

    @property
    def osf(self) -> float:
        return self.profile.osf

    def _table(self, osf: bool = True) -> list:
        """The CSV rows as lists of Python floats, in _CSV_COLUMNS order;
        with osf false, without the constant osf column."""
        cols = [self.t, self.k_exact, self.k_asym, self.ot, self.eps_t,
                self.eps_tu, self.precision_bound]
        if osf:
            cols.insert(3, np.full(self.t.shape, self.osf))
        return np.column_stack(cols).tolist()

    def to_csv(self, stream) -> None:
        """Write the series as CSV with 17 significant digits per number.
        The constant osf column is formatted once, into the row format."""
        fmt = ",".join("%.17g" % self.osf if c == "osf" else "%.17g"
                       for c in _CSV_COLUMNS) + "\n"
        stream.write(",".join(_CSV_COLUMNS) + "\n")
        stream.write("".join(fmt % tuple(row)
                             for row in self._table(osf=False)))

    def summary_dict(self) -> dict:
        """JSON-ready summary: oscillation profile plus block metadata.

        Non-finite numbers (q1 = inf when W_1 = 0) become null so the
        output stays inside strict JSON.
        """
        prof = {k: _finite_or_none(v) if isinstance(v, float) else v
                for k, v in asdict(self.profile).items()}
        return {
            "profile": prof,
            "block": self.block_info,
            "warnings": list(self.warnings),
        }

    def to_json(self, stream) -> None:
        json.dump(self.summary_dict(), stream, indent=2, allow_nan=False)
        stream.write("\n")


def _rightmost(s: Scenario, analysis: SpectrumAnalysis) -> EigenBlock:
    """The rightmost block; w_hat and f need the scenario's matrix and norm."""
    if analysis.norm_p != s.norm_p or not np.array_equal(analysis.matrix,
                                                         s.matrix):
        raise ValueError("the spectrum analysis belongs to another matrix "
                         "or norm than the scenario")
    block = analysis.blocks[0]
    if not block.is_supported:
        raise UnsupportedBlock(
            "the rightmost eigenvalue group is not a simple real eigenvalue "
            "or a simple complex pair"
        )
    return block


def _require_finite(t) -> None:
    """The time check of every function of t: a non-finite t (scalar or
    array entry) has no condition number, so it is refused, not NaN."""
    if not np.all(np.isfinite(t)):
        raise ValueError("t must be finite")


def _shift_for(A: np.ndarray, eigenvalues) -> float:
    """r1, the largest real part of the eigenvalues of A: exact
    propagation runs with A - r1 I.  An r1 within the rounding of the
    eigenvalues, n eps ||A||_1, counts as 0: shifting by it would only
    perturb A."""
    r1 = float(np.real(eigenvalues).max())
    noise = A.shape[0] * np.finfo(float).eps * matrix_norms(A, 1)
    return 0.0 if abs(r1) <= noise else r1


def _shifted(s: Scenario, r1: float) -> np.ndarray:
    """A - r1 I: both condition numbers are ratios of norms of one
    propagator, so the factor e^{t r1} cancels, and e^{t(A - r1 I)} stays
    finite and nonzero where e^{tA} overflows or underflows."""
    return s.matrix - r1 * np.eye(s.n)


def _k_exact_grid(s: Scenario, ts: np.ndarray, r1: float,
                  es: Optional[EigenSystem] = None) -> np.ndarray:
    """k_exact at every t of the 1-D array ts.

    Two routes to the propagator e^{t(A - r1 I)}, one tolerance.  Given the
    eigendecomposition es of A, a directional scenario needs only
    e^{t(A - r1 I)} [y0_hat, z0]: matrix_core.eigen_expand forms it from es
    at each sample whose relative error estimate is at most
    _EXPANSION_TOL, estimated first in O(n) per sample.  Every other
    sample, and the whole worst case, which needs all of e^{t(A - r1 I)},
    takes matrix_core.expm_grid, one batched Pade kernel, as on the whole
    grid: the halves t/2, t/4, ... in ts of a Pade sample go through the
    kernel too, so its squaring chains, and its bits, are the whole grid's.
    The p = 2 worst case takes the largest singular value of each matrix
    from its Gram matrix (matrix_core.matrix_norms).  Raises OdecondError
    when a propagated value is not finite or the denominator vanishes; the
    expansion leaves every such sample to the kernel, so the error names
    the samples the kernel alone would.
    """
    y0h = s.y0_hat
    out = np.empty(ts.shape)
    pade = np.ones(ts.shape, dtype=bool)
    if es is not None and s.directional:
        for idx, X, est in eigen_expand(s.matrix, es,
                                        np.column_stack((y0h, s.z0)), ts,
                                        r1, s.norm_p, _EXPANSION_TOL):
            ok = est <= _EXPANSION_TOL
            norms = vector_norms(X[ok], s.norm_p)
            idx = idx[ok]
            out[idx] = _checked_ratios(norms[:, 1], norms[:, 0], ts[idx])
            pade[idx] = False
    if pade.any():
        sub = _with_halves(ts, pade)
        for idx, E in expm_grid(_shifted(s, r1), ts[sub]):
            idx = sub[idx]
            mine = pade[idx]
            if not mine.all():
                idx, E = idx[mine], E[mine]
            out[idx] = _k_exact_ratios(E, y0h, s.z0, s.norm_p, ts[idx])
    return out


def _with_halves(ts: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The indices of mask's samples and of the first sample of each of
    their halves t/2, t/4, ... in ts, ascending: the samples expm_grid
    squares them from on the whole grid."""
    mask = mask.copy()
    order = np.argsort(ts, kind="stable")
    ordered = ts[order]
    new = np.flatnonzero(mask)
    while new.size:
        half = ts[new] / 2.0
        pos = np.searchsorted(ordered, half)
        hit = pos < ts.size
        hit[hit] = ordered[pos[hit]] == half[hit]
        new = order[pos[hit]]
        new = new[~mask[new]]
        mask[new] = True
    return np.flatnonzero(mask)


def _k_exact_ratios(E, y0h, z0, p, ts) -> np.ndarray:
    """k_exact for each propagator of the stack E: ||E z0|| / ||E y0h||,
    or the induced norm of E over ||E y0h|| when z0 is None.  ts holds
    the times of E; the error raised when a norm is not finite or the
    denominator vanishes names those of the failing samples."""
    with np.errstate(over="ignore"):
        denom = vector_norms(E @ y0h, p)
        num = matrix_norms(E, p) if z0 is None else vector_norms(E @ z0, p)
    return _checked_ratios(num, denom, ts)


def _checked_ratios(num, denom, ts) -> np.ndarray:
    """num / denom, refused with OdecondError, naming the failing samples
    of ts, where a norm is not finite or the denominator vanishes."""
    bad = ~(np.isfinite(num) & np.isfinite(denom))
    if bad.any():
        raise OdecondError(
            f"||e^{{t(A - r1 I)}}|| is not finite for {_t_span(ts[bad])}")
    if not denom.all():
        raise OdecondError(f"||e^{{t(A - r1 I)}} y0_hat|| underflows to zero "
                           f"for {_t_span(ts[denom == 0.0])}")
    return num / denom


def k_exact(s: Scenario, t: float) -> float:
    """Exact condition number at time t.

    Directional when the scenario carries z0, worst-case otherwise.  The
    worst case uses the induced matrix norm of e^{tA}, so it dominates
    every directional value and is >= 1.  Evaluated by the Pade kernel on
    a one-sample grid, with no eigendecomposition: it serves defective
    matrices too, and checks the sweep's expanded samples.
    """
    t = float(t)
    _require_finite(t)
    return float(_k_exact_grid(s, np.array([t]), s._shift)[0])


def _projections(s: Scenario, block1: EigenBlock, notes=None):
    """Checked projections of y0_hat and z0 (None: worst case)."""
    y = checked_projection(block1, s.y0_hat, "y0", notes)
    z = (checked_projection(block1, s.z0, "z0", notes) if s.directional
         else None)
    return y, z


def k_asym(s: Scenario, analysis: SpectrumAnalysis, t):
    """Asymptotic condition number at time t from the rightmost block.

    Real rightmost eigenvalue: |w_hat z0| / |w_hat y0_hat| (directional)
    or 1 / |w_hat y0_hat| (worst case), constant in t.  Complex rightmost
    pair: the same scale factors times the ratio of oscillation factors
    g_1(t, z0) / g_1(t, y0_hat) or g_1(t) / g_1(t, y0_hat).  Accepts
    array t.  Raises ValueError when the analysis is not of the scenario's
    matrix and norm, or t is not finite.
    """
    block = _rightmost(s, analysis)
    _require_finite(t)
    y, z = _projections(s, block)
    base = _osf(block, y, z)
    if block.is_real:
        return base if np.ndim(t) == 0 else np.full(np.shape(t), base)
    return base * g_factor(block, t, proj=z) / g_factor(block, t, proj=y)


def _osf(block1: EigenBlock, y, z) -> float:
    """OSF from the projections of y0_hat and z0 (None: worst case); for a
    real block, the constant asymptotic condition number."""
    if block1.W_mod is not None:
        W = block1.W_mod
        recon = math.sqrt(((1.0 + W) * y.c ** 2
                           + (1.0 - W) * y.d ** 2) / 2.0)
        if abs(recon - y.wu_mod) > 1e-8 * max(1.0, y.wu_mod):
            raise OdecondError(
                f"projection modulus {y.wu_mod:.17g} disagrees with its "
                f"singular coordinate form {recon:.17g}"
            )
    return (1.0 if z is None else z.wu_mod) / y.wu_mod


def osf(s: Scenario, analysis: SpectrumAnalysis) -> float:
    """Oscillation scale factor of a complex rightmost block.

    directional: |w_hat z0| / |w_hat y0_hat|; worst case: 1 / |w_hat
    y0_hat|.  In the Euclidean norm the modulus is cross-checked against
    its expression in the coordinates of y0_hat along the right singular
    vectors of the stacked Re/Im rows of w_hat.  Raises ValueError when
    the analysis is not of the scenario's matrix and norm.
    """
    block1 = _rightmost(s, analysis)
    if not block1.is_complex:
        raise UnsupportedBlock("a complex rightmost block is required")
    return _osf(block1, *_projections(s, block1))


def ot(s: Scenario, analysis: SpectrumAnalysis, t: float) -> float:
    """Oscillating term at time t (Euclidean norm, complex block).

    Directional: sqrt(f_{V1 V1}(alpha, x)) at alpha = x_1(t) + Delta(y0)
    + pi and the t-independent x = 2 (gamma(z0) - gamma(y0)) - pi.  Worst
    case: sqrt((1 - W1^2)/2 * fmax(x_1(t)) / (1 + V1 cos(x_1(t) +
    Delta(y0)))).  Periodic in t with period pi / omega_1.  Raises
    ValueError when the analysis is not of the scenario's matrix and
    norm, or t is not finite.
    """
    block1 = _rightmost(s, analysis)
    _require_euclidean(block1)
    _require_finite(t)
    y, z = _projections(s, block1)
    x_t = phase_x(block1, t)
    d_y = 2.0 * (y.gamma - block1.theta_axis)
    V, W = block1.V_mod, block1.W_mod
    if s.directional:
        pair = VWPair(V, V)
        alpha = x_t + d_y + math.pi
        x = 2.0 * (z.gamma - y.gamma) - math.pi
        return math.sqrt(f_vw(pair, alpha, x))
    pair = VWPair(V, W)
    num = (1.0 + W) * (1.0 - W) / 2.0 * f_vw_max(pair, x_t)
    return math.sqrt(num / (1.0 + V * math.cos(x_t + d_y)))


def _universal_directional(V: float):
    a_max = math.sqrt((1.0 + V) / (1.0 - V))
    return a_max, 1.0, 1.0, 1.0 / a_max


def ot_envelope(s: Scenario, analysis: SpectrumAnalysis
                ) -> OscillationProfile:
    """Extremes of the oscillating term over t, plus universal envelopes.

    ot_min/ot_max are tight for this scenario: the directional term sweeps
    alpha through a full period of f_{V1 V1} at fixed x, the worst-case
    term sweeps x through a full period of the ratio envelope at fixed
    beta = Delta(y0).  The a_* fields bound ot_max (between a_minmax and
    a_max) and ot_min (between a_min and a_maxmin) over every admissible
    initial value.  Raises ValueError when the analysis is not of the
    scenario's matrix and norm.
    """
    block1 = _rightmost(s, analysis)
    _require_euclidean(block1)
    y, z = _projections(s, block1)
    V, W = block1.V_mod, block1.W_mod
    q1 = q1_threshold(VWPair(V, W))
    if s.directional:
        x = 2.0 * (z.gamma - y.gamma) - math.pi
        pair = VWPair(V, V)
        _, _, f_hi, f_lo = _f_extremes(pair, x)
        ot_max = math.sqrt(f_hi)
        ot_min = math.sqrt(f_lo)
        a_max, a_minmax, a_maxmin, a_min = _universal_directional(V)
    else:
        # OT^2 = (1 - W^2)/2 * H(x, beta) at beta = Delta(y0), with the
        # scale formed as (1 + W)(1 - W), which does not cancel as W -> 1;
        # the universal envelopes are the same scale times the extremes of
        # H over beta
        pair = VWPair(V, W)
        env = h_envelope(pair, 2.0 * (y.gamma - block1.theta_axis))
        scale = (1.0 + W) * (1.0 - W) / 2.0
        ot_max = math.sqrt(scale * env.h_max)
        ot_min = math.sqrt(scale * env.h_min)
        a_max, a_minmax, a_maxmin, a_min = (
            math.sqrt(scale * h) for h in h_extremes(pair)[:4])
    return OscillationProfile(
        osf=_osf(block1, y, z),
        block_kind="complex",
        ot_min=ot_min,
        ot_max=ot_max,
        ot_range_source="closed_form",
        period=math.pi / abs(block1.omega),
        q1=q1,
        a_max=a_max,
        a_minmax=a_minmax,
        a_maxmin=a_maxmin,
        a_min=a_min,
    )


def epsilon_bounds(analysis: SpectrumAnalysis, t, u=None, p=None):
    """Dominance sum eps(t, u) (u given) or eps(t) (u omitted).

    Returns (eps, g_ratios) with one ratio G_j = g_j / g_1 per subdominant
    block.  Terms whose direction projects to zero on block j contribute
    nothing and report a zero ratio; a zero projection on block 1 is an
    error because the sum is normalized by it.  Accepts array t: eps is then
    an array over t, the ratios broadcast against it, and the loop runs
    over blocks, not samples.  An e^{(r_j - r_1) t} that overflows, at
    negative t, gives eps = inf: nothing is certified there.  p, if given,
    must be the analysis's norm, and t must be finite (ValueError
    otherwise).
    """
    if not analysis.all_supported:
        raise UnsupportedBlock(
            "the dominance sums need every eigenvalue group classified as "
            "simple single real or complex"
        )
    if p is not None and _normalize_p(p) != analysis.norm_p:
        raise ValueError(f"p = {p} is not the analysis's norm "
                         f"{_norm_label(analysis.norm_p)}")
    blocks = analysis.blocks
    b1 = blocks[0]
    # each block projects u once: its projection serves coef and g_factor
    pr1 = None if u is None else checked_projection(b1, u)
    t = np.asarray(t, dtype=float)
    _require_finite(t)
    g1 = g_factor(b1, t, proj=pr1)
    eps = np.zeros(t.shape)
    ratios = []
    for bj in blocks[1:]:
        coef, prj = 1.0, None
        if u is not None:
            try:
                prj = checked_projection(bj, u)
            except ZeroProjection:
                ratios.append(0.0)
                continue
            coef = prj.wu_mod / pr1.wu_mod
        ratio = g_factor(bj, t, proj=prj) / g1
        ratios.append(ratio)
        with np.errstate(over="ignore"):
            eps += np.exp((bj.r - b1.r) * t) * (bj.f / b1.f) * coef * ratio
    return (eps if np.ndim(eps) else float(eps)), ratios


def precision_bound(eps_t, eps_tu):
    """Relative precision of k_asym as a stand-in for k_exact:
    (eps(t) + eps(t, y0_hat)) / (1 - eps(t, y0_hat)), or UNBOUNDED where
    eps(t, y0_hat) >= 1.  Accepts scalars or arrays."""
    et = np.asarray(eps_t, dtype=float)
    eu = np.asarray(eps_tu, dtype=float)
    valid = eu < 1.0
    denom = np.where(valid, 1.0 - eu, 1.0)
    out = np.where(valid, (et + eu) / denom, UNBOUNDED)
    return float(out) if out.ndim == 0 else out


def _profile_for(s: Scenario, analysis: SpectrumAnalysis,
                 ka: np.ndarray) -> OscillationProfile:
    """Oscillation profile of a sweep whose k_asym column is ka."""
    block = analysis.blocks[0]
    if block.is_real:
        # k_asym is the constant scale factor
        return OscillationProfile(osf=float(ka[0]), block_kind="real")
    if s.norm_p == 2:
        return ot_envelope(s, analysis)
    # p in {1, inf}: the scale/oscillation split still holds but the
    # closed-form envelopes do not; the ot range is that of the series
    # over the grid
    factor = osf(s, analysis)
    ot_vals = ka / factor
    return OscillationProfile(
        osf=factor,
        block_kind="complex",
        ot_min=float(ot_vals.min()),
        ot_max=float(ot_vals.max()),
        ot_range_source="grid",
        period=math.pi / abs(block.omega),
    )


def _block_info(analysis: SpectrumAnalysis, block: EigenBlock) -> dict:
    info = {
        "kind": block.kind.value,
        "rightmost_real_part": block.r,
        "rightmost_frequency": block.omega,
        "non_normality_factor": block.f,
        "V": block.V_mod,
        "W": block.W_mod,
        "block_count": analysis.q,
        "all_blocks_supported": analysis.all_supported,
        "norm": _norm_label(analysis.norm_p),
    }
    return {k: _finite_or_none(v) if isinstance(v, float) else v
            for k, v in info.items()}


def sweep(s: Scenario, analysis: Optional[SpectrumAnalysis] = None
          ) -> ConditionSeries:
    """Evaluate the exact and asymptotic condition numbers over the grid.

    Each layer runs once over the whole grid: exact propagation on stacks
    of matrix exponentials, the asymptotic closed forms and the dominance
    sums as arrays over t.  eps_t is eps(t, z0) for a directional scenario
    and eps(t) otherwise, so the precision bound fits the condition number
    computed.  When a subdominant block is unsupported, the eps columns
    are NaN, the precision bound is UNBOUNDED and a warning is recorded;
    the condition numbers themselves only need the rightmost block.  An
    analysis of another matrix or norm raises ValueError.
    """
    if analysis is None:
        analysis = analyze_spectrum(s.matrix, norm_p=s.norm_p)
    block = _rightmost(s, analysis)
    notes = []
    _projections(s, block, notes)
    grid = s.t_grid
    # exact propagation first: its refusal of a non-finite e^{t(A - r1 I)}
    # comes before any asymptotic layer sees such a t
    r1 = _shift_for(s.matrix, analysis.eigensystem.eigenvalues)
    ke = _k_exact_grid(s, grid, r1, analysis.eigensystem)
    ka = k_asym(s, analysis, grid)
    profile = _profile_for(s, analysis, ka)
    if analysis.all_supported:
        et, _ = epsilon_bounds(analysis, grid, u=s.z0)
        eu, _ = epsilon_bounds(analysis, grid, u=s.y0_hat)
        bound = precision_bound(et, eu)
    else:
        notes.append(
            "a subdominant eigenvalue group is unsupported; dominance "
            "bounds unavailable"
        )
        et = eu = np.full(grid.shape, math.nan)
        bound = np.full(grid.shape, UNBOUNDED)
    return ConditionSeries(
        t=grid,
        k_exact=ke,
        k_asym=ka,
        ot=ka / profile.osf,
        eps_t=et,
        eps_tu=eu,
        precision_bound=bound,
        profile=profile,
        block_info=_block_info(analysis, block),
        warnings=tuple(notes),
    )
