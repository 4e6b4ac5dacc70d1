"""The oscillation kernel f and the Theta norms of a complex block.

Central object: for V, W in [0, 1),

    f(alpha, x) = (1 + V cos(x + alpha)) / (1 - W cos(alpha)).

For fixed x this oscillates monotonically in alpha between a closed-form
maximum and minimum.  The norms of the oscillation vector

    Theta(t, u) = Re(e^{i(omega t + gamma(u))} v_hat)

and the oscillation matrix

    Theta(t) = Re(e^{i omega t} v_hat w_hat)

drive every time-dependent factor of the asymptotic condition numbers:
in the Euclidean norm they reduce to closed forms in the block moduli
V, W and the phase x(t) = 2 (omega t + theta) + delta.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConstant, UnsupportedBlock
from .matrix_core import matrix_norms, stack_slices, vector_norms
from .spectral import BlockProjection, EigenBlock, checked_projection

__all__ = [
    "VWPair",
    "alpha_extrema",
    "f_vw",
    "f_vw_max",
    "f_vw_min",
    "g_factor",
    "phase_offset",
    "phase_x",
    "theta_norm_mat",
    "theta_norm_p",
    "theta_norm_u",
    "wrap_angle",
]

#: |U| below this multiple of V + W switches to the continuity extension of
#: the extremizer angles (relevant only near V = W with x an odd multiple
#: of pi, where the closed form becomes 0/0).
_U_FLOOR_FACTOR = 1e-10

#: float64 (T, n, n) stacks theta_norm_p holds: a complex one and |Re| of it
_THETA_LIVE_STACKS = 3


@dataclass(frozen=True)
class VWPair:
    """Moduli pair with both entries in [0, 1)."""

    V: float
    W: float

    def __post_init__(self):
        if not (0.0 <= self.V < 1.0 and 0.0 <= self.W < 1.0):
            raise ValueError(f"V and W must lie in [0, 1), got {self.V}, {self.W}")


def wrap_angle(a):
    """Reduce an angle to (-pi, pi]."""
    a = np.asarray(a, dtype=float)
    out = np.mod(-a + np.pi, 2.0 * np.pi)
    out = np.pi - out
    return out if out.ndim else float(out)


def f_vw(p: VWPair, alpha, x):
    """(1 + V cos(x + alpha)) / (1 - W cos(alpha)); accepts arrays."""
    alpha = np.asarray(alpha, dtype=float)
    val = (1.0 + p.V * np.cos(np.asarray(x, dtype=float) + alpha)) \
        / (1.0 - p.W * np.cos(alpha))
    return val if val.ndim else float(val)


def _u_polar(p: VWPair, x):
    U = p.V * np.exp(1j * np.asarray(x, dtype=float)) + p.W
    return np.abs(U), np.arctan2(U.imag, U.real)


def _alpha_extrema_arrays(p: VWPair, x, with_min: bool = True):
    """Vectorized extremizer angles (amax, amin); degenerate entries take
    their continuity limits instead of raising.  With with_min false the
    minimizer is not formed and amin is None.

    The stationary angles of f( . , x) are asin(s) - theta_U and
    pi - asin(s) - theta_U, s = V W sin x / |U|.  Over x, |s| peaks at
    min(V, W) < 1 (where cos x = -min(V, W) / max(V, W)), so
    cos(asin s) > 0 and the curvature of f in alpha, a positive multiple
    of -cos(theta_U + alpha), is negative at the first angle and positive
    at the second: the arcsin branch alone tells the maximizer."""
    x = np.asarray(x, dtype=float)
    absU, thU = _u_polar(p, x)
    tiny = absU <= _U_FLOOR_FACTOR * (p.V + p.W)

    safe = np.where(tiny, 1.0, absU)
    s = np.minimum(np.maximum(p.V * p.W * np.sin(x) / safe, -1.0), 1.0)
    asn = np.arcsin(s)
    amax = asn - thU
    amin = np.pi - asn - thU if with_min else None

    if tiny.any():
        # near V = W with x near an odd multiple of pi; the limits follow
        # the principal branch after reducing x mod 2 pi
        x0 = wrap_angle(x)
        aE = np.arcsin(p.V * np.sin(x0 / 2.0))
        amax = np.where(tiny, aE - x0 / 2.0, amax)
        if with_min:
            amin = np.where(tiny, np.pi - aE - x0 / 2.0, amin)
    return wrap_angle(amax), wrap_angle(amin) if with_min else None


def alpha_extrema(p: VWPair, x: float):
    """Angles where alpha -> f(alpha, x) attains its maximum and minimum,
    both reduced to (-pi, pi].

    When U(x) = V e^{ix} + W vanishes exactly the function is constant and
    there is nothing to extremize (DegenerateConstant); when |U| is merely
    negligible against V + W the continuity limits are returned.
    """
    if p.V + p.W == 0.0:
        raise DegenerateConstant("V = W = 0 makes f identically 1")
    absU, _ = _u_polar(p, x)
    if float(absU) == 0.0:
        raise DegenerateConstant(
            "U(x) = 0 exactly: f( . , x) is constant and has no extremizers"
        )
    amax, amin = _alpha_extrema_arrays(p, np.asarray(x, dtype=float))
    return float(amax), float(amin)


def _f_extremes(p: VWPair, x):
    """(amax, amin, fmax, fmin): the extremizer angles of f( . , x) over
    alpha and its maximum and minimum, from one solve of the angles."""
    x = np.asarray(x, dtype=float)
    amax, amin = _alpha_extrema_arrays(p, x)
    return amax, amin, f_vw(p, amax, x), f_vw(p, amin, x)


def f_vw_max(p: VWPair, x):
    """Maximum of f( . , x) over alpha; accepts array x."""
    return _f_extremes(p, x)[2]


def f_vw_min(p: VWPair, x):
    """Minimum of f( . , x) over alpha; accepts array x."""
    return _f_extremes(p, x)[3]


# ------------------------------------------------------------------ blocks

def _require_euclidean(block: EigenBlock):
    if not block.is_complex:
        raise UnsupportedBlock("a complex block is required")
    if block.V_mod is None:
        raise UnsupportedBlock(
            "the closed forms hold for a block analyzed with norm_p=2 only"
        )


def phase_x(block: EigenBlock, t):
    """The oscillation argument x(t) = 2 (omega t + theta) + delta."""
    _require_euclidean(block)
    val = 2.0 * (block.omega * np.asarray(t, dtype=float) + block.theta_axis) \
        + block.delta
    return val if val.ndim else float(val)


def phase_offset(block: EigenBlock, u) -> float:
    """The phase offset Delta(u) = 2 (gamma(u) - theta)."""
    _require_euclidean(block)
    pr = checked_projection(block, u)
    return 2.0 * (pr.gamma - block.theta_axis)


def theta_norm_u(block: EigenBlock, t, u):
    """Euclidean norm of the oscillation vector Theta(t, u):
    sqrt((1 + V cos(x(t) + Delta(u))) / 2).  Accepts array t."""
    _require_euclidean(block)
    return _theta_norm_u(block, t, checked_projection(block, u).gamma)


def _theta_norm_u(block: EigenBlock, t, gamma):
    """theta_norm_u for the direction whose polar angle is gamma."""
    du = 2.0 * (gamma - block.theta_axis)
    val = np.sqrt((1.0 + block.V_mod * np.cos(phase_x(block, t) + du)) / 2.0)
    return val if np.ndim(val) else float(val)


def theta_norm_mat(block: EigenBlock, t):
    """Euclidean induced norm of the oscillation matrix Theta(t):
    sqrt((1 - W^2) / 4 * fmax(x(t))).  Accepts array t."""
    _require_euclidean(block)
    pair = VWPair(block.V_mod, block.W_mod)
    val = np.sqrt((1.0 + block.W_mod) * (1.0 - block.W_mod) / 4.0
                  * f_vw_max(pair, phase_x(block, t)))
    return val if np.ndim(val) else float(val)


def theta_norm_p(block: EigenBlock, t, u=None):
    """Theta norm of a block analyzed with p in {1, inf}; accepts array t.

    The induced p-norm of Re(e^{i omega t} v_hat w_hat) (u omitted) or the
    p-norm of Re(e^{i(omega t + gamma(u))} v_hat) (u given), formed over a
    (T, n, n) or (T, n) stack for T samples, in the block's own p.  Both
    are at most 1, since v_hat and w_hat are normalized in that p."""
    if not block.is_complex:
        raise UnsupportedBlock("a complex block is required")
    if block.norm_p == 2:
        raise ValueError("use theta_norm_u / theta_norm_mat for the 2-norm")
    gamma = None if u is None else checked_projection(block, u).gamma
    return _theta_norm_p(block, t, gamma)


def _theta_norm_p(block: EigenBlock, t, gamma=None):
    """theta_norm_p for the direction whose polar angle is gamma (None:
    the matrix form), in any p of the block."""
    p = block.norm_p
    t = np.asarray(t, dtype=float)
    rot = np.exp(1j * block.omega * t.reshape(-1))
    if gamma is None:
        M = np.outer(block.v_hat, block.w_hat)
        val = np.empty(rot.size)
        for sl in stack_slices(rot.size, M.shape[0], _THETA_LIVE_STACKS):
            val[sl] = matrix_norms((rot[sl, None, None] * M).real, p)
    else:
        # no sum omega t + gamma: the large phase is rounded once
        vg = np.exp(1j * gamma) * block.v_hat
        val = vector_norms((rot[:, None] * vg).real, p)
    return val.reshape(t.shape) if t.ndim else float(val[0])


def g_factor(block: EigenBlock, t, u=None, proj: BlockProjection = None):
    """Oscillation factor g of a block, in the norm the block was analyzed
    with.

    Real block: 1.  Complex block: twice the Theta norm, in vector form
    when a direction u is given and in matrix form otherwise; accepts
    array t.  proj, the direction's checked_projection on the block, may
    stand in for u, so a caller that holds it does not project again."""
    if block.is_real:
        return 1.0
    if proj is None and u is not None:
        proj = checked_projection(block, u)
    gamma = None if proj is None else proj.gamma
    # a pair so near real that V or W rounds to 1 lies outside the closed
    # forms (VWPair); its Euclidean norms come from the stacked matrices
    if block.norm_p == 2 and max(block.V_mod, block.W_mod) < 1.0:
        if gamma is None:
            return 2.0 * theta_norm_mat(block, t)
        return 2.0 * _theta_norm_u(block, t, gamma)
    return 2.0 * _theta_norm_p(block, t, gamma)
