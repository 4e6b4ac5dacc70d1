import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    argmin_match,
    direct_envelope_sweep,
    direct_stationary_roots,
    grid_extreme_1d,
    one_midpoint_trace,
)

from odecond import minimax
from odecond.errors import BranchLost
from odecond.minimax import (
    h_envelope,
    h_envelope_sweep,
    h_extremes,
    h_func,
    q1_threshold,
    stationarity_residual,
    trace_branches,
)
from odecond.oscillator import (VWPair, alpha_extrema, f_vw, f_vw_max,
                                wrap_angle)


# ---------------------------------------------------------------- h_func

def test_h_trivial_values():
    # constant numerator when V = 0
    assert h_func(VWPair(0.0, 0.5), 0.0, 0.0) == pytest.approx(2.0)
    # f_max(0) = 3 at V = W = 0.5
    assert h_func(VWPair(0.5, 0.5), 0.0, 0.0) == pytest.approx(2.0)


def test_h_recomposition_oracle(rng):
    # rebuild the numerator through the extremizer angle instead of the
    # closed-form maximum
    for _ in range(300):
        V, W = rng.uniform(0.02, 0.98, 2)
        x, beta = rng.uniform(-9, 9, 2)
        p = VWPair(V, W)
        amax, _ = alpha_extrema(p, x)
        ref = f_vw(p, amax, x) / (1.0 + V * np.cos(x + beta))
        got = h_func(p, x, beta)
        assert got == pytest.approx(ref, rel=1e-14, abs=1e-14)
        assert got > 0.0


# ------------------------------------------------------------ h_envelope

def test_envelope_grid_oracle(rng):
    for _ in range(12):
        V, W = rng.uniform(0.02, 0.98, 2)
        beta = rng.uniform(0, np.pi)
        p = VWPair(V, W)
        env = h_envelope(p, beta)
        fn = lambda x: h_func(p, x, beta)
        assert env.h_max == pytest.approx(
            grid_extreme_1d(fn, -np.pi, np.pi, which="max"), abs=1e-7)
        assert env.h_min == pytest.approx(
            grid_extreme_1d(fn, -np.pi, np.pi, which="min"), abs=1e-7)


def test_envelope_boundary_closed_forms(rng):
    # beta = 0 and beta = pi carry all four closed-form extreme values
    for _ in range(30):
        V, W = rng.uniform(0.02, 0.98, 2)
        p = VWPair(V, W)
        ext = h_extremes(p)
        e0 = h_envelope(p, 0.0)
        epi = h_envelope(p, np.pi)
        assert epi.h_max == pytest.approx(ext.maxmax, abs=1e-9)
        assert e0.h_max == pytest.approx(ext.minmax, abs=1e-9)
        assert e0.h_min == pytest.approx(ext.maxmin, abs=1e-9)
        assert epi.h_min == pytest.approx(ext.minmin, abs=1e-9)


def test_envelope_extremizers_are_stationary(rng):
    for _ in range(20):
        V, W = rng.uniform(0.05, 0.95, 2)
        beta = rng.uniform(0.05, np.pi - 0.05)
        p = VWPair(V, W)
        env = h_envelope(p, beta)
        assert abs(stationarity_residual(p, env.argmax_x, beta)) <= 1e-11
        assert abs(stationarity_residual(p, env.argmin_x, beta)) <= 1e-11
        assert h_func(p, env.argmax_x, beta) == pytest.approx(env.h_max)
        assert h_func(p, env.argmin_x, beta) == pytest.approx(env.h_min)


def test_envelope_sweep_monotone_bracketed():
    p = VWPair(0.62, 0.41)
    betas = np.linspace(0, np.pi, 512)
    hmax, hmin, _, _ = h_envelope_sweep(p, betas)
    assert np.all(np.diff(hmax) >= -1e-9)
    assert np.all(np.diff(hmin) <= 1e-9)
    ext = h_extremes(p)
    assert np.all(hmax <= ext.maxmax + 1e-9)
    assert np.all(hmax >= ext.minmax - 1e-9)
    assert np.all(hmin <= ext.maxmin + 1e-9)
    assert np.all(hmin >= ext.minmin - 1e-9)


def test_envelope_reflection(rng):
    p = VWPair(0.58, 0.66)
    for beta in rng.uniform(0, np.pi, 6):
        left = h_envelope(p, np.pi - beta).h_max
        right = h_envelope(p, np.pi + beta).h_max
        assert left == pytest.approx(right, abs=1e-10)


def test_envelope_ties_keep_first_occurrence():
    # at V = 0, H( . , beta) is the constant 1/(1 - W) on the whole grid
    # and at every stationary point, so both extremes are tied across the
    # row: the first grid point, x = -pi, reported as pi, must win
    p = VWPair(0.0, 0.5)
    hi, lo, ahi, alo = h_envelope_sweep(p, np.linspace(0.0, np.pi, 9))
    assert np.all(hi == 2.0) and np.all(lo == 2.0)
    assert np.all(ahi == np.pi) and np.all(alo == np.pi)


def _merge_per_row(val, arg, hval, root, row):
    # reference: the per-row loop the batched merge replaced
    val, arg = val.copy(), arg.copy()
    for r in range(val.size):
        sl = np.flatnonzero(row == r)
        if not sl.size:
            continue
        j = sl[np.argmax(hval[sl])]
        if hval[j] > val[r]:
            val[r], arg[r] = hval[j], root[j]
    return val, arg


def test_merge_roots_equals_per_row_loop(rng):
    # hval from a few values, so that rows hold tied best roots; the first
    # of them must win, as np.argmax picks it
    for _ in range(50):
        count = int(rng.integers(0, 40))
        row = np.sort(rng.integers(0, 8, count))
        hval = rng.integers(0, 4, count).astype(float)
        root = rng.permutation(count).astype(float)
        val = rng.integers(0, 4, 8) + 0.5
        arg = np.full(8, -1.0)
        for sign in (1.0, -1.0):
            ref = _merge_per_row(sign * val, arg, sign * hval, root, row)
            got_val, got_arg = val.copy(), arg.copy()
            minimax._merge_roots(got_val, got_arg, hval, root, row, sign)
            assert np.array_equal(sign * got_val, ref[0])
            assert np.array_equal(got_arg, ref[1])


_RANDOM_PAIRS = [tuple(float(v) for v in pair) for pair in
                 np.random.default_rng(9).uniform(0.02, 0.98, (3, 2))]


def _envelope_rtol(p):
    # H's denominators 1 - W cos a and 1 + V cos(x + beta) round to about
    # u / (1 - W) and u / (1 - V) relative, which passes 1e-14 near 1
    eps = np.finfo(float).eps
    return max(1e-14, 4.0 * eps * (1.0 / (1.0 - p.V) + 1.0 / (1.0 - p.W)))


def _assert_envelopes_match_grids(p, betas):
    """The envelopes within the tolerance of the direct-grid oracle, and
    never less extreme than a 1e5-point grid by more than it.  Each value
    is H at its own argument, so none overstates the true extreme."""
    hi, lo, ahi, alo = h_envelope_sweep(p, betas)
    assert np.array_equal(h_func(p, ahi, betas), hi)
    assert np.array_equal(h_func(p, alo, betas), lo)
    tol = _envelope_rtol(p)
    ohi, olo, _, _ = direct_envelope_sweep(p, betas)
    np.testing.assert_allclose(hi, ohi, rtol=tol, atol=0.0)
    np.testing.assert_allclose(lo, olo, rtol=tol, atol=0.0)
    xs = np.linspace(-np.pi, np.pi, 10 ** 5, endpoint=False)
    fmax = f_vw_max(p, xs)
    for i in range(0, betas.size, 5):
        H = fmax / (1.0 + p.V * np.cos(xs + betas[i]))
        assert hi[i] >= H.max() * (1.0 - tol)
        assert lo[i] <= H.min() * (1.0 + tol)


def _assert_roots_match_grids(p, betas):
    """Every root of the direct-grid oracle found within 1e-9, and every
    other root stationary to the residual tolerance.  A zero of the
    residual that stays within the tolerance over an arc, as to the right
    of the corner x = pi at V = W, may sit anywhere on that arc in either
    solver.  A row where the oracle reports more roots than the
    eliminant's degree 6 is flat to rounding (V below 1e-13 at beta = 0
    or pi): every x is stationary."""
    tol = minimax._RESIDUAL_TOL
    for beta, got, want in zip(betas, minimax._stationary_roots(p, betas),
                               direct_stationary_roots(p, betas)):
        if want.size > 6:
            continue
        for x0 in want:
            dist = np.abs(wrap_angle(got - x0))
            k = int(np.argmin(dist))
            if dist[k] > 1e-9:
                arc = x0 + np.linspace(0.0, 1.0, 65) * wrap_angle(got[k] - x0)
                assert dist[k] <= 1e-4
                assert np.all(np.abs(stationarity_residual(p, arc, beta))
                              <= tol)
        extra = got[[np.all(np.abs(wrap_angle(x - want)) > 1e-9)
                     for x in got]]
        assert np.all(np.abs(stationarity_residual(p, extra, beta)) <= tol)


@pytest.mark.parametrize("V, W", _RANDOM_PAIRS + [
    (0.55, 0.55), (0.9, 0.9), (0.0, 0.5), (0.6, 0.0)])
@pytest.mark.parametrize("count", [181, 721])
def test_separable_sweep_equals_direct_grids(V, W, count):
    # the companion solve against full grids of H and of the residual
    p = VWPair(V, W)
    betas = np.linspace(0.0, np.pi, count)
    _assert_envelopes_match_grids(p, betas)
    if 0.0 < V == W:
        # at V = W the minimum of most rows sits at the corner of fmax at
        # x = pi, not at a stationary point: that candidate wins there
        assert np.sum(h_envelope_sweep(p, betas)[3] == np.pi) > count // 2


@pytest.mark.parametrize("V, W", _RANDOM_PAIRS + [
    (0.40, 0.50), (0.80, 0.30), (0.55, 0.55), (0.75, 0.72),
    (0.7453573791774515, 0.28480058282631915)])
def test_separable_roots_equal_direct_grids(V, W):
    _assert_roots_match_grids(VWPair(V, W), np.linspace(0.0, np.pi, 91))


# normal floats: at a subnormal V or W the kernel's U = V e^{ix} + W
# rounds to a few values, and its maximizer with it
_OPEN = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True,
                  allow_subnormal=False)
_TINY = st.floats(1e-300, 1e-30)


def _near_pair(V, gap):
    return (V, V - gap) if V - gap > 0.0 else (V, V + gap)


_PAIRS = st.one_of(
    st.tuples(_OPEN, _OPEN),
    st.builds(_near_pair, st.floats(0.001, 0.999),
              st.floats(-10.0, -2.0).map(lambda e: 10.0 ** e)),
    _OPEN.map(lambda v: (v, v)),
    st.tuples(_TINY, _OPEN),
    st.tuples(_OPEN, _TINY))


@settings(max_examples=40, deadline=None)
@given(pair=_PAIRS)
# found by earlier draws: V = W with cos beta = V on the grid, where a
# simple root sits next to the corner at x = pi and Newton converges
# linearly; V = W; V one ulp below 1, where (1 - V^2) would sink the
# eliminant below its rounding; a window pair; and a pair just outside
# the window whose root x = pi at beta = 0 only the seed at pi finds
@example(pair=(0.9135356690044664, 0.9135356690044664))
@example(pair=(0.5, 0.5))
@example(pair=(0.9999999999999998, 0.5))
@example(pair=(0.3, 0.29999999))
@example(pair=(0.99609375, 0.99609275))
def test_companion_solve_matches_direct_grids(pair):
    # the near-diagonal draws reach the window near x = pi that the
    # eliminant cannot resolve; in the tiny ones V^2 or W^2 underflows
    p = VWPair(*pair)
    betas = np.linspace(0.0, np.pi, 46)
    _assert_roots_match_grids(p, betas)
    _assert_envelopes_match_grids(p, betas)


def test_benchmark_pair_minimum_at_pi():
    # V - W = 5.8e-6; benchmark seed 702 draws this pair.  At beta = pi the
    # minimum is H(pi, pi) = 1 / (1 + W), on the steep turn of the kernel
    p = VWPair(0.5536688924628849, 0.5536631111644953)
    h_min = h_envelope(p, np.pi).h_min
    assert h_min == pytest.approx(h_extremes(p).minmin, rel=1e-14)
    assert h_min == pytest.approx(0.64364017708, rel=1e-11)


def test_envelope_of_vanishing_v_is_constant():
    # V^2 underflows: H is 1 / (1 - W) to rounding
    hi, lo, _, _ = h_envelope_sweep(VWPair(1e-300, 0.5),
                                    np.linspace(0.0, np.pi, 11))
    assert np.all(hi == 2.0) and np.all(lo == 2.0)


def test_721_beta_sweep_peaks_below_8_mib():
    # the scan holds a block of beta rows, about 1 MiB, where the full
    # 721 x 4096 grid of H alone would take 22.5 MiB
    p = VWPair(0.55, 0.55)
    betas = np.linspace(0.0, np.pi, 721)
    tracemalloc.start()
    try:
        h_envelope_sweep(p, betas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("V,W", [(0.0, 0.0), (0.0, 0.5), (0.6, 0.0),
                                 (0.0, 0.97)])
def test_boundary_pairs_equal_closed_forms(V, W):
    # V = 0: H is the constant 1/(1 - W) and Q1 = 0; W = 0 < V: H depends
    # on x + beta only, its envelopes are (1 + V)/(1 - V) and 1, Q1 = inf
    p = VWPair(V, W)
    if V == 0.0:
        top = bottom = 1.0 / (1.0 - W)
        q1 = 0.0
    else:
        top, bottom = (1.0 + V) / (1.0 - V), 1.0
        q1 = math.inf
    betas = np.linspace(0.0, np.pi, 721)
    hmax, hmin, _, _ = h_envelope_sweep(p, betas)
    assert np.array_equal(hmax, np.full_like(betas, top))
    assert np.array_equal(hmin, np.full_like(betas, bottom))
    assert h_extremes(p) == (top, top, bottom, bottom, q1)
    assert q1_threshold(p) == q1


# ------------------------------------------------------------ h_extremes

def test_extremes_equal_v_w_branch():
    # V = W gives Q1 = (1+W)/2 <= 1
    V = W = 0.62
    ext = h_extremes(VWPair(V, W))
    assert ext.q1 == pytest.approx((1 + W) / 2)
    assert ext.minmax == pytest.approx(
        (1 - V * V) / ((1 - W) * (1 - ext.q1 * V)), abs=1e-12)


def test_extremes_q1_above_one_branch():
    ext = h_extremes(VWPair(0.7, 0.5))
    assert ext.q1 == pytest.approx(1.05)
    assert ext.minmax == pytest.approx((1 / 1.5) * (1.7 / 0.3), abs=1e-12)
    assert ext.maxmax == pytest.approx(1.7 / (0.5 * 0.3), abs=1e-12)
    assert ext.maxmin == pytest.approx(2.0, abs=1e-12)
    assert ext.minmin == pytest.approx(1 / 1.5, abs=1e-12)  # V > W


@settings(max_examples=500, deadline=None)
@given(V=st.floats(0.001, 0.999), W=st.floats(0.001, 0.999))
def test_q1_threshold_equivalence(V, W):
    # Q1 <= 1 exactly when V <= 2W/(1+W)
    q1 = q1_threshold(VWPair(V, W))
    if q1 < 1.0 - 1e-12:
        assert V < 2 * W / (1 + W) + 1e-12
    if q1 > 1.0 + 1e-12:
        assert V > 2 * W / (1 + W) - 1e-12


# ------------------------------------------------ stationary points, beta = 0
# The paper's closed forms at beta = 0: multiples of pi are stationary,
# and when Q1 <= 1 the pair cos x = -Q1 joins them and carries the large
# envelope value.

def _sign_changes(p, n=20000):
    """Where the stationarity residual at beta = 0 changes sign on a grid
    of (-pi, pi], the last point against the first."""
    xs = np.linspace(-np.pi, np.pi, n, endpoint=False) + np.pi / n
    r = stationarity_residual(p, xs, 0.0)
    return xs[np.flatnonzero(np.signbit(r) != np.signbit(np.roll(r, -1)))]


def _kind(p, x, h=1e-5):
    """max / min / other from a central second difference of H( . , 0)."""
    val = h_func(p, x, 0.0)
    d2 = (h_func(p, x + h, 0.0) - 2.0 * val + h_func(p, x - h, 0.0)) / h ** 2
    scale = max(1.0, abs(val))
    return "max" if d2 < -1e-4 * scale else "min" if d2 > 1e-4 * scale \
        else "other"


def _near(found, expected, tol=1e-3):
    """Every grid sign change lies next to one expected root (mod 2 pi),
    and every expected root has one."""
    dist = np.abs(wrap_angle(np.subtract.outer(found, expected)))
    return bool(np.all(dist.min(axis=1) < tol)
                and np.all(dist.min(axis=0) < tol))


def test_critical_points_q1_low():
    p = VWPair(0.45, 0.5)
    V, W = p.V, p.W
    L = (V * V - W) / (V * (1.0 - W))
    K = V - L
    q1 = q1_threshold(p)
    assert K > 0
    assert q1 == pytest.approx((K ** 2 - L ** 2 + 1) / (2 * K), abs=1e-12)
    assert q1 - V > 0
    # W reconstructs from (V, Q1)
    assert V / (2 * q1 - V) == pytest.approx(W, abs=1e-12)
    xb = float(np.arccos(-q1))
    xs = [-xb, 0.0, xb, np.pi]
    for x in xs:
        assert abs(stationarity_residual(p, x, 0.0)) <= 1e-12
    assert _near(_sign_changes(p), np.array(xs))
    assert _kind(p, 0.0) == "min" and _kind(p, np.pi) == "min"  # V < W
    assert _kind(p, xb) == "max" and _kind(p, -xb) == "max"
    # V <= W: the odd multiple carries 1/(1-W) too
    assert h_func(p, 0.0, 0.0) == pytest.approx(2.0)
    assert h_func(p, np.pi, 0.0) == pytest.approx(2.0)
    hb = (1 - V ** 2) / ((1 - W) * (1 - q1 * V))
    assert h_func(p, xb, 0.0) == pytest.approx(hb, abs=1e-12)
    assert h_func(p, -xb, 0.0) == pytest.approx(hb, abs=1e-12)


def test_critical_points_q1_high():
    p = VWPair(0.7, 0.5)
    assert q1_threshold(p) > 1.0
    assert _near(_sign_changes(p), np.array([0.0, np.pi]))
    assert _kind(p, 0.0) == "min" and _kind(p, np.pi) == "max"
    assert h_func(p, np.pi, 0.0) == pytest.approx(1.7 / (1.5 * 0.3),
                                                  abs=1e-12)


def test_critical_points_are_stationary(rng):
    h = 1e-6
    for _ in range(25):
        V, W = rng.uniform(0.05, 0.95, 2)
        p = VWPair(V, W)
        q1 = q1_threshold(p)
        xs = [0.0, np.pi]
        if q1 <= 1.0:
            xb = float(np.arccos(-q1))
            xs += [-xb, xb]
        for x in xs:
            val = h_func(p, x, 0.0)
            fp = h_func(p, x + h, 0.0)
            fm = h_func(p, x - h, 0.0)
            assert abs(fp - fm) / (2 * h) <= 1e-9 * max(1.0, abs(val) / h)


# ------------------------------------- second derivatives at multiples of pi

@pytest.mark.parametrize("V,W,x", [
    (0.45, 0.5, 0.0),
    (0.7, 0.5, np.pi),
    (0.3, 0.8, 2 * np.pi),
    (0.25, 0.65, -np.pi),
])
def test_second_derivatives_stencil_oracle(V, W, x):
    # at beta = 0 and x a multiple of pi (cos x = c), with D = 1 + V c:
    # H_xbeta = fmax V (c + V) / D^3 and H_xx - H_xbeta = f''max / D,
    # f''max from a Richardson-extrapolated central difference
    p = VWPair(V, W)
    c = math.cos(x)
    den = 1.0 + V * c
    fm = f_vw_max(p, x)

    def d2f(hh):
        return (f_vw_max(p, x + hh) - 2.0 * fm + f_vw_max(p, x - hh)) / hh ** 2

    h = 1e-4
    f2 = (4.0 * d2f(h / 2.0) - d2f(h)) / 3.0
    dxb = fm * V * (c + V) / den ** 3
    dxx = (f2 * den ** 2 + fm * V * (c + V)) / den ** 3
    fd_xx = (-h_func(p, x + 2 * h, 0.0) + 16 * h_func(p, x + h, 0.0)
             - 30 * h_func(p, x, 0.0) + 16 * h_func(p, x - h, 0.0)
             - h_func(p, x - 2 * h, 0.0)) / (12 * h * h)
    fd_xb = (h_func(p, x + h, h) - h_func(p, x + h, -h)
             - h_func(p, x - h, h) + h_func(p, x - h, -h)) / (4 * h * h)
    assert dxx == pytest.approx(fd_xx, abs=1e-5 * max(1, abs(fd_xx)))
    assert dxb == pytest.approx(fd_xb, abs=1e-5 * max(1, abs(fd_xb)))
    assert fd_xx - fd_xb == pytest.approx(
        f2 / den, abs=2e-5 * max(1, abs(fd_xx), abs(fd_xb)))
    assert np.sign(dxx) == np.sign(fd_xx)
    assert np.sign(dxb) == np.sign(fd_xb)


# --------------------------------------------------------- trace_branches

def test_branches_figure_topology():
    # two general branches meeting the axis family
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BranchLost)
        brs = trace_branches(VWPair(0.45, 0.5), np.linspace(0, np.pi, 201))
    axis = [b for b in brs if b.source == "axis_branch"]
    general = [b for b in brs if b.source == "general_branch"]
    assert len(axis) >= 1
    assert len(general) >= 2
    for b in brs:
        assert len(b.beta_samples) == len(b.x_samples) == len(b.h_samples)
        assert np.all(np.diff(b.beta_samples) > 0)
        up = np.all(np.diff(b.h_samples) >= -1e-9)
        down = np.all(np.diff(b.h_samples) <= 1e-9)
        assert up or down


def test_axis_branch_h_value():
    p = VWPair(0.45, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BranchLost)
        brs = trace_branches(p, np.linspace(0, np.pi, 201))
    axis = [b for b in brs if b.source == "axis_branch"][0]
    ref = 1.0 / (1.0 - p.W * np.cos(axis.beta_samples))
    # stored values use the exact formula; cross-check against H itself
    assert np.max(np.abs(axis.h_samples - ref)) <= 1e-10
    hvals = np.array([h_func(p, x, b)
                      for x, b in zip(axis.x_samples, axis.beta_samples)])
    assert np.max(np.abs(hvals - ref)) <= 1e-8
    # and these solutions really are the axis family
    for x, b in zip(axis.x_samples, axis.beta_samples):
        amax, _ = alpha_extrema(p, float(x))
        assert abs(wrap_angle(amax - b)) <= 1e-6


def test_branch_lost_is_reported():
    # the general branches end on the axis family; the tracer reports the
    # merge instead of dying
    with pytest.warns(BranchLost):
        trace_branches(VWPair(0.45, 0.5), np.linspace(0, np.pi, 201))


@pytest.mark.parametrize("V, W", [(0.40, 0.50), (0.80, 0.30),
                                  (0.55, 0.55), (0.75, 0.72)])
def test_batched_roots_equal_one_beta_solves(V, W):
    p = VWPair(V, W)
    betas = np.linspace(0.0, np.pi, 91)
    batch = minimax._stationary_roots(p, betas)
    assert len(batch) == betas.size
    for beta, roots in zip(betas, batch):
        assert np.array_equal(roots, minimax._stationary_roots(p, [beta])[0])


def test_trace_solves_no_beta_twice(monkeypatch):
    solved = []
    solve = minimax._stationary_roots

    def counting(p, betas, *args):
        solved.extend(np.asarray(betas, dtype=float).tolist())
        return solve(p, betas, *args)

    monkeypatch.setattr(minimax, "_stationary_roots", counting)
    grid = np.linspace(0.0, np.pi, 91)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BranchLost)
        trace_branches(VWPair(0.55, 0.55), grid)
    assert len(solved) > grid.size  # this pair needs halving midpoints
    assert len(set(solved)) == len(solved)
    assert set(grid.tolist()) <= set(solved)


def test_trace_solves_midpoints_in_five_batches(monkeypatch):
    # the grid, then one batch per round of 3 halving levels down to 12;
    # solving each midpoint alone took 23 calls here
    calls = []
    solve = minimax._stationary_roots

    def counting(p, betas, *args):
        calls.append(len(betas))
        return solve(p, betas, *args)

    monkeypatch.setattr(minimax, "_stationary_roots", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BranchLost)
        trace_branches(VWPair(0.55, 0.55), np.linspace(0.0, np.pi, 91))
    assert len(calls) <= 5


@settings(max_examples=200, deadline=None)
@given(prev=st.lists(st.integers(-31, 31), max_size=6),
       roots=st.lists(st.integers(-31, 31), max_size=6))
def test_match_equals_argmin_loop(prev, roots):
    # tenths of a radian: many equal distances, some of them across the
    # branch cut at pi
    prev = np.asarray(prev) / 10.0
    roots = np.asarray(roots) / 10.0
    got = minimax._match(prev, roots)
    assert list(got.items()) == list(argmin_match(prev, roots).items())


def _traces(trace, p, betas):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", BranchLost)
        polylines = trace(p, betas)
    return polylines, [(w.category, str(w.message)) for w in caught]


def _assert_same_trace(p, steps):
    betas = np.linspace(0.0, np.pi, steps + 1)
    got, got_lost = _traces(trace_branches, p, betas)
    want, want_lost = _traces(one_midpoint_trace, p, betas)
    assert got_lost == want_lost
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.source == w.source
        for name in ("beta_samples", "x_samples", "h_samples"):
            a, b = getattr(g, name), getattr(w, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("steps", [90, 360])
@pytest.mark.parametrize("V, W", [(0.40, 0.50), (0.80, 0.30),
                                  (0.55, 0.55), (0.75, 0.72)])
def test_trace_equals_one_midpoint_reference(V, W, steps):
    # the batched midpoints leave every branch, sample and loss as the
    # depth-first one-beta solves made them, bit for bit
    _assert_same_trace(VWPair(V, W), steps)


@settings(max_examples=15, deadline=None)
@given(V=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       W=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_trace_equals_one_midpoint_reference_anywhere(V, W):
    _assert_same_trace(VWPair(V, W), 90)


def test_trace_rejects_bad_grids():
    p = VWPair(0.5, 0.5)
    with pytest.raises(ValueError):
        trace_branches(p, [0.5])
    with pytest.raises(ValueError):
        trace_branches(p, [0.5, 0.4])
    with pytest.raises(ValueError):
        trace_branches(p, [0.0, 4.0])
