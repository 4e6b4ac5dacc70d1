from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample_supported, unit
from oracles import (
    cosine_theta_norm,
    curvature_extrema,
    grid_extreme_f,
    sphere_max,
)

from odecond import matrix_core
from odecond.errors import DegenerateConstant, ZeroProjection
from odecond.oscillator import (
    _U_FLOOR_FACTOR,
    VWPair,
    _alpha_extrema_arrays,
    alpha_extrema,
    f_vw,
    f_vw_max,
    f_vw_min,
    g_factor,
    phase_offset,
    phase_x,
    theta_norm_mat,
    theta_norm_u,
    wrap_angle,
)
from odecond.spectral import _member_blocks, analyze_spectrum, build_Q


def complex_block(rng, n, norm_p=2):
    _, an = sample_supported(rng, n, norm_p=norm_p, need_complex_rightmost=True)
    return an.blocks[0]


# ------------------------------------------------------------------ f_vw

def test_f_constant_cases():
    assert f_vw(VWPair(0.0, 0.0), 1.3, -2.1) == 1.0
    assert f_vw(VWPair(0.5, 0.5), 0.0, 0.0) == pytest.approx(3.0)


def test_f_reevaluation_oracle(rng):
    # same function with the division distributed over the sum, so the
    # operation order differs from the implementation
    for _ in range(300):
        V, W = rng.uniform(0, 0.999, 2)
        a, x = rng.uniform(-12, 12, 2)
        den = 1.0 - W * np.cos(a)
        ref = 1.0 / den + (V * np.cos(x + a)) / den
        assert f_vw(VWPair(V, W), a, x) == pytest.approx(ref, abs=1e-15, rel=1e-15)


def test_f_positive(rng):
    for _ in range(200):
        V, W = rng.uniform(0, 0.999, 2)
        a, x = rng.uniform(-12, 12, 2)
        assert f_vw(VWPair(V, W), a, x) > 0.0


def test_vwpair_rejects_out_of_range():
    with pytest.raises(ValueError):
        VWPair(1.0, 0.2)
    with pytest.raises(ValueError):
        VWPair(0.2, -0.1)


# --------------------------------------------------------- alpha_extrema

def test_alpha_extrema_w_zero():
    p = VWPair(0.7, 0.0)
    for x in (0.3, 2.9, -1.2, 6.0):
        amax, amin = alpha_extrema(p, x)
        assert wrap_angle(amax + x) == pytest.approx(0.0, abs=1e-12)
        assert f_vw(p, amax, x) == pytest.approx(1.7, abs=1e-12)
        assert f_vw(p, amin, x) == pytest.approx(0.3, abs=1e-12)


def test_alpha_extrema_degenerate_limit():
    # at V = W the extremizer formulas lose meaning at x = pi; the
    # continuity limits take over: alpha_max -> arcsin V - pi/2
    amax, amin = alpha_extrema(VWPair(0.6, 0.6), np.pi)
    assert amax == pytest.approx(np.arcsin(0.6) - np.pi / 2, abs=1e-12)
    assert amin == pytest.approx(np.pi / 2 - np.arcsin(0.6), abs=1e-12)
    # and they join the regular branch continuously
    amax2, amin2 = alpha_extrema(VWPair(0.6, 0.6), np.pi - 1e-6)
    assert abs(wrap_angle(amax - amax2)) < 1e-5
    assert abs(wrap_angle(amin - amin2)) < 1e-5


def test_alpha_extrema_constant_raises():
    with pytest.raises(DegenerateConstant):
        alpha_extrema(VWPair(0.0, 0.0), 1.0)


def test_alpha_extrema_stationarity(rng):
    # central differences: zero slope, correct curvature sign
    h = 1e-6
    for _ in range(150):
        V, W = rng.uniform(0.05, 0.999, 2)
        x = rng.uniform(-10, 10)
        p = VWPair(V, W)
        amax, amin = alpha_extrema(p, x)
        for a, sign in ((amax, -1.0), (amin, 1.0)):
            f0 = f_vw(p, a, x)
            fp = f_vw(p, a + h, x)
            fm = f_vw(p, a - h, x)
            scale = max(1.0, abs(f0) / h)
            assert abs(fp - fm) / (2 * h) <= 1e-9 * scale
            assert sign * (fp - 2 * f0 + fm) >= -1e-12 * scale


def test_alpha_extrema_stationarity_residual(rng):
    # sin(theta_U + alpha_max) must reproduce VW sin x / |U|
    for _ in range(1000):
        V, W = rng.uniform(0.01, 0.999, 2)
        x = rng.uniform(-10, 10)
        amax, _ = alpha_extrema(VWPair(V, W), x)
        U = V * np.exp(1j * x) + W
        assert abs(np.sin(np.angle(U) + amax) - V * W * np.sin(x) / abs(U)) <= 1e-10


def test_arcsin_argument_strictly_admissible(rng):
    # |VW sin x| < |U(x)| whenever U does not vanish, so the arcsin
    # argument is always admissible
    V = rng.uniform(0, 0.9999, 10 ** 5)
    W = rng.uniform(0, 0.9999, 10 ** 5)
    x = rng.uniform(-20, 20, 10 ** 5)
    absU = np.abs(V * np.exp(1j * x) + W)
    keep = absU > 0
    assert np.all(np.abs(V * W * np.sin(x))[keep] < absU[keep])


_BELOW_ONE = 1.0 - 1e-12


@settings(max_examples=300, deadline=None)
@given(V=st.floats(0.0, _BELOW_ONE), W=st.floats(0.0, _BELOW_ONE),
       tie=st.sampled_from(["free", "V=W", "W=0", "near floor"]),
       x=st.floats(-30.0, 30.0), d=st.floats(-1e-6, 1e-6),
       k=st.integers(-3, 3), f=st.floats(0.25, 4.0))
def test_arcsin_branch_equals_curvature_reference(V, W, tie, x, d, k, f):
    # the maximizer from the arcsin branch is the curvature-classified
    # one bit for bit: V = W, x within 1e-6 of an odd multiple of pi,
    # |U| on both sides of the floor, W = 0, min(V, W) up to 1 - 1e-12
    if tie == "V=W":
        W = V
    elif tie == "W=0":
        W = 0.0
    elif tie == "near floor":
        W = V * (1.0 - f * _U_FLOOR_FACTOR)  # |U| >= |V - W| near the floor
    p = VWPair(V, W)
    odd = (2 * k + 1) * np.pi
    # at V = W, |U| = 2 V |cos(x / 2)| crosses the floor near 2e-10 from pi
    xs = [x, odd + d, odd + f * 2e-10, odd - f * 2e-10, 0.0, np.pi]
    if max(V, W) > 0.0:
        peak = np.arccos(-min(V, W) / max(V, W))  # where |s| peaks
        xs += [peak + 2 * k * np.pi, -peak]
    xs = np.array(xs)
    amax, amin = _alpha_extrema_arrays(p, xs)
    ref_max, ref_min = curvature_extrema(p, xs)
    assert amax.tobytes() == ref_max.tobytes()
    assert amin.tobytes() == ref_min.tobytes()
    alone, none = _alpha_extrema_arrays(p, xs, with_min=False)
    assert none is None and alone.tobytes() == ref_max.tobytes()


@pytest.mark.parametrize("V, W", [(0.3, 0.8), (0.8, 0.3), (0.55, 0.55),
                                  (0.999, 0.2), (0.2, 0.999)])
def test_arcsin_argument_peaks_at_smaller_modulus(V, W):
    # max over x of |V W sin x| / |U| is min(V, W) < 1, reached where
    # cos x = -min / max: the reason the arcsin branch tells the maximizer
    peak = np.arccos(-min(V, W) / max(V, W))
    xs = np.concatenate((np.linspace(-np.pi, np.pi, 2 ** 20), [peak]))
    ratio = np.abs(V * W * np.sin(xs)) / np.abs(V * np.exp(1j * xs) + W)
    assert abs(ratio.max() - min(V, W)) <= 4 * np.finfo(float).eps
    grid = ratio[:-1].max()
    assert min(V, W) - 1e-10 <= grid <= min(V, W) + 4 * np.finfo(float).eps


# ------------------------------------------------------ f_vw_max / f_vw_min

def test_extremes_frozen_grid_oracle():
    # frozen from a 1e5-point grid with bounded polish
    cases = [
        (0.35, 0.80, 1.1, 5.844059298542398, 0.4170902236751692),
        (0.92, 0.15, -2.4, 1.747932574266432, 0.0898979469720501),
        (0.69, 0.69, 3.0, 1.144266804411892, 0.8739220574645269),
    ]
    for V, W, x, fmax, fmin in cases:
        p = VWPair(V, W)
        assert f_vw_max(p, x) == pytest.approx(fmax, abs=1e-10)
        assert f_vw_min(p, x) == pytest.approx(fmin, abs=1e-10)


def test_extremes_random_grid_oracle(rng):
    for _ in range(25):
        V, W = rng.uniform(0, 0.999, 2)
        x = rng.uniform(-8, 8)
        p = VWPair(V, W)
        assert f_vw_max(p, x) == pytest.approx(
            grid_extreme_f(V, W, x, which="max"), abs=1e-8)
        assert f_vw_min(p, x) == pytest.approx(
            grid_extreme_f(V, W, x, which="min"), abs=1e-8)


def test_extremes_at_zero_modulus_are_the_constants_exactly():
    # V = 0 or W = 0 takes the general path, whose extremizer angles put
    # the values on (1 + V) / (1 - W) and (1 - V) / (1 + W) bit for bit
    xs = np.concatenate([np.linspace(-1e4, 1e4, 400000), [0.0, np.pi, -np.pi]])
    for V, W in ((0.0, 0.3), (0.0, 0.999), (0.0, 1e-300), (0.4, 0.0),
                 (0.999, 0.0), (1e-300, 0.0), (0.0, 0.0)):
        p = VWPair(V, W)
        assert np.all(f_vw_max(p, xs) == (1 + V) / (1 - W))
        assert np.all(f_vw_min(p, xs) == (1 - V) / (1 + W))


def test_extremes_over_x():
    # the envelope of the envelope: extreme values over x sit at multiples
    # of pi and have closed forms
    for V, W in ((0.3, 0.8), (0.8, 0.3), (0.55, 0.55), (0.95, 0.2)):
        p = VWPair(V, W)
        assert f_vw_max(p, 0.0) == pytest.approx((1 + V) / (1 - W), abs=1e-12)
        lo = (1 - V) / (1 - W) if V <= W else (1 + V) / (1 + W)
        assert f_vw_max(p, np.pi) == pytest.approx(lo, abs=1e-12)
        hi = (1 + V) / (1 + W) if V <= W else (1 - V) / (1 - W)
        assert f_vw_min(p, np.pi) == pytest.approx(hi, abs=1e-12)
        assert f_vw_min(p, 0.0) == pytest.approx((1 - V) / (1 + W), abs=1e-12)
        xs = np.linspace(-9, 9, 2001)
        assert np.all(f_vw_max(p, xs) <= (1 + V) / (1 - W) + 1e-12)
        assert np.all(f_vw_max(p, xs) >= lo - 1e-12)
        assert np.all(f_vw_min(p, xs) >= (1 - V) / (1 + W) - 1e-12)
        assert np.all(f_vw_min(p, xs) <= hi + 1e-12)


def test_vectorized_matches_scalar(rng):
    p = VWPair(0.77, 0.52)
    xs = rng.uniform(-9, 9, 257)
    assert np.array_equal(f_vw_max(p, xs),
                          np.array([f_vw_max(p, float(x)) for x in xs]))
    assert np.array_equal(f_vw_min(p, xs),
                          np.array([f_vw_min(p, float(x)) for x in xs]))


@settings(max_examples=200, deadline=None)
@given(V=st.floats(0.0, 0.999), W=st.floats(0.0, 0.999),
       x=st.floats(-30.0, 30.0))
def test_even_symmetry(V, W, x):
    p = VWPair(V, W)
    assert abs(f_vw_max(p, x) - f_vw_max(p, -x)) <= 1e-12 * f_vw_max(p, x)


@settings(max_examples=100, deadline=None)
@given(V=st.floats(0.0, 0.999), W=st.floats(0.0, 0.999),
       x=st.floats(-30.0, 30.0), seed=st.integers(0, 2 ** 31))
def test_envelope_containment(V, W, x, seed):
    p = VWPair(V, W)
    alphas = np.random.default_rng(seed).uniform(-np.pi, np.pi, 1000)
    vals = f_vw(p, alphas, x)
    assert np.all(vals <= f_vw_max(p, x) + 1e-12)
    assert np.all(vals >= f_vw_min(p, x) - 1e-12)


# ----------------------------------------------------------- theta norms

def test_theta_norm_u_componentwise(rng):
    for _ in range(25):
        n = int(rng.integers(3, 7))
        b = complex_block(rng, n)
        t = float(rng.uniform(0, 9))
        u = unit(rng.normal(size=n))
        gam = np.angle(b.w_hat @ u)
        vec = np.abs(b.v_hat) * np.cos(b.omega * t + np.angle(b.v_hat) + gam)
        assert theta_norm_u(b, t, u) == pytest.approx(
            np.linalg.norm(vec), abs=1e-12)


def test_theta_norm_u_range_and_peak(rng):
    b = complex_block(rng, 5)
    u = unit(rng.normal(size=5))
    lo, hi = np.sqrt((1 - b.V_mod) / 2), np.sqrt((1 + b.V_mod) / 2)
    ts = np.linspace(0, 4 * np.pi / b.omega, 400)
    vals = theta_norm_u(b, ts, u)
    assert np.all(vals >= lo - 1e-12) and np.all(vals <= hi + 1e-12)
    # solve x(t) + Delta(u) = 0 for t and hit the peak exactly
    du = phase_offset(b, u)
    t_peak = ((-du - b.delta) / 2 - b.theta_axis) / b.omega
    assert theta_norm_u(b, t_peak, u) == pytest.approx(hi, abs=1e-12)


def test_theta_norm_constant_when_moduli_vanish(rng):
    # rotation matrix: isotropic eigenvectors give V = W = 0, so both
    # norms are flat in t
    an = analyze_spectrum(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    b = an.blocks[0]
    assert b.V_mod == pytest.approx(0.0, abs=1e-15)
    assert b.W_mod == pytest.approx(0.0, abs=1e-15)
    u = unit(rng.normal(size=2))
    for t in (0.0, 0.31, 2.2):
        assert theta_norm_u(b, t, u) == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert theta_norm_mat(b, t) == pytest.approx(0.5, abs=1e-12)


def test_theta_norm_mat_w_zero_constant():
    # crafted block with w w^T = 0 but v^T v != 0: the matrix norm is the
    # constant sqrt((1+V)/4)
    c = 1.7
    v = np.array([c, 0.0, 1.0], dtype=complex)
    w = np.array([1.0, 1.0j, 0.0]) / c
    members = np.array([-0.2 + 1.3j, -0.2 - 1.3j])
    b = _member_blocks(members[:1], v[None], w[None], 2)[0]
    assert b.W_mod == pytest.approx(0.0, abs=1e-15)
    assert b.V_mod > 0.1
    want = np.sqrt((1 + b.V_mod) / 4)
    for t in (0.0, 0.4, 1.9):
        assert theta_norm_mat(b, t) == pytest.approx(want, abs=1e-12)


def test_theta_norm_mat_componentwise(rng):
    for _ in range(25):
        n = int(rng.integers(3, 7))
        b = complex_block(rng, n)
        t = float(rng.uniform(0, 9))
        Th = np.outer(np.abs(b.v_hat), np.abs(b.w_hat)) * np.cos(
            b.omega * t + np.add.outer(np.angle(b.v_hat), np.angle(b.w_hat)))
        assert theta_norm_mat(b, t) == pytest.approx(
            np.linalg.norm(Th, 2), abs=1e-10)


def test_theta_norm_mat_sphere_oracle(rng):
    b = complex_block(rng, 4)
    t = 1.37

    def fn(us):
        return np.array([abs(b.w_hat @ u) * theta_norm_u(b, t, u) for u in us])

    got, _ = sphere_max(fn, 4, rng, samples=4000)
    assert theta_norm_mat(b, t) == pytest.approx(got, abs=1e-5)


def test_theta_norms_periodic(rng):
    b = complex_block(rng, 5)
    u = unit(rng.normal(size=5))
    period = np.pi / b.omega
    for t in (0.0, 0.7, 3.3):
        assert theta_norm_u(b, t + period, u) == pytest.approx(
            theta_norm_u(b, t, u), abs=1e-12)
        assert theta_norm_mat(b, t + period) == pytest.approx(
            theta_norm_mat(b, t), abs=1e-12)


def test_phase_helpers_direct(rng):
    b = complex_block(rng, 4)
    u = unit(rng.normal(size=4))
    t = 0.83
    assert phase_x(b, t) == pytest.approx(
        2 * (b.omega * t + b.theta_axis) + b.delta, abs=1e-14)
    gam = np.angle(b.w_hat @ u)
    assert np.cos(phase_offset(b, u)) == pytest.approx(
        np.cos(2 * (gam - b.theta_axis)), abs=1e-12)


# -------------------------------------------------------- p in {1, inf}

@pytest.mark.parametrize("p", [1, np.inf])
def test_theta_norm_p_bounded_and_q_consistent(rng, p):
    for _ in range(15):
        n = int(rng.integers(3, 7))
        b = complex_block(rng, n, norm_p=p)
        t = float(rng.uniform(0, 9))
        val = theta_norm_mat(b, t)
        assert val <= 1.0 + 1e-12
        # build_Q is 2 f times the oscillation matrix
        assert val == pytest.approx(
            np.linalg.norm(build_Q(b, t) / (2 * b.f), p), abs=1e-10)
        u = unit(rng.normal(size=n), p)
        gam = np.angle(b.w_hat @ u)
        vec = np.abs(b.v_hat) * np.cos(b.omega * t + np.angle(b.v_hat) + gam)
        got = theta_norm_u(b, t, u)
        assert got == pytest.approx(np.linalg.norm(vec, p), abs=1e-12)
        assert got <= 1.0 + 1e-12


def test_theta_norm_p_inf_is_max_row_sum(rng):
    b = complex_block(rng, 5, norm_p=np.inf)
    t = 2.1
    Th = np.outer(np.abs(b.v_hat), np.abs(b.w_hat)) * np.cos(
        b.omega * t + np.add.outer(np.angle(b.v_hat), np.angle(b.w_hat)))
    assert theta_norm_mat(b, t) == pytest.approx(
        np.max(np.sum(np.abs(Th), axis=1)), abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12),
       p=st.sampled_from([1, 2, np.inf]),
       periods=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=6),
       per_chunk=st.integers(1, 4))
def test_theta_norms_equal_cosine_formula(seed, n, p, periods, per_chunk):
    # the real part of e^{i omega t} v_hat w_hat against one cosine per
    # entry, on arrays of t up to 100 periods cut into chunks of
    # per_chunk samples.  The cosine form rounds its phase sums at the
    # size of omega t, up to eps (|omega t| + 2 pi) per entry, which at
    # 100 periods alone moves a norm by up to 3e-13 relative: the
    # tolerance is 1e-13 relative on top of that bound.  At p = 2 the
    # closed forms in V and W add their own u / (1 - max(V, W)) relative
    rng = np.random.default_rng(seed)
    b = complex_block(rng, n, norm_p=p)
    u = unit(rng.normal(size=n), p)
    ts = np.array(periods) * (2.0 * np.pi / b.omega)
    chunk_bytes = per_chunk * 3 * 8 * n * n
    with mock.patch.object(matrix_core, "STACK_BYTES", chunk_bytes):
        got = {None: theta_norm_mat(b, ts), "u": theta_norm_u(b, ts, u)}
    mv, mw = np.abs(b.v_hat), np.abs(b.w_hat)
    moduli = {None: np.linalg.norm(np.outer(mv, mw), p),
              "u": np.linalg.norm(mv, p)}
    eps = np.finfo(float).eps
    closed = eps / 2.0 / (1.0 - max(b.V_mod, b.W_mod)) if p == 2 else 0.0
    for key, uu in ((None, None), ("u", u)):
        for t, val in zip(ts, got[key]):
            want = cosine_theta_norm(b, t, uu)
            phase = 2.0 * eps * (abs(b.omega * t) + 2 * np.pi)
            assert abs(val - want) <= ((1e-13 + closed) * want
                                       + phase * moduli[key])
            assert val == (theta_norm_mat(b, t) if uu is None
                           else theta_norm_u(b, t, uu))


def test_near_real_member_g_matches_build_Q():
    # a subdominant pair -1 +- 7e-7 i, 1 - V = 1.7e-12: spectral stores V
    # and W as 1, so g comes from the stacked norms, not the closed forms,
    # which lose about u / (1 - V) near the minima of g (4.5e-5 here).
    # Against the SVD of build_Q, ||Q|| = f g and ||Q u|| = f |w_hat u| g
    D = np.zeros((4, 4))
    D[:2, :2] = [[0.1, 1.0], [-1.0, 0.1]]
    D[2:, 2:] = [[-1.0, 1.0], [-5e-13, -1.0]]
    S = np.random.default_rng(1).standard_normal((4, 4))
    an = analyze_spectrum(S @ D @ np.linalg.inv(S))
    b = an.blocks[1]
    assert an.rightmost_generic and b.is_complex
    u = unit(np.random.default_rng(2).standard_normal(4))
    ts = np.linspace(0.0, 2.0 * np.pi / b.omega, 2001)
    Qs = [build_Q(b, t) for t in ts]
    want = np.array([np.linalg.svd(Q, compute_uv=False)[0] for Q in Qs])
    np.testing.assert_allclose(g_factor(b, ts), want / b.f, rtol=1e-10)
    want = np.array([np.linalg.norm(Q @ u) for Q in Qs])
    np.testing.assert_allclose(g_factor(b, ts, u=u),
                               want / (b.f * abs(b.w_hat @ u)), rtol=1e-10)
    assert b.V_mod == b.W_mod == 1.0


# -------------------------------------------------------------- g_factor

def test_g_factor_real_kind():
    an = analyze_spectrum(np.diag([2.0, -1.0, -3.0]))
    for b in an.blocks:
        assert g_factor(b, 1.7) == 1.0
        assert g_factor(b, 0.2, u=unit(np.ones(3))) == 1.0


def test_g_factor_complex_is_twice_theta(rng):
    b = complex_block(rng, 5)
    u = unit(rng.normal(size=5))
    t = 1.9
    assert g_factor(b, t, u=u) == pytest.approx(2 * theta_norm_u(b, t, u))
    assert g_factor(b, t) == pytest.approx(2 * theta_norm_mat(b, t))


def test_g_factor_q_matrix_cross_check(rng):
    # || Q(t) u || = f |w u| g(t,u) and || Q(t) || = f g(t), any p
    for p in (2, 1, np.inf):
        for _ in range(10):
            n = int(rng.integers(3, 7))
            b = complex_block(rng, n, norm_p=p)
            t = float(rng.uniform(0, 9))
            u = unit(rng.normal(size=n), p)
            Q = build_Q(b, t)
            wu = abs(b.w_hat @ u)
            assert np.linalg.norm(Q @ u, p) == pytest.approx(
                b.f * wu * g_factor(b, t, u=u), abs=1e-10)
            assert np.linalg.norm(Q, p) == pytest.approx(
                b.f * g_factor(b, t), abs=1e-10)


def test_g_factor_zero_projection_propagates(rng):
    b = complex_block(rng, 4)
    ns = np.linalg.svd(np.vstack([b.w_hat.real, b.w_hat.imag]))[2][2:]
    u = unit(ns[0])
    with pytest.raises(ZeroProjection):
        g_factor(b, 1.0, u=u)
