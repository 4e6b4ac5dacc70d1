import dataclasses
import io
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from conftest import EXAMPLE_A, sample_supported, spectral_kind, unit
from oracles import sphere_max, taylor_expm

import odecond.condition
import odecond.oscillator
from odecond.condition import (
    UNBOUNDED,
    OscillationProfile,
    Scenario,
    epsilon_bounds,
    k_asym,
    k_exact,
    osf,
    ot,
    ot_envelope,
    precision_bound,
    sweep,
)
from odecond.condition import (_EXPANSION_TOL, _k_exact_grid,
                               _k_exact_ratios, _shift_for)
from odecond.errors import (NonDiagonalizable, OdecondError,
                            UnsupportedBlock, ZeroProjection)
from odecond.matrix_core import eigen_decompose, eigen_propagate, mat_exp
from odecond.minimax import h_envelope
from odecond.oscillator import (
    VWPair,
    f_vw_max,
    phase_offset,
    phase_x,
    theta_norm_mat,
)
from odecond.spectral import (
    analyze_spectrum,
    build_Q,
    checked_projection,
)


# Re(L^-1 diag(lam, conj(lam), -1) L) with left rows (1, i, 0), (1, -i, 0),
# (0.6, 0.8, 1): the rightmost left row w has w w^T = 0, so W_1 = 0
_LAM = -0.2 + 1.3j
_L = np.array([[1.0, 1.0j, 0.0], [1.0, -1.0j, 0.0], [0.6, 0.8, 1.0]])
W_ZERO_A = np.linalg.solve(_L, np.diag([_LAM, np.conj(_LAM), -1.0]) @ _L).real


def two_point_grid():
    return np.array([0.0, 1.0])


def wplane_null_basis(block):
    """Orthonormal basis of the directions with zero projection on a
    complex block (the kernel of the stacked Re/Im rows of w_hat)."""
    R = np.vstack([block.w_hat.real, block.w_hat.imag])
    _, _, VT = np.linalg.svd(R)
    return VT[2:]


# ---------------------------------------------------------------- Scenario

def test_scenario_validation():
    g = two_point_grid()
    with pytest.raises(ValueError):
        Scenario(matrix=np.ones((2, 3)), y0=[1.0, 0.0], t_grid=g)
    with pytest.raises(ValueError):
        Scenario(matrix=np.eye(2), y0=[1.0], t_grid=g)
    with pytest.raises(ValueError):
        Scenario(matrix=np.eye(2), y0=[0.0, 0.0], t_grid=g)
    with pytest.raises(ValueError):
        Scenario(matrix=np.eye(2), y0=[1.0, 0.0], z0=[0.7, 0.0], t_grid=g)
    # abs(nan - 1) > tol is False: the unit check alone would let NaN in
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="z0"):
            Scenario(matrix=np.eye(2), y0=[1.0, 0.0], z0=[bad, 0.0],
                     t_grid=g)
    with pytest.raises(ValueError):
        Scenario(matrix=np.eye(2), y0=[1.0, 0.0], t_grid=[1.0, 1.0])
    with pytest.raises(ValueError):
        Scenario(matrix=np.eye(2), y0=[1.0, 0.0], t_grid=g, norm_p=3)
    # the unit requirement follows the scenario norm, not the Euclidean one
    s = Scenario(matrix=np.eye(2), y0=[1.0, 2.0], z0=[0.5, -0.5],
                 t_grid=g, norm_p=1)
    assert s.directional and s.n == 2
    assert np.linalg.norm(s.y0_hat, 1) == pytest.approx(1.0)


# ----------------------------------------------------------------- k_exact

def test_k_exact_identity_time(rng):
    for p in (1, 2, np.inf):
        y0 = rng.normal(size=4)
        z0 = unit(rng.normal(size=4), p)
        s = Scenario(matrix=rng.normal(size=(4, 4)), y0=y0, z0=z0,
                     t_grid=two_point_grid(), norm_p=p)
        assert k_exact(s, 0.0) == pytest.approx(1.0, abs=1e-13)
        worst = Scenario(matrix=s.matrix, y0=y0, t_grid=two_point_grid(),
                         norm_p=p)
        assert k_exact(worst, 0.0) == pytest.approx(1.0, abs=1e-13)


def test_k_exact_scale_invariance(rng):
    A, an = sample_supported(rng, 4)
    y0 = rng.normal(size=4)
    s1 = Scenario(matrix=A, y0=y0, t_grid=two_point_grid())
    s2 = Scenario(matrix=A, y0=-31.7 * y0, t_grid=two_point_grid())
    for t in (0.4, 1.9, 5.0):
        a, b = k_exact(s1, t), k_exact(s2, t)
        assert abs(a - b) <= 1e-12 * a
        assert abs(k_asym(s1, an, t) - k_asym(s2, an, t)) \
            <= 1e-12 * k_asym(s1, an, t)


def test_k_exact_worst_dominates_directions(rng):
    for p in (1, 2, np.inf):
        A, _ = sample_supported(rng, 4, norm_p=p)
        y0 = rng.normal(size=4)
        worst = Scenario(matrix=A, y0=y0, t_grid=two_point_grid(), norm_p=p)
        for t in (0.0, 0.7, 2.3):
            kw = k_exact(worst, t)
            assert kw >= 1.0 - 1e-12
            for _ in range(40):
                z0 = unit(rng.normal(size=4), p)
                s = Scenario(matrix=A, y0=y0, z0=z0,
                             t_grid=two_point_grid(), norm_p=p)
                assert k_exact(s, t) <= kw * (1.0 + 1e-12)


def test_k_exact_worst_is_sphere_max(rng):
    # the worst case equals the directional maximum over the unit sphere
    A, _ = sample_supported(rng, 4)
    y0 = rng.normal(size=4)
    s = Scenario(matrix=A, y0=y0, t_grid=two_point_grid())
    t = 0.9
    E = mat_exp(A, t)
    denom = np.linalg.norm(E @ s.y0_hat)
    mx, _ = sphere_max(lambda us: np.linalg.norm(us @ E.T, axis=1), 4, rng)
    assert k_exact(s, t) == pytest.approx(mx / denom, rel=1e-7)


# ------------------------------------------------------------------ k_asym

def test_k_asym_real_rightmost_constant():
    A = np.diag([1.0, 0.0])
    an = analyze_spectrum(A)
    y0 = np.array([0.6, -0.8])
    s = Scenario(matrix=A, y0=y0, t_grid=two_point_grid())
    for t in (0.0, 1.3, 8.0):
        assert k_asym(s, an, t) == pytest.approx(1.0 / 0.6, rel=1e-14)
    z0 = unit([1.0, 3.0])
    sd = Scenario(matrix=A, y0=y0, z0=z0, t_grid=two_point_grid())
    assert k_asym(sd, an, 2.0) == pytest.approx(abs(z0[0]) / 0.6, rel=1e-14)


def test_k_asym_rejects_unsupported_rightmost():
    an = analyze_spectrum(np.diag([1.0, 1.0, -2.0]), tol=1e-6)
    s = Scenario(matrix=np.diag([1.0, 1.0, -2.0]), y0=[1.0, 1.0, 1.0],
                 t_grid=two_point_grid())
    with pytest.raises(UnsupportedBlock):
        k_asym(s, an, 1.0)


def test_k_asym_factorizes_and_is_periodic(rng):
    # K_inf = OSF * OT exactly, and both repeat with period pi/omega
    for trial in range(12):
        A, an = sample_supported(rng, 5, need_complex_rightmost=True)
        b1 = an.blocks[0]
        y0 = rng.normal(size=5)
        z0 = unit(rng.normal(size=5)) if trial % 2 else None
        s = Scenario(matrix=A, y0=y0, z0=z0, t_grid=two_point_grid())
        period = math.pi / abs(b1.omega)
        for t in rng.uniform(0.0, 9.0, size=4):
            ka = k_asym(s, an, t)
            assert osf(s, an) * ot(s, an, t) == pytest.approx(ka, rel=1e-12)
            assert k_asym(s, an, t + period) == pytest.approx(ka, rel=1e-10)


def test_k_asym_matches_exact_when_dominant(rng):
    # large-time convergence: once the dominance sums are small, the exact
    # and asymptotic numbers agree to the stated precision.  The spectrum
    # is shifted to put the rightmost real part at zero so large t stays
    # inside floating-point range; both condition numbers are shift
    # invariant.
    done = 0
    while done < 8:
        A, an = sample_supported(rng, 5)
        gap = an.blocks[0].r - an.blocks[1].r
        if gap < 0.2:
            continue
        A = A - an.blocks[0].r * np.eye(5)
        an = analyze_spectrum(A)
        y0 = rng.normal(size=5)
        s = Scenario(matrix=A, y0=y0, t_grid=two_point_grid())
        t, t_found = 0.0, None
        while t < 200.0:
            eps_t, _ = epsilon_bounds(an, t)
            eps_tu, _ = epsilon_bounds(an, t, u=s.y0_hat)
            # both sums below 9e-4 caps the certified ratio gap at 2e-3
            if max(eps_t, eps_tu) < 9e-4:
                t_found = t
                break
            t += 0.5
        if t_found is None:
            continue
        eps_t, _ = epsilon_bounds(an, t_found)
        eps_tu, _ = epsilon_bounds(an, t_found, u=s.y0_hat)
        ratio = k_exact(s, t_found) / k_asym(s, an, t_found)
        assert abs(ratio - 1.0) <= precision_bound(eps_t, eps_tu)
        assert abs(ratio - 1.0) <= 2e-3
        done += 1


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than double")
@pytest.mark.parametrize("axis, refs", [
    ("right_minor", (66.841434768672941696, 57.008392600721765692,
                     8.3214180571083517757)),
    ("right_major", (1.000111572772546615, 1.0001534563711313167,
                     1.007199450342303734)),
])
def test_k_asym_demo_at_long_times(axis, refs):
    # the error of omega_1 grows with t in the oscillating term; LAPACK's
    # omega_1, 1.55e-14 off, put k_asym 2.2e-10 off at t = 3000.  The
    # references are k_exact of the demo scenarios, worst case, from
    # mpmath at 60 digits (mp.expm and the 2-norm from mp.svd_r), where
    # the dominance sums bound k_exact / k_asym - 1 below 1e-88
    an = analyze_spectrum(EXAMPLE_A)
    y0 = getattr(an.blocks[0], axis)
    s = Scenario(matrix=EXAMPLE_A, y0=y0, t_grid=two_point_grid())
    got = k_asym(s, an, np.array([200.0, 1000.0, 3000.0]))
    assert np.all(np.abs(got / np.array(refs) - 1.0) <= 2e-12)


# --------------------------------------------------------------------- osf

def test_osf_example_values():
    an = analyze_spectrum(EXAMPLE_A)
    b1 = an.blocks[0]
    W = b1.W_mod
    grid = two_point_grid()
    minor = Scenario(matrix=EXAMPLE_A, y0=b1.right_minor, t_grid=grid)
    major = Scenario(matrix=EXAMPLE_A, y0=b1.right_major, t_grid=grid)
    # orthogonal to the major (minor) singular direction pins the
    # projection modulus to the minor (major) semi-axis
    assert osf(minor, an) == pytest.approx(math.sqrt(2 / (1 - W)), rel=1e-9)
    assert osf(major, an) == pytest.approx(math.sqrt(2 / (1 + W)), rel=1e-9)
    assert round(osf(minor, an), 1) == 38.1
    assert round(osf(major, an), 4) == 1.0003


def test_osf_directional_unit(rng):
    an = analyze_spectrum(EXAMPLE_A)
    y0 = rng.normal(size=3)
    s = Scenario(matrix=EXAMPLE_A, y0=y0, z0=unit(y0),
                 t_grid=two_point_grid())
    assert osf(s, an) == pytest.approx(1.0, rel=1e-14)


def test_osf_coordinate_form(rng):
    an = analyze_spectrum(EXAMPLE_A)
    b1 = an.blocks[0]
    W = b1.W_mod
    for _ in range(25):
        y0 = rng.normal(size=3)
        s = Scenario(matrix=EXAMPLE_A, y0=y0, t_grid=two_point_grid())
        pr = checked_projection(b1, s.y0_hat)
        want = math.sqrt(2.0 / ((1 + W) * pr.c ** 2 + (1 - W) * pr.d ** 2))
        assert osf(s, an) == pytest.approx(want, rel=1e-10)


def test_osf_requires_complex_block():
    an = analyze_spectrum(np.diag([-1.0, -2.0]))
    s = Scenario(matrix=np.diag([-1.0, -2.0]), y0=[1.0, 1.0],
                 t_grid=two_point_grid())
    with pytest.raises(UnsupportedBlock):
        osf(s, an)


# ---------------------------------------------------------------------- ot

def test_ot_directional_phase_trivials(rng):
    # projections with equal (or pi-shifted) angles give a flat term
    an = analyze_spectrum(EXAMPLE_A)
    y0 = rng.normal(size=3)
    for z0 in (unit(y0), -unit(y0)):
        s = Scenario(matrix=EXAMPLE_A, y0=y0, z0=z0, t_grid=two_point_grid())
        for t in np.linspace(0.0, 3.0, 11):
            assert ot(s, an, t) == pytest.approx(1.0, abs=1e-12)


def test_ot_rotation_block_constants(rng):
    # normal matrix: V = W = 0, directional term 1, worst-case term
    # sqrt(1/2), asymptotic condition number constant
    A = np.zeros((3, 3))
    A[0, 1], A[1, 0] = 2.0, -2.0
    A[2, 2] = -3.0
    an = analyze_spectrum(A)
    b1 = an.blocks[0]
    assert b1.V_mod == pytest.approx(0.0, abs=1e-14)
    assert b1.W_mod == pytest.approx(0.0, abs=1e-14)
    y0 = rng.normal(size=3)
    z0 = unit(rng.normal(size=3))
    sd = Scenario(matrix=A, y0=y0, z0=z0, t_grid=two_point_grid())
    sw = Scenario(matrix=A, y0=y0, t_grid=two_point_grid())
    for t in (0.0, 0.7, 2.9):
        assert ot(sd, an, t) == pytest.approx(1.0, abs=1e-12)
        assert ot(sw, an, t) == pytest.approx(math.sqrt(0.5), abs=1e-12)
    prof = ot_envelope(sw, an)
    assert prof.ot_min == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert prof.ot_max == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert prof.q1 == 0.0


def test_ot_rejects_non_euclidean():
    an = analyze_spectrum(EXAMPLE_A, norm_p=1)
    s = Scenario(matrix=EXAMPLE_A, y0=[1.0, 1.0, 0.0],
                 t_grid=two_point_grid(), norm_p=1)
    with pytest.raises(UnsupportedBlock):
        ot(s, an, 0.5)
    with pytest.raises(UnsupportedBlock):
        ot_envelope(s, an)


def test_normal_matrix_moduli_are_exact_zeros():
    # V and W of a normal matrix are rounding noise; the block stores 0.0,
    # so the JSON and every closed form read the same exact zero
    Q, _ = np.linalg.qr(np.random.default_rng(44).normal(size=(4, 4)))
    D = np.zeros((4, 4))
    D[:2, :2] = [[0.3, 1.7], [-1.7, 0.3]]
    D[2:, 2:] = [[-0.5, 0.9], [-0.9, -0.5]]
    A = Q @ D @ Q.T
    an = analyze_spectrum(A)
    b1 = an.blocks[0]
    assert b1.is_complex and (b1.V_mod, b1.W_mod, b1.delta) == (0.0, 0.0, 0.0)
    worst = Scenario(matrix=A, y0=[1.0, 2.0, 3.0, 4.0], t_grid=two_point_grid())
    block = sweep(worst).summary_dict()["block"]
    assert (block["V"], block["W"]) == (0.0, 0.0)
    along = Scenario(matrix=A, y0=worst.y0, z0=[1.0, 0.0, 0.0, 0.0],
                     t_grid=two_point_grid())
    for t in (0.0, 0.3, 1.9):
        assert ot(worst, an, t) == math.sqrt(0.5)
        assert ot(along, an, t) == 1.0


@pytest.mark.parametrize("call", [ot, ot_envelope], ids=["ot", "ot_envelope"])
def test_block_of_another_norm_is_refused(call):
    # w_hat and f depend on the norm: an analysis in another norm than the
    # scenario's is refused, as osf refuses it, not silently used
    for scen_p, analysis_p in ((2, 1), (1, 2), (np.inf, 1)):
        s = Scenario(matrix=EXAMPLE_A, y0=[1.0, 2.0, 3.0], norm_p=scen_p,
                     t_grid=two_point_grid())
        an = analyze_spectrum(EXAMPLE_A, norm_p=analysis_p)
        args = (0.5,) if call is ot else ()
        with pytest.raises(ValueError, match="another matrix or norm"):
            call(s, an, *args)


# ------------------------------------------------------------- ot_envelope

def test_ot_envelope_brackets_dense_grid(rng):
    # one dense period of the term must attain the scenario extremes and
    # stay inside the universal envelopes:
    # a_min <= ot_min <= a_maxmin and a_minmax <= ot_max <= a_max
    for trial in range(8):
        A, an = sample_supported(rng, 5, need_complex_rightmost=True)
        y0 = rng.normal(size=5)
        z0 = unit(rng.normal(size=5)) if trial % 2 else None
        s = Scenario(matrix=A, y0=y0, z0=z0, t_grid=two_point_grid())
        prof = ot_envelope(s, an)
        ts = np.linspace(0.0, prof.period, 2049)
        vals = np.array([ot(s, an, t) for t in ts])
        assert vals.max() <= prof.ot_max * (1 + 1e-9)
        assert vals.min() >= prof.ot_min * (1 - 1e-9)
        assert vals.max() >= prof.ot_max * (1 - 1e-4)
        assert vals.min() <= prof.ot_min * (1 + 1e-4)
        slack = 1e-9
        assert prof.a_min - slack <= prof.ot_min <= prof.a_maxmin + slack
        assert prof.a_minmax - slack <= prof.ot_max <= prof.a_max + slack


def test_ot_envelope_attains_universal_at_special_y0():
    # y0 orthogonal to the major singular direction attains the extreme
    # envelope pair, orthogonal to the minor one the inner pair
    an = analyze_spectrum(EXAMPLE_A)
    b1 = an.blocks[0]
    grid = two_point_grid()
    outer = ot_envelope(
        Scenario(matrix=EXAMPLE_A, y0=b1.right_minor, t_grid=grid), an)
    assert outer.ot_max == pytest.approx(outer.a_max, rel=1e-6)
    assert outer.ot_min == pytest.approx(outer.a_min, rel=1e-6)
    inner = ot_envelope(
        Scenario(matrix=EXAMPLE_A, y0=b1.right_major, t_grid=grid), an)
    assert inner.ot_max == pytest.approx(inner.a_minmax, rel=1e-6)
    assert inner.ot_min == pytest.approx(inner.a_maxmin, rel=1e-6)


def test_ot_envelope_example_displayed_values():
    an = analyze_spectrum(EXAMPLE_A)
    b1 = an.blocks[0]
    s = Scenario(matrix=EXAMPLE_A, y0=b1.right_minor,
                 t_grid=two_point_grid())
    prof = ot_envelope(s, an)
    assert b1.V_mod == pytest.approx(0.9988, abs=5e-5)
    assert b1.W_mod == pytest.approx(0.9986, abs=5e-5)
    assert prof.q1 == pytest.approx(0.9995, abs=5e-5)
    assert prof.a_max == pytest.approx(41.0, abs=0.05)
    assert prof.a_min == pytest.approx(0.0263, abs=5e-5)
    assert prof.a_minmax == pytest.approx(1.1869, abs=5e-5)
    assert prof.a_maxmin == pytest.approx(0.9997, abs=5e-5)
    assert prof.osf * prof.ot_max == pytest.approx(1563.0, abs=0.5)
    assert prof.osf * prof.ot_min == pytest.approx(1.0, abs=1e-6)


def test_w_squared_scale_does_not_cancel():
    # the demo's W = 0.99862...: 1 - W**2 is 3.7e-15 off the exact 1 - W^2
    # of that float, (1 + W)(1 - W) within 1e-16; the worst-case ot, its
    # range and the matrix Theta norm must carry the second form
    an = analyze_spectrum(EXAMPLE_A)
    b1 = an.blocks[0]
    V, W = b1.V_mod, b1.W_mod
    exact = 1 - Fraction(W) ** 2

    def rel(v):
        return float(abs(Fraction(v) - exact) / exact)

    assert rel((1.0 + W) * (1.0 - W)) <= 1.5e-16
    assert rel(1.0 - W ** 2) >= 3e-15
    scale = float(exact)
    pair = VWPair(V, W)
    s = Scenario(matrix=EXAMPLE_A, y0=np.array([1.0, 2.0, 3.0]),
                 t_grid=two_point_grid())
    d_y = phase_offset(b1, s.y0_hat)
    for t in (0.0, 0.7, 2.9):
        x = phase_x(b1, t)
        ref = math.sqrt(scale / 2.0 * f_vw_max(pair, x)
                        / (1.0 + V * math.cos(x + d_y)))
        assert ot(s, an, t) == pytest.approx(ref, rel=1e-15, abs=0.0)
        ref = math.sqrt(scale / 4.0 * f_vw_max(pair, x))
        assert theta_norm_mat(b1, t) == pytest.approx(ref, rel=1e-15, abs=0.0)
    prof = ot_envelope(s, an)
    env = h_envelope(pair, d_y)
    for got, h in ((prof.ot_max, env.h_max), (prof.ot_min, env.h_min)):
        assert got == pytest.approx(math.sqrt(scale / 2.0 * h),
                                    rel=1e-15, abs=0.0)


def test_ot_envelope_w_zero_crafted(rng):
    # w w^T = 0 kills the beta dependence: every y0 sees the same extremes
    an = analyze_spectrum(W_ZERO_A)
    V, W = an.blocks[0].V_mod, an.blocks[0].W_mod
    assert W == 0.0 and V > 0.0
    for _ in range(5):
        s = Scenario(matrix=W_ZERO_A, y0=rng.normal(size=3),
                     t_grid=two_point_grid())
        prof = ot_envelope(s, an)
        assert prof.ot_max == pytest.approx(
            math.sqrt((1 + V) / (2 * (1 - V))), rel=1e-12)
        assert prof.ot_min == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert prof.q1 == math.inf
        assert prof.a_minmax == pytest.approx(prof.a_max, rel=1e-12)


def test_ot_envelope_directional_universal(rng):
    # directional extremes depend on the angle gap only; their universal
    # envelope is sqrt((1+V)/(1-V)) down to its reciprocal
    an = analyze_spectrum(EXAMPLE_A)
    b1 = an.blocks[0]
    V = b1.V_mod
    hi = math.sqrt((1 + V) / (1 - V))
    for _ in range(10):
        y0 = rng.normal(size=3)
        z0 = unit(rng.normal(size=3))
        s = Scenario(matrix=EXAMPLE_A, y0=y0, z0=z0, t_grid=two_point_grid())
        prof = ot_envelope(s, an)
        assert prof.a_max == pytest.approx(hi, rel=1e-13)
        assert prof.a_min == pytest.approx(1.0 / hi, rel=1e-13)
        assert prof.a_minmax == 1.0 and prof.a_maxmin == 1.0
        assert prof.ot_min <= 1.0 + 1e-12 <= prof.ot_max + 2e-12


# ---------------------------------------------------------------- epsilon

def test_epsilon_empty_sum():
    A = np.array([[0.0, 2.0], [-2.0, 0.0]])
    an = analyze_spectrum(A)
    assert an.q == 1
    eps, ratios = epsilon_bounds(an, 1.0)
    assert eps == 0.0 and ratios == []


def test_epsilon_diagonal_closed_form():
    an = analyze_spectrum(np.diag([1.0, -1.0]))
    u = unit([1.0, 1.0])
    for t in (0.0, 0.3, 1.7):
        eps, ratios = epsilon_bounds(an, t, u=u)
        assert eps == pytest.approx(math.exp(-2 * t), rel=1e-14)
        assert ratios == [1.0]


def test_epsilon_q_matrix_oracle(rng):
    # rebuild both sums from the oscillator matrices directly
    worst = 0.0
    for _ in range(25):
        A, an = sample_supported(rng, 5)
        b1 = an.blocks[0]
        u = unit(rng.normal(size=5))
        for t in rng.uniform(0.0, 4.0, size=3):
            eps_u, _ = epsilon_bounds(an, t, u=u)
            eps_m, _ = epsilon_bounds(an, t)
            q1u = np.linalg.norm(build_Q(b1, t) @ u)
            ref_u = sum(
                math.exp((b.r - b1.r) * t)
                * np.linalg.norm(build_Q(b, t) @ u) / q1u
                for b in an.blocks[1:])
            ref_m = sum(
                math.exp((b.r - b1.r) * t)
                * np.linalg.norm(build_Q(b, t), 2)
                / np.linalg.norm(build_Q(b1, t), 2)
                for b in an.blocks[1:])
            worst = max(worst,
                        abs(eps_u - ref_u) / max(1.0, ref_u),
                        abs(eps_m - ref_m) / max(1.0, ref_m))
    assert worst < 1e-9


def _envelope_floor(V, W):
    # smallest value of 4 ||Theta(t)||^2 over t
    if V <= W:
        return (1 + W) * (1 - V)
    return (1 - W) * (1 + V)


def test_epsilon_g_ratio_bounds(rng):
    seen = set()
    for _ in range(40):
        A, an = sample_supported(rng, 5)
        b1 = an.blocks[0]
        u = unit(rng.normal(size=5))
        t = float(rng.uniform(0.0, 6.0))
        _, ratios_u = epsilon_bounds(an, t, u=u)
        _, ratios_m = epsilon_bounds(an, t)
        for bj, ru, rm in zip(an.blocks[1:], ratios_u, ratios_m):
            pair = (b1.kind, bj.kind)
            seen.add(pair)
            tol = 1e-12
            if b1.is_real and bj.is_real:
                assert ru == 1.0 and rm == 1.0
            elif b1.is_real and bj.is_complex:
                assert ru <= 2.0 + tol and rm <= 2.0 + tol
            elif b1.is_complex and bj.is_real:
                assert ru <= math.sqrt(1 / (2 * (1 - b1.V_mod))) + tol
                assert rm <= math.sqrt(
                    1 / _envelope_floor(b1.V_mod, b1.W_mod)) + tol
            else:
                assert ru <= math.sqrt(
                    (1 + bj.V_mod) / (1 - b1.V_mod)) + tol
                assert rm <= math.sqrt(
                    (1 + bj.W_mod) * (1 + bj.V_mod)
                    / _envelope_floor(b1.V_mod, b1.W_mod)) + tol
    assert len(seen) >= 3


def test_epsilon_skips_zero_projection_terms():
    # direction orthogonal to the subdominant left row: its term drops out
    an = analyze_spectrum(EXAMPLE_A)
    b2 = an.blocks[1]
    assert b2.is_real
    w2 = b2.w_hat.real
    basis = np.linalg.svd(w2[None, :])[2][1:]
    u = unit(basis[0] + basis[1])
    eps, ratios = epsilon_bounds(an, 0.8, u=u)
    assert eps == 0.0 and ratios == [0.0]


def test_epsilon_zero_projection_on_rightmost_raises():
    an = analyze_spectrum(EXAMPLE_A)
    null = wplane_null_basis(an.blocks[0])[0]
    with pytest.raises(ZeroProjection):
        epsilon_bounds(an, 1.0, u=null)


def test_epsilon_refuses_a_norm_other_than_the_analysis():
    an = analyze_spectrum(EXAMPLE_A)
    u = unit([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="norm"):
        epsilon_bounds(an, 1.0, u=u, p=1)
    with pytest.raises(ValueError, match="norm"):
        epsilon_bounds(an, 1.0, p=np.inf)
    assert epsilon_bounds(an, 1.0, u=u, p=2) == epsilon_bounds(an, 1.0, u=u)


def test_epsilon_overflow_at_negative_t_is_uncertified():
    # e^{(r_j - r_1) t} overflows at large negative t: eps is inf, quietly
    an = analyze_spectrum(EXAMPLE_A)
    eps, _ = epsilon_bounds(an, np.array([-1e3, 0.5]))
    assert eps[0] == math.inf and math.isfinite(eps[1])
    # a directional run whose propagated norms stay finite: a 45-degree
    # rotation of diag(0, -1), in the max norm, at t = -710
    A = [[-0.5, 0.5], [0.5, -0.5]]
    s = Scenario(matrix=A, y0=[1.0, 0.5], z0=[1.0, 0.0], norm_p=np.inf,
                 t_grid=np.array([-710.0, -700.0]))
    ser = sweep(s)
    assert np.all(np.isfinite(ser.k_exact))
    assert ser.eps_t[0] == ser.eps_tu[0] == math.inf
    assert np.all(ser.precision_bound == UNBOUNDED)


def test_epsilon_p_norm_bound(rng):
    # complex-over-real ratios stay at most 2 for every p-norm
    for p in (1, np.inf):
        found = 0
        while found < 5:
            A, an = sample_supported(rng, 5, norm_p=p)
            if not an.blocks[0].is_real:
                continue
            if not any(b.is_complex for b in an.blocks[1:]):
                continue
            u = unit(rng.normal(size=5), p)
            _, ratios = epsilon_bounds(an, float(rng.uniform(0, 4)), u=u, p=p)
            assert all(r <= 2.0 + 1e-12 for r in ratios)
            found += 1


# --------------------------------------------------------- precision_bound

def test_precision_bound_values():
    assert precision_bound(0.0, 0.0) == 0.0
    assert precision_bound(0.01, 0.01) == pytest.approx(0.02 / 0.99)
    assert precision_bound(0.5, 1.0) == UNBOUNDED
    assert precision_bound(0.5, 1.5) == UNBOUNDED
    out = precision_bound(np.array([0.0, 0.01, 0.2]),
                          np.array([0.0, 0.01, 1.0]))
    assert out[0] == 0.0
    assert out[1] == pytest.approx(0.02 / 0.99)
    assert math.isinf(out[2])


# ------------------------------------------------------------------- sweep

def test_sweep_series_consistency(rng):
    A, an = sample_supported(rng, 5, need_complex_rightmost=True)
    y0 = rng.normal(size=5)
    grid = np.linspace(0.0, 6.0, 33)
    s = Scenario(matrix=A, y0=y0, t_grid=grid)
    ser = sweep(s, an)
    assert np.array_equal(ser.t, grid)
    assert np.allclose(ser.ot * ser.osf, ser.k_asym, rtol=1e-13)
    mask = ser.eps_tu < 1.0
    want = (ser.eps_t + ser.eps_tu)[mask] / (1.0 - ser.eps_tu[mask])
    assert np.allclose(ser.precision_bound[mask], want, rtol=1e-13)
    assert np.all(np.isinf(ser.precision_bound[~mask]))
    assert ser.warnings == ()
    # worst-case series dominates 1
    assert np.all(ser.k_exact >= 1.0 - 1e-12)


def test_sweep_dominance_inequality(rng):
    # the dominance bound restated: the asymptotic number stands in for
    # the exact one within the computed precision wherever eps(t, y0) < 1
    for _ in range(6):
        A, an = sample_supported(rng, 5)
        y0 = rng.normal(size=5)
        s = Scenario(matrix=A, y0=y0, t_grid=np.linspace(0.0, 10.0, 41))
        ser = sweep(s, an)
        m = ser.eps_tu < 1.0
        lhs = np.abs(ser.k_exact / ser.k_asym - 1.0)[m]
        assert np.all(lhs <= ser.precision_bound[m] * (1 + 1e-12) + 1e-15)


def test_sweep_real_rightmost_converges_monotonically():
    A = np.diag([-1.0, -2.0])
    s = Scenario(matrix=A, y0=[0.8, -0.6], t_grid=np.linspace(0.0, 12.0, 25))
    ser = sweep(s)
    assert ser.profile.block_kind == "real"
    assert ser.profile.period is None and ser.profile.a_max is None
    assert np.ptp(ser.k_asym) == 0.0
    assert np.all(ser.ot == 1.0)
    gap = np.abs(ser.k_exact - ser.k_asym)
    assert np.all(np.diff(gap) <= 1e-14)


def test_sweep_example_series_peaks():
    an = analyze_spectrum(EXAMPLE_A)
    b1 = an.blocks[0]
    # omega = 1: 256 samples per period pi over four periods
    s = Scenario(matrix=EXAMPLE_A, y0=b1.right_minor,
                 t_grid=np.linspace(0.0, 4 * math.pi, 1025))
    ser = sweep(s, an)
    # the peaks here have phase half-width ~ sqrt(1 - W) = 2.1 degrees, so
    # the 256-per-period grid clips them by a few percent; the
    # figure-level magnitude still comes through
    assert ser.k_asym.max() > 1500.0
    assert ser.k_asym.max() <= ser.osf * ser.profile.ot_max * (1 + 1e-12)
    assert ser.k_asym.min() >= ser.osf * ser.profile.ot_min * (1 - 1e-12)
    # exact curve tracks the asymptotic one closely once eps decays
    m = ser.eps_tu < 1e-3
    assert np.any(m)
    assert np.all(np.abs(ser.k_exact[m] / ser.k_asym[m] - 1.0) < 1e-2)
    # a 1024-per-period grid resolves both extremes to a few permille
    dense = Scenario(matrix=EXAMPLE_A, y0=b1.right_minor,
                     t_grid=np.linspace(0.0, 4 * math.pi, 4097))
    ser_d = sweep(dense, an)
    assert ser_d.k_asym.max() == pytest.approx(ser.osf * ser.profile.ot_max,
                                               rel=5e-3)
    assert ser_d.k_asym.min() == pytest.approx(ser.osf * ser.profile.ot_min,
                                               abs=5e-3)


def test_sweep_unsupported_subdominant_block():
    # the repeated -1 is two member blocks: the dominance sums run over
    # them, so the certificate is finite although the group is not generic
    A = np.diag([1.0, -1.0, -1.0])
    an = analyze_spectrum(A)
    assert not an.all_supported and an.rightmost_generic
    s = Scenario(matrix=A, y0=[1.0, 0.5, 0.5], t_grid=np.linspace(0, 2, 5))
    ser = sweep(s, an)
    assert np.all(np.isfinite(ser.eps_t)) and np.all(np.isfinite(ser.eps_tu))
    assert ser.warnings == ()
    assert ser.block_info["all_blocks_supported"] is False
    m = ser.eps_tu < 1.0
    assert m.sum() == 4
    gap = np.abs(ser.k_exact[m] / ser.k_asym[m] - 1.0)
    assert np.all(gap <= ser.precision_bound[m] + 1e-15)
    assert np.all(np.isfinite(ser.k_exact)) and np.all(np.isfinite(ser.k_asym))


_SPLIT_KINDS = ("pair_real", "repeated_real", "two_pairs", "near_real_pair")


def _rotation(r, b):
    return np.array([[r, b], [-b, r]])


def _split_group_matrix(rng, kind):
    """S D S^-1 with cond(S) = 10 and a rightmost pair 0.1 +- i w1, whose
    first subdominant real part a holds a group of two members: a pair and
    a real eigenvalue, a repeated real eigenvalue, or two pairs."""
    n = int(rng.integers(4, 9))
    a = rng.uniform(-1.5, -0.5)
    blocks = [_rotation(0.1, rng.uniform(0.8, 1.25))]
    blocks += {"pair_real": [_rotation(a, 1.7), [[a]]],
               "repeated_real": [[[a]], [[a]]],
               "two_pairs": [_rotation(a, 0.9), _rotation(a, 2.3)]}[kind]
    while sum(len(b) for b in blocks) < n:
        blocks.append([[a - 1.0 - len(blocks)]])
    D = scipy.linalg.block_diag(*blocks)
    n = D.shape[0]
    q = [np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2)]
    S = q[0] @ np.diag(np.geomspace(1.0, 10.0, n)) @ q[1]
    return np.linalg.solve(S.T, (S @ D).T).T


@pytest.mark.parametrize("kind", _SPLIT_KINDS)
def test_member_dominance_sums_bound_split_groups(kind):
    # |k_exact / k_asym - 1| <= precision_bound wherever eps(t, y0) < 1,
    # with k_exact from the long-double Taylor oracle, on spectra whose
    # subdominant group is not generic.  near_real_pair: -1 +- 1e-9 i,
    # |Im| far below the grouping tolerance, whose V rounds to 1, outside
    # the closed forms.  On this grid the bound stays above 4e-9, so the
    # 1e-12 slack does not carry the inequality
    rng = np.random.default_rng(_SPLIT_KINDS.index(kind))
    if kind == "near_real_pair":
        matrices = [scipy.linalg.block_diag(_rotation(0.1, 1.0),
                                            [[-1.0, 1.0], [-1e-18, -1.0]])]
    else:
        matrices = [_split_group_matrix(rng, kind) for _ in range(3)]
    ts = np.linspace(0.0, 15.0, 16)
    for A in matrices:
        n = A.shape[0]
        E = [taylor_expm(A, t) for t in ts]
        y0 = rng.standard_normal(n)
        for p in (1, 2, np.inf):
            an = analyze_spectrum(A, norm_p=p)
            assert an.rightmost_generic and not an.all_supported
            if kind == "near_real_pair" and p == 2:
                assert an.blocks[1].V_mod == 1.0
            for z0 in (None, unit(rng.standard_normal(n), p)):
                s = Scenario(matrix=A, y0=y0, z0=z0, norm_p=p, t_grid=ts)
                ser = sweep(s, an)
                assert ser.warnings == ()
                num = [np.linalg.norm(e if z0 is None else e @ z0, p)
                       for e in E]
                ke = np.array(num) / [np.linalg.norm(e @ s.y0_hat, p)
                                      for e in E]
                m = ser.eps_tu < 1.0
                assert m.sum() >= 8
                gap = np.abs(ke[m] / ser.k_asym[m] - 1.0)
                assert np.all(gap <= ser.precision_bound[m] + 1e-12)


@pytest.mark.parametrize("matrix, norm_p", [(EXAMPLE_A, 1), (W_ZERO_A, 2)])
def test_foreign_analysis_is_refused(matrix, norm_p):
    # w_hat and f depend on the matrix and the norm: every scenario-level
    # function refuses an analysis of another pair, which would give a
    # silently wrong osf, ot and k_asym; here the demo scenario meets its
    # matrix in another norm, or another 3x3 in its own norm
    foreign = analyze_spectrum(matrix, norm_p=norm_p)
    for p in (1, 2, np.inf):
        if matrix is EXAMPLE_A and p == norm_p:
            continue
        s = Scenario(matrix=EXAMPLE_A, y0=[1.0, 2.0, 3.0], norm_p=p,
                     t_grid=two_point_grid())
        for call in (lambda: sweep(s, foreign),
                     lambda: k_asym(s, foreign, 1.0),
                     lambda: osf(s, foreign),
                     lambda: ot(s, foreign, 1.0),
                     lambda: ot_envelope(s, foreign)):
            with pytest.raises(ValueError, match="another matrix or norm"):
                call()
        own = analyze_spectrum(EXAMPLE_A, norm_p=p)
        assert osf(s, own) == sweep(s, own).osf


def test_osf_refuses_block_of_another_norm():
    s = Scenario(matrix=EXAMPLE_A, y0=[1.0, 2.0, 3.0], norm_p=1,
                 t_grid=two_point_grid())
    with pytest.raises(ValueError, match="another matrix or norm"):
        osf(s, analyze_spectrum(EXAMPLE_A))
    good = analyze_spectrum(EXAMPLE_A, norm_p=1)
    assert osf(s, good) == sweep(s, good).osf


@pytest.mark.parametrize("t", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("call, takes_array", [
    (lambda s, an, t: k_exact(s, t), False),
    (lambda s, an, t: k_asym(s, an, t), True),
    (lambda s, an, t: ot(s, an, t), False),
    (lambda s, an, t: epsilon_bounds(an, t, u=s.z0), True),
], ids=["k_exact", "k_asym", "ot", "epsilon_bounds"])
def test_non_finite_t_is_refused(call, takes_array, t):
    # a non-finite t has no condition number: refused, never NaN; the
    # array forms refuse a grid holding one
    an = analyze_spectrum(EXAMPLE_A)
    bad = [t, np.array([0.0, t])] if takes_array else [t]
    for z0 in (None, [0.0, 1.0, 0.0]):
        s = Scenario(matrix=EXAMPLE_A, y0=[1.0, 2.0, 3.0], z0=z0,
                     t_grid=two_point_grid())
        for tb in bad:
            with pytest.raises(ValueError, match="t must be finite"):
                call(s, an, tb)


def test_sweep_projection_warning_band():
    an = analyze_spectrum(EXAMPLE_A)
    b1 = an.blocks[0]
    null = wplane_null_basis(b1)[0]
    inplane = b1.right_major
    y_warn = unit(null + 1e-8 * inplane)
    s = Scenario(matrix=EXAMPLE_A, y0=y_warn, t_grid=two_point_grid())
    ser = sweep(s, an)
    assert any("near-degenerate" in w for w in ser.warnings)
    assert np.all(np.isfinite(ser.k_asym))
    with pytest.raises(ZeroProjection):
        sweep(Scenario(matrix=EXAMPLE_A, y0=null, t_grid=two_point_grid()),
              an)


def test_sweep_csv_json_serialization():
    A = np.diag([-1.0, -2.0])
    s = Scenario(matrix=A, y0=[0.8, -0.6], t_grid=np.linspace(0.0, 2.0, 5))
    ser = sweep(s)
    buf = io.StringIO()
    ser.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,k_exact,k_asym,osf,ot,eps_t,eps_tu,precision_bound"
    assert len(lines) == 6
    # 17 significant digits survive a float round-trip
    for line, row in zip(lines[1:], ser._table()):
        got = [float(v) for v in line.split(",")]
        for g, w in zip(got, row):
            assert g == w or (math.isnan(g) and math.isnan(w))
    jbuf = io.StringIO()
    ser.to_json(jbuf)
    doc = json.loads(jbuf.getvalue())
    assert doc["profile"]["block_kind"] == "real"
    assert doc["profile"]["period"] is None
    assert doc["block"]["kind"] == "simple_single_real"
    assert doc["block"]["block_count"] == 2
    assert doc["warnings"] == []


def expansion_estimates(s, an):
    """Per sample, the error estimate of sweep's eigen-expansion, inf
    where the expansion is not formed."""
    r1 = _shift_for(s.matrix, an.eigensystem.eigenvalues)
    est = np.full(s.t_grid.shape, np.inf)
    for idx, e, *_ in eigen_propagate(s.matrix, an.eigensystem, s.y0_hat,
                                      s.z0, s.t_grid, r1, s.norm_p,
                                      _EXPANSION_TOL):
        est[idx] = e
    return est


@pytest.mark.parametrize("directional", [False, True],
                         ids=["worst", "directional"])
@pytest.mark.parametrize("p", [1, 2, np.inf], ids=["p1", "p2", "pinf"])
def test_sweep_matches_scalar_functions(rng, p, directional):
    # the grid sweep evaluates every column at once; the scalar functions
    # are its oracle, sample by sample
    A, an = sample_supported(rng, 5, norm_p=p, need_complex_rightmost=True)
    z0 = unit(rng.normal(size=5), p) if directional else None
    s = Scenario(matrix=A, y0=rng.normal(size=5), z0=z0, norm_p=p,
                 t_grid=np.linspace(0.0, 4.0, 21))
    ser = sweep(s, an)
    # k_exact stays on the Pade kernel, and so do the sweep's rejected
    # samples, to 1e-14; an expanded sample, worst case or directional, is
    # within its own error estimate of it
    est = expansion_estimates(s, an)
    if directional:
        assert np.any(est <= _EXPANSION_TOL)
    for i, t in enumerate(s.t_grid):
        et, _ = epsilon_bounds(an, t, u=z0, p=p)
        eu, _ = epsilon_bounds(an, t, u=s.y0_hat, p=p)
        assert ser.k_asym[i] == pytest.approx(k_asym(s, an, t), rel=4e-15)
        assert ser.eps_t[i] == pytest.approx(et, rel=4e-15)
        assert ser.eps_tu[i] == pytest.approx(eu, rel=4e-15)
        rel = est[i] if est[i] <= _EXPANSION_TOL else 1e-14
        assert ser.k_exact[i] == pytest.approx(k_exact(s, t), rel=rel)


def test_csv_bytes_match_per_cell_formatting():
    # the row-at-a-time writer must reproduce the per-cell f-string output
    # byte for byte, inf (UNBOUNDED) and NaN cells included
    s = Scenario(matrix=EXAMPLE_A, y0=[1.0, 2.0, 3.0],
                 t_grid=np.linspace(0.0, 3.0, 7))
    ser = sweep(s)
    eps_t = ser.eps_t.copy()
    eps_t[[1, 4]] = math.nan
    bound = ser.precision_bound.copy()
    bound[[0, 4]] = UNBOUNDED
    k_exact_col = ser.k_exact.copy()
    k_exact_col[2] = -0.0
    k_exact_col[3] = 5e-324
    ser = dataclasses.replace(ser, eps_t=eps_t, precision_bound=bound,
                              k_exact=k_exact_col)
    buf = io.StringIO()
    ser.to_csv(buf)
    cols = (ser.t, ser.k_exact, ser.k_asym, np.full(7, ser.osf), ser.ot,
            ser.eps_t, ser.eps_tu, ser.precision_bound)
    expected = "t,k_exact,k_asym,osf,ot,eps_t,eps_tu,precision_bound\n" + \
        "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                for row in zip(*cols))
    assert buf.getvalue() == expected
    assert ",nan," in expected and expected.count(",inf\n") == 2


def _csv_per_row(ser):
    # the reference writer: every cell of every row formatted, osf too
    fmt = ",".join(["%.17g"] * 8) + "\n"
    return "t,k_exact,k_asym,osf,ot,eps_t,eps_tu,precision_bound\n" + \
        "".join(fmt % tuple(row) for row in ser._table())


def test_csv_with_osf_formatted_once_equals_per_row_writer():
    # the demo's two scenarios, and seeded worst-case and directional
    # sweeps: the same bytes as formatting osf in every row
    from odecond.cli import _DEMO_MATRIX
    A = np.array(_DEMO_MATRIX)
    an = analyze_spectrum(A)
    grid = np.linspace(0.0, 4.0 * math.pi, 1025)
    series = [sweep(Scenario(matrix=A, y0=y0, t_grid=grid), an)
              for y0 in (an.blocks[0].right_minor, an.blocks[0].right_major)]
    frng = np.random.default_rng(11)
    for k in range(4):
        B, bn = sample_supported(frng, 5)
        z0 = unit(frng.standard_normal(5)) if k % 2 else None
        series.append(sweep(Scenario(matrix=B, y0=frng.standard_normal(5),
                                     z0=z0, t_grid=np.linspace(0.0, 9.0, 65)),
                            bn))
    for ser in series:
        buf = io.StringIO()
        ser.to_csv(buf)
        assert buf.getvalue() == _csv_per_row(ser)


def test_sweep_directional_bound_uses_z0_dominance_sum():
    # a directional condition number is certified by eps(t, z0), not by
    # the worst-case eps(t); with eps(t) the bound fails on this scenario
    frng = np.random.default_rng(3)
    A = frng.standard_normal((5, 5))
    y0 = frng.standard_normal(5)
    z0 = unit(frng.standard_normal(5))
    evals = np.linalg.eigvals(A)
    w1 = abs(evals[np.argmax(evals.real)].imag)
    s = Scenario(matrix=A, y0=y0, z0=z0,
                 t_grid=np.linspace(0.0, 4.0 * math.pi / w1, 257))
    an = analyze_spectrum(A)
    ser = sweep(s, an)
    m = ser.eps_tu < 1.0
    assert m.sum() > 200
    gap = np.abs(ser.k_exact / ser.k_asym - 1.0)
    # 1e-12 absorbs the rounding of k_exact where the bound is ~0
    assert np.all(gap[m] <= ser.precision_bound[m] + 1e-12)
    eps_z = np.array([epsilon_bounds(an, t, u=z0)[0] for t in s.t_grid])
    np.testing.assert_allclose(ser.eps_t, eps_z, rtol=4e-15)


@pytest.mark.parametrize("shift", [5.0, -5.0])
def test_k_exact_invariant_under_spectral_shift(shift):
    # e^{tA} over- or underflows here; the propagation runs with A - r1 I
    s = Scenario(matrix=EXAMPLE_A + shift * np.eye(3), y0=[1.0, 2.0, 3.0],
                 t_grid=two_point_grid())
    assert k_exact(s, 100.0) == pytest.approx(3.92080387689, abs=1e-10)
    assert math.isfinite(k_exact(s, 160.0))
    ser = sweep(Scenario(matrix=s.matrix, y0=s.y0,
                         t_grid=np.linspace(90.0, 160.0, 9)))
    assert np.all(np.isfinite(ser.k_exact))


def test_k_exact_worst_case_near_overflow():
    # far from normal: e^{tA} has entries near 1e198, whose squares
    # overflow; matrix_norms scales each matrix by a power of two before it
    # forms the Gram matrix.  e^{tA} e_1 = e_1 keeps the denominator 1.
    n = 6
    A = np.diag(-np.arange(n, dtype=float)) + np.diag(np.full(n - 1, 1e40), 1)
    s = Scenario(matrix=A, y0=np.eye(n)[0], t_grid=two_point_grid())
    E = mat_exp(s.matrix - s._shift * np.eye(s.n), 1.0)
    assert np.abs(E).max() > 1e197
    ref = (np.linalg.svd(E, compute_uv=False)[0]
           / np.linalg.norm(E @ s.y0_hat))
    got = k_exact(s, 1.0)
    assert math.isfinite(got)
    assert abs(got / ref - 1.0) <= 1e-14


@pytest.mark.parametrize("y0, z0", [("ones", None), ("e1", "ones")])
def test_k_exact_vector_norms_near_overflow(y0, z0):
    # the matrix above: e^{tA} ones peaks at 3.4e197, so the 2-norms of
    # e^{tA} y0_hat and e^{tA} z0 scale by a power of two before they
    # square, as matrix_norms does
    n = 6
    A = np.diag(-np.arange(n, dtype=float)) + np.diag(np.full(n - 1, 1e40), 1)
    vec = {"e1": np.eye(n)[0], "ones": np.ones(n)}
    z = None if z0 is None else vec[z0] / math.sqrt(n)
    s = Scenario(matrix=A, y0=vec[y0], z0=z, t_grid=two_point_grid())
    E = mat_exp(s.matrix - s._shift * np.eye(s.n), 1.0)
    num = (np.linalg.svd(E, compute_uv=False)[0] if z is None
           else math.hypot(*(E @ z)))
    ref = num / math.hypot(*(E @ s.y0_hat))
    got = k_exact(s, 1.0)
    assert math.isfinite(got)
    assert abs(got / ref - 1.0) <= 1e-14


@pytest.mark.parametrize("z0", [None, [0.0, 1.0, 0.0]])
def test_y0_hat_is_formed_once_per_scenario(z0):
    # sweep reads y0_hat in exact propagation, the projections and the
    # dominance sums: one cached, read-only array serves them all
    s = Scenario(matrix=EXAMPLE_A, y0=[1.0, 2.0, 3.0], z0=z0,
                 t_grid=np.linspace(0.0, 1.0, 5))
    with mock.patch("odecond.condition._unit_scaled",
                    wraps=odecond.condition._unit_scaled) as scaled:
        sweep(s)
        assert s.y0_hat is s.y0_hat
    assert scaled.call_count == 1
    assert not s.y0_hat.flags.writeable


def test_scenario_normalizes_y0_near_overflow():
    # ||y0|| squares entries near 1e200; scaled by a power of two first,
    # y0_hat is the unit vector of y0 = (1, 1) and k_exact its value
    big = Scenario(matrix=np.diag([0.0, -1.0]), y0=[1e200, 1e200],
                   t_grid=two_point_grid())
    unit_y0 = Scenario(matrix=np.diag([0.0, -1.0]), y0=[1.0, 1.0],
                       t_grid=two_point_grid())
    assert np.array_equal(big.y0_hat, unit_y0.y0_hat)
    assert k_exact(big, 1.0) == k_exact(unit_y0, 1.0)


def test_sweep_shifts_by_the_analysis_r1():
    # sweep takes r1 from its spectrum analysis; only k_exact, which has
    # none, runs an eigensolver of its own
    s = Scenario(matrix=EXAMPLE_A + 5.0 * np.eye(3), y0=[1.0, 2.0, 3.0],
                 t_grid=np.linspace(90.0, 160.0, 9))
    an = analyze_spectrum(s.matrix)
    eigvals = np.linalg.eigvals

    def no_eigensolve_of_a(m):
        # the envelope's 6 x 6 companion matrices may pass; A may not
        if np.shape(m) == s.matrix.shape:
            raise AssertionError("eigvals called on A")
        return eigvals(m)

    with mock.patch.object(np.linalg, "eigvals",
                           side_effect=no_eigensolve_of_a):
        ser = sweep(s, an)
    ref = [k_exact(s, t) for t in s.t_grid]
    np.testing.assert_allclose(ser.k_exact, ref, rtol=1e-12)


def test_k_exact_raises_typed_error_when_propagation_fails():
    # y0 lies in the decaying eigenspace: ||e^{t(A - r1 I)} y0|| underflows
    s = Scenario(matrix=np.diag([0.0, -1.0]), y0=[0.0, 1.0],
                 t_grid=two_point_grid())
    assert k_exact(s, 10.0) == pytest.approx(math.exp(10.0))
    with pytest.raises(OdecondError, match="underflows"):
        k_exact(s, 800.0)
    # an exponential that overflows even after the shift
    s = Scenario(matrix=[[0.0, 1e308], [0.0, -1.0]], y0=[1.0, 1.0],
                 t_grid=two_point_grid())
    with pytest.raises(OdecondError, match="not finite"):
        k_exact(s, 10.0)


def test_k_exact_errors_name_only_failing_samples():
    # one chunk of three samples, one failing: the message names it alone
    s = Scenario(matrix=np.diag([0.0, -1.0]), y0=[0.0, 1.0],
                 t_grid=two_point_grid())
    with pytest.raises(OdecondError,
                       match=r"underflows to zero for t in \[800, 800\]"):
        _k_exact_grid(s, np.array([0.0, 10.0, 800.0]), 0.0)
    E = np.stack([np.eye(2), np.full((2, 2), 1e308), np.eye(2)])
    with pytest.raises(OdecondError, match=r"not finite for t in \[1, 1\]"):
        _k_exact_ratios(E, np.array([1.0, 0.0]), None, 1,
                        np.array([0.0, 1.0, 2.0]))


@pytest.mark.parametrize("p", [1, np.inf], ids=["p1", "pinf"])
def test_sweep_p_norm_ot_range_from_grid(p):
    # no closed form bounds ot for p in {1, inf}; the profile reports the
    # extremes of the series over the grid and says so
    s = Scenario(matrix=EXAMPLE_A, y0=[1.0, 2.0, 3.0], norm_p=p,
                 t_grid=np.linspace(0.0, 4.0 * math.pi, 257))
    ser = sweep(s)
    prof = ser.profile
    assert prof.ot_range_source == "grid"
    assert (prof.ot_min, prof.ot_max) != (1.0, 1.0)
    assert prof.ot_min == ser.ot.min() and prof.ot_max == ser.ot.max()
    assert ser.summary_dict()["profile"]["ot_range_source"] == "grid"


def test_ot_range_source_closed_form_and_real():
    s = Scenario(matrix=EXAMPLE_A, y0=[1.0, 2.0, 3.0],
                 t_grid=two_point_grid())
    assert sweep(s).profile.ot_range_source == "closed_form"
    real = Scenario(matrix=np.diag([-1.0, -2.0]), y0=[0.8, -0.6],
                    t_grid=two_point_grid())
    assert sweep(real).profile.ot_range_source is None
    with pytest.raises(ValueError):
        OscillationProfile(osf=1.0, block_kind="complex",
                           ot_range_source="guess")


def test_oscillation_profile_validation():
    with pytest.raises(ValueError):
        OscillationProfile(osf=-1.0, block_kind="real")
    with pytest.raises(ValueError):
        OscillationProfile(osf=1.0, block_kind="weird")
    with pytest.raises(ValueError):
        OscillationProfile(osf=1.0, block_kind="complex",
                           ot_min=2.0, ot_max=1.0)
    with pytest.raises(ValueError):
        OscillationProfile(osf=1.0, block_kind="complex", period=1.0,
                           a_min=1.0, a_maxmin=0.5, a_minmax=2.0, a_max=3.0)


# ------------------------------------------- two routes to k_exact

def test_sweep_projects_each_block_once():
    # one member pass: sweep projects y0_hat and z0 on the rightmost block
    # once, for k_asym and both dominance sums, and ot_envelope once more;
    # each subdominant block once per direction.  The g_1 of each direction
    # is formed once, by k_asym, and normalizes that direction's sum: 4
    # g_factor calls, where separate k_asym and epsilon_bounds calls made 6
    # (and 10 or 5 projections)
    for z0, projections in (([0.0, 1.0, 0.0], 6), (None, 3)):
        s = Scenario(matrix=EXAMPLE_A, y0=[1.0, 2.0, 3.0], z0=z0,
                     t_grid=np.linspace(0.0, 4.0 * math.pi, 65))
        wrapped = mock.Mock(wraps=odecond.spectral.checked_projection)
        g = mock.Mock(wraps=odecond.oscillator.g_factor)
        with mock.patch("odecond.condition.checked_projection", wrapped), \
                mock.patch("odecond.oscillator.checked_projection",
                           wrapped), \
                mock.patch("odecond.condition.g_factor", g):
            sweep(s)
        assert wrapped.call_count <= projections
        assert g.call_count == 4


def test_sweep_forms_the_rightmost_theta_stack_once():
    # a p = 1 worst case with three complex pairs: the (T, n, n) Theta
    # stack of the rightmost block is formed once, by k_asym, and eps(t)
    # reuses its g_1(t); 6 Theta norms in all (3 blocks, 2 directions),
    # where the separate calls formed 8, that stack twice
    A, _ = spectral_kind(np.random.default_rng(6), 6)
    s = Scenario(matrix=A, y0=np.arange(1.0, 7.0), norm_p=1,
                 t_grid=np.linspace(0.0, 4.0 * math.pi, 65))
    an = analyze_spectrum(A, norm_p=1)
    theta = mock.Mock(wraps=odecond.oscillator._theta_norm_p)
    with mock.patch("odecond.oscillator._theta_norm_p", theta):
        sweep(s, an)
    stacks = [c for c in theta.call_args_list
              if c.args[0] is an.blocks[0] and c.args[2] is None]
    assert len(stacks) == 1
    assert theta.call_count == 6


def test_repeated_eigenvalue_expands_without_warning():
    # -2 twice: a gap of 0, so the expansion's 1 / gap_j is inf, which
    # bounds nothing and must not warn (RuntimeWarning is an error here)
    A = np.zeros((4, 4))
    A[:2, :2] = [[-0.1, 1.0], [-1.0, -0.1]]
    A[2, 2] = A[3, 3] = -2.0
    s = Scenario(matrix=A, y0=np.ones(4), z0=0.5 * np.ones(4),
                 t_grid=np.linspace(0.0, 4.0 * np.pi, 65))
    an = analyze_spectrum(s.matrix)
    ser = sweep(s, an)
    est = expansion_estimates(s, an)
    took = est <= _EXPANSION_TOL
    assert took.all()
    pade = _k_exact_grid(s, s.t_grid,
                         _shift_for(s.matrix, an.eigensystem.eigenvalues))
    assert np.all(np.abs(ser.k_exact / pade - 1.0) <= est)


@pytest.mark.parametrize("matrix", ["demo", "rotation"])
def test_rejected_samples_equal_the_pade_column(matrix):
    # a directional sample the estimate rejects has the bits of the Pade
    # column over the whole grid, doubling chains included; an accepted one
    # is within its estimate of it.  On the demo matrix (cond(V) = 52)
    # nearly every sample to t = 4096 is rejected; on a normal one those
    # from t ~ 400 on are, and the halves of some are not.
    A = {"demo": EXAMPLE_A,
         "rotation": [[-0.1, 1.0, 0.0], [-1.0, -0.1, 0.0],
                      [0.0, 0.0, -1.0]]}[matrix]
    s = Scenario(matrix=A, y0=[1.0, 2.0, 3.0], z0=[0.0, 1.0, 0.0],
                 t_grid=np.linspace(0.0, 4096.0, 2049))
    an = analyze_spectrum(s.matrix)
    ser = sweep(s, an)
    pade = _k_exact_grid(s, s.t_grid,
                         _shift_for(s.matrix, an.eigensystem.eigenvalues))
    est = expansion_estimates(s, an)
    took = est <= _EXPANSION_TOL
    assert np.array_equal(ser.k_exact[~took], pade[~took])
    assert np.all(np.abs(ser.k_exact[took] / pade[took] - 1.0)
                  <= est[took])
    if matrix == "demo":
        assert took.mean() < 0.01
    else:
        assert 0.05 < took.mean() < 0.5 and took[:took.sum()].all()


def test_n100_directional_sweep_expands_every_sample():
    # the kind of matrix the benchmark sweeps at n = 100, over four periods
    # of the rightmost pair: every sample takes the expansion, with no Pade
    # call, each within its estimate of the Pade column.  Not every matrix
    # of the kind does: near t ~ 1, where some fifty subdominant modes
    # still weigh in, the estimate charges each its own eigenvector error,
    # and over seeds 0-89 of this builder 12 expand every sample, the mean
    # share is 80% and the least 5%.
    rng = np.random.default_rng(10)
    A, w1 = spectral_kind(rng, 100)
    s = Scenario(matrix=A, y0=rng.standard_normal(100),
                 z0=unit(rng.standard_normal(100)),
                 t_grid=np.linspace(0.0, 4.0 * math.pi / w1, 129))
    an = analyze_spectrum(A)
    est = expansion_estimates(s, an)
    assert np.all(est <= _EXPANSION_TOL)
    with mock.patch("odecond.condition.expm_grid",
                    side_effect=AssertionError("Pade kernel called")):
        ser = sweep(s, an)
    pade = _k_exact_grid(s, s.t_grid,
                         _shift_for(A, an.eigensystem.eigenvalues))
    assert np.all(np.abs(ser.k_exact / pade - 1.0) <= est)


def test_directional_underflow_raises_the_same_error():
    # y0 in the decaying eigenspace: ||e^{tB} y0_hat|| underflows from
    # t ~ 745 on.  The expansion rejects those samples, and the Pade kernel
    # refuses the same ones, as it does on its own.  (sweep refuses this y0
    # before, for its zero projection on the rightmost block.)
    s = Scenario(matrix=np.diag([0.0, -1.0]), y0=[0.0, 1.0],
                 z0=[1.0, 0.0], t_grid=np.linspace(0.0, 800.0, 17))
    es = eigen_decompose(s.matrix)
    with pytest.raises(OdecondError) as pade:
        _k_exact_grid(s, s.t_grid, 0.0)
    with pytest.raises(OdecondError) as both:
        _k_exact_grid(s, s.t_grid, 0.0, es)
    assert str(both.value) == str(pade.value)
    assert "underflows to zero for t in [750, 750]" in str(both.value)


def far_from_normal(c):
    """A seeded 6 x 6 S D S^-1 with cond(S) = c: D holds the rightmost pair
    -0.1 +- i, the pair -0.8 +- 2.5i and the real -1.5 and -2.2 (real-part
    gaps 0.7 to 2.1), S = Q1 diag(geomspace(1, c, 6)) Q2; and a y0."""
    rng = np.random.default_rng(0)
    D = np.zeros((6, 6))
    D[0:2, 0:2] = [[-0.1, 1.0], [-1.0, -0.1]]
    D[2:4, 2:4] = [[-0.8, 2.5], [-2.5, -0.8]]
    D[4, 4], D[5, 5] = -1.5, -2.2
    q1 = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    q2 = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    S = q1 @ np.diag(np.geomspace(1.0, c, 6)) @ q2
    return np.linalg.solve(S.T, (S @ D).T).T, rng.standard_normal(6)


@pytest.mark.parametrize("p", [1, 2, np.inf], ids=["p1", "p2", "pinf"])
@pytest.mark.parametrize("c", [1e2, 1e3, 1e4])
def test_worst_case_expansion_against_the_taylor_oracle(c, p):
    # far from normal, where the Pade kernel is the less accurate route
    # (ROADMAP item 9): its k_exact is up to 3.1e-12 (c = 1e2) to 2.9e-6
    # (c = 1e4) off the long-double oracle of e^{tA} itself over [0, 40].
    # An expanded sample of the worst case is within its estimate of the
    # oracle, and the swept column is nowhere worse than the Pade column.
    # At _EXPANSION_TOL no sample of these expands, so the expansion is
    # also formed at every sample whatever its estimate, and each is within
    # it: up to 1.5e-13 (c = 1e2) to 7.1e-9 (c = 1e4) off, at most 0.061
    # of its estimate
    A, y0 = far_from_normal(c)
    ts = np.linspace(0.0, 40.0, 81)
    s = Scenario(matrix=A, y0=y0, norm_p=p, t_grid=ts)
    an = analyze_spectrum(A, norm_p=p)
    r1 = _shift_for(A, an.eigensystem.eigenvalues)
    ref = np.empty(ts.size)
    for i, t in enumerate(ts):
        E = taylor_expm(A, t)
        ref[i] = np.linalg.norm(E, p) / np.linalg.norm(E @ s.y0_hat, p)
    swept = _k_exact_grid(s, ts, r1, an.eigensystem)
    pade = _k_exact_grid(s, ts, r1)
    est = expansion_estimates(s, an)
    took = est <= _EXPANSION_TOL
    err = np.abs(swept / ref - 1.0)
    assert np.all(err[took] <= est[took])
    assert err.max() <= np.abs(pade / ref - 1.0).max()
    formed = 0
    for idx, e, X, e_norm, y_norm in eigen_propagate(
            A, an.eigensystem, s.y0_hat, None, ts, r1, p, np.inf):
        assert np.all(np.abs(e_norm / y_norm / ref[idx] - 1.0) <= e)
        formed += idx.size
    assert formed == ts.size


def test_k_exact_stays_on_pade_and_takes_defective_matrices():
    # the scalar k_exact, the sweep's oracle, never expands; a Jordan block,
    # which the eigendecomposition refuses, still has a k_exact
    jordan = np.array([[-1.0, 1.0], [0.0, -1.0]])
    with pytest.raises(NonDiagonalizable):
        eigen_decompose(jordan)
    s = Scenario(matrix=jordan, y0=[0.0, 1.0], z0=[1.0, 0.0],
                 t_grid=two_point_grid())
    with mock.patch("odecond.condition.eigen_propagate",
                    side_effect=AssertionError("expansion called")):
        # e^{tJ} (0, 1) = e^{-t} (t, 1), e^{tJ} (1, 0) = e^{-t} (1, 0)
        assert k_exact(s, 3.0) == pytest.approx(1.0 / math.hypot(3.0, 1.0),
                                                rel=1e-14)
