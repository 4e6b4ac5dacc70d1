"""Self-tests of the benchmark's checks: each passes on the program's real
output and flags a deliberately corrupted copy of it.

    python3 -m pytest -q perfbench/test_checks.py
"""
import math
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from odecond import (Scenario, VWPair, analyze_spectrum, f_vw_max,  # noqa: E402
                     f_vw_min, sweep)
from odecond.minimax import h_envelope_sweep, trace_branches  # noqa: E402


def _series(A, y0, z0=None, p=2, steps=513, periods=4):
    analysis = analyze_spectrum(A, norm_p=p)
    w1 = abs(analysis.blocks[0].omega)
    s = Scenario(matrix=A, y0=y0, z0=z0, norm_p=p,
                 t_grid=np.linspace(0.0, periods * math.pi / w1, steps))
    ser = sweep(s, analysis)
    cols = {k: np.array(getattr(ser, k)) for k in
            ("t", "k_exact", "k_asym", "ot", "eps_t", "eps_tu",
             "precision_bound")}
    prof = {k: getattr(ser.profile, k) for k in
            ("block_kind", "ot_min", "ot_max", "a_min", "a_max")}
    return cols, prof


def _seeded_case(n=6, seed=7):
    rng = np.random.default_rng(seed)
    A, _ = workloads.spectral_matrix(rng, n)
    return A, rng.standard_normal(n)


def test_taylor_expm_matches_scipy():
    rng = np.random.default_rng(11)
    B = 3.0 * rng.standard_normal((8, 8))
    ref = scipy.linalg.expm(B)
    got = checks.taylor_expm(B)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_k_exact_check_flags_scaled_value():
    A, y0 = _seeded_case()
    s, _ = _series(A, y0)
    assert checks.check_k_exact(s, A, y0, None, 2) == []
    s["k_exact"] = s["k_exact"] * (1.0 + 1e-6)
    assert checks.check_k_exact(s, A, y0, None, 2)


def test_certificate_checks_flag_halved_bound():
    A, y0 = _seeded_case()
    s, _ = _series(A, y0)
    assert checks.check_bound_formula(s) == []
    assert checks.check_certificate(s) == []
    s["precision_bound"] = s["precision_bound"] / 2.0
    assert checks.check_bound_formula(s)


def test_certificate_flags_halved_bound_where_it_is_tight():
    # S diag(+-i, -3/4) S^-1 with y0 chosen so that the worst-case gap
    # reaches 96 % of the bound, found by a seeded search over 3x3 cases
    S = np.array([[-0.24, -1.23, -0.94],
                  [1.75, 0.75, 0.68],
                  [-0.02, -0.35, -0.03]])
    D = scipy.linalg.block_diag([[0.0, 1.0], [-1.0, 0.0]], [[-0.75]])
    A = S @ D @ np.linalg.inv(S)
    y0 = np.array([-0.43, 0.52, -0.09])
    s, _ = _series(A, y0, periods=16)
    assert checks.check_certificate(s) == []
    s["precision_bound"] = s["precision_bound"] / 2.0
    assert checks.check_certificate(s)


def test_ot_range_check_flags_lowered_maximum():
    A, y0 = _seeded_case()
    s, prof = _series(A, y0)
    assert checks.check_ot_range(s, prof, euclidean=True) == []
    prof["ot_max"] = 0.99 * float(s["ot"].max())
    assert checks.check_ot_range(s, prof, euclidean=True)


def test_f_check_flags_one_perturbed_entry():
    V, W = 0.55, 0.53
    pair = VWPair(V, W)
    xs = np.linspace(0.0, 2.0 * math.pi, 721)
    fmax = np.asarray(f_vw_max(pair, xs))
    fmin = np.asarray(f_vw_min(pair, xs))
    rows = np.arange(0, 721, 60)
    assert checks.check_f_rows(V, W, xs, fmax, fmin, rows) == []
    fmax[rows[3]] *= 1.0 + 1e-6
    assert len(checks.check_f_rows(V, W, xs, fmax, fmin, rows)) == 1


def test_h_check_flags_one_perturbed_entry():
    V, W = 0.80, 0.30
    betas = np.linspace(0.0, math.pi, 13)
    hi, lo, _, _ = h_envelope_sweep(VWPair(V, W), betas)
    rows = range(betas.size)
    assert checks.check_h_rows(V, W, betas, hi, lo, rows) == []
    lo[5] *= 1.0 - 1e-6
    assert len(checks.check_h_rows(V, W, betas, hi, lo, rows)) == 1


def test_branch_check_flags_moved_point():
    V, W = 0.45, 0.5
    polys = trace_branches(VWPair(V, W), np.linspace(0.0, math.pi, 61))
    beta = np.concatenate([p.beta_samples for p in polys])
    x = np.concatenate([p.x_samples for p in polys])
    h = np.concatenate([p.h_samples for p in polys])
    assert checks.check_branch_points(V, W, beta, x, h) == []
    x[len(x) // 2] += 1e-3
    assert checks.check_branch_points(V, W, beta, x, h)
