import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_A, sample_supported, spectral_kind
from oracles import sphere_max, taylor_expm

from odecond import matrix_core
from odecond.errors import NonDiagonalizable, OdecondError
from odecond.matrix_core import (
    _certified_top_eigenvalue,
    _unit_scaled,
    as_real_matrix,
    eigen_decompose,
    eigen_propagate,
    expm_grid,
    mat_exp,
    matrix_norms,
    vector_norms,
)
from odecond.spectral import analyze_spectrum


# ---------------------------------------------------------------- mat_exp

def test_mat_exp_t_zero_is_identity():
    A = np.array([[3.0, -1.0], [2.5, 0.5]])
    assert np.allclose(mat_exp(A, 0.0), np.eye(2), atol=1e-15)


def test_mat_exp_diagonal():
    A = np.diag([0.3, -1.2])
    E = mat_exp(A, 2.0)
    assert np.allclose(np.diag(E), np.exp([0.6, -2.4]), rtol=1e-14)
    assert abs(E[0, 1]) < 1e-15 and abs(E[1, 0]) < 1e-15


def test_mat_exp_matches_series_oracle():
    rng = np.random.default_rng(101)
    A = rng.normal(size=(4, 4))
    E = mat_exp(A, 1.0)
    E_ref = taylor_expm(A, 1.0)
    err = np.linalg.norm(E - E_ref, 2) / np.linalg.norm(E_ref, 2)
    assert err < 1e-10


def test_mat_exp_group_law():
    rng = np.random.default_rng(7)
    for _ in range(10):
        A = rng.normal(size=(4, 4))
        A *= 5.0 / max(np.linalg.norm(A, 2), 1e-12)
        s, t = rng.uniform(0, 2, size=2)
        lhs = mat_exp(A, s + t)
        rhs = mat_exp(A, s) @ mat_exp(A, t)
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-9 * np.linalg.norm(lhs, 2)


def test_mat_exp_rejects_bad_input():
    with pytest.raises(ValueError):
        mat_exp(np.ones((2, 3)))
    with pytest.raises(ValueError):
        mat_exp(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        mat_exp(np.eye(2), np.inf)


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 2)])
def test_empty_matrix_refused(shape):
    # a typed refusal up front, not an IndexError deep in the eigensolver
    # or a reduction over no entries in the norms
    with pytest.raises(ValueError, match="nonempty"):
        as_real_matrix(np.zeros(shape))
    if shape == (0, 0):
        with pytest.raises(ValueError, match="nonempty"):
            analyze_spectrum(np.zeros(shape))


def _kernel_matrix(kind, rng):
    if kind == "demo":
        return EXAMPLE_A
    if kind == "triangular":
        # non-normal: the off-diagonal dwarfs the spectrum
        return np.array([[-0.5, 1e4, 0.0], [0.0, -1.0, 300.0],
                         [0.0, 0.0, -2.0]])
    if kind == "zero":
        return np.zeros((3, 3))
    n = int(rng.integers(2, 7))
    A = rng.normal(size=(n, n))
    return A * (4.0 / np.linalg.norm(A, 2))


def _grid_stack(B, ts):
    # the stack by index: every index of ts must be yielded exactly once
    n = np.asarray(B).shape[0]
    E = np.full((len(ts), n, n), np.nan)
    seen = np.zeros(len(ts), dtype=int)
    for idx, chunk in expm_grid(B, ts):
        assert chunk.shape == (len(idx), n, n)
        np.add.at(seen, idx, 1)
        E[idx] = chunk
    assert np.all(seen == 1), f"indices yielded {seen.tolist()} times"
    return E


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["demo", "triangular", "zero", "random"]),
       seed=st.integers(0, 2 ** 32 - 1),
       ts=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=12),
       per_chunk=st.integers(1, 5))
def test_expm_grid_matches_series_oracle(kind, seed, ts, per_chunk):
    # every sample of the grid, t = 0 and negative t included, on stacks
    # cut into chunks of per_chunk matrices
    B = _kernel_matrix(kind, np.random.default_rng(seed))
    ts = np.array(ts + [0.0])
    n = B.shape[0]
    chunk_bytes = per_chunk * 3 * 8 * n * n
    with mock.patch.object(matrix_core, "STACK_BYTES", chunk_bytes):
        E = _grid_stack(B, ts)
    assert E.shape == (ts.size, n, n)
    for t, got in zip(ts, E):
        ref = taylor_expm(B, t)
        rel = np.linalg.norm(got - ref, 2) / np.linalg.norm(ref, 2)
        assert rel <= 1e-10, f"{kind} at t = {t}: relative gap {rel:.2e}"
    assert np.array_equal(E[-1], np.eye(n))


def test_expm_grid_repeated_negative_and_unsorted_t():
    # a repeated t is a root of its own; the others square their halves
    B = _kernel_matrix("triangular", None)
    ts = np.array([1.0, 2.0, 2.0, 4.0, -1.0, -2.0, 0.0, 0.0])
    E = _grid_stack(B, ts)
    for t, got in zip(ts, E):
        ref = taylor_expm(B, t)
        rel = np.linalg.norm(got - ref, 2) / np.linalg.norm(ref, 2)
        assert rel <= 1e-10, f"t = {t}: relative gap {rel:.2e}"
    assert np.array_equal(E[1], E[2])


def test_expm_grid_squares_halves_on_a_grid_from_zero():
    # A sample whose half is a sample and whose scaling count is >= 1 is
    # squared from it, not solved.  Samples with no squaring of their own
    # stay roots; on the demo matrix that is t <= 4.8, so the grid is long
    # enough that every even sample but t = 0 is squared.
    ts = np.linspace(0.0, 4096.0, 1025)
    rows = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        rows.append(a.shape[0])
        return solve(a, b)

    with mock.patch.object(np.linalg, "solve", counting_solve):
        E = _grid_stack(EXAMPLE_A, ts)
    assert sum(rows) <= -(-ts.size // 2) + 1
    # against the kernel that solves every sample in one batch
    no_links = (np.full(ts.size, -1), np.arange(ts.size))
    with mock.patch.object(matrix_core, "_doubling_links",
                           return_value=no_links):
        ref = _grid_stack(EXAMPLE_A, ts)
    rel = (np.linalg.norm(E - ref, 2, axis=(1, 2))
           / np.linalg.norm(ref, 2, axis=(1, 2)))
    assert rel.max() <= 4e-15


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["demo", "triangular", "random"]),
       seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 24),
       t1=st.floats(0.01, 64.0), steps=st.integers(2, 65),
       start=st.sampled_from([0.0, -1.0, 0.37]),
       per_chunk=st.sampled_from([1, 2, 5, None]))
def test_mat_exp_equals_grid_bit_for_bit(kind, seed, n, t1, steps, start,
                                         per_chunk):
    # each sample of a grid, solved in a chunk of any size or squared from
    # its half down a doubling chain (grids from 0), has the bits of
    # mat_exp at its t; n up to 24 takes the U B product past the sizes
    # where a BLAS product over the chunk rounds by its row count
    rng = np.random.default_rng(seed)
    if kind == "random":
        B = rng.normal(size=(n, n))
        B *= 4.0 / np.linalg.norm(B, 2)
    else:
        B = _kernel_matrix(kind, rng)
    n = B.shape[0]
    ts = np.linspace(start, t1, steps)
    chunk_bytes = (matrix_core.STACK_BYTES if per_chunk is None
                   else per_chunk * 3 * 8 * n * n)
    with mock.patch.object(matrix_core, "STACK_BYTES", chunk_bytes):
        E = _grid_stack(B, ts)
    for t, got in zip(ts, E):
        assert np.array_equal(mat_exp(B, t), got), f"{kind} at t = {t}"


def test_grid_squares_a_half_only_one_scaling_below():
    # on the demo matrix log2(t) + log2(alpha / theta_13) + e rounds to
    # just above an integer at these t, and log2(t/2) + ... to just below
    # one: s(t/2) is not s(t) - 1, so t must be solved, not squared from
    # t/2, to keep the bits of mat_exp
    for t in (19.252069936807583, 308.0331189889213, 1232.132475955685):
        E = _grid_stack(EXAMPLE_A, np.array([t / 2, t]))
        assert np.array_equal(E[1], mat_exp(EXAMPLE_A, t)), t


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-2.0, 2.0), d=st.floats(-2.0, 2.0),
       b=st.floats(1e2, 1e8), t=st.floats(-6.0, 6.0))
def test_expm_grid_triangular_closed_form(a, d, b, t):
    # e^{t [[a, b], [0, d]]} has the off-diagonal b t e^{dt} phi((a-d) t),
    # phi(x) = (e^x - 1) / x; the series oracle loses digits when b is large
    E = _grid_stack(np.array([[a, b], [0.0, d]]), np.array([t]))[0]
    x = (a - d) * t
    phi = np.expm1(x) / x if x != 0.0 else 1.0
    ref = np.array([[np.exp(a * t), b * t * np.exp(d * t) * phi],
                    [0.0, np.exp(d * t)]])
    rel = np.linalg.norm(E - ref, 2) / np.linalg.norm(ref, 2)
    assert rel <= 1e-10


def test_expm_grid_refuses_what_it_cannot_compute():
    with pytest.raises(OdecondError, match="not finite"):
        list(expm_grid(np.diag([1.0, -1.0]), np.array([0.0, 800.0])))
    # e^{400} is finite; e^{800}, squared from it, is refused as well
    grid = expm_grid(np.diag([1.0, -1.0]), np.array([400.0, 800.0]))
    idx, E = next(grid)
    assert idx.tolist() == [0] and np.isfinite(E).all()
    with pytest.raises(OdecondError, match="not finite"):
        next(grid)
    # an off-diagonal 1e60 times the spectrum: the scaled powers underflow,
    # and the kernel refuses rather than return a value spoilt by the
    # many squarings such a matrix would need
    with pytest.raises(OdecondError, match="not finite"):
        mat_exp(np.array([[0.0, 1e60], [0.0, -1.0]]), 10.0)


# -------------------------------------------------------- eigen-expansion

def graded_matrix(rng, n, cond):
    """S D S^-1 with S of singular values 1 .. cond, D of real entries and
    2x2 rotation blocks with real parts in [-3, 1], scaled by 0.1 .. 30."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    S = q1 @ np.diag(np.geomspace(1.0, cond, n)) @ q2
    D = np.zeros((n, n))
    k = 0
    while k < n:
        a = rng.uniform(-3.0, 1.0)
        if k + 1 < n and rng.random() < 0.6:
            b = rng.uniform(0.2, 3.0)
            D[k:k + 2, k:k + 2] = [[a, b], [-b, a]]
            k += 2
        else:
            D[k, k] = a
            k += 1
    return np.linalg.solve(S.T, (S @ D).T).T * 10.0 ** rng.uniform(-1.0, 1.5)


def expansion(A, U, ts, p, shift=0.0, es=None):
    """eigen_propagate's (X, est) over the whole grid for y and z the two
    columns of U, tol = 1e-12; X is NaN and est inf where no sample is
    formed."""
    es = eigen_decompose(A) if es is None else es
    X = np.full((ts.size, 2, U.shape[0]), np.nan)
    est = np.full(ts.size, np.inf)
    seen = np.zeros(ts.size, dtype=int)
    for idx, ec, Xc, *_ in matrix_core.eigen_propagate(
            A, es, U[:, 0], U[:, 1], ts, shift, p, 1e-12):
        np.add.at(seen, idx, 1)
        X[idx], est[idx] = Xc, ec
    assert np.all(seen <= 1)
    return X, est


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 6),
       decade=st.floats(0.0, 6.0), p=st.sampled_from([1, 2, np.inf]),
       graze=st.booleans())
def test_eigen_propagate_within_its_estimate(seed, n, decade, p, graze):
    # cond(V) from 1 to 1e6, t on a grid, past it and negative, and with
    # graze a first column that nearly misses the rightmost left vector:
    # at every sample the estimate accepts, each column's relative gap to
    # the long-double Taylor oracle is within it, and its gap to expm_grid
    # within it plus the kernel's own gap to the oracle.  The Pade kernel
    # can be the less accurate one: 2.6e-12 off a 40-digit reference at
    # n = 3, cond(V) = 100, t = 4, where the expansion is 3e-14 off.  The
    # oracle must see the matrix the expansion does: A is shifted to a
    # rightmost real part near 0 first and expanded with shift 0, not
    # A - r1 I rounded, and every t is 0 or a power of two, so t A is
    # exact.  Either rounding alone moves e^{tA} by as much as the estimate
    # allows (1.6e-13 for t A at n = 2, t = 22.5, where the expansion is
    # 1e-15 off).
    rng = np.random.default_rng(seed)
    A = graded_matrix(rng, n, 10.0 ** decade)
    A -= np.linalg.eigvals(A).real.max() * np.eye(n)
    try:
        es = eigen_decompose(A)
    except NonDiagonalizable:
        return
    U = rng.standard_normal((n, 2))
    if graze and n > 2:
        w = es.left_rows[0]
        null = np.linalg.svd(np.vstack([w.real, w.imag]))[2][-1]
        U[:, 0] = null + 1e-7 * rng.standard_normal(n)
    # the grid's end t1 ~ 30 / |lambda|, samples from t1 / 64 to 8 t1
    top = int(np.log2(30.0 / max(1.0, np.abs(es.eigenvalues).max())))
    ts = np.ldexp(1.0, np.arange(top - 6, top + 4))
    ts = np.concatenate([[0.0], ts, -ts[:4]])
    X, est = expansion(A, U, ts, p, es=es)

    def gap(got, ref):
        return vector_norms(got - ref.T, p) / vector_norms(ref.T, p)

    slack = 4.0 * np.finfo(float).eps
    for i in np.flatnonzero(est <= 1e-12):
        oracle = taylor_expm(A, ts[i]) @ U
        assert np.all(gap(X[i], oracle) <= est[i] + slack), (ts[i], est[i])
        pade = (mat_exp(A, ts[i]) @ U).T
        assert np.all(gap(X[i], pade.T) <= est[i] + gap(pade, oracle)
                      + slack), (ts[i], est[i])
    assert not np.isnan(X[est <= 1e-12]).any()


def test_eigen_propagate_is_real_from_half_the_modes():
    # one member per conjugate pair, doubled: the pair's product is never
    # formed, and X equals e^{tA} U to rounding
    A = np.array([[-0.1, 1.0, 0.0], [-1.0, -0.1, 0.0], [0.0, 0.0, -1.0]])
    U = np.array([[1.0, 0.0], [2.0, 0.6], [3.0, 0.8]])
    ts = np.linspace(0.0, 4.0 * np.pi, 65)
    X, est = expansion(A, U, ts, 2, shift=-0.1)
    assert np.all(est <= 1e-12)
    assert X.dtype == float
    for t, got in zip(ts, X):
        ref = (taylor_expm(A + 0.1 * np.eye(3), t) @ U).T
        assert np.abs(got - ref).max() <= 4e-15


def test_eigen_propagate_without_extended_precision():
    # where np.longdouble is double, the rightmost eigenvalues are not
    # refined and the estimate keeps their a priori error, which grows
    # with t: fewer samples pass, each still within its estimate
    A = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    U = np.array([[1.0, 0.0], [2.0, 0.6], [3.0, 0.8]])
    ts = np.ldexp(1.0, np.arange(0, 12))
    X, est = expansion(A, U, ts, 2)
    with mock.patch.object(np, "longdouble", np.float64), \
            mock.patch.object(np, "clongdouble", np.complex128):
        X_d, est_d = expansion(A, U, ts, 2)
    assert np.all(est_d >= est)
    assert (est_d <= 1e-12).sum() < (est <= 1e-12).sum()
    for t, got, e in zip(ts, X_d, est_d):
        if e <= 1e-12:
            ref = (taylor_expm(A, t) @ U).T
            assert np.all(vector_norms(got - ref, 2)
                          <= e * vector_norms(ref, 2))


def test_eigen_propagate_refuses_what_it_cannot_vouch_for():
    # ||X|| underflows to 0, or overflows at negative t, or is subnormal:
    # the estimate is not below tol and no X is formed there
    A = np.diag([0.0, -1.0])
    U = np.array([[0.0, 1.0], [1.0, 0.0]])
    ts = np.array([1.0, 720.0, 800.0, -800.0])
    X, est = expansion(A, U, ts, 2)
    assert est[0] <= 1e-12
    assert not np.any(est[1:] <= 1e-12)
    assert np.all(np.isnan(X[1:]))
    # past the range where |t| ||A|| kappa stays below tol / u
    X, est = expansion(EXAMPLE_A, np.eye(3)[:, 1:], np.array([4096.0]), 2)
    assert not est[0] <= 1e-12 and np.all(np.isnan(X))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 8),
       k=st.integers(2, 8), count=st.integers(1, 6),
       decade=st.integers(-300, 300))
def test_matrix_norms_match_svd(seed, m, k, count, decade):
    # the 2-norm from the Gram matrices at any scale, for a stack and for
    # one matrix alone (a 0-d result); p in {1, inf} is np.linalg.norm's
    # value bit for bit
    E = np.random.default_rng(seed).normal(size=(count, m, k))
    E *= 10.0 ** decade
    ref = np.linalg.svd(E, compute_uv=False)[:, 0]
    got = matrix_norms(E, 2)
    assert np.abs(got / ref - 1.0).max() <= 4e-15
    one = matrix_norms(E[0], 2)
    assert np.ndim(one) == 0 and one == got[0]
    for p in (1, np.inf):
        assert np.array_equal(matrix_norms(E, p),
                              np.linalg.norm(E, p, axis=(-2, -1)))
        assert matrix_norms(E[0], p) == np.linalg.norm(E[0], p)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8),
       count=st.integers(1, 6), decade=st.integers(-300, 300),
       imag=st.booleans())
def test_vector_norms_scale_without_overflow(seed, n, count, decade, imag):
    # the 2-norm of each real or complex row at any scale, and of one row
    # alone (a 0-d result, summed by a dot product: it may differ from the
    # stacked row in the last bit); where the squares stay normal it is
    # np.linalg.norm's value bit for bit
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(count, n)) * 10.0 ** decade
    if imag:
        X = X + 1j * rng.normal(size=(count, n)) * 10.0 ** decade
    got = vector_norms(X, 2)
    ref = np.array([math.hypot(*np.abs(row)) for row in X])
    assert np.abs(got / ref - 1.0).max() <= 4e-16 * (n + 1)
    one = vector_norms(X[0], 2)
    assert np.ndim(one) == 0
    assert abs(one / ref[0] - 1.0) <= 4e-16 * (n + 1)
    if -140 <= decade <= 140:
        assert np.array_equal(got, np.linalg.norm(X, 2, axis=-1))
        assert one == np.linalg.norm(X[0])
    for p in (1, np.inf):
        assert np.array_equal(vector_norms(X, p),
                              np.linalg.norm(X, p, axis=-1))
        assert vector_norms(X[0], p) == np.linalg.norm(X[0], p)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8),
       decade=st.integers(-300, 300), imag=st.booleans())
def test_vector_norm_scales_without_overflow(seed, n, decade, imag):
    # one real or complex vector at any scale; where the squares stay
    # normal it is np.linalg.norm's value bit for bit
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n) * 10.0 ** decade
    if imag:
        u = u + 1j * rng.normal(size=n) * 10.0 ** decade
    got = float(vector_norms(u, 2))
    ref = math.hypot(*np.abs(u))
    assert abs(got / ref - 1.0) <= 4e-16 * (n + 1)
    if -140 <= decade <= 140:
        assert got == float(np.linalg.norm(u))
    for p in (1, np.inf):
        assert float(vector_norms(u, p)) == float(np.linalg.norm(u, p))


@pytest.mark.parametrize("u", [
    [1e200 + 1e200j, 1e-320],
    [1e200, 1e-320 + 1e200j, 1e-320j],
    [1e-320 + 1e-320j, 1e-320],
], ids=["huge", "huge-and-tiny", "subnormal"])
def test_vector_norms_complex_extremes(u):
    # squares of 1e200 overflow and of 1e-320 vanish; scaled by a power
    # of two first, the 2-norm is math.hypot's to rounding, in a stack
    # and alone
    u = np.array(u)
    ref = math.hypot(*np.abs(u))
    for got in (vector_norms(u, 2), vector_norms(np.stack([u, u]), 2)[1]):
        assert got == pytest.approx(ref, rel=4e-16, abs=5e-324)


def test_eigen_propagate_sample_alone_has_the_grid_bits():
    # each sample is its own product and its own norm, for the worst case
    # (z None) and for a direction z: formed alone it has the bits it has
    # on the grid, whatever the chunks.  Its estimate is a sum over the
    # modes, which a BLAS product may round by the chunk's size, so the
    # spot check picks the last t out of the whole grid (only), where the
    # estimate has the grid's bits as well
    rng = np.random.default_rng(3)
    A, w1 = spectral_kind(rng, 40)
    es = eigen_decompose(A)
    shift = float(es.eigenvalues.real.max())
    y = rng.standard_normal(40)
    z = rng.standard_normal(40)
    ts = np.linspace(0.0, 4.0 * np.pi / w1, 97)
    for p in (1, 2, np.inf):
        for zp in (None, z / np.linalg.norm(z, p)):
            formed = list(eigen_propagate(A, es, y, zp, ts, shift, p, 1e-12))
            assert sum(idx.size for idx, *_ in formed) > 90
            for idx, est, X, x_norm, y_norm in formed:
                assert X.shape[1:] == (2 if zp is not None else 41, 40)
                for i, t in enumerate(ts[idx]):
                    (_, one_est, one_X, one_x, one_y), = eigen_propagate(
                        A, es, y, zp, np.array([t]), shift, p, 1e-12)
                    assert np.array_equal(one_X[0], X[i])
                    assert one_x[0] == x_norm[i] and one_y[0] == y_norm[i]
                    assert one_est[0] == pytest.approx(est[i], rel=1e-12)
                    (at_idx, at_est, at_X, _, _), = eigen_propagate(
                        A, es, y, zp, ts, shift, p, 1e-12, [idx[i]])
                    assert at_idx.tolist() == [idx[i]]
                    assert at_est[0] == est[i]
                    assert np.array_equal(at_X[0], X[i])


def test_eigen_propagate_is_e_tb_to_its_estimate():
    # [e^{tB} y | e^{tB}]^T against the Pade kernel, whose own error on
    # this matrix (cond(V) = 10) is far below 1e-12
    rng = np.random.default_rng(4)
    A, w1 = spectral_kind(rng, 40)
    es = eigen_decompose(A)
    y = rng.standard_normal(40)
    ts = np.linspace(0.0, 4.0 * np.pi / w1, 33)
    for idx, est, X, e_norm, y_norm in eigen_propagate(A, es, y, None, ts,
                                                       0.0, 2, 1e-12):
        for i, t in enumerate(ts[idx]):
            E = mat_exp(A, t)
            assert (np.abs(X[i, 1:] - E.T).max() / np.abs(E).max()
                    <= 1e-12)
            assert (vector_norms(X[i, 0] - E @ y, 2) / vector_norms(E @ y, 2)
                    <= 1e-12)
            assert e_norm[i] == pytest.approx(np.linalg.norm(E, 2), rel=1e-12)


@pytest.mark.parametrize("directional", [False, True],
                         ids=["worst", "directional"])
def test_eigen_propagate_memory_is_flat_in_the_grid_length(directional):
    # 20000 samples at n = 100: the estimates are taken chunk by chunk and
    # the samples formed in chunks of their own, so the traced peak stays
    # within a few STACK_BYTES (1.9 MiB worst case, 1.0 MiB directional,
    # on numpy 2.4).  Estimates held as (m, T) arrays over the whole grid
    # took 55 MiB for the worst case, even with only picking out its last
    # 64 samples, as here; the directional case forms every sample
    rng = np.random.default_rng(7)
    A, w1 = spectral_kind(rng, 100)
    es = eigen_decompose(A)
    y = rng.standard_normal(100)
    z = rng.standard_normal(100)
    ts = np.linspace(0.0, 40.0 * np.pi / w1, 20000)
    args = ((A, es, y, z / np.linalg.norm(z), ts) if directional
            else (A, es, y, None, ts))
    only = None if directional else np.arange(ts.size - 64, ts.size)
    tracemalloc.start()
    try:
        formed = sum(idx.size for idx, *_ in eigen_propagate(
            *args, float(es.eigenvalues.real.max()), 2, 1e-12, only))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert formed == (ts.size if directional else 64)
    assert peak <= 4 * matrix_core.STACK_BYTES


# ------------------------------------------------- certified sigma_max


def _stack(kind, rng, n, count, decade):
    """count n x n matrices of one kind, scaled by 10^decade."""
    Q1 = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
    Q2 = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
    if kind == "random":
        E = rng.standard_normal((count, n, n))
    elif kind == "graded":
        E = (Q1 * np.geomspace(1.0, 1e-8, n)) @ Q2
    elif kind == "rank_one":
        E = rng.standard_normal((count, n, 1)) * rng.standard_normal(
            (count, 1, n))
    elif kind == "top_pair":     # sigma_1 = sigma_2 up to rounding
        E = (Q1 * np.r_[2.0, 2.0, np.geomspace(1.0, 0.1, n - 2)]) @ Q2
    else:                        # a scaled orthogonal matrix
        E = 3.0 * Q1
    return E * 10.0 ** decade


def _eigvalsh_sigma(E):
    F, k = _unit_scaled(E, (-2, -1))
    lam = np.linalg.eigvalsh(np.swapaxes(F, -1, -2) @ F)[..., -1]
    return np.ldexp(np.sqrt(lam), k[..., 0, 0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(16, 64),
       count=st.integers(1, 5), decade=st.integers(-300, 300),
       kind=st.sampled_from(["random", "graded", "rank_one", "top_pair",
                             "orthogonal"]))
def test_matrix_norms_certified_two_norm(seed, n, count, decade, kind):
    # above the size crossover the 2-norm is a Rayleigh quotient certified
    # to a few ulps, or eigvalsh's value where the certificate fails: a
    # few ulps from eigvalsh either way, each matrix alone the same bits
    # as in the stack, at any scale; a repeated top singular value cannot
    # be certified
    rng = np.random.default_rng(seed)
    E = _stack(kind, rng, n, count, decade)
    got = matrix_norms(E, 2)
    ref = _eigvalsh_sigma(E)
    assert np.all(np.abs(got / ref - 1.0) <= 8.0 * np.finfo(float).eps)
    for i in range(count):
        assert matrix_norms(E[i], 2) == got[i]
    F, _ = _unit_scaled(E, (-2, -1))
    G = np.swapaxes(F, -1, -2) @ F
    lam, ok = _certified_top_eigenvalue(G.copy())
    if kind in ("top_pair", "orthogonal"):
        assert not ok.any()
    if n >= matrix_core._CERTIFIED_MIN_N:
        want = np.where(ok, np.sqrt(lam), 0.0)
        assert np.array_equal(np.ldexp(want, _unit_scaled(E, (-2, -1))[1]
                                       [:, 0, 0])[ok], got[ok])


def test_matrix_norms_certificate_failure_takes_eigvalsh():
    # where no Cholesky factor exists, every matrix takes eigvalsh: the
    # norms are those of the eigvalsh route bit for bit.  Graded matrices
    # reach the factorization (random ones fail before it, on their
    # Ritz values)
    rng = np.random.default_rng(5)
    E = _stack("graded", rng, 48, 4, 0)
    fine = matrix_norms(E, 2)
    with mock.patch.object(np.linalg, "cholesky",
                           side_effect=np.linalg.LinAlgError) as cholesky:
        forced = matrix_norms(E, 2)
    assert cholesky.call_count == 4
    assert np.array_equal(forced, _eigvalsh_sigma(E))
    assert np.all(np.abs(forced / fine - 1.0) <= 8.0 * np.finfo(float).eps)


def test_matrix_norms_certifies_propagators():
    # e^{tB} of the benchmark's kind of matrix: the certificate holds for
    # most samples (the small t, where e^{tB} is near I and its top
    # singular values cluster, take eigvalsh)
    rng = np.random.default_rng(6)
    A, w1 = spectral_kind(rng, 64)
    ts = np.linspace(0.0, 4.0 * np.pi / w1, 65)
    Es = np.empty((ts.size, 64, 64))
    for idx, E in expm_grid(A, ts):
        Es[idx] = E
    F, _ = _unit_scaled(Es, (-2, -1))
    lam, ok = _certified_top_eigenvalue(np.swapaxes(F, -1, -2) @ F)
    assert ok.mean() > 0.8


# --------------------------------------------------------- eigen_decompose

def test_eigen_diagonal_case():
    es = eigen_decompose(np.diag([3.0, 1.0]))
    assert np.allclose(sorted(es.eigenvalues.real, reverse=True), [3.0, 1.0])
    assert np.all(es.eigenvalues.imag == 0.0)
    # right vectors are coordinate axes up to sign
    for i in range(2):
        col = np.abs(es.right_vectors[:, i])
        assert np.isclose(col.max(), 1.0) and np.isclose(col.min(), 0.0)


def test_eigen_example_matrix_eigenvalues():
    es = eigen_decompose(EXAMPLE_A)
    got = sorted(es.eigenvalues, key=lambda z: (-z.real, -z.imag))
    expect = [1j, -1j, -1.0]
    assert all(abs(a - b) < 1e-10 for a, b in zip(got, expect))


def test_eigen_residual_and_biorthogonality():
    rng = np.random.default_rng(42)
    for _ in range(10):
        A = rng.normal(size=(6, 6))
        es = eigen_decompose(A)
        assert es.residual <= 1e-9 * np.linalg.norm(A, 2)
        G = es.left_rows @ es.right_vectors
        assert np.abs(G - np.eye(6)).max() <= 1e-9


def test_eigen_residual_is_the_worst_eigenpair():
    # against one norm per eigenpair; A V and A v round differently, and
    # the residual is itself rounding, so they agree to n eps ||A||
    rng = np.random.default_rng(8)
    for n in (2, 3, 8, 40):
        A = rng.normal(size=(n, n))
        es = eigen_decompose(A)
        V, lam = es.right_vectors, es.eigenvalues
        loop = max(np.linalg.norm(A @ V[:, i] - lam[i] * V[:, i])
                   for i in range(n))
        eps = np.finfo(float).eps
        assert abs(es.residual - loop) <= n * eps * np.linalg.norm(A, 2)


def _assert_pairs_exact(A):
    # every complex eigenvalue has exactly one exact conjugate partner, and
    # the partners' right columns and left rows are exact conjugates too
    es = eigen_decompose(A)
    evals = es.eigenvalues
    pos = np.flatnonzero(evals.imag > 0)
    assert pos.size == np.count_nonzero(evals.imag < 0)
    partners = set()
    for i in pos:
        (j,) = np.flatnonzero(evals == np.conj(evals[i]))
        partners.add(int(j))
        assert np.array_equal(es.right_vectors[:, j],
                              np.conj(es.right_vectors[:, i]))
        assert np.array_equal(es.left_rows[j, :], np.conj(es.left_rows[i, :]))
    assert len(partners) == pos.size
    return pos.size


def _rotation(a, b):
    return np.array([[a, b], [-b, a]])


def test_eigen_conjugate_pairing_exact():
    assert _assert_pairs_exact(EXAMPLE_A) == 1
    rng = np.random.default_rng(20260418)
    pairs = 0
    for n in range(2, 41):
        for _ in range(4):
            pairs += _assert_pairs_exact(rng.normal(size=(n, n)))
    assert pairs > 1000
    # two pairs with equal real parts: sorting puts them in the order
    # +3i, +i, -i, -3i, so the partners are not adjacent
    D = np.zeros((4, 4))
    D[:2, :2], D[2:, 2:] = _rotation(-0.5, 1.0), _rotation(-0.5, 3.0)
    assert _assert_pairs_exact(D) == 2
    # pairs mixed with repeated real eigenvalues, exact and conjugated by
    # an orthogonal similarity
    D = np.zeros((8, 8))
    D[:2, :2], D[4:6, 4:6] = _rotation(0.25, 2.0), _rotation(-1.0, 0.5)
    D[2, 2] = D[3, 3] = 0.25
    D[6, 6] = D[7, 7] = -1.0
    Q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    for M in (D, Q @ D @ Q.T):
        assert _assert_pairs_exact(M) >= 2


def test_eigen_repeated_pair_left_rows_invert():
    # a pair repeated exactly: each left row takes its own partner's
    # conjugate, so the rows stay the inverse of the columns
    D = np.zeros((5, 5))
    D[:2, :2] = D[2:4, 2:4] = _rotation(-0.5, 1.0)
    D[4, 4] = -2.0
    es = eigen_decompose(D)
    assert np.count_nonzero(es.eigenvalues == complex(-0.5, 1.0)) == 2
    assert np.allclose(es.left_rows @ es.right_vectors, np.eye(5),
                       atol=1e-14)


def test_eigen_sorted_by_real_part():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(5, 5))
    es = eigen_decompose(A)
    r = es.eigenvalues.real
    assert np.all(np.diff(r) <= 1e-12)


_WIDER = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="np.longdouble is no wider than double")


def _without_extended_precision():
    return mock.patch.multiple(np, longdouble=np.float64,
                               clongdouble=np.complex128)


@_WIDER
def test_eigen_demo_omega_refined():
    # LAPACK's omega_1 is 0.9999999999999987; the exact value is
    # 1.000000000000014210854715... (mpmath, 60 digits)
    es = eigen_decompose(EXAMPLE_A)
    omega = 1.0000000000000142
    assert abs(es.eigenvalues[0].imag - omega) <= 2 * np.spacing(omega)
    assert es.eigenvalues[1] == np.conj(es.eigenvalues[0])
    assert es.refined.tolist() == [True, True, False]


@_WIDER
def test_eigen_refined_real_eigenvalue_stays_real():
    # complex V and V^{-1} give the Newton step of the real rightmost
    # eigenvalue an imaginary part, which it drops
    rng = np.random.default_rng(5)
    S = rng.normal(size=(4, 4))
    D = np.zeros((4, 4))
    D[0, 0], D[1:3, 1:3], D[3, 3] = 0.5, _rotation(-0.5, 2.0), -1.0
    A = S @ D @ np.linalg.inv(S)
    es = eigen_decompose(A)
    assert es.refined.tolist() == [True, False, False, False]
    assert es.eigenvalues[0].imag == 0.0
    assert analyze_spectrum(A).blocks[0].is_real


@_WIDER
def test_eigen_refinement_within_a_priori_bound():
    # no eigenvalue moves from LAPACK's value by more than eigen_propagate's
    # a priori error _EIGVAL_SAFETY u ||A||_2 kappa_j
    rng = np.random.default_rng(26)
    u = np.finfo(float).eps / 2.0
    moves = []
    for n in (2, 3, 5, 8, 20):
        for _ in range(5):
            A, _ = sample_supported(rng, n)
            es = eigen_decompose(A)
            with _without_extended_precision():
                lapack = eigen_decompose(A).eigenvalues
            # unit right columns: kappa_j = ||w_j||
            kappa = np.linalg.norm(es.left_rows, axis=1)
            bound = (matrix_core._EIGVAL_SAFETY * u * np.linalg.norm(A, 2)
                     * kappa)
            moved = np.abs(es.eigenvalues - lapack)
            assert np.all(moved <= bound)
            moves.append(moved.max())
    assert max(moves) > 0.0


def test_eigen_without_extended_precision_is_lapack():
    # where np.longdouble is double nothing is refined: the eigenvalues
    # are LAPACK's bit for bit
    rng = np.random.default_rng(27)
    for n in (2, 3, 5, 8, 20):
        A, _ = sample_supported(rng, n)
        with _without_extended_precision():
            es = eigen_decompose(A)
        lam = np.linalg.eig(A)[0]
        lam = lam[np.lexsort((-lam.imag, -lam.real))]
        assert not es.refined.any()
        assert np.array_equal(es.eigenvalues, lam)


def test_eigen_defective_matrix_rejected():
    with pytest.raises(NonDiagonalizable):
        eigen_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # nearly defective: 2x2 Jordan block perturbed far below the threshold
    with pytest.raises(NonDiagonalizable):
        eigen_decompose(np.array([[1.0, 1.0], [1e-30, 1.0]]))


# ------------------------------------------------------------ matrix_norms

def test_norm_identity():
    for p in (1, 2, np.inf):
        assert matrix_norms(np.eye(4), p) == pytest.approx(1.0)


def test_norm_diagonal():
    assert matrix_norms(np.diag([2.0, -3.0]), 2) == pytest.approx(3.0)


def test_norm_one_and_inf_formulas():
    M = np.array([[1.0, -4.0], [2.0, 0.5]])
    assert matrix_norms(M, 1) == pytest.approx(4.5)
    assert matrix_norms(M, np.inf) == pytest.approx(5.0)


def test_norm_two_against_sphere_oracle():
    rng = np.random.default_rng(11)
    M = rng.normal(size=(5, 5))
    norm2 = matrix_norms(M, 2)

    def fun(us):
        return np.linalg.norm(us @ M.T, axis=1)

    sampled, _ = sphere_max(fun, 5, rng, samples=10 ** 4, refine=False)
    refined, _ = sphere_max(fun, 5, rng, samples=10 ** 4, refine=True)
    assert norm2 >= sampled - 1e-12
    assert norm2 <= refined * (1.0 + 1e-6)


def test_norm_unsupported_p():
    for p in (0, 3, -1, "fro"):
        with pytest.raises(ValueError, match="unsupported norm selector"):
            matrix_norms(np.eye(2), p)
        with pytest.raises(ValueError, match="unsupported norm selector"):
            vector_norms(np.ones(2), p)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_norm_ordering_two_vs_one_inf(seed):
    M = np.random.default_rng(seed).normal(size=(4, 4))
    n2 = matrix_norms(M, 2)
    n1 = matrix_norms(M, 1)
    ninf = matrix_norms(M, np.inf)
    assert n2 <= np.sqrt(n1 * ninf) * (1 + 1e-12)
