"""Dense matrix substrate: the matrix exponential over a time grid, two
ways, eigendecomposition with left and right vectors, and the p-norms.

Matrices are plain numpy arrays throughout; the validators below replace a
wrapper class.  All functions are pure.  expm_grid evaluates e^{tB} over a
whole grid of t as one batched scaling-and-squaring Pade kernel: the
powers of B are formed once, and each chunk of the grid costs two sums of
them, one matrix product, one batched solve and the squarings, each on
every sample alone, so mat_exp, that kernel at one t, equals any grid's
sample at t bit for bit.  A sample whose half is also a sample is squared
from it instead of solved, so a grid that starts at 0 solves about half of
its samples; expm_grid yields (index array, E) pairs in no set order.
Every norm of the package, p in {1, 2, inf}, is taken by vector_norms,
over the last axis of a stack of vectors, or by matrix_norms, the induced
norm over the last two axes of a stack of matrices, whose 2-norm comes
from the Gram matrices: from eigvalsh for small matrices, and from
n = _CERTIFIED_MIN_N on from a Krylov Rayleigh quotient that one
Cholesky factorization per matrix certifies to a few ulps, eigvalsh
taking the matrices it does not certify.  At p = 2 both scale by exact
powers of two first, so no square overflows.  Grid functions hold their
(T, n, n) stacks in chunks from stack_slices, so memory stays flat in the
grid length.

eigen_propagate is the other way: e^{tB} y together with e^{tB} z or all
of e^{tB}, from an eigendecomposition, V diag(e^{(lambda_j - shift) t})
V^{-1} U, one product per sample, with an error estimate per sample that
grows with cond(V) and with |t| times the eigenvalues' errors, taken in
fixed chunks of the grid.  The caller takes it where the estimate is small
enough and expm_grid elsewhere; it never replaces mat_exp.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonDiagonalizable, OdecondError

__all__ = [
    "EigenSystem",
    "as_real_matrix",
    "eigen_decompose",
    "eigen_propagate",
    "expm_grid",
    "mat_exp",
    "matrix_norms",
    "stack_slices",
    "vector_norms",
]

#: bytes of the float64 (T, n, n) stacks a grid function holds at a time
STACK_BYTES = 1 << 20

#: Pade-13 coefficients b_0..b_13 of e^x, divided by b_0 so that r_13(0)
#: is exactly the identity, and the largest scaled norm for which r_13 is
#: accurate to double precision (Higham, SIAM J. Matrix Anal. Appl. 26(4),
#: 2005)
_PADE13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0]) / 64764752532480000.0
_THETA13 = 5.371920351148152

#: (T, n, n) stacks expm_grid holds at once: V, U and U B while forming
#: the Pade terms, then q, p and the solution
_EXPM_LIVE_STACKS = 3


def as_real_matrix(a, square: bool = False) -> np.ndarray:
    """Validate *a* as a nonempty 2-D real matrix of finite entries and
    return it as a float array (C-contiguous copy only when conversion
    requires one)."""
    M = np.asarray(a, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {M.shape}")
    if not M.size:
        raise ValueError(f"expected a nonempty matrix, got shape {M.shape}")
    if square and M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return M


def mat_exp(A, t: float = 1.0) -> np.ndarray:
    """Matrix exponential e^{tA} of a real square matrix.

    expm_grid on a one-sample grid.  The test suite cross-checks it against
    an independent scaled Taylor-series oracle.
    """
    _, E = next(expm_grid(A, np.array([float(t)])))
    return E[0]


def expm_grid(B, ts):
    """e^{tB} for every t of the 1-D array ts, chunk by chunk.

    Yields (idx, E) with E[i] = e^{ts[idx[i]] B}; every index of ts comes
    in exactly one idx, in no set order.  Scaling and squaring with the
    Pade-13 approximant r_13 = p/q (Higham 2005): e^{tB} =
    r_13(t B / 2^s)^(2^s), where s is the least s >= 0 with
    |t| alpha / 2^s <= theta_13, alpha = min(max(d6, d8), max(d8, d10))
    and d_k = ||B^k||_1^{1/k} (Al-Mohy & Higham, SIAM J. Matrix Anal.
    Appl. 31(3), 2009).

    Every matrix of the grid is a multiple of B, so the even powers
    B^0..B^12 are formed once, of B scaled by an exact power of two 2^-e
    that keeps them from overflowing; the d_k are exact norms of them.  A
    second power of two then brings alpha to [1/2, 1), so that with
    c = t 2^(e-s), |c| <= 2 theta_13 and no c^k overflows.  For a chunk
    of the grid, V = sum of b_k c^k (B 2^-e)^k over even k, in order of k;
    U, the odd terms, is the same sum times B 2^-e, which keeps its
    rounding a polynomial in B as Higham's U = A (...) does.  Then one
    batched solve q r = p with p = V + U, q = V - U, and the squarings of
    the samples whose s is not reached.

    The kernel reuses its own squarings across the grid.  A sample t with
    s(t) >= 1 whose half t/2 is also a sample with s(t/2) = s(t) - 1 is
    not solved: e^{tB} = (e^{(t/2)B})^2, which is the last squaring the
    kernel would do for t, since t/2 has the same Pade argument c.  Only
    the other samples, the roots (about half of a grid that starts at 0,
    every sample of one that does not), go through the solve, chunk by
    chunk, and each chunk is then squared down its chains t, 2t, 4t, ...
    one yield per link.  A repeated t is a root of its own.

    Raises ValueError for a t that is not finite, and OdecondError when
    e^{tB} is not finite, naming the range of the failing t and of the
    samples squared from them: e^{tB} overflows, or B is so far from
    normal that its scaled powers underflow, where the many squarings B
    would need spoil the result anyway.
    """
    B = as_real_matrix(B, square=True)
    ts = np.asarray(ts, dtype=float).reshape(-1)
    if not np.all(np.isfinite(ts)):
        raise ValueError("t must be finite")
    n = B.shape[0]
    # entries below 2^-bit_length(n) put ||B 2^-e||_1 below 1
    e = int(np.frexp(np.abs(B).max(initial=0.0))[1]) + n.bit_length()
    B1 = np.ldexp(B, -e)
    P = np.empty((7, n, n))     # P[j] = (B 2^-e)^(2j)
    P[0] = np.eye(n)
    P[1] = B1 @ B1
    for j in range(2, 7):
        np.matmul(P[j - 1], P[1], out=P[j])
    d6, d8, d10 = (matrix_norms(P[k // 2], 1) ** (1.0 / k)
                   for k in (6, 8, 10))
    alpha = min(max(d6, d8), max(d8, d10))
    if alpha > 0.0:
        # rescale to B 2^-e with alpha in [1/2, 1): then |c| <= 2 theta_13
        # and c^13 cannot overflow however far ||B|| exceeds alpha
        f = int(np.frexp(alpha)[1])
        np.ldexp(P, (-2 * f * np.arange(7))[:, None, None], out=P)
        B1 = np.ldexp(B1, -f)
        e += f
        alpha = np.ldexp(alpha, -f)
    # a sum of logs: |t| alpha itself may overflow
    with np.errstate(divide="ignore"):
        s = np.maximum(np.ceil(np.log2(np.abs(ts))
                               + (np.log2(alpha / _THETA13) + e)),
                       0.0).astype(int)
    child, roots = _doubling_links(ts, s)
    even = P.reshape(7, n * n)
    for sl in stack_slices(roots.size, n, _EXPM_LIVE_STACKS):
        idx = roots[sl]
        E = _pade_squared(even, B1, ts[idx], e, s[idx])
        while idx.size:
            bad = ~np.isfinite(E).all(axis=(-2, -1))
            if bad.any():
                # the samples squared from a failing one fail with it
                fail = idx[bad]
                named = [fail]
                while fail.size:
                    fail = child[fail]
                    fail = fail[fail >= 0]
                    named.append(fail)
                raise OdecondError(f"e^{{tB}} is not finite for "
                                   f"{_t_span(ts[np.concatenate(named)])}")
            yield idx, E
            idx = child[idx]
            linked = idx >= 0
            idx = idx[linked]
            E = E[linked]
            with np.errstate(over="ignore", invalid="ignore"):
                E = E @ E


def _doubling_links(ts, s):
    """The chains t, 2t, 4t, ... of the grid: child[i] = j when
    ts[j] = 2 ts[i] exactly and s[i] = s[j] - 1 >= 0, else -1, and the
    roots, the indices that are no sample's child.

    Only the first sample of each value is linked, as parent or child, so
    a sample has at most one child, and a repeated t is a root."""
    order = np.argsort(ts, kind="stable")
    ordered = ts[order]
    first = np.ones(ts.size, dtype=bool)
    first[order[1:]] = ordered[1:] != ordered[:-1]
    half = ts / 2.0
    # the leftmost match in stable order is the first sample of t/2
    pos = np.searchsorted(ordered, half)
    found = pos < ts.size
    found[found] = ordered[pos[found]] == half[found]
    linked = first & found & (s >= 1) & (half * 2.0 == ts)
    linked[linked] = s[order[pos[linked]]] == s[linked] - 1
    child = np.full(ts.size, -1)
    child[order[pos[linked]]] = np.flatnonzero(linked)
    return child, np.flatnonzero(~linked)


def _pade_squared(even, B1, t, e, s):
    """r_13(t B 2^-s)^(2^s) for the samples t with scaling counts s."""
    n = B1.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        # b_k c^k; a running product is ten times faster than ** here
        coef = np.empty((t.size, 14))
        coef[:, 0] = 1.0
        coef[:, 1:] = np.ldexp(t, e - s)[:, None]
        np.cumprod(coef, axis=1, out=coef)
        coef *= _PADE13
        # no BLAS product over the chunk, whose rounding depends on its
        # row count (einsum without optimize sums the powers in order)
        V = np.einsum("tj,jk->tk", coef[:, 0::2], even, optimize=False)
        U = np.einsum("tj,jk->tk", coef[:, 1::2], even, optimize=False)
        U = (U.reshape(-1, n, n) @ B1).reshape(-1, n * n)
        V -= U          # denominator q = V - U
        U *= 2.0
        U += V          # numerator p = V + U
        try:
            E = np.linalg.solve(V.reshape(-1, n, n), U.reshape(-1, n, n))
        except np.linalg.LinAlgError as exc:
            raise OdecondError(
                f"the Pade denominator of e^{{tB}} is singular for "
                f"{_t_span(t)}") from exc
        del U, V
        for step in range(1, int(s.max(initial=0)) + 1):
            sel = np.flatnonzero(s >= step)
            if sel[-1] - sel[0] + 1 == sel.size:  # a run, as for t >= 0
                sel = slice(sel[0], sel[-1] + 1)
            E[sel] = E[sel] @ E[sel]
    return E


def _t_span(t) -> str:
    """'t in [min, max]' of the times t, for error messages."""
    return f"t in [{t.min():.6g}, {t.max():.6g}]"


def stack_slices(count: int, n: int, stacks: int) -> list:
    """Slices covering range(count) in runs whose *stacks* (T, n, n)
    float64 stacks take about STACK_BYTES together (at least one matrix
    per run)."""
    step = max(1, STACK_BYTES // (8 * stacks * n * n))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _unit_scaled(X, axes):
    """(X 2^-k, k): X scaled, over each slice along axes (k keeps them),
    by the exact power of two that brings the slice's largest |entry| to
    [1/2, 1), real and imaginary parts alike.  Squares of the scaled
    entries cannot overflow, and the scaling rounds only entries it pushes
    below the normal range, 2^-1022 times the largest or less."""
    k = np.frexp(np.abs(X).max(axis=axes, keepdims=True))[1]
    if np.iscomplexobj(X):
        return np.ldexp(X.real, -k) + 1j * np.ldexp(X.imag, -k), k
    return np.ldexp(X, -k), k


def _normalize_p(p):
    if p in (1, 2):
        return int(p)
    if p == np.inf or p == float("inf"):
        return np.inf
    raise ValueError(f"unsupported norm selector {p!r}; use 1, 2 or inf")


def vector_norms(X, p) -> np.ndarray:
    """p-norm of each vector along the last axis of the real or complex
    X, p in {1, 2, inf}; one vector gives a 0-d result.  For p = 2 each
    vector is first scaled by an exact power of two (_unit_scaled), so its
    squares cannot overflow where the norm would not; where they stay
    normal, the result is np.linalg.norm(X, p, axis=-1) bit for bit, and
    for one vector np.linalg.norm(X, p), whose 2-norm sums the squares by
    a dot product and may differ from the stacked sum in the last bit."""
    p = _normalize_p(p)
    X = np.asarray(X)
    if p != 2:
        return np.linalg.norm(X, p, axis=-1)
    Y, k = _unit_scaled(X, -1)
    if X.ndim == 1:
        return np.ldexp(np.linalg.norm(Y), k[0])
    return np.ldexp(np.linalg.norm(Y, axis=-1), k[..., 0])


def matrix_norms(E, p) -> np.ndarray:
    """Induced p-norm of each matrix over the last two axes of the real E
    (..., m, k), p in {1, 2, inf}; one matrix gives a 0-d result.

    p = 1 and p = inf are np.linalg.norm's largest column and row absolute
    sums, bit for bit.  p = 2 is the largest singular value sigma,
    sqrt(lambda_max(E^T E)), as accurate as the SVD: the error of
    lambda_max is some eps sigma^2.  Each matrix is first scaled as in
    vector_norms, so E^T E cannot overflow where the SVD would not.
    Below _CERTIFIED_MIN_N columns lambda_max comes from one batched
    eigvalsh; from there on from _certified_top_eigenvalue, a Rayleigh
    quotient certified to a few ulps, and from eigvalsh only where the
    certificate fails.  Either way each matrix is handled alone, so its
    norm does not depend on the rest of the stack."""
    p = _normalize_p(p)
    E = np.asarray(E, dtype=float)
    if p != 2:
        return np.linalg.norm(E, p, axis=(-2, -1))
    F, k = _unit_scaled(E, (-2, -1))
    G = np.swapaxes(F, -1, -2) @ F
    del F
    if G.shape[-1] < _CERTIFIED_MIN_N:
        lam = np.linalg.eigvalsh(G)[..., -1]
    else:
        G = G.reshape((-1,) + G.shape[-2:])
        lam, ok = _certified_top_eigenvalue(G)
        if not ok.all():
            lam[~ok] = np.linalg.eigvalsh(G[~ok])[:, -1]
        lam = lam.reshape(k.shape[:-2])
    return np.ldexp(np.sqrt(lam), k[..., 0, 0])


#: matrix_norms takes sigma_max^2 from _certified_top_eigenvalue from this
#: size on: below it one batched eigvalsh costs less than the kernel's
#: two dozen batched calls
_CERTIFIED_MIN_N = 32
#: Krylov vectors behind the Rayleigh quotient, and the relative width of
#: the certified interval [rho, rho + r^2 / (rho - a)] that is accepted
_KRYLOV_DIM = 8
_CERTIFIED_ULPS = 4.0


def _certified_top_eigenvalue(G):
    """(lam, ok): lam[i] is the largest eigenvalue of the symmetric
    positive semidefinite G[i] (T, n, n) to _CERTIFIED_ULPS ulps wherever
    ok[i]; elsewhere the caller takes eigvalsh.  Each matrix is handled
    alone, so lam[i] does not depend on the rest of the stack.

    Rayleigh-Ritz on the Krylov space of _KRYLOV_DIM vectors started
    from the largest column of G[i] gives the unit vector q, its Rayleigh
    quotient rho <= lam_1 and the residual r = ||G q - rho q||.  If
    lam_2 <= a < rho, the Kato-Temple bound gives lam_1 <= rho +
    r^2 / (rho - a) (Parlett, The Symmetric Eigenvalue Problem, 10.5), so
    a is taken as large as the accepted width allows.  One Cholesky of
    aI - G + rho q q^T per matrix (np.linalg.cholesky, one matrix at a
    time, as it raises for a whole stack) then certifies lam_2 <= a: if it
    succeeds that matrix is positive definite, and G is it minus aI plus
    the rank-one rho q q^T, which moves no eigenvalue but the top one up
    (Weyl).  The slack d = (n + 2)^2 u (2 rho + tr G) covers the rounding
    of forming that matrix and the backward error of its Cholesky factor
    (Higham, Accuracy and Stability of Numerical Algorithms, 10.1), and r
    is charged it as the rounding of G q.  A matrix whose a falls to its
    second Ritz value, which is at most lam_2, fails without a
    factorization."""
    T, n, _ = G.shape
    u = np.finfo(float).eps / 2.0
    diag = np.diagonal(G, axis1=-2, axis2=-1)
    trace = diag.sum(axis=-1)
    K = np.empty((T, n, _KRYLOV_DIM))
    K[:, :, 0] = G[np.arange(T), :, diag.argmax(axis=-1)]
    # G / tr G has norm at most 1, so no power overflows; a zero G gives
    # zero vectors and rho = 0, which is not certified
    scale = np.divide(1.0, trace, out=np.zeros(T), where=trace > 0.0)
    for j in range(1, _KRYLOV_DIM):
        K[:, :, j] = (G @ K[:, :, j - 1:j])[..., 0] * scale[:, None]
    Q, _ = np.linalg.qr(K)
    GQ = G @ Q
    theta, Y = np.linalg.eigh(np.swapaxes(Q, -1, -2) @ GQ)
    y = Y[:, :, -1:]
    q = (Q @ y)[..., 0]
    Gq = (GQ @ y)[..., 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        norm = np.sqrt(np.einsum("ti,ti->t", q, q))[:, None]
        q /= norm
        Gq /= norm
        rho = np.einsum("ti,ti->t", q, Gq)
        slack = (n + 2) ** 2 * u * (2.0 * rho + trace)
        r = np.linalg.norm(Gq - rho[:, None] * q, axis=-1) + slack
        a = rho - r * r / (_CERTIFIED_ULPS * 2.0 * u * rho) - 2.0 * slack
    ok = (a > theta[:, -2]) & (rho > 0.0) & np.isfinite(a)
    for i in np.flatnonzero(ok):
        M = np.outer(q[i], rho[i] * q[i]) - G[i]
        M.flat[::n + 1] += a[i]
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            ok[i] = False
    return rho, ok


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition A = V diag(eigenvalues) V^{-1}.

    right_vectors holds V (column i belongs to eigenvalues[i]); left_rows
    holds V^{-1} (row i belongs to eigenvalues[i]), so the two are
    biorthogonal by construction.  Complex eigenvalues come in conjugate
    pairs whose vectors are exact conjugates of each other.  The columns
    of V are unit vectors; basis_norm is ||V||_2 and basis_cond
    ||V||_2 ||V^{-1}||_2.  refined marks the eigenvalues that took
    eigen_decompose's Newton step and their conjugate partners; residual
    measures LAPACK's eigenpairs.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_rows: np.ndarray
    residual: float
    basis_cond: float
    basis_norm: float
    refined: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


#: worse conditioned eigenvectors keep under 4 digits: A counts as defective
_DEFECT_COND_LIMIT = 1e12


def eigen_decompose(A) -> EigenSystem:
    """Full eigendecomposition of a real square matrix.

    Eigenvalues are sorted by decreasing real part, then decreasing
    imaginary part.  The negative-imaginary member of each conjugate pair
    is the exact conjugate of its partner, in the eigenvalue and in the
    corresponding column of V and row of V^{-1}.

    The rightmost eigenvalues, whose real part is the largest, take one
    Newton step lambda += w (A v - lambda v) / (w v), the residual formed
    in np.longdouble (Dongarra, Moler & Wilkinson, SIAM J. Numer. Anal.
    20(1), 1983): their error, which long-time quantities multiply by t,
    falls from some u ||A|| kappa to the residual's rounding.  A real one
    keeps only the real part of its step, so it stays exactly real; each
    partner is set to the exact conjugate.  Where np.longdouble is no
    wider than double, none is refined.

    Raises NonDiagonalizable when the eigenvector matrix condition number
    exceeds _DEFECT_COND_LIMIT: the matrix is defective to tolerance and the
    simple-eigenvalue formulas downstream would be meaningless.
    """
    A = as_real_matrix(A, square=True)
    try:
        evals, V = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NonDiagonalizable(f"eigensolver failed: {exc}") from exc

    svals = np.linalg.svd(V, compute_uv=False)
    if svals[-1] == 0.0 or svals[0] / svals[-1] > _DEFECT_COND_LIMIT:
        cond = np.inf if svals[-1] == 0.0 else svals[0] / svals[-1]
        raise NonDiagonalizable(
            f"eigenvector matrix condition number {cond:.3e} exceeds "
            f"{_DEFECT_COND_LIMIT:.1e}; matrix is defective to tolerance"
        )

    # For real input dgeev returns each complex pair consecutively and
    # exactly conjugate, positive imaginary part first, and numpy builds
    # the two eigenvectors as exact conjugates; sorting keeps both exact.
    first = np.flatnonzero(evals.imag > 0)
    order = np.lexsort((-evals.imag, -evals.real))
    rank = np.argsort(order)
    evals = evals[order].astype(complex)
    V = V[:, order].astype(complex)

    # inv does not keep the rows of a pair conjugate: the partner of the
    # dgeev member at k, at k + 1, takes the conjugate of its row
    W = np.linalg.inv(V)
    W[rank[first + 1]] = np.conj(W[rank[first]])

    residual = float(vector_norms((A @ V - V * evals).T, 2).max())
    wider = np.finfo(np.longdouble).eps < np.finfo(float).eps
    refined = (evals.real == evals.real[0]) & wider
    A_ext = A.astype(np.longdouble)
    for j in np.flatnonzero(refined & (evals.imag >= 0.0)):
        v = V[:, j].astype(np.clongdouble)
        r = (A_ext @ v - evals[j] * v).astype(complex)
        step = (W[j] @ r) / (W[j] @ V[:, j])
        evals[j] += step if evals[j].imag else step.real
    evals[rank[first + 1]] = np.conj(evals[rank[first]])
    return EigenSystem(
        eigenvalues=evals,
        right_vectors=V,
        left_rows=W,
        residual=residual,
        basis_cond=float(svals[0] / svals[-1]),
        basis_norm=float(svals[0]),
        refined=refined,
    )


#: factors of the unit roundoff in eigen_propagate's error estimate.  On
#: random matrices with cond(V) up to 1e6, the error that c = V^{-1} U
#: leaves reaches about 6 u cond(V) ||U|| ||e^{tB}||, and the errors of the
#: eigenvalues LAPACK returns about 15 u ||A||_2 kappa_j (20 for the
#: rightmost pair of one 3 x 3 normal matrix, which eigen_decompose's
#: Newton step removes)
_EXPAND_SAFETY = 8.0
_EIGVAL_SAFETY = 16.0

#: float64 values per sample and per row of A that eigen_propagate's
#: estimates hold at a time: the moduli and the error terms, each m ~ n / 2
#: per sample, with their products and temporaries
_ESTIMATE_LIVE_VALUES = 16

#: (k, n) float64 stacks eigen_propagate holds at once while forming: the
#: complex terms and their real and imaginary parts, then the product
#: with the scaled copy and the Gram matrix behind its 2-norm
_PROPAGATE_LIVE_STACKS = 3


def eigen_propagate(A, es: EigenSystem, y, z, ts, shift: float, p,
                    tol: float, only=None):
    """e^{tB} y with e^{tB} z, or with all of e^{tB} where z is None,
    B = A - shift I, for the real n-vectors y and z at the t of the 1-D
    array ts where the eigen-expansion's error estimate allows, from the
    eigendecomposition es of A, chunk by chunk.

    Yields (idx, est, X, x_norm, y_norm) for the samples ts[idx] that are
    formed, in order.  X[i] is the (k, n) matrix [e^{tB} y | e^{tB} U]^T
    at t = ts[idx[i]], U = z (k = 2) or I (k = n + 1), so X[i, 0] is
    e^{tB} y and X[i, 1:] e^{tB} z or the transpose of e^{tB}; y_norm is
    the p-norm of e^{tB} y, and x_norm that of e^{tB} z or the induced
    p-norm of e^{tB}; est is the estimate.  A sample that is not yielded
    has an estimate above tol, or is not among the indices only, where
    only is given.  The expansion is

        e^{tB} U = Re sum_j rho_j v_j e_j(t) c_j,
        e_j(t) = e^{(lambda_j - shift) t},  c = V^{-1} U,

    over the real eigenvalues (rho_j = 1) and one member of each conjugate
    pair (rho_j = 2): the partner adds the conjugate, so the result is
    exactly real.  Each sample is one (k, 2m) by (2m, n) product of the
    real and imaginary parts of e_j(t) c_j, m ~ n / 2, by the stacked
    [Re V^T; -Im V^T], so its bits do not depend on the rest of the grid.
    This is the eigenvector method (Moler & Van Loan, SIAM Rev. 45(1),
    2003, method 14); its error grows with cond(V) and with |t| times the
    errors of the eigenvalues.  The rightmost eigenvalues, whose errors |t|
    multiplies for the longest, come refined from eigen_decompose's Newton
    step where np.longdouble is wider than double, and es.refined marks
    them.

    est is the relative error estimate of e^{tB} y plus that of e^{tB} z
    or of e^{tB}: the ratio x_norm / y_norm moves by at most their sum.
    A column's estimate comes from the magnitudes a_j(t) = rho_j |e_j(t)|
    ||v_j||_p |c_j| of its terms (u the unit roundoff, s =
    _EXPAND_SAFETY, kappa_j = ||v_j|| ||w_j|| the condition number of
    lambda_j, w_j the row of V^{-1}, 2-norms):

        (s u (sum_j a_j(t) + cond(V) ||U_l|| g(t))    rounding, c
         + min(sum_j b_j(t), ||V||_p ||b(t) / ||v||_p||_2)   lambda_j
         + s u ||A||_2 sum_j a_j(t) kappa_j min(|t|, 1 / gap_j)   v_j
         + tiny) / ||e^{tB} U_l||,    b_j(t) = a_j(t) |t| dlambda_j,

    where g(t) = min(sum_j rho_j |e_j(t)| ||v_j||_p ||w_j||, cond(V)
    max_j |e_j(t)| r) bounds the 2-to-p norm of e^{tB}, r = n^max(0, 1/p
    - 1/2), and ||V||_p = r ||V||_2 that of V, which carries the errors of
    the eigenvalues as it carries the terms.  The error of lambda_j,
    dlambda_j, is _EIGVAL_SAFETY u ||A||_2 kappa_j, or where es.refined
    s ((n + 1) u_ext ||A||_2 kappa_j + u |lambda_j - shift|), u_ext the
    unit roundoff of np.longdouble.  The error of v_j moves the result by
    at most |t| ||A|| kappa_j, nor by more than the distance gap_j to the
    nearest other eigenvalue lets it.  tiny, the smallest normal number,
    puts a subnormal norm out of reach.

    All of e^{tB} is bounded as one matrix in the induced p-norm, not
    column by column, from the p-norms a_j(t) = rho_j |e_j(t)| ||v_j||_p
    ||w_j||_q of its terms rho_j e_j(t) v_j w_j (q the dual exponent) and
    K = ||V||_p ||V^{-1}||_p, the p-norms of the whole bases:

        (s u (sum_j a_j(t) + r' cond(V) G(t))          rounding, V^{-1}
         + min(sum_j a_j(t) |t| dlambda_j, K max_j |e_j(t)| |t| dlambda_j)
         + min(sum_j a_j(t) d_j(t), K max_j |e_j(t)| d_j(t))      v_j
         + tiny) / ||e^{tB}||_p,

    with d_j(t) = s u ||A||_2 kappa_j min(|t|, 1 / gap_j), r' =
    n^|1/2 - 1/p| and G(t) = min(sum_j a_j(t), K max_j |e_j(t)|) >=
    ||e^{tB}||_p.  An error that scales the terms, such as that of an
    eigenvalue, is V diag(delta_j) V^{-1}, at most K max_j |delta_j| in
    norm, where the sum over the terms would charge each its own bound.

    The sums over the terms bound the norms from above, so the estimate is
    first bounded from below in O(n) per sample, and only the samples
    whose bound is at most tol are formed; a formed sample's est, then
    taken against the norms themselves, may still exceed tol, and is inf
    where a norm is zero or not finite.  The estimates are taken in fixed
    chunks of ts, so memory stays flat in the grid length, and their
    rounding, which a BLAS product over the modes may take from the
    chunk's size, does not depend on only: only skips the chunks that
    hold none of its indices, so a sample it names gets the estimate, the
    route and the bits it has on the whole grid.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    md = _Modes(A, es, shift, p)
    if z is None:
        parts = [_Columns(md, y[:, None]), _Whole(md, es)]
    else:
        parts = [_Columns(md, np.column_stack((y, z)))]
    C = np.hstack([part.C for part in parts]).T             # (k, m)
    VV = np.concatenate((md.V.real.T, -md.V.imag.T))       # (2m, n)
    (k, m), n = C.shape, y.size
    ts = np.asarray(ts, dtype=float).reshape(-1)
    step = max(1, STACK_BYTES // (8 * _ESTIMATE_LIVE_VALUES * n))
    sub = max(1, STACK_BYTES // (8 * _PROPAGATE_LIVE_STACKS * k * n))
    if sub < step:
        step -= step % sub      # whole formation chunks per estimate chunk
    for lo in range(0, ts.size, step):
        idx = np.arange(lo, min(lo + step, ts.size))
        want = True if only is None else np.isin(idx, only)
        if not np.any(want):
            continue
        t = ts[idx]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # mode by mode, (m, T): the sums over the modes are products
            mod = np.exp(np.multiply.outer(md.lam.real, t))  # |e_j(t)|
            total, num = (np.vstack(a) for a in zip(*(
                part.numerators(mod, np.abs(t)) for part in parts)))
            go = np.flatnonzero(((num / total).sum(axis=0) <= tol) & want)
        for lo_f in range(0, go.size, sub):
            g = go[lo_f:lo_f + sub]
            Z = np.exp(np.multiply.outer(t[g], md.lam))[:, None, :] * C
            Zr = np.empty(Z.shape[:2] + (2 * m,))
            Zr[..., :m] = Z.real
            Zr[..., m:] = Z.imag
            del Z
            X = Zr @ VV
            del Zr
            with np.errstate(over="ignore", invalid="ignore",
                             divide="ignore"):
                y_norm = vector_norms(X[:, 0], p)
                # ||E^T||_q = ||E||_p
                x_norm = (vector_norms(X[:, 1], p) if z is not None
                          else matrix_norms(X[:, 1:], parts[1].q))
                norms = np.stack((y_norm, x_norm))
                est = np.where(np.isfinite(norms).all(axis=0),
                               (num[:, g] / norms).sum(axis=0), np.inf)
            yield idx[g], est, X, x_norm, y_norm


class _Modes:
    """The eigen-expansion's per-mode data for e^{tB}, B = A - shift I:
    the real eigenvalues and one member of each conjugate pair (lam,
    shifted, with weights rho and the columns V and rows W of V and
    V^{-1}), the p-norms of V's columns and 2-norms of W's rows, the
    condition numbers kappa_j, the eigenvalue errors dlam_j, and the rate
    s u ||A||_2 kappa_j and reach 1 / gap_j of the eigenvector errors."""

    def __init__(self, A, es: EigenSystem, shift: float, p):
        A = as_real_matrix(A, square=True)
        n = A.shape[0]
        lam = es.eigenvalues
        keep = lam.imag >= 0.0
        self.p = p = _normalize_p(p)
        self.rho = np.where(lam.imag[keep] > 0.0, 2.0, 1.0)
        lam, self.V, self.W = (lam[keep], es.right_vectors[:, keep],
                               es.left_rows[keep])
        self.vp = vector_norms(self.V.T, p)
        self.wn = vector_norms(self.W, 2)
        self.kappa = vector_norms(self.V.T, 2) * self.wn
        u = np.finfo(float).eps / 2.0
        self.su = su = _EXPAND_SAFETY * u
        u_ext = float(np.finfo(np.longdouble).eps) / 2.0
        self.a_norm = float(matrix_norms(A, 2))
        dlam = _EIGVAL_SAFETY * u * self.a_norm * self.kappa
        top = es.refined[keep]
        dlam[top] = su * ((n + 1) * u_ext / u * self.a_norm
                          * self.kappa[top] + np.abs(lam[top] - shift))
        self.dlam = dlam
        gaps = np.abs(lam[:, None] - es.eigenvalues)
        gaps[np.arange(lam.size), np.flatnonzero(keep)] = np.inf
        with np.errstate(divide="ignore"):  # a repeated eigenvalue: inf
            self.reach = 1.0 / gaps.min(axis=1)
        self.lam = lam - shift
        self.drift = su * self.a_norm * self.kappa
        # 2-to-p norms: n^max(0, 1/p - 1/2) ||M||_2 bounds ||M||_{2 -> p}
        to_p_norm = np.sqrt(n) if p == 1 else 1.0
        self.cond_p = es.basis_cond * to_p_norm
        self.basis_p = es.basis_norm * to_p_norm
        self.basis_cond = es.basis_cond


class _Columns:
    """eigen_propagate's error numerators for the columns of U."""

    def __init__(self, md: _Modes, U):
        self.md = md
        self.C = md.rho[:, None] * (md.W @ U)                # (m, k)
        self.mags = np.abs(self.C).T * md.vp                 # a_j / |e_j|
        self.to_p = md.rho * md.vp * md.wn
        self.u_cond = md.su * md.basis_cond * vector_norms(U.T, 2)
        self.coefs = np.abs(self.C).T ** 2                   # (rho |c_j|)^2

    def numerators(self, mod, at):
        """(sum_j a_j(t), the estimate's numerator), each (k, T), from the
        moduli mod = |e_j(t)| (m, T) at |t| = at (T,)."""
        md = self.md
        total = self.mags @ mod
        g = np.minimum(self.to_p @ mod, md.cond_p * mod.max(axis=0))
        # the eigenvalues' errors scale the terms along V, which bounds
        # their sum by ||V|| times their 2-norm
        lam_err = mod * (md.dlam[:, None] * at)
        drift = np.minimum(self.mags @ lam_err,
                           md.basis_p * np.sqrt(self.coefs @ lam_err ** 2))
        drift += self.mags @ (mod * (md.drift[:, None]
                                     * np.minimum(at, md.reach[:, None])))
        num = (md.su * total + self.u_cond[:, None] * g + drift
               + np.finfo(float).tiny)
        return total, num


class _Whole:
    """eigen_propagate's error numerator for all of e^{tB}, bounded as one
    matrix in the induced p-norm."""

    def __init__(self, md: _Modes, es: EigenSystem):
        self.md = md
        self.q = q = {1: np.inf, 2: 2, np.inf: 1}[md.p]
        self.C = md.rho[:, None] * md.W                      # (m, n)
        self.mat = md.rho * md.vp * vector_norms(md.W, q)    # a_j / |e_j|
        if q == 2:
            self.box = es.basis_cond
        else:
            axis = 0 if q == np.inf else 1   # column sums at p = 1, rows at inf
            self.box = float(np.abs(es.right_vectors).sum(axis=axis).max()
                             * np.abs(es.left_rows).sum(axis=axis).max())
        self.inv = md.su * es.basis_cond * (1.0 if q == 2 else np.sqrt(es.n))

    def numerators(self, mod, at):
        """(sum_j a_j(t), the estimate's numerator), each (1, T), from the
        moduli mod = |e_j(t)| (m, T) at |t| = at (T,); the maxima over the
        modes are elementwise."""
        md, mat, box = self.md, self.mat, self.box
        total = mat @ mod
        lam_err = mod * md.dlam[:, None]
        vec_err = mod * (md.drift[:, None] * np.minimum(at, md.reach[:, None]))
        num = (md.su * total
               + self.inv * np.minimum(total, box * mod.max(axis=0))
               + at * np.minimum(mat @ lam_err, box * lam_err.max(axis=0))
               + np.minimum(mat @ vec_err, box * vec_err.max(axis=0))
               + np.finfo(float).tiny)
        return total[None], num[None]
