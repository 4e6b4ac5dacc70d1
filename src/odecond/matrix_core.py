"""Dense matrix substrate: the matrix exponential over a time grid,
eigendecomposition with left and right vectors, the p-norms, and the
small 2xn SVD behind the spectral module's singular directions.

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
from the Gram matrices; at p = 2 both scale by exact powers of two first,
so no square overflows.  Grid functions hold their (T, n, n) stacks in
chunks from stack_slices, so memory stays flat in the grid length.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonDiagonalizable, OdecondError

__all__ = [
    "EigenSystem",
    "as_real_matrix",
    "eigen_decompose",
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
    sqrt(lambda_max(E^T E)) from one batched eigvalsh, cheaper than the
    SVD and as accurate: the error of lambda_max is eps sigma^2.  Each
    matrix is first scaled as in vector_norms, so E^T E cannot overflow
    where the SVD would not."""
    p = _normalize_p(p)
    E = np.asarray(E, dtype=float)
    if p != 2:
        return np.linalg.norm(E, p, axis=(-2, -1))
    F, k = _unit_scaled(E, (-2, -1))
    lam = np.linalg.eigvalsh(np.swapaxes(F, -1, -2) @ F)[..., -1]
    return np.ldexp(np.sqrt(lam), k[..., 0, 0])


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition A = V diag(eigenvalues) V^{-1}.

    right_vectors holds V (column i belongs to eigenvalues[i]); left_rows
    holds V^{-1} (row i belongs to eigenvalues[i]), so the two are
    biorthogonal by construction.  Complex eigenvalues come in conjugate
    pairs whose vectors are exact conjugates of each other.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_rows: np.ndarray
    residual: float
    basis_cond: float

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
    return EigenSystem(
        eigenvalues=evals,
        right_vectors=V,
        left_rows=W,
        residual=residual,
        basis_cond=float(svals[0] / svals[-1]),
    )


@dataclass(frozen=True)
class Svd2xn:
    """SVD of a real 2xn matrix, R = sigma u1 v1^T + mu u2 v2^T with
    sigma >= mu >= 0 and orthonormal singular vectors.  Signs are pinned so
    the first nonzero component of each left vector is positive, which makes
    downstream angle conventions reproducible."""

    sigma: float
    mu: float
    left_major: np.ndarray
    left_minor: np.ndarray
    right_major: np.ndarray
    right_minor: np.ndarray


def svd_2xn(R) -> Svd2xn:
    R = as_real_matrix(R)
    if R.shape[0] != 2 or R.shape[1] < 2:
        raise ValueError(f"expected a 2xn matrix with n >= 2, got {R.shape}")
    U, S, Vt = np.linalg.svd(R, full_matrices=False)
    for j in range(2):
        col = U[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0.0:
            U[:, j] = -U[:, j]
            Vt[j, :] = -Vt[j, :]
    return Svd2xn(
        sigma=float(S[0]),
        mu=float(S[1]),
        left_major=U[:, 0].copy(),
        left_minor=U[:, 1].copy(),
        right_major=Vt[0, :].copy(),
        right_minor=Vt[1, :].copy(),
    )
