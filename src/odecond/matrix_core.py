"""Dense matrix substrate: the matrix exponential over a time grid,
eigendecomposition with left and right vectors, induced norms, and the
small 2xn SVD.

Matrices are plain numpy arrays throughout; the validators below replace a
wrapper class.  All functions are pure.  expm_grid evaluates e^{tB} over a
whole grid of t as one batched scaling-and-squaring Pade kernel: the
powers of B are formed once, and each chunk of the grid costs three
matrix products, one batched solve and the squarings; mat_exp is that
kernel at one t.  Grid functions hold their (T, n, n) stacks in slices
from stack_slices, so memory stays flat in the grid length.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonDiagonalizable, OdecondError

__all__ = [
    "EigenSystem",
    "Svd2xn",
    "as_real_matrix",
    "eigen_decompose",
    "expm_grid",
    "induced_matrix_norm",
    "mat_exp",
    "stack_slices",
    "svd_2xn",
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
    """Validate *a* as a 2-D real matrix of finite entries and return it as
    a float array (C-contiguous copy only when conversion requires one)."""
    M = np.asarray(a, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {M.shape}")
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

    Yields (sl, E) with E[i] = e^{ts[sl][i] B}, the slices covering ts in
    order.  Scaling and squaring with the Pade-13 approximant r_13 = p/q
    (Higham 2005): e^{tB} = r_13(t B / 2^s)^(2^s), where s is the least
    s >= 0 with |t| alpha / 2^s <= theta_13, alpha = min(max(d6, d8),
    max(d8, d10)) and d_k = ||B^k||_1^{1/k} (Al-Mohy & Higham, SIAM J.
    Matrix Anal. Appl. 31(3), 2009).

    Every matrix of the grid is a multiple of B, so the even powers
    B^0..B^12 are formed once, of B scaled by an exact power of two 2^-e
    that keeps them from overflowing; the d_k are exact norms of them.  A
    second power of two then brings alpha to [1/2, 1), so that with
    c = t 2^(e-s), |c| <= 2 theta_13 and no c^k overflows.  For a chunk
    of the grid, V = sum of b_k c^k (B 2^-e)^k over even k is one (T, 7)
    by (7, n^2) matrix product; U, the odd terms, is the same product
    times B 2^-e, which keeps its rounding a polynomial in B as Higham's
    U = A (...) does.  Then one batched solve q r = p with p = V + U,
    q = V - U, and the squarings of the samples whose s is not reached.

    Raises ValueError for a t that is not finite, and OdecondError when
    e^{tB} is not finite: it overflows, or B is so far from normal that
    its scaled powers underflow, where the many squarings B would need
    spoil the result anyway.
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
    d6, d8, d10 = (np.linalg.norm(P[k // 2], 1) ** (1.0 / k)
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
    with np.errstate(divide="ignore"):
        log_ratio = np.log2(alpha / _THETA13) + e
    even = P.reshape(7, n * n)
    for sl in stack_slices(ts.size, n, _EXPM_LIVE_STACKS):
        t = ts[sl]
        # a sum of logs: |t| alpha itself may overflow
        with np.errstate(divide="ignore"):
            s = np.maximum(np.ceil(np.log2(np.abs(t)) + log_ratio),
                           0.0).astype(int)
        with np.errstate(over="ignore", invalid="ignore"):
            # b_k c^k; a running product is ten times faster than ** here
            coef = np.empty((t.size, 14))
            coef[:, 0] = 1.0
            coef[:, 1:] = np.ldexp(t, e - s)[:, None]
            np.cumprod(coef, axis=1, out=coef)
            coef *= _PADE13
            V = coef[:, 0::2] @ even
            U = coef[:, 1::2] @ even
            U = (U.reshape(-1, n) @ B1).reshape(-1, n * n)
            V -= U          # denominator q = V - U
            U *= 2.0
            U += V          # numerator p = V + U
            try:
                E = np.linalg.solve(V.reshape(-1, n, n), U.reshape(-1, n, n))
            except np.linalg.LinAlgError as exc:
                raise OdecondError(
                    f"the Pade denominator of e^{{tB}} is singular for t in "
                    f"[{t.min():.6g}, {t.max():.6g}]") from exc
            del U, V
            for step in range(1, int(s.max(initial=0)) + 1):
                sel = np.flatnonzero(s >= step)
                if sel[-1] - sel[0] + 1 == sel.size:  # a run, as for t >= 0
                    sel = slice(sel[0], sel[-1] + 1)
                E[sel] = E[sel] @ E[sel]
        if not np.all(np.isfinite(E)):
            raise OdecondError(
                f"e^{{tB}} is not finite for t in [{t.min():.6g}, "
                f"{t.max():.6g}]")
        yield sl, E


def stack_slices(count: int, n: int, stacks: int = 1) -> list:
    """Slices covering range(count) in runs whose *stacks* (T, n, n)
    float64 stacks take about STACK_BYTES together (at least one matrix
    per run)."""
    step = max(1, STACK_BYTES // (8 * stacks * n * n))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _normalize_p(p):
    if p in (1, 2):
        return int(p)
    if p == np.inf or p == float("inf"):
        return np.inf
    raise ValueError(f"unsupported norm selector {p!r}; use 1, 2 or inf")


def induced_matrix_norm(M, p) -> float:
    """Induced matrix p-norm for p in {1, 2, inf}.

    p=1 is the maximum column absolute sum, p=inf the maximum row absolute
    sum, p=2 the largest singular value.
    """
    M = np.asarray(M)
    if M.ndim != 2:
        raise ValueError("induced_matrix_norm expects a matrix")
    p = _normalize_p(p)
    if p == 2:
        if not min(M.shape):
            return 0.0
        return float(np.linalg.svd(M, compute_uv=False)[0])
    return float(np.linalg.norm(M, p))


def vector_norm(u, p) -> float:
    """Vector p-norm of a real or complex vector, p in {1, 2, inf}."""
    return float(np.linalg.norm(np.asarray(u), _normalize_p(p)))


def dual_vector_norm(u, p) -> float:
    """Norm of the linear functional x -> u x, i.e. the q-norm with
    1/p + 1/q = 1.  Used to normalize left eigenvector rows."""
    p = _normalize_p(p)
    q = {1: np.inf, 2: 2, np.inf: 1}[p]
    return float(np.linalg.norm(np.asarray(u), q))


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

    Eigenvalues are sorted by decreasing real part (conjugate pairs
    adjacent, positive imaginary part first) and each pair is canonicalized
    so the negative-imaginary member is the exact conjugate of its partner,
    both in the eigenvalue and in the corresponding column of V and row of
    V^{-1}.

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

    order = np.lexsort((-evals.imag, -evals.real))
    evals = evals[order].astype(complex)
    V = V[:, order].astype(complex)

    # Pair conjugate eigenvalues and overwrite the Im<0 member with the
    # exact conjugate of its Im>0 partner.
    unpaired = [i for i in range(len(evals)) if evals[i].imag != 0.0]
    while unpaired:
        i = next(k for k in unpaired if evals[k].imag > 0)
        unpaired.remove(i)
        negs = [k for k in unpaired if evals[k].imag < 0]
        if not negs:
            raise NonDiagonalizable(
                "complex eigenvalues do not close under conjugation"
            )
        j = min(negs, key=lambda k: abs(evals[k] - np.conj(evals[i])))
        unpaired.remove(j)
        evals[j] = np.conj(evals[i])
        V[:, j] = np.conj(V[:, i])

    W = np.linalg.inv(V)
    for i in range(len(evals)):
        if evals[i].imag > 0:
            j = int(np.argmin(np.abs(evals - np.conj(evals[i]))))
            W[j, :] = np.conj(W[i, :])

    residual = float(max(np.linalg.norm(A @ V[:, i] - evals[i] * V[:, i])
                         for i in range(len(evals))))
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
