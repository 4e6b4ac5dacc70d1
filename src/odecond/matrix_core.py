"""Dense matrix substrate: matrix exponential, eigendecomposition with left
and right vectors, induced norms, and the small 2xn SVD.

Matrices are plain numpy arrays throughout; the validators below replace a
wrapper class.  All functions are pure.  Functions that evaluate a whole
time grid build (T, n, n) stacks in slices from stack_slices, so their
memory stays flat in the grid length.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NonDiagonalizable

__all__ = [
    "EigenSystem",
    "Svd2xn",
    "as_real_matrix",
    "eigen_decompose",
    "induced_matrix_norm",
    "mat_exp",
    "stack_slices",
    "svd_2xn",
]

#: bytes of the float64 (T, n, n) stack a grid function holds at a time
STACK_BYTES = 1 << 20


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

    Delegates to scipy's scaling-and-squaring implementation, which is well
    inside 1e-12 relative accuracy for the moderate norms this package
    targets.  The test suite cross-checks it against an independent scaled
    Taylor-series oracle.
    """
    A = as_real_matrix(A, square=True)
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    return scipy.linalg.expm(t * A)


def stack_slices(count: int, n: int) -> list:
    """Slices covering range(count) in runs of about STACK_BYTES of n x n
    float64 matrices (at least one matrix per run)."""
    step = max(1, STACK_BYTES // (8 * n * n))
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
        return float(scipy.linalg.svdvals(M)[0]) if min(M.shape) else 0.0
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


_DEFECT_COND_LIMIT = 1e12


def eigen_decompose(A, cond_limit: float = _DEFECT_COND_LIMIT) -> EigenSystem:
    """Full eigendecomposition of a real square matrix.

    Eigenvalues are sorted by decreasing real part (conjugate pairs
    adjacent, positive imaginary part first) and each pair is canonicalized
    so the negative-imaginary member is the exact conjugate of its partner,
    both in the eigenvalue and in the corresponding column of V and row of
    V^{-1}.

    Raises NonDiagonalizable when the eigenvector matrix condition number
    exceeds *cond_limit*: the matrix is defective to tolerance and the
    simple-eigenvalue formulas downstream would be meaningless.
    """
    A = as_real_matrix(A, square=True)
    try:
        evals, V = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NonDiagonalizable(f"eigensolver failed: {exc}") from exc

    svals = scipy.linalg.svdvals(V)
    if svals[-1] == 0.0 or svals[0] / svals[-1] > cond_limit:
        cond = np.inf if svals[-1] == 0.0 else svals[0] / svals[-1]
        raise NonDiagonalizable(
            f"eigenvector matrix condition number {cond:.3e} exceeds "
            f"{cond_limit:.1e}; matrix is defective to tolerance"
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
