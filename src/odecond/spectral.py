"""Spectrum partition by real parts and per-block spectral data.

Eigenvalues are grouped by (numerically) equal real parts into blocks
ordered by strictly decreasing real part.  A supported block is either one
simple real eigenvalue or one simple complex-conjugate pair; everything
else is kept but marked unsupported.  For a supported block the module
computes the normalized right vector v_hat, the normalized left row w_hat,
the non-normality factor f = ||w|| * ||v||, and, in the Euclidean case, the
ellipse data of the map u -> w_hat u over the real unit sphere: moduli
V = |v_hat^T v_hat| and W = |w_hat w_hat^T|, the angle delta of v_hat^T
v_hat, the semi-axes sigma >= mu, and the major-axis angle theta.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import AmbiguousGrouping, OdecondError, UnsupportedBlock, ZeroProjection
from .matrix_core import (
    EigenSystem,
    as_real_matrix,
    dual_vector_norm,
    eigen_decompose,
    induced_matrix_norm,
    svd_2xn,
)
from .matrix_core import _normalize_p

__all__ = [
    "BlockKind",
    "BlockProjection",
    "EigenBlock",
    "SpectrumAnalysis",
    "analyze_spectrum",
    "block_project",
    "build_Q",
    "DEFAULT_GROUP_TOL",
]

#: real parts this close (times max(1, ||A||_2)) group: above eigenvalue
#: rounding, below a genuine gap; a gap up to _AMBIGUOUS_BAND times it is
#: refused, since a nearby tolerance would regroup it
DEFAULT_GROUP_TOL = 1e-8
_AMBIGUOUS_BAND = 10.0

#: |w_hat u| <= PROJECTION_FLOOR ||u||_2 vanishes (no polar angle, outside
#: the generic case), for every caller; up to PROJECTION_WARN it is valid
#: but the scale factor 1 / |w_hat y0_hat| is huge, so the caller is warned
PROJECTION_FLOOR = 1e-12
PROJECTION_WARN = 1e-6

#: V or W at or below this counts as zero: the phase angle delta of
#: v_hat^T v_hat is pinned to 0 there, and the envelope closed forms take
#: their V = 0 / W = 0 limits.
ZERO_MODULUS = 1e-13


class BlockKind(enum.Enum):
    SIMPLE_SINGLE_REAL = "simple_single_real"
    SIMPLE_SINGLE_COMPLEX = "simple_single_complex"
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class EigenBlock:
    """All per-block quantities.  Euclidean-only fields (V_mod through
    right_minor) are None unless the block is complex and was analyzed with
    the 2-norm."""

    kind: BlockKind
    r: float
    omega: float
    eigenvalue: Optional[complex]
    group_eigenvalues: np.ndarray
    norm_p: object
    v_hat: Optional[np.ndarray] = None
    w_hat: Optional[np.ndarray] = None
    f: Optional[float] = None
    comp_moduli_v: Optional[np.ndarray] = None
    comp_angles_v: Optional[np.ndarray] = None
    comp_moduli_w: Optional[np.ndarray] = None
    comp_angles_w: Optional[np.ndarray] = None
    V_mod: Optional[float] = None
    delta: Optional[float] = None
    W_mod: Optional[float] = None
    sigma: Optional[float] = None
    mu: Optional[float] = None
    theta_axis: Optional[float] = None
    right_major: Optional[np.ndarray] = None
    right_minor: Optional[np.ndarray] = None

    @property
    def is_real(self) -> bool:
        return self.kind is BlockKind.SIMPLE_SINGLE_REAL

    @property
    def is_complex(self) -> bool:
        return self.kind is BlockKind.SIMPLE_SINGLE_COMPLEX

    @property
    def is_supported(self) -> bool:
        return self.kind is not BlockKind.UNSUPPORTED


@dataclass(frozen=True)
class SpectrumAnalysis:
    blocks: tuple
    q: int
    grouping_tolerance: float
    norm_p: object
    matrix: np.ndarray
    eigensystem: EigenSystem

    @property
    def all_supported(self) -> bool:
        return all(b.is_supported for b in self.blocks)


def _build_supported_block(kind, members, v, w, p):
    vnorm = float(np.linalg.norm(v, p))
    wnorm = dual_vector_norm(w, p)
    v_hat = v / vnorm
    w_hat = w / wnorm
    f = wnorm * vnorm
    lam = members[0]
    extra = {}
    if kind is BlockKind.SIMPLE_SINGLE_COMPLEX and p == 2:
        vv = complex(v_hat @ v_hat)
        V_mod = abs(vv)
        delta = 0.0 if V_mod <= ZERO_MODULUS else float(np.angle(vv))
        W_mod = abs(complex(w_hat @ w_hat))
        R = np.vstack([w_hat.real, w_hat.imag])
        sv = svd_2xn(R)
        extra = dict(
            V_mod=V_mod,
            delta=delta,
            W_mod=W_mod,
            sigma=sv.sigma,
            mu=sv.mu,
            theta_axis=float(np.arctan2(sv.left_major[1], sv.left_major[0])),
            right_major=sv.right_major,
            right_minor=sv.right_minor,
        )
    return EigenBlock(
        kind=kind,
        r=float(lam.real),
        omega=float(lam.imag),
        eigenvalue=complex(lam),
        group_eigenvalues=np.array(members),
        norm_p=p,
        v_hat=v_hat,
        w_hat=w_hat,
        f=f,
        comp_moduli_v=np.abs(v_hat),
        comp_angles_v=np.angle(v_hat),
        comp_moduli_w=np.abs(w_hat),
        comp_angles_w=np.angle(w_hat),
        **extra,
    )


def analyze_spectrum(A, norm_p=2, tol: float = DEFAULT_GROUP_TOL) -> SpectrumAnalysis:
    """Group the eigenvalues of A by real part and classify each group.

    Groups are formed by chaining: consecutive (sorted) real parts closer
    than tol * max(1, ||A||_2) merge.  A gap inside (tol, 10 tol] of that
    scale raises AmbiguousGrouping, because the partition would flip under
    a nearby tolerance; pass an explicit tol to resolve it.
    """
    A = as_real_matrix(A, square=True)
    p = _normalize_p(norm_p)
    if not (tol > 0 and np.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    es = eigen_decompose(A)
    tol_abs = tol * max(1.0, induced_matrix_norm(A, 2))

    evals = es.eigenvalues
    n = evals.shape[0]
    gaps = evals.real[:-1] - evals.real[1:]
    band = (gaps > tol_abs) & (gaps <= _AMBIGUOUS_BAND * tol_abs)
    if np.any(band):
        k = int(np.flatnonzero(band)[0])
        raise AmbiguousGrouping(
            f"real-part gap {gaps[k]:.3e} between {evals[k]:.6g} and "
            f"{evals[k + 1]:.6g} lies in the ambiguous band "
            f"({tol_abs:.1e}, {_AMBIGUOUS_BAND * tol_abs:.1e}]; "
            "choose a grouping tolerance explicitly"
        )

    groups = [[0]]
    for i in range(1, n):
        if gaps[i - 1] <= tol_abs:
            groups[-1].append(i)
        else:
            groups.append([i])

    blocks = []
    for idx in groups:
        members = evals[idx]
        real_members = [i for i in idx if abs(evals[i].imag) <= tol_abs]
        if len(idx) == 1 and real_members:
            i = idx[0]
            blocks.append(_build_supported_block(
                BlockKind.SIMPLE_SINGLE_REAL, members,
                es.right_vectors[:, i], es.left_rows[i, :], p))
        elif (len(idx) == 2 and not real_members
              and evals[idx[1]] == np.conj(evals[idx[0]])):
            i = idx[0] if evals[idx[0]].imag > 0 else idx[1]
            blocks.append(_build_supported_block(
                BlockKind.SIMPLE_SINGLE_COMPLEX,
                members[np.argsort(-members.imag)],
                es.right_vectors[:, i], es.left_rows[i, :], p))
        else:
            blocks.append(EigenBlock(
                kind=BlockKind.UNSUPPORTED,
                r=float(np.mean(members.real)),
                omega=float(np.max(np.abs(members.imag))),
                eigenvalue=None,
                group_eigenvalues=np.array(members),
                norm_p=p,
            ))
    return SpectrumAnalysis(
        blocks=tuple(blocks),
        q=len(blocks),
        grouping_tolerance=tol_abs,
        norm_p=p,
        matrix=A,
        eigensystem=es,
    )


class BlockProjection(NamedTuple):
    wu_mod: float
    gamma: float
    c: float
    d: float


def checked_projection(block: EigenBlock, u, label: str = "u",
                       notes=None) -> BlockProjection:
    """|w_hat u|, its polar angle gamma in (-pi, pi], and the coordinates
    c, d of a Euclidean-unit u along the right singular vectors of the
    stacked Re/Im rows of w_hat (NaN without Euclidean block data).

    The one vanishing-projection decision: raises ZeroProjection, naming u
    by label, at or below PROJECTION_FLOOR; up to PROJECTION_WARN appends
    a warning to the list notes, if given."""
    u = np.asarray(u, dtype=float)
    scale = float(np.linalg.norm(u))
    if scale == 0.0 or not np.isfinite(scale):
        raise ValueError("u must be a nonzero finite vector")
    wu = complex(block.w_hat @ u)
    wu_mod = abs(wu)
    if wu_mod <= PROJECTION_FLOOR * scale:
        raise ZeroProjection(
            f"|w_hat {label}| = {wu_mod:.3e} <= {PROJECTION_FLOOR:.0e} "
            f"||{label}||; the generic-case assumption fails"
        )
    if notes is not None and wu_mod <= PROJECTION_WARN * scale:
        notes.append(
            f"near-degenerate projection |w_hat {label}| = {wu_mod:.3e}; "
            "asymptotic factors are large but valid"
        )
    if block.right_major is not None:
        c = float(u @ block.right_major)
        d = float(u @ block.right_minor)
    else:
        c = d = float("nan")
    return BlockProjection(wu_mod=wu_mod, gamma=float(np.angle(wu)), c=c, d=d)


def block_project(block: EigenBlock, u) -> BlockProjection:
    """checked_projection of u onto a complex block."""
    if not block.is_complex:
        raise UnsupportedBlock("block_project expects a complex block")
    return checked_projection(block, u)


def build_Q(block: EigenBlock, t: float) -> np.ndarray:
    """Rank-one (real block) or rank-two (complex block) oscillator matrix.

    Real block: v w, constant in t.  Complex block:
    2 Re(e^{i omega t} v w), periodic with period 2 pi / omega.  Both are
    assembled from the normalized pair as f * v_hat w_hat, which equals
    v w because f absorbs the normalization.
    """
    if not block.is_supported:
        raise UnsupportedBlock("build_Q needs a simple real or complex block")
    M = block.f * np.outer(block.v_hat, block.w_hat)
    if block.is_real:
        resid = float(np.abs(M.imag).max())
        if resid > 1e-13 * max(1.0, float(np.abs(M).max())):
            raise OdecondError(
                f"real-block product has imaginary residue {resid:.3e}"
            )
        return M.real.copy()
    return 2.0 * (np.exp(1j * block.omega * t) * M).real
