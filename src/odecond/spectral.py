"""Spectrum partition by real parts and per-member spectral data.

Eigenvalues are grouped by (numerically) equal real parts, in order of
strictly decreasing real part.  The grouping decides only genericity: a
group is generic when it is one simple real eigenvalue or one simple
complex-conjugate pair, and the asymptotic condition number needs a
generic rightmost group.  The spectral data are kept per member, one
block per real eigenvalue and one per conjugate pair: the dominance sums
bound a group's term by the sum of its members' terms, so they need no
grouping of the subdominant spectrum.  For each block the module
computes the normalized right vector v_hat, the normalized left row w_hat,
the non-normality factor f = ||w|| * ||v||, and, in the Euclidean case, the
ellipse data of the map u -> w_hat u over the real unit sphere, all from
two complex dot products, V e^{i delta} = v_hat^T v_hat and
W e^{2 i theta} = w_hat w_hat^T: the ellipse has semi-axes
sigma = sqrt((1 + W)/2) >= mu = sqrt((1 - W)/2) and major-axis angle
theta, and its right singular vectors are the real and imaginary parts
of e^{-i theta} w_hat, of norms sigma and mu.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import AmbiguousGrouping, OdecondError, ZeroProjection
from .matrix_core import (
    EigenSystem,
    as_real_matrix,
    eigen_decompose,
    matrix_norms,
    vector_norms,
)
from .matrix_core import _DUAL, _normalize_p

__all__ = [
    "BlockKind",
    "BlockProjection",
    "EigenBlock",
    "SpectrumAnalysis",
    "analyze_spectrum",
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

#: V or W at or below this is rounding noise: the block stores it as 0.0,
#: so delta or theta is pinned to 0 and every closed form takes its V = 0 /
#: W = 0 limit.
ZERO_MODULUS = 1e-13
#: V or W within this of 1 is stored as 1.0, outside the closed forms: they
#: lose about u / (1 - max(V, W)) near the minima of g, 1e-8 at this cut
#: and 53% a few ulps below 1.  Such a pair's g comes from stacked norms,
#: and a rightmost one is refused.
NEAR_ONE = 2.0 ** -26


class BlockKind(enum.Enum):
    SIMPLE_SINGLE_REAL = "simple_single_real"
    SIMPLE_SINGLE_COMPLEX = "simple_single_complex"


@dataclass(frozen=True)
class EigenBlock:
    """All quantities of one real eigenvalue or one conjugate pair, v_hat
    and w_hat normalized in norm_p (w_hat in its dual norm).  eigenvalue is
    the real one or the pair's positive-imaginary member, and
    group_eigenvalues holds it (with its exact conjugate for a pair).
    Euclidean-only fields (V_mod through right_minor) are None unless the
    block is complex and was analyzed with the 2-norm."""

    kind: BlockKind
    r: float
    omega: float
    eigenvalue: complex
    group_eigenvalues: np.ndarray
    norm_p: object
    v_hat: np.ndarray
    w_hat: np.ndarray
    f: float
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


@dataclass(frozen=True)
class SpectrumAnalysis:
    """The member blocks, by decreasing real part (blocks[0] is the whole
    rightmost group when rightmost_generic), and the grouping's verdicts:
    q groups, whether the rightmost one is generic and whether all are."""

    blocks: tuple
    q: int
    rightmost_generic: bool
    all_supported: bool
    grouping_tolerance: float
    norm_p: object
    matrix: np.ndarray
    eigensystem: EigenSystem


def _member_blocks(members, v, w, p) -> list:
    """The blocks of the eigenvalues members (m,), each real or the
    positive-imaginary member of its pair, from their right vectors, the
    rows of v, and their left rows, the rows of w (both m x n).  Every
    member's data are formed in one batched pass, row by row, so a
    member's block has the same bits whichever members share the pass."""
    vnorm, wnorm = vector_norms(v, p), vector_norms(w, _DUAL[p])
    v_hat, w_hat = v / vnorm[:, None], w / wnorm[:, None]
    extra = [{} for _ in members]
    pair = np.flatnonzero((members.imag > 0) & (p == 2))
    if pair.size:
        vv, ww = (np.sum(x[pair] * x[pair], axis=-1) for x in (v_hat, w_hat))
        # noise at or below ZERO_MODULUS is stored as 0, anything within
        # NEAR_ONE of 1 (or rounded above it) as 1
        V, W = (np.select([a <= ZERO_MODULUS, 1.0 - a <= NEAR_ONE], [0.0, 1.0],
                          a) for a in (np.abs(vv), np.abs(ww)))
        delta = np.where(V == 0.0, 0.0, np.angle(vv))
        theta = np.where(W == 0.0, 0.0, np.angle(ww) / 2.0)
        # Re and Im of e^{-i theta} w_hat are orthogonal, of norms sigma
        # and mu: the axes for the left vectors (cos theta, sin theta) and
        # +-(-sin theta, cos theta), each with a positive first nonzero
        # entry, so the minor one flips where theta > 0
        turned = np.exp(-1j * theta)[:, None] * w_hat[pair]
        sigma, mu = vector_norms(turned.real, 2), vector_norms(turned.imag, 2)
        flip = np.where(theta > 0.0, -1.0, 1.0)[:, None]
        cols = dict(V_mod=V.tolist(), delta=delta.tolist(), W_mod=W.tolist(),
                    sigma=sigma.tolist(), mu=mu.tolist(),
                    theta_axis=theta.tolist(),
                    right_major=turned.real / sigma[:, None],
                    right_minor=flip * turned.imag / mu[:, None])
        for k, i in enumerate(pair):
            extra[i] = {name: col[k] for name, col in cols.items()}
    f = (wnorm * vnorm).tolist()
    blocks = []
    for i, lam in enumerate(members.tolist()):
        group = [lam, lam.conjugate()] if lam.imag > 0 else [lam]
        kind = (BlockKind.SIMPLE_SINGLE_COMPLEX if lam.imag > 0
                else BlockKind.SIMPLE_SINGLE_REAL)
        blocks.append(EigenBlock(
            kind=kind, r=lam.real, omega=lam.imag, eigenvalue=lam,
            group_eigenvalues=np.array(group), norm_p=p, v_hat=v_hat[i],
            w_hat=w_hat[i], f=f[i], **extra[i]))
    return blocks


def analyze_spectrum(A, norm_p=2, tol: float = DEFAULT_GROUP_TOL) -> SpectrumAnalysis:
    """Group the eigenvalues of A by real part, decide which groups are
    generic, and build one block per real eigenvalue and conjugate pair.

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
    tol_abs = tol * max(1.0, float(matrix_norms(A, 2)))

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

    # each pair is stored once, by its positive-imaginary member, whose
    # partner eigen_decompose makes its exact conjugate
    stored = np.flatnonzero(evals.imag >= 0)
    blocks = _member_blocks(evals[stored], es.right_vectors[:, stored].T,
                            es.left_rows[stored], p)
    # generic: one real eigenvalue, or one pair whose |Im| the grouping
    # tolerance does not blur into two real ones
    generic = [len(idx) == 1 or (len(idx) == 2
                                 and evals[idx[0]].imag > tol_abs)
               for idx in groups]
    return SpectrumAnalysis(
        blocks=tuple(blocks),
        q=len(groups),
        rightmost_generic=generic[0],
        all_supported=all(generic),
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
    c, d of a Euclidean-unit u along the ellipse's axes right_major and
    right_minor (NaN without Euclidean block data).

    The one vanishing-projection decision: raises ZeroProjection, naming u
    by label, at or below PROJECTION_FLOOR; up to PROJECTION_WARN appends
    a warning to the list notes, if given."""
    u = np.asarray(u, dtype=float)
    scale = float(vector_norms(u, 2))
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


def build_Q(block: EigenBlock, t: float) -> np.ndarray:
    """Rank-one (real block) or rank-two (complex block) oscillator matrix.

    Real block: v w, constant in t.  Complex block:
    2 Re(e^{i omega t} v w), periodic with period 2 pi / omega.  Both are
    assembled from the normalized pair as f * v_hat w_hat, which equals
    v w because f absorbs the normalization.
    """
    M = block.f * np.outer(block.v_hat, block.w_hat)
    if block.is_real:
        resid = float(np.abs(M.imag).max())
        if resid > 1e-13 * max(1.0, float(np.abs(M).max())):
            raise OdecondError(
                f"real-block product has imaginary residue {resid:.3e}"
            )
        return M.real.copy()
    return 2.0 * (np.exp(1j * block.omega * t) * M).real
