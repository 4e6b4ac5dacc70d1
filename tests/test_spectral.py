import dataclasses

import numpy as np
import pytest

from conftest import EXAMPLE_A, sample_supported, spectral_kind, unit
from oracles import sphere_max

from odecond.condition import Scenario, k_asym, ot_envelope, sweep
from odecond.errors import AmbiguousGrouping, ZeroProjection, UnsupportedBlock
from odecond.matrix_core import mat_exp
from odecond.oscillator import phase_offset, theta_norm_u
from odecond.spectral import (
    BlockKind,
    analyze_spectrum,
    build_Q,
    checked_projection,
)
from odecond.spectral import _member_blocks


def rightmost(A, norm_p=2):
    return analyze_spectrum(A, norm_p=norm_p).blocks[0]


# --------------------------------------------------------- analyze_spectrum

def test_diagonal_two_real_blocks():
    an = analyze_spectrum(np.diag([1.0, -1.0]))
    assert an.q == 2
    assert [b.kind for b in an.blocks] == [BlockKind.SIMPLE_SINGLE_REAL] * 2
    assert an.blocks[0].r == pytest.approx(1.0)
    assert an.blocks[1].r == pytest.approx(-1.0)
    for b in an.blocks:
        assert b.f == pytest.approx(1.0)


@pytest.mark.parametrize("norm_p", [1, 2, np.inf])
def test_member_rows_equal_one_member_builds(norm_p):
    # a seeded n = 100 analysis (49 pairs, two real eigenvalues): each
    # block of the batched pass equals, bit for bit, the block the builder
    # forms from that member alone
    A, _ = spectral_kind(np.random.default_rng(100), 98)
    A = np.block([[A, np.zeros((98, 2))],
                  [np.zeros((2, 98)), np.diag([-0.5, -7.0])]])
    an = analyze_spectrum(A, norm_p=norm_p)
    es = an.eigensystem
    assert len(an.blocks) == 51
    for b in an.blocks:
        i = int(np.flatnonzero(es.eigenvalues == b.eigenvalue)[0])
        one = _member_blocks(es.eigenvalues[[i]], es.right_vectors[:, [i]].T,
                             es.left_rows[[i]], norm_p)[0]
        for field in dataclasses.fields(b):
            got, want = getattr(b, field.name), getattr(one, field.name)
            assert type(got) is type(want), field.name
            assert np.array_equal(got, want) if isinstance(got, np.ndarray) \
                else got == want, field.name


# Im(lambda) = 3.2e-9: one modulus of the pair rounds to 1 (or, conjugated
# by a dense S, just above it)
NEAR_REAL = np.array([[0.0, 1.0, 0.0], [-1e-17, 0.0, 0.0], [0.0, 0.0, -1.0]])


def test_near_real_moduli_are_capped_at_1():
    mods = []
    for seed in range(20):
        S = np.random.default_rng(seed).standard_normal((3, 3))
        for A in (NEAR_REAL, S @ NEAR_REAL @ np.linalg.inv(S)):
            b = analyze_spectrum(A, tol=1e-14).blocks[0]
            if b.is_complex:
                mods += [b.V_mod, b.W_mod]
    assert all(0.0 <= m <= 1.0 for m in mods)
    assert mods.count(1.0) >= 5


@pytest.mark.parametrize("z0", [None, [0.0, 1.0, 0.0]])
def test_near_real_rightmost_pair_is_refused(z0):
    an = analyze_spectrum(NEAR_REAL, tol=1e-14)
    assert max(an.blocks[0].V_mod, an.blocks[0].W_mod) == 1.0
    s = Scenario(matrix=NEAR_REAL, y0=[1.0, 2.0, 3.0], z0=z0,
                 t_grid=np.linspace(0.0, 1.0, 5))
    for run in (sweep, ot_envelope):
        with pytest.raises(UnsupportedBlock, match="V or W rounds to 1"):
            run(s, an)


def test_example_matrix_block_moduli():
    b = rightmost(EXAMPLE_A)
    assert b.kind is BlockKind.SIMPLE_SINGLE_COMPLEX
    assert b.omega == pytest.approx(1.0, abs=1e-10)
    # frozen from an independent eigenvector-chain evaluation of the same
    # matrix; displayed renditions are 0.9988 and 0.9986
    assert b.V_mod == pytest.approx(0.9988143260760265, abs=1e-9)
    assert b.W_mod == pytest.approx(0.9986212690170994, abs=1e-9)
    assert b.sigma == pytest.approx(0.9996552578306931, abs=1e-9)
    assert b.mu == pytest.approx(0.026255770631429805, abs=1e-9)
    assert round(b.V_mod, 4) == 0.9988
    assert round(b.W_mod, 4) == 0.9986


def test_rotation_matrix_single_complex_block():
    an = analyze_spectrum(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert an.q == 1
    b = an.blocks[0]
    assert b.kind is BlockKind.SIMPLE_SINGLE_COMPLEX
    assert b.omega == pytest.approx(1.0)
    assert 0.0 <= b.W_mod < 1.0


def test_grouping_band_raises():
    with pytest.raises(AmbiguousGrouping):
        analyze_spectrum(np.diag([1.0, 1.0 - 5e-8]))


@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf")])
def test_grouping_tolerance_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError):
        analyze_spectrum(EXAMPLE_A, tol=tol)


def test_repeated_real_eigenvalue_unsupported():
    # one block per member: the repeated rightmost eigenvalue gives two
    # real blocks, and k_asym refuses the group, which is not generic
    A = np.diag([1.0, 1.0, -2.0])
    an = analyze_spectrum(A)
    assert [b.kind for b in an.blocks] == [BlockKind.SIMPLE_SINGLE_REAL] * 3
    assert [b.r for b in an.blocks[:2]] == [1.0, 1.0]
    assert an.q == 2
    assert not an.rightmost_generic and not an.all_supported
    s = Scenario(matrix=A, y0=[1.0, 1.0, 1.0], t_grid=[0.0, 1.0])
    with pytest.raises(UnsupportedBlock):
        k_asym(s, an, 1.0)


@pytest.mark.parametrize("A", [
    [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    [[0.5, 1e-10, 0.0], [-1e-10, 0.5, 0.0], [0.0, 0.0, -1.0]],
], ids=["pair_and_real", "pair_within_tol"])
def test_rightmost_group_not_generic(A):
    # a pair and a real eigenvalue sharing the rightmost real part, or a
    # pair whose |Im| is within the grouping tolerance: k_asym refuses
    an = analyze_spectrum(A)
    assert not an.rightmost_generic
    s = Scenario(matrix=A, y0=[1.0, 2.0, 3.0], t_grid=[0.0, 1.0])
    with pytest.raises(UnsupportedBlock):
        k_asym(s, an, 1.0)


def test_blocks_strictly_decreasing():
    rng = np.random.default_rng(9)
    for _ in range(5):
        A, an = sample_supported(rng, 5)
        rs = [b.r for b in an.blocks]
        assert all(a > b for a, b in zip(rs, rs[1:]))
        # every eigenvalue lands in exactly one block
        total = sum(len(b.group_eigenvalues) for b in an.blocks)
        assert total == 5


def test_moduli_below_one_random():
    rng = np.random.default_rng(23)
    for _ in range(20):
        _, an = sample_supported(rng, 5, need_complex_rightmost=True)
        for b in an.blocks:
            if b.is_complex:
                assert 0.0 <= b.V_mod < 1.0
                assert 0.0 <= b.W_mod < 1.0


def test_f_uses_dual_norm():
    rng = np.random.default_rng(31)
    A, _ = sample_supported(rng, 4)
    for p in (1, 2, np.inf):
        an = analyze_spectrum(A, norm_p=p)
        for b in an.blocks:
            # w v = 1 before normalization, so f >= 1 by duality
            assert b.f >= 1.0 - 1e-12
            assert np.linalg.norm(b.v_hat, p) == pytest.approx(1.0)


def test_ellipse_identity_wR():
    rng = np.random.default_rng(57)
    for _ in range(15):
        _, an = sample_supported(rng, 6, need_complex_rightmost=True)
        b = an.blocks[0]
        assert abs(b.sigma ** 2 - (1 + b.W_mod) / 2) <= 1e-12
        assert abs(b.mu ** 2 - (1 - b.W_mod) / 2) <= 1e-12


def _complex_blocks():
    """Every complex block of seeded random matrices, n = 2..9, and the
    rotation's block, whose w_hat w_hat^T vanishes (W = 0)."""
    rng = np.random.default_rng(2487)
    blocks = [b for n in range(2, 10) for _ in range(6)
              for b in sample_supported(rng, n)[1].blocks if b.is_complex]
    return blocks + [rightmost(np.array([[0.0, 1.0], [-1.0, 0.0]]))]


def test_ellipse_closed_form_matches_the_svd():
    # the axes from e^{-i theta} w_hat against np.linalg.svd of the stacked
    # rows [Re w_hat; Im w_hat], whose left vectors are (cos theta,
    # sin theta) and +-(-sin theta, cos theta)
    blocks = _complex_blocks()
    assert blocks[-1].W_mod == 0.0 and len(blocks) > 60
    for b in blocks:
        R = np.vstack([b.w_hat.real, b.w_hat.imag])
        th = b.theta_axis
        assert -np.pi / 2 < th <= np.pi / 2
        if b.W_mod == 0.0:
            assert th == 0.0
        assert b.sigma ** 2 - b.mu ** 2 == pytest.approx(b.W_mod, abs=1e-13)
        # the minor left vector's first nonzero entry is positive
        u1 = np.array([np.cos(th), np.sin(th)])
        u2 = np.array([-np.sin(th), np.cos(th)]) * (-1 if th > 0 else 1)
        rec = (b.sigma * np.outer(u1, b.right_major)
               + b.mu * np.outer(u2, b.right_minor))
        assert np.abs(rec - R).max() <= 1e-14
        axes = np.vstack([b.right_major, b.right_minor])
        assert np.abs(axes @ axes.T - np.eye(2)).max() <= 1e-14
        if b.W_mod >= 1e-6:
            U, S, Vt = np.linalg.svd(R, full_matrices=False)
            assert np.abs([b.sigma, b.mu] - S).max() <= 1e-14
            signs = np.sign(np.sum(U * np.column_stack([u1, u2]), axis=0))
            assert np.abs(axes - signs[:, None] * Vt).max() <= 1e-9


def test_real_induced_norm_of_w_equals_sigma():
    rng = np.random.default_rng(6)
    _, an = sample_supported(rng, 5, need_complex_rightmost=True)
    b = an.blocks[0]
    w = b.w_hat

    def fun(us):
        return np.abs(us @ w)

    best, _ = sphere_max(fun, 5, rng, samples=10 ** 4)
    assert best == pytest.approx(b.sigma, abs=1e-4)


def test_phase_gauge_invariance():
    rng = np.random.default_rng(77)
    A, an = sample_supported(rng, 5, need_complex_rightmost=True)
    b = an.blocks[0]
    es = an.eigensystem
    i = int(np.argmin(np.abs(es.eigenvalues - b.eigenvalue)))
    v = es.right_vectors[:, i]
    w = es.left_rows[i, :]
    members = b.group_eigenvalues
    for phi in rng.uniform(-np.pi, np.pi, size=5):
        g = np.exp(1j * phi)
        b2 = _member_blocks(members[:1], (v * g)[None], (w / g)[None], 2)[0]
        assert b2.f == pytest.approx(b.f, rel=1e-10)
        assert b2.V_mod == pytest.approx(b.V_mod, abs=1e-10)
        assert b2.W_mod == pytest.approx(b.W_mod, abs=1e-10)
        assert b2.sigma == pytest.approx(b.sigma, abs=1e-10)
        assert b2.mu == pytest.approx(b.mu, abs=1e-10)
        for t in (0.0, 0.7):
            assert np.allclose(build_Q(b2, t), build_Q(b, t), atol=1e-10)
        # the phase combination entering the oscillation argument is also
        # gauge free: 2 theta + delta is fixed mod 2 pi
        ph1 = np.mod(2 * b.theta_axis + b.delta, 2 * np.pi)
        ph2 = np.mod(2 * b2.theta_axis + b2.delta, 2 * np.pi)
        diff = np.mod(ph1 - ph2 + np.pi, 2 * np.pi) - np.pi
        assert abs(diff) < 1e-9


# ------------------------------------------------------- checked_projection

def test_project_right_major_gives_sigma():
    b = rightmost(EXAMPLE_A)
    pr = checked_projection(b, b.right_major)
    assert pr.wu_mod == pytest.approx(b.sigma, abs=1e-12)
    assert pr.c == pytest.approx(1.0, abs=1e-12)
    assert pr.d == pytest.approx(0.0, abs=1e-12)


def test_project_orthogonal_complement_raises():
    # the first coordinate axis is orthogonal to both right singular
    # vectors for this matrix
    b = rightmost(EXAMPLE_A)
    with pytest.raises(ZeroProjection):
        checked_projection(b, np.array([1.0, 0.0, 0.0]))


def test_projection_floor_holds_for_direct_calls():
    # |w_hat u| = 5e-13 ||u||: below the one floor of 1e-12, so every
    # direct projection refuses it, as the condition numbers do
    b = rightmost(EXAMPLE_A)
    null = np.linalg.svd(np.vstack([b.w_hat.real, b.w_hat.imag]))[2][2]
    u = null + 5e-13 / b.sigma * b.right_major
    assert abs(b.w_hat @ u) == pytest.approx(5e-13 * np.linalg.norm(u),
                                             rel=1e-3)
    for call in (lambda: checked_projection(b, u),
                 lambda: phase_offset(b, u),
                 lambda: theta_norm_u(b, 0.5, u)):
        with pytest.raises(ZeroProjection):
            call()


def test_project_matches_direct_dot():
    rng = np.random.default_rng(13)
    _, an = sample_supported(rng, 6, need_complex_rightmost=True)
    b = an.blocks[0]
    for _ in range(25):
        u = unit(rng.normal(size=6))
        pr = checked_projection(b, u)
        direct = complex(b.w_hat @ u)
        assert pr.wu_mod == pytest.approx(abs(direct), abs=1e-12)
        assert pr.gamma == pytest.approx(float(np.angle(direct)), abs=1e-12)
        assert pr.wu_mod == pytest.approx(
            np.hypot(b.sigma * pr.c, b.mu * pr.d), abs=1e-12)
        assert -np.pi < pr.gamma <= np.pi


# ----------------------------------------------------------------- build_Q

def test_build_Q_real_block_constant():
    an = analyze_spectrum(np.array([[1.0, 2.0], [0.0, -1.0]]))
    b = an.blocks[0]
    assert b.is_real
    assert np.array_equal(build_Q(b, 0.3), build_Q(b, 5.1))


def test_build_Q_periodicity():
    b = rightmost(EXAMPLE_A)
    T = 2 * np.pi / b.omega
    for t in (0.0, 0.4, 2.2):
        assert np.allclose(build_Q(b, t + T), build_Q(b, t), atol=1e-12)


def test_exponential_reconstruction_from_blocks():
    # e^{tA} must equal the sum of e^{r_j t} Q_j(t) over all blocks
    rng = np.random.default_rng(99)
    for _ in range(5):
        A, an = sample_supported(rng, 5)
        for t in (0.0, 0.5, 1.7):
            E = mat_exp(A, t)
            S = sum(np.exp(b.r * t) * build_Q(b, t) for b in an.blocks)
            assert np.linalg.norm(E - S, 2) <= 1e-9 * max(1.0, np.linalg.norm(E, 2))


def test_projection_identity_at_time_zero():
    # ||Q(0) u||_2 = f |w u| sqrt(2 (1 + V cos(delta + 2 gamma)))
    rng = np.random.default_rng(4)
    _, an = sample_supported(rng, 5, need_complex_rightmost=True)
    b = an.blocks[0]
    Q0 = build_Q(b, 0.0)
    for _ in range(20):
        u = unit(rng.normal(size=5))
        pr = checked_projection(b, u)
        lhs = np.linalg.norm(Q0 @ u)
        rhs = b.f * pr.wu_mod * np.sqrt(
            2.0 * (1.0 + b.V_mod * np.cos(b.delta + 2.0 * pr.gamma)))
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, b.f))
