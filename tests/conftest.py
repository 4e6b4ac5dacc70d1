import numpy as np
import pytest

# 3x3 matrix with rightmost eigenvalues +-i and a real eigenvalue -1; the
# example behind the built-in demo.  Entries are exact decimals.
EXAMPLE_A = np.array([
    [-1.0, 20.0, -20.0],
    [0.0, 19.0, -20.0],
    [0.0, 18.1, -19.0],
])


def unit(v, p=2):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v, p)


def sample_supported(rng, n, norm_p=2, need_complex_rightmost=False,
                     max_tries=500, scale=1.0):
    """Draw Gaussian matrices until the spectrum analysis succeeds with all
    blocks supported.  Returns (A, analysis)."""
    from odecond.errors import AmbiguousGrouping, NonDiagonalizable
    from odecond.spectral import BlockKind, analyze_spectrum

    for _ in range(max_tries):
        A = scale * rng.normal(size=(n, n))
        try:
            analysis = analyze_spectrum(A, norm_p=norm_p)
        except (NonDiagonalizable, AmbiguousGrouping):
            continue
        if not analysis.all_supported:
            continue
        if need_complex_rightmost and \
                analysis.blocks[0].kind is not BlockKind.SIMPLE_SINGLE_COMPLEX:
            continue
        return A, analysis
    raise RuntimeError("could not sample a supported spectrum")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def spectral_kind(rng, n):
    """S D S^-1 with a rightmost pair r1 +- i w1, n / 2 - 1 further pairs
    with real parts spread over [r1 - 4, r1 - 1], and S of singular values
    1 .. 10 with random singular vectors (n even)."""
    r1, w1 = rng.uniform(-0.2, 0.2), rng.uniform(0.8, 1.25)
    m = n // 2 - 1
    reals = r1 - 1.0 - 3.0 / m * (np.arange(m) + rng.uniform(0.3, 0.7, m))
    freqs = rng.uniform(0.5, 3.0, m)
    D = np.zeros((n, n))
    for k, (a, b) in enumerate(zip(np.r_[r1, reals], np.r_[w1, freqs])):
        D[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[a, b], [-b, a]]
    q1 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    S = q1 @ np.diag(np.geomspace(1.0, 10.0, n)) @ q2
    return np.linalg.solve(S.T, (S @ D).T).T, w1
