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
