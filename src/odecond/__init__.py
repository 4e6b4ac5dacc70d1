"""Condition numbers for linear ODE initial-value propagation.

The package computes exact and asymptotic relative-error condition numbers
of the map y0 -> exp(tA) y0 for a real matrix A, factors the asymptotic
number into an oscillation scale factor and a periodic oscillating term,
evaluates the closed-form envelopes of that term, and bounds the finite
time at which the asymptotic regime takes over.
"""
from .condition import (
    UNBOUNDED,
    ConditionSeries,
    OscillationProfile,
    Scenario,
    epsilon_bounds,
    k_asym,
    k_exact,
    osf,
    ot,
    ot_envelope,
    precision_bound,
    sweep,
)
from .errors import (
    AmbiguousGrouping,
    BranchLost,
    DegenerateConstant,
    NonDiagonalizable,
    OdecondError,
    UnsupportedBlock,
    ZeroProjection,
)
from .matrix_core import (
    EigenSystem,
    eigen_decompose,
    mat_exp,
    matrix_norms,
)
from .minimax import (
    BranchPolyline,
    h_envelope,
    h_envelope_sweep,
    h_extremes,
    h_func,
    trace_branches,
)
from .oscillator import (
    VWPair,
    alpha_extrema,
    f_vw,
    f_vw_max,
    f_vw_min,
    g_factor,
    theta_norm_mat,
    theta_norm_u,
)
from .spectral import (
    BlockKind,
    EigenBlock,
    SpectrumAnalysis,
    analyze_spectrum,
    build_Q,
)

__version__ = "0.1.0"
