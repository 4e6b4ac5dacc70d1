"""The benchmark's workloads: seeded inputs, the odecond command of each
operation and the checks on its outputs.

A workload is a list of rounds; a round is a fixed list of operations, one
``odecond`` command each.  Round r of a run draws its inputs from
``numpy.random.default_rng([seed, r])``, so every round does the same kinds
and sizes of work on fresh inputs (fresh (V, W) pairs keep the program's
per-pair grid cache as cold as in separate CLI invocations).  The random
matrices have a fixed spectral structure with random eigenvectors, so the
work of an operation, and every traced call count, does not depend on the
seed.

Three operation groups fail on purpose, with inputs that do not depend on
the seed; each is a fault of the program (see README.md):

- F1: the directional precision_bound is built from the worst-case sum;
- F2: k_exact forms e^{tA} directly and overflows on the shifted demo;
- F3: for p in {1, inf} the profile reports ot_min = ot_max = 1.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import checks

DEMO_MATRIX = np.array([[-1.0, 20.0, -20.0],
                        [0.0, 19.0, -20.0],
                        [0.0, 18.1, -19.0]])
SAMPLES_PER_PERIOD = 256
PERIODS = 4

DEMO_STEPS = 1024
SMALL_SIZES = (4, 6, 8)
NORMS = ("1", "2", "inf")
DEMO_ANALYZE_STEPS = 2049
#: n = 100 stays below the size at which OpenBLAS turns on its threads;
#: above it (n >= 108 here) the default threads double an operation's time
#: on two cores and make it vary by a fifth from run to run
LARGE_N = 100
LARGE_MODES = ("worst", "directional", "worst", "directional")
#: samples per operation on the 4-period grid.  A worst-case sample costs
#: about a fifth more than a directional one (all of e^{tA} against two
#: vectors), so the worst case gets fewer samples: both kinds then take
#: about 1.2 s and make one group of durations, whose median holds
#: steady, where two groups of equal size put the median in the gap
#: between them.  Operations this short give some twenty per run.
LARGE_STEPS = {"worst": 107, "directional": 129}
#: (V, W) centres: Q1 < 1, Q1 > 1, and two near V = W
ENVELOPE_PAIRS = ((0.40, 0.50), (0.80, 0.30), (0.55, 0.55), (0.75, 0.72))
PAIR_JITTER = 0.005
#: pairs drawn around each centre per round, each with a branch trace
PAIRS_PER_CENTRE = 2
ENVELOPE_STEPS = 720
BRANCH_STEPS = 90
#: the first pair of each centre also gets an envelope export.  Every
#: operation then takes about 0.3 s (exports) or 0.6 s (traces), so a run
#: holds some sixty of them, and with a third of them exports the median
#: operation is a branch trace, inside one group of durations rather than
#: in the gap between two.  Short operations let the median pass over the
#: host's slow spells of a few seconds instead of averaging them in.
ENVELOPE_EXPORTS = 1
EIGVEC_COND = 10.0


@dataclass
class Operation:
    """One odecond command with the checks on what it writes."""

    label: str
    argv: list
    samples: int
    check: Callable[[int], list]
    fault: Optional[str] = None


# ------------------------------------------------------------------ inputs

def spectral_matrix(rng, n):
    """Real n x n matrix S D S^-1 with a fixed spectral structure.

    The rightmost eigenvalues are a complex pair r1 +- i w1; the other
    n // 2 - 1 pairs and n % 2 real eigenvalues have real parts spread
    over [r1 - 4, r1 - 1] (gaps far above the grouping tolerance).  The
    eigenvector matrix S has random singular vectors and fixed singular
    values from 1 to EIGVEC_COND, so ||A|| and the non-normality are the
    same size for every seed.  Only the eigenvalues, their order and the
    singular vectors of S are random.
    """
    r1 = rng.uniform(-0.2, 0.2)
    w1 = rng.uniform(0.8, 1.25)
    kinds = ["complex"] * (n // 2 - 1) + ["real"] * (n % 2)
    rng.shuffle(kinds)
    m = len(kinds)
    spacing = 3.0 / max(m, 1)
    reals = r1 - 1.0 - spacing * (np.arange(m) + rng.uniform(0.3, 0.7, m))
    D = np.zeros((n, n))
    D[0:2, 0:2] = [[r1, w1], [-w1, r1]]
    k = 2
    for kind, a in zip(kinds, reals):
        if kind == "complex":
            b = rng.uniform(0.5, 3.0)
            D[k:k + 2, k:k + 2] = [[a, b], [-b, a]]
            k += 2
        else:
            D[k, k] = a
            k += 1
    S = _orthogonal(rng, n) @ np.diag(np.geomspace(1.0, EIGVEC_COND, n)) \
        @ _orthogonal(rng, n)
    A = np.linalg.solve(S.T, (S @ D).T).T
    return A, w1


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def unit(v, p):
    return v / np.linalg.norm(v, p)


def _norm_value(label):
    return np.inf if label == "inf" else int(label)


def _write_scenario(path, A, y0, z0, norm, t_end, steps):
    doc = {"matrix": A.tolist(), "y0": list(map(float, y0)),
           "z0": None if z0 is None else list(map(float, z0)),
           "norm": norm, "t": {"start": 0.0, "end": float(t_end),
                               "steps": int(steps)}}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _load_series(path):
    data = np.genfromtxt(path, delimiter=",", names=True)
    return {name: np.atleast_1d(data[name]) for name in data.dtype.names}


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _rightmost_singular_directions(A):
    """Right singular vectors (major, minor) of the stacked Re/Im rows of
    the left eigenvector of the rightmost complex eigenvalue."""
    evals, V = np.linalg.eig(A)
    k = int(np.lexsort((-evals.imag, -evals.real))[0])
    w = np.linalg.inv(V)[k]
    _, _, vt = np.linalg.svd(np.vstack([w.real, w.imag]))
    return vt[0], vt[1]


# ------------------------------------------------------------------ checks

class Checker:
    """Runs the checks of an operation with the program's own calls kept
    out of the trace."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    @contextlib.contextmanager
    def paused(self):
        if self.tracer is None:
            yield
            return
        was, self.tracer.active = self.tracer.active, False
        try:
            yield
        finally:
            self.tracer.active = was

    def series(self, prefix, A, y0, z0, norm, bound):
        """Checks of one sweep output.  bound: "program" checks the
        program's precision_bound, "z0" the directional bound built from
        eps(t, z0), None skips the ot range for p in {1, inf}."""
        from odecond import analyze_spectrum, epsilon_bounds
        p = _norm_value(norm)
        s = _load_series(prefix + ".csv")
        summary = _load_json(prefix + ".json")
        out = checks.check_k_exact(s, A, y0, z0, p)
        out += checks.check_bound_formula(s)
        if bound == "z0":
            with self.paused():
                analysis = analyze_spectrum(A, norm_p=p)
                eps_z = np.full(s["t"].shape, np.inf)
                for i in np.flatnonzero(s["eps_tu"] < 1.0):
                    eps_z[i], _ = epsilon_bounds(analysis, float(s["t"][i]),
                                                 u=z0, p=p)
            out += checks.check_certificate(
                s, checks.directional_bound(s, eps_z))
        else:
            out += checks.check_certificate(s)
        if norm == "2" or bound == "program":
            out += checks.check_ot_range(s, summary["profile"],
                                         euclidean=norm == "2")
        return out


def _analyze(label, workdir, key, A, y0, z0, norm, t_end, steps, checker,
             bound, fault=None):
    scn = os.path.join(workdir, f"{key}.scenario-in.json")
    prefix = os.path.join(workdir, key)
    _write_scenario(scn, A, y0, z0, norm, t_end, steps)

    def check(rc):
        if rc != 0:
            return [f"exit code {rc}"]
        return checker.series(prefix, A, y0, z0, norm, bound)

    return Operation(label, ["analyze", "--matrix", scn, "--out", prefix],
                     steps, check, fault)


def _small_round(rng, workdir, checker):
    ops = []
    prefix = os.path.join(workdir, "demo")

    def check_demo(rc):
        if rc != 0:
            return [f"demo exit code {rc}: a reference row failed"]
        major, minor = _rightmost_singular_directions(DEMO_MATRIX)
        return (checker.series(prefix + "_a", DEMO_MATRIX, minor, None, "2",
                               "program")
                + checker.series(prefix + "_b", DEMO_MATRIX, major, None,
                                 "2", "program"))

    ops.append(Operation("demo", ["demo", "--steps", str(DEMO_STEPS),
                                  "--out", prefix],
                         2 * (DEMO_STEPS + 1), check_demo))
    y0 = rng.standard_normal(3)
    z0 = unit(rng.standard_normal(3), 2)
    four = 4.0 * math.pi
    ops.append(_analyze("demo-worst", workdir, "dw", DEMO_MATRIX, y0, None,
                        "2", four, DEMO_ANALYZE_STEPS, checker, "program"))
    ops.append(_analyze("demo-directional", workdir, "dd", DEMO_MATRIX, y0,
                        z0, "2", four, DEMO_ANALYZE_STEPS, checker, "z0"))
    for n in SMALL_SIZES:
        A, w1 = spectral_matrix(rng, n)
        t_end = PERIODS * math.pi / w1
        steps = PERIODS * SAMPLES_PER_PERIOD + 1
        for norm in NORMS:
            p = _norm_value(norm)
            y0 = rng.standard_normal(n)
            z0 = unit(rng.standard_normal(n), p)
            ops.append(_analyze(f"n{n}-p{norm}-worst", workdir,
                                f"s{n}{norm}w", A, y0, None, norm, t_end,
                                steps, checker,
                                "program" if norm == "2" else None))
            ops.append(_analyze(f"n{n}-p{norm}-directional", workdir,
                                f"s{n}{norm}d", A, y0, z0, norm, t_end,
                                steps, checker, "z0"))
    ops.extend(_fault_ops(workdir, checker))
    return ops


def _fault_ops(workdir, checker):
    """The F1-F3 operations; their inputs never depend on the seed."""
    ops = []
    frng = np.random.default_rng(3)
    A = frng.standard_normal((5, 5))
    y0 = frng.standard_normal(5)
    z0 = unit(frng.standard_normal(5), 2)
    evals = np.linalg.eigvals(A)
    w1 = float(abs(evals[np.argmax(evals.real)].imag))
    ops.append(_analyze("F1-directional-bound", workdir, "f1", A, y0, z0, "2",
                        4.0 * math.pi / w1, 257, checker, "program", "F1"))
    y123 = np.array([1.0, 2.0, 3.0])
    for sign, key in ((5.0, "f2p"), (-5.0, "f2m")):
        ops.append(_analyze(f"F2-demo{sign:+.0f}I", workdir, key,
                            DEMO_MATRIX + sign * np.eye(3), y123, None, "2",
                            100.0, 1025, checker, "program", "F2"))
    for norm in ("1", "inf"):
        ops.append(_analyze(f"F3-demo-p{norm}", workdir, f"f3{norm}",
                            DEMO_MATRIX, y123, None, norm, 4.0 * math.pi,
                            1025, checker, "program", "F3"))
    return ops


def _large_round(rng, workdir, checker):
    ops = []
    for k, mode in enumerate(LARGE_MODES):
        A, w1 = spectral_matrix(rng, LARGE_N)
        y0 = rng.standard_normal(LARGE_N)
        z0 = unit(rng.standard_normal(LARGE_N), 2) \
            if mode == "directional" else None
        ops.append(_analyze(f"n{LARGE_N}-{mode}-{k}", workdir, f"l{k}", A,
                            y0, z0, "2", PERIODS * math.pi / w1,
                            LARGE_STEPS[mode], checker,
                            "z0" if z0 is not None else "program"))
    return ops


def _envelope_round(rng, workdir, checker):
    ops = []
    for c, (vc, wc) in enumerate(ENVELOPE_PAIRS):
        for j in range(PAIRS_PER_CENTRE):
            ops.extend(_pair_ops(rng, workdir, f"{c}{j}", vc, wc,
                                 j < ENVELOPE_EXPORTS))
    return ops


def _pair_ops(rng, workdir, key, vc, wc, export):
    """A branch trace, and with export an envelope export, of one pair
    drawn around the centre (vc, wc)."""
    V, W = (float(c + rng.uniform(-PAIR_JITTER, PAIR_JITTER))
            for c in (vc, wc))
    prefix = os.path.join(workdir, f"e{key}")
    vw = ["--V", repr(V), "--W", repr(W)]

    def check_env(rc):
        if rc != 0:
            return [f"exit code {rc}"]
        f = _load_series(prefix + "_f.csv")
        h = _load_series(prefix + "_h.csv")
        rows = np.linspace(0, ENVELOPE_STEPS, 7).round().astype(int)
        return (checks.check_f_rows(V, W, f["x"], f["f_max"], f["f_min"],
                                    rows)
                + checks.check_h_rows(V, W, h["beta"], h["h_max"],
                                      h["h_min"], rows[::2]))

    def check_br(rc):
        if rc != 0:
            return [f"exit code {rc}"]
        b = _load_series(prefix + "_branches.csv")
        return checks.check_branch_points(V, W, b["beta"], b["x"], b["h"])

    ops = []
    if export:
        ops.append(Operation(f"envelope-{key}",
                             ["envelope", *vw, "--steps", str(ENVELOPE_STEPS),
                              "--out", prefix],
                             2 * (ENVELOPE_STEPS + 1), check_env))
    ops.append(Operation(f"branches-{key}",
                         ["branches", *vw, "--steps", str(BRANCH_STEPS),
                          "--out", prefix],
                         BRANCH_STEPS + 1, check_br))
    return ops


_ROUNDS = {"small-n": _small_round, "large-n": _large_round,
           "envelopes": _envelope_round}
WORKLOADS = tuple(_ROUNDS)


def build_round(workload, seed, index, workdir, checker):
    rng = np.random.default_rng([seed, index])
    return _ROUNDS[workload](rng, workdir, checker)
