"""Time exact propagation, ``condition._k_exact_grid``, route by route.

    python3 bench/propagation.py [--repeats 5] [--seed 1] [--quick] [--out PATH]

The scenarios are seeded ``spectral_matrix`` draws from
``perfbench/workloads.py`` at n in {8, 100, 300}, for p in {1, 2, inf},
worst case and directional, on the ``large-n`` workload's grids: four
periods of the rightmost pair at 107 (worst case) or 129 (directional)
samples.  For each the script reports:

- ``cpu_s``: the best of ``--repeats`` process CPU times of
  ``_k_exact_grid`` given the scenario's eigendecomposition, as ``sweep``
  calls it;
- ``expanded``: the share of samples that take the eigen-expansion; the
  others take the Pade kernel;
- ``certified``: for the p = 2 worst case at n >= the crossover
  ``matrix_core._CERTIFIED_MIN_N``, the share of the 2-norms that
  ``matrix_norms`` takes from its certified Rayleigh quotient; the others
  take eigvalsh (null where eigvalsh takes them all);
- ``pade_cpu_s`` and ``max_rel_diff``: the best CPU time of a column
  computed in the same run by the Pade kernel alone, with every 2-norm
  from eigvalsh, and the largest relative difference of k_exact from it.

OpenBLAS runs on one thread: the script sets ``OPENBLAS_NUM_THREADS=1``
in its own environment before numpy loads, and changes nothing else.
``--quick`` takes n in {8, 40} and one repeat, a smoke run that needs
neither scipy nor much time.  The result goes to ``--out``
(``BENCH_propagation.json`` at the repository root by default; with
``--quick`` nothing is written unless ``--out`` is given) with the host,
the Python and numpy versions, and a note that no machine setting was
changed.
"""
from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from unittest import mock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

from odecond import Scenario, analyze_spectrum, condition  # noqa: E402
from odecond import matrix_core  # noqa: E402
from workloads import (LARGE_STEPS, NORMS, PERIODS,  # noqa: E402
                       _norm_value, spectral_matrix, unit)

SIZES = (8, 100, 300)
QUICK_SIZES = (8, 40)


def scenarios(seed, sizes):
    """(label, Scenario, analysis) for every n, p and mode."""
    out = []
    for n in sizes:
        rng = np.random.default_rng([seed, n])
        A, w1 = spectral_matrix(rng, n)
        y0 = rng.standard_normal(n)
        z = rng.standard_normal(n)
        for norm in NORMS:
            p = _norm_value(norm)
            analysis = analyze_spectrum(A, norm_p=p)
            for mode in ("worst", "directional"):
                grid = np.linspace(0.0, PERIODS * math.pi / w1,
                                   LARGE_STEPS[mode])
                z0 = unit(z, p) if mode == "directional" else None
                out.append((f"n{n}-p{norm}-{mode}",
                            Scenario(matrix=A, y0=y0, z0=z0, norm_p=p,
                                     t_grid=grid), analysis))
    return out


def sweep_column(s, analysis):
    """k_exact as sweep computes it."""
    r1 = condition._shift_for(s.matrix, analysis.eigensystem.eigenvalues)
    return condition._k_exact_grid(s, s.t_grid, r1, analysis.eigensystem)


def reference_column(s, analysis):
    """k_exact by the Pade kernel alone, every 2-norm from eigvalsh."""
    r1 = condition._shift_for(s.matrix, analysis.eigensystem.eigenvalues)
    with mock.patch.object(matrix_core, "_CERTIFIED_MIN_N", math.inf):
        return condition._k_exact_grid(s, s.t_grid, r1)


def routes(s, analysis):
    """(share of samples expanded, share of the propagators' 2-norms
    certified, or None where none is taken by the kernel) of one sweep
    column.  The 2-norm of A itself, which the expansion's estimate
    takes, is not counted."""
    pade = [0]
    verdicts = []
    stack = [False]
    expm_grid = condition.expm_grid
    kernel = matrix_core._certified_top_eigenvalue
    norms = matrix_core.matrix_norms

    def counting_expm_grid(B, ts):
        pade[0] += np.size(ts)
        return expm_grid(B, ts)

    def counting_norms(E, p):
        stack[0] = np.ndim(E) == 3
        return norms(E, p)

    def counting_kernel(G):
        lam, ok = kernel(G)
        if stack[0]:
            verdicts.append(ok)
        return lam, ok

    with mock.patch.object(condition, "expm_grid", counting_expm_grid), \
            mock.patch.object(condition, "matrix_norms", counting_norms), \
            mock.patch.object(matrix_core, "matrix_norms", counting_norms), \
            mock.patch.object(matrix_core, "_certified_top_eigenvalue",
                              counting_kernel):
        sweep_column(s, analysis)
    certified = (float(np.concatenate(verdicts).mean()) if verdicts
                 else None)
    return 1.0 - pade[0] / s.t_grid.size, certified


def best_cpu(column, s, analysis, repeats):
    best = math.inf
    for _ in range(repeats):
        t0 = time.process_time()
        column(s, analysis)
        best = min(best, time.process_time() - t0)
    return best


def cpu_model():
    """The CPU model name from /proc/cpuinfo, where there is one."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    repeats = 1 if args.quick else args.repeats
    out = args.out
    if out is None and not args.quick:
        out = str(ROOT / "BENCH_propagation.json")

    cases = []
    for label, s, analysis in scenarios(args.seed,
                                        QUICK_SIZES if args.quick else SIZES):
        got = sweep_column(s, analysis)
        ref = reference_column(s, analysis)
        expanded, certified = routes(s, analysis)
        case = {
            "scenario": label,
            "samples": int(s.t_grid.size),
            "cpu_s": best_cpu(sweep_column, s, analysis, repeats),
            "expanded": expanded,
            "certified": certified,
            "pade_cpu_s": best_cpu(reference_column, s, analysis, repeats),
            "max_rel_diff": float(np.abs(got / ref - 1.0).max()),
        }
        cases.append(case)
        cert = "-" if certified is None else f"{certified:.2f}"
        print(f"{label:20s} {case['cpu_s'] * 1e3:8.1f} ms (Pade "
              f"{case['pade_cpu_s'] * 1e3:8.1f} ms)  expanded "
              f"{expanded:.2f}  certified {cert:>4s}  max rel diff "
              f"{case['max_rel_diff']:.2g}")
    if out is not None:
        result = {
            "host": {"machine": platform.machine(), "cpu": cpu_model(),
                     "cpu_count": os.cpu_count(),
                     "python": platform.python_version(),
                     "numpy": np.__version__},
            "note": "process CPU time, best of --repeats, with "
                    "OPENBLAS_NUM_THREADS=1 set in the script's own "
                    "environment; no machine setting (CPU frequency, "
                    "affinity, cache, huge pages) was changed",
            "seed": args.seed,
            "repeats": repeats,
            "cases": cases,
        }
        with open(out, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
    worst = max(c["max_rel_diff"] for c in cases)
    return 0 if worst <= 1e-12 else 1


if __name__ == "__main__":
    sys.exit(main())
