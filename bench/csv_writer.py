"""Time the CSV writer on the tables of one ``small-n`` benchmark round.

    python3 bench/csv_writer.py [--repeats 10] [--seed 1] [--out PATH]

The tables are rebuilt with odecond itself, as ``perfbench``'s ``small-n``
workload makes them: the demo's two scenarios at 1025 samples, the demo
matrix at 2049 samples (worst case and directional), seeded matrices with
n in {4, 6, 8} at 1025 samples for p in {1, 2, inf}, worst case and
directional, and the five fault scenarios, 27 tables.  Two writers format
them into a sink that discards the text:

- ``per_row``: one ``'%.17g'`` row format per row with the constant osf
  column formatted once, the writer ``ConditionSeries.to_csv`` used before
  ``odecond.g17``;
- ``g17``: ``ConditionSeries.to_csv`` as it is.

Each writer's time is the best of ``--repeats`` rounds of process CPU
time over all tables, the two writers taking turns; the bytes of the two
writers must be equal.  The tracemalloc peak of each writer is taken on
the 2049-sample worst case of the demo matrix.  The result goes to
``--out`` (``BENCH_csv.json`` at the repository root by default) with the
host, the Python and numpy versions, and a note that no machine setting
was changed.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

from odecond import Scenario, analyze_spectrum, sweep  # noqa: E402
from odecond.condition import _CSV_COLUMNS  # noqa: E402
from workloads import (DEMO_MATRIX, NORMS, PERIODS,  # noqa: E402
                       SAMPLES_PER_PERIOD, SMALL_SIZES, _norm_value,
                       spectral_matrix, unit)


class _Discard:
    """Text sink that keeps nothing."""

    def write(self, text):
        return len(text)


def per_row_csv(ser, stream):
    """The per-row writer ``ConditionSeries.to_csv`` replaced."""
    fmt = ",".join("%.17g" % ser.osf if c == "osf" else "%.17g"
                   for c in _CSV_COLUMNS) + "\n"
    cols = [ser.t, ser.k_exact, ser.k_asym, ser.ot, ser.eps_t, ser.eps_tu,
            ser.precision_bound]
    stream.write(",".join(_CSV_COLUMNS) + "\n")
    stream.write("".join(fmt % tuple(row)
                         for row in np.column_stack(cols).tolist()))


def g17_csv(ser, stream):
    ser.to_csv(stream)


WRITERS = {"per_row": per_row_csv, "g17": g17_csv}


def small_round_series(seed):
    """(label, ConditionSeries) of the 27 sweeps of one small-n round."""
    rng = np.random.default_rng(seed)
    out = []
    four = 4.0 * math.pi
    demo = analyze_spectrum(DEMO_MATRIX)
    block = demo.blocks[0]
    grid = np.linspace(0.0, four, 1025)
    for tag, y0 in (("a", block.right_minor), ("b", block.right_major)):
        out.append((f"demo-{tag}", sweep(Scenario(matrix=DEMO_MATRIX, y0=y0,
                                                  t_grid=grid), demo)))
    y0 = rng.standard_normal(3)
    z0 = unit(rng.standard_normal(3), 2)
    grid = np.linspace(0.0, four, 2049)
    for label, z in (("demo-worst", None), ("demo-directional", z0)):
        out.append((label, sweep(Scenario(matrix=DEMO_MATRIX, y0=y0, z0=z,
                                          t_grid=grid), demo)))
    for n in SMALL_SIZES:
        A, w1 = spectral_matrix(rng, n)
        grid = np.linspace(0.0, PERIODS * math.pi / w1,
                           PERIODS * SAMPLES_PER_PERIOD + 1)
        for norm in NORMS:
            p = _norm_value(norm)
            y0 = rng.standard_normal(n)
            z0 = unit(rng.standard_normal(n), p)
            for mode, z in (("worst", None), ("directional", z0)):
                out.append((f"n{n}-p{norm}-{mode}",
                            sweep(Scenario(matrix=A, y0=y0, z0=z, norm_p=p,
                                           t_grid=grid))))
    frng = np.random.default_rng(3)
    A = frng.standard_normal((5, 5))
    y0 = frng.standard_normal(5)
    z0 = unit(frng.standard_normal(5), 2)
    evals = np.linalg.eigvals(A)
    w1 = float(abs(evals[np.argmax(evals.real)].imag))
    out.append(("F1", sweep(Scenario(matrix=A, y0=y0, z0=z0,
                                     t_grid=np.linspace(0.0, four / w1,
                                                        257)))))
    y123 = np.array([1.0, 2.0, 3.0])
    for sign in (5.0, -5.0):
        out.append((f"F2{sign:+.0f}", sweep(Scenario(
            matrix=DEMO_MATRIX + sign * np.eye(3), y0=y123,
            t_grid=np.linspace(0.0, 100.0, 1025)))))
    for norm in ("1", "inf"):
        out.append((f"F3-p{norm}", sweep(Scenario(
            matrix=DEMO_MATRIX, y0=y123, norm_p=_norm_value(norm),
            t_grid=np.linspace(0.0, four, 1025)))))
    return out


def best_cpu(series, repeats):
    """Best process CPU time of each writer over all tables; the writers
    take turns, so that both see the same spells of a noisy host."""
    best = dict.fromkeys(WRITERS, math.inf)
    for _ in range(repeats):
        for name, writer in WRITERS.items():
            sink = _Discard()
            t0 = time.process_time()
            for _, ser in series:
                writer(ser, sink)
            best[name] = min(best[name], time.process_time() - t0)
    return best


def peak_bytes(writer, ser):
    writer(ser, _Discard())  # first-call set-up stays out of the peak
    tracemalloc.start()
    writer(ser, _Discard())
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


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
    ap.add_argument("--repeats", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default=str(ROOT / "BENCH_csv.json"))
    args = ap.parse_args(argv)

    series = small_round_series(args.seed)
    texts = {}
    for name, writer in WRITERS.items():
        buf = io.StringIO()
        for _, ser in series:
            writer(ser, buf)
        texts[name] = buf.getvalue()
    identical = len(set(texts.values())) == 1
    cells = sum(ser.t.size * len(_CSV_COLUMNS) for _, ser in series)
    timing = best_cpu(series, args.repeats)
    demo_worst = dict(series)["demo-worst"]
    peaks = {name: peak_bytes(w, demo_worst) for name, w in WRITERS.items()}
    result = {
        "host": {"machine": platform.machine(), "cpu": cpu_model(),
                 "cpu_count": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": np.__version__},
        "note": "process CPU time, best of --repeats; no machine setting "
                "(CPU frequency, affinity, cache, huge pages) was changed",
        "seed": args.seed,
        "repeats": args.repeats,
        "tables": len(series),
        "cells": cells,
        "bytes": len(texts["g17"]),
        "identical_bytes": identical,
        "cpu_s": timing,
        "speedup": timing["per_row"] / timing["g17"],
        "tracemalloc_peak_bytes_demo_worst": peaks,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    for name in WRITERS:
        print(f"{name:8s} {timing[name] * 1e3:8.1f} ms  "
              f"peak {peaks[name] / 2**20:.2f} MiB")
    print(f"{len(series)} tables, {cells} cells, identical bytes: "
          f"{identical}, speed-up {result['speedup']:.2f}x")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
