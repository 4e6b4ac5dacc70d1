"""Write every output file of the benchmark's sweep rounds, for a
byte-for-byte comparison of two trees.

    python3 bench/outputs.py --out DIR [--seed 1] [--rounds 3]

Rounds 0 .. R-1 of the ``small-n``, ``large-n`` and ``envelopes``
workloads are built with ``perfbench/workloads.build_round``, and each
operation's argv runs through ``odecond.cli.main`` in this process.
Round r of workload w writes its scenario inputs and the program's CSV,
JSON and log files to ``DIR/w/r<r>/``.  The script only reads
``perfbench/``.  Two trees give the same outputs when ``diff -r`` of
their two DIRs is clean.

OpenBLAS runs on one thread, set in the script's own environment before
numpy loads, so the bits do not depend on the host's core count.  Each
operation prints its label and exit code; the program's own printed
output is discarded.  The script exits 1 if an operation that is not one
of the workloads' known faults (``op.fault``) exits nonzero.  It needs no
scipy; ``--rounds 1`` is a short smoke run.
"""
from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import odecond.cli  # noqa: E402
from workloads import Checker, build_round  # noqa: E402

WORKLOADS = ("small-n", "large-n", "envelopes")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args(argv)
    files, unexpected = 0, []
    for workload in WORKLOADS:
        for r in range(args.rounds):
            workdir = Path(args.out) / workload / f"r{r}"
            workdir.mkdir(parents=True, exist_ok=True)
            for op in build_round(workload, args.seed, r, str(workdir),
                                  Checker()):
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = odecond.cli.main(list(op.argv))
                print(f"{workload} r{r} {op.label}: exit {rc}")
                if rc != 0 and op.fault is None:
                    unexpected.append(f"{workload} r{r} {op.label}")
            files += sum(1 for _ in workdir.iterdir())
    print(f"{files} files under {args.out}")
    for label in unexpected:
        print(f"unexpected failure: {label}", file=sys.stderr)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
