"""Benchmark of odecond: one workload per run, or every workload in turn.

    python3 perfbench/run.py --workload small-n --seed 1 --seconds 32 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each operation is one ``odecond`` command through
``odecond.cli.main`` in this process, followed by checks of the files it
wrote.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the run repeats whole rounds of operations for about
``--seconds`` and reports the end-to-end metrics.
With ``--trace 1`` it runs round 0 untraced, then the same round with a
span around every layer call, and reports the per-layer metrics and the
tracing overhead.  ``--workload all`` runs every workload in its own
process and prints ``<workload>/<metric>`` lines.

Scratch inputs and outputs live under ``.perfbench/`` at the repository
root and are removed at exit; results and traces stay there.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

END_TO_END = (("samples_per_s", "samples/s"), ("op_s_p50", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MiB"))
SETUP_SPAWNS = 7
#: what a fresh interpreter does before the first operation can start:
#: import the program (numpy and scipy with it) and make the first call
#: into every sweep layer through the smallest demo
FIRST_CALL = ["demo", "--steps", "2"]
SETUP_CODE = f"""
import contextlib, io, sys
import odecond, odecond.cli
with contextlib.redirect_stdout(io.StringIO()):
    odecond.cli.main({FIRST_CALL!r})
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def warm_up():
    """The first call of SETUP_CODE in this process, so that timed
    operations do not pay one-off work that setup_s already counts."""
    import odecond.cli
    with contextlib.redirect_stdout(io.StringIO()):
        odecond.cli.main(list(FIRST_CALL))


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "") \
        if env.get("PYTHONPATH") else str(SRC)
    return env


def time_setup():
    """Wall time from starting a fresh interpreter to its "ready"."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE],
                          stdout=subprocess.PIPE, env=_child_env(),
                          cwd=str(ROOT), text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up interpreter failed (exit {rc})")
    return elapsed


def environment_record():
    import numpy
    import scipy
    from odecond import condition
    blas = {}
    with contextlib.suppress(KeyError, TypeError):
        cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    workers = getattr(condition, "_worker_count", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "odecond_threads_env": os.environ.get("ODECOND_THREADS"),
        "sweep_pool_workers": workers() if workers else None,
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def steal_seconds():
    """CPU time the host took from this machine so far (all CPUs), from
    the steal column of /proc/stat; None where that is not available."""
    try:
        with open("/proc/stat") as fh:
            ticks = int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None
    return ticks / os.sysconf("SC_CLK_TCK")


class Runner:
    """Runs operations, times them and records their outcome."""

    def __init__(self, workload, seed, tracer=None):
        import workloads
        self.workloads = workloads
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.checker = workloads.Checker(tracer)
        self.workdir = OUT / "scratch" / f"{workload}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.records = []

    def round(self, index):
        return self.workloads.build_round(self.workload, self.seed, index,
                                          str(self.workdir), self.checker)

    def run_op(self, op, op_id):
        import odecond.cli
        if self.tracer:
            self.tracer.op_id = op_id
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = odecond.cli.main(list(op.argv))
        except SystemExit as exc:
            rc = 0 if exc.code is None else \
                exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the operation failed; keep going
            rc = None
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if self.tracer and rc == 0:
            self.tracer.completed_ops.add(op_id)
        if error is None:
            try:
                problems = op.check(rc)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [f"raised {error}"]
        rec = {"label": op.label, "fault": op.fault, "wall_s": wall,
               "samples": op.samples if rc == 0 else 0,
               "failed": bool(problems), "problems": problems[:3]}
        if err.getvalue().strip():
            rec["stderr"] = err.getvalue().strip().splitlines()[-1][:300]
        self.records.append(rec)

    def run_round(self, index, first_id=0, before_op=None):
        ops = self.round(index)
        for k, op in enumerate(ops):
            if before_op:
                before_op()
            self.run_op(op, first_id + k)
        return len(ops)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def summarize(records):
    attempted = len(records)
    failed = sum(r["failed"] for r in records)
    unexpected = [r for r in records if r["failed"] and not r["fault"]]
    return attempted, failed, not unexpected, unexpected


def run_timed(workload, seed, seconds):
    warm_up()
    runner = Runner(workload, seed)
    steal0 = steal_seconds()
    setup_all = []
    spawning = 0.0  # time spent in set-up interpreters, not in the run

    def elapsed():
        return time.perf_counter() - start - spawning

    def setup_when_due():
        # the set-up interpreters start at even steps over the run, so
        # that their median, like that of the operations, passes over the
        # host's slow spells instead of falling in one of them
        nonlocal spawning
        if len(setup_all) < SETUP_SPAWNS \
                and elapsed() >= len(setup_all) * seconds / SETUP_SPAWNS:
            t0 = time.perf_counter()
            setup_all.append(time_setup())
            spawning += time.perf_counter() - t0

    try:
        start = time.perf_counter()
        rounds, longest = 0, 0.0
        # whole rounds only; the last one starts while at least half of a
        # round fits, so a run measures about --seconds on average
        while True:
            t0 = elapsed()
            runner.run_round(rounds, before_op=setup_when_due)
            rounds += 1
            longest = max(longest, elapsed() - t0)
            if elapsed() + longest / 2.0 > seconds:
                break
        while len(setup_all) < SETUP_SPAWNS:
            setup_all.append(time_setup())
    finally:
        runner.close()
    recs = runner.records
    timed = sum(r["wall_s"] for r in recs)
    metrics = {
        "samples_per_s": sum(r["samples"] for r in recs) / timed,
        "op_s_p50": statistics.median(r["wall_s"] for r in recs),
        "setup_s": statistics.median(setup_all),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    steal1 = steal_seconds()
    detail = {"rounds": rounds, "timed_s": timed, "setup_samples_s": setup_all,
              "host_steal_s": None if steal0 is None else steal1 - steal0}
    return recs, metrics, detail


def run_traced(workload, seed):
    from tracing import Tracer
    warm_up()
    tracer = Tracer()
    tracer.install()
    runner = Runner(workload, seed, tracer)
    try:
        count = runner.run_round(0)
        untraced = sum(r["wall_s"] for r in runner.records)
        tracer.active = True
        runner.run_round(0, first_id=count)
        tracer.active = False
    finally:
        tracer.uninstall()
        runner.close()
    traced = sum(r["wall_s"] for r in runner.records[count:])
    metrics = tracer.metrics(traced - untraced)
    labels = {count + k: r["label"]
              for k, r in enumerate(runner.records[count:])}
    detail = {"untraced_s": untraced, "traced_s": traced,
              "per_op": {labels[k]: v
                         for k, v in tracer.per_op_table().items()}}
    return runner.records, metrics, detail


def _write_result(name, doc):
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    with open(OUT / "results" / name, "w") as fh:
        json.dump(doc, fh, indent=1)


def run_one(args):
    if args.trace:
        from tracing import metric_names
        recs, values, detail = run_traced(args.workload, args.seed)
        units = dict(metric_names())
    else:
        recs, values, detail = run_timed(args.workload, args.seed,
                                         args.seconds)
        units = dict(END_TO_END)
    attempted, failed, correct, unexpected = summarize(recs)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    _write_result(tag + ".json", {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "environment": environment_record(),
        "metrics": metrics, "detail": detail if not args.trace else
        {k: v for k, v in detail.items() if k != "per_op"},
        "operations": recs})
    if args.trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        with open(OUT / "traces" / (tag + ".json"), "w") as fh:
            json.dump(detail["per_op"], fh, indent=1)
    for rec in unexpected:
        print(f"unexpected failure: {rec['label']}: {rec['problems']}",
              file=sys.stderr)
    for k, m in metrics.items():
        print(f"{args.workload}/{k} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}/attempted {attempted}  failed {failed}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args):
    import workloads
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        if args.odecond_threads is not None:
            cmd += ["--odecond-threads", str(args.odecond_threads)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=_child_env(), timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        for line in lines[:-1]:
            print(line)
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, m in res["metrics"].items():
            total["metrics"][f"{name}/{k}"] = m
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--odecond-threads", type=int, default=None,
                        help="set ODECOND_THREADS for the single-threaded "
                             "baseline (default: unset, the program's pool)")
    args = parser.parse_args(argv)
    if not (SRC / "odecond" / "__init__.py").is_file():
        print(f"error: the program's source is missing under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS and args.workload != "all":
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.seed < 0 or not math.isfinite(args.seconds) or args.seconds <= 0 \
            or (args.odecond_threads is not None and args.odecond_threads < 1):
        print("error: --seed must be >= 0, --seconds > 0 and "
              "--odecond-threads >= 1", file=sys.stderr)
        return 2
    os.environ.pop("ODECOND_THREADS", None)
    if args.odecond_threads is not None:
        os.environ["ODECOND_THREADS"] = str(args.odecond_threads)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
