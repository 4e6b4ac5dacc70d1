"""Command-line front end.

Four subcommands: ``analyze`` sweeps a user scenario and writes the series
CSV plus a JSON summary, ``demo`` reproduces the built-in 3x3 example
against its reference values, ``envelope`` exports the closed-form
oscillation envelopes for a (V, W) pair, and ``branches`` exports the
stationary-point continuation of the ratio surface.  Outputs are plain
CSV / JSON / text, byte-deterministic for fixed inputs.

Exit codes: 0 success, 1 parse or validation failure, 2 unsupported
spectrum, 3 genericity violation (zero projection on the rightmost
block).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .condition import (Scenario, _norm_label, _propagators, _shift_for,
                        sweep)
from .errors import (
    AmbiguousGrouping,
    BranchLost,
    NonDiagonalizable,
    OdecondError,
    UnsupportedBlock,
    ZeroProjection,
)
from .g17 import write_csv
from .matrix_core import _unit_scaled, vector_norms
from .minimax import h_envelope_sweep, h_extremes, trace_branches
from .oscillator import VWPair, _f_extremes
from .spectral import SpectrumAnalysis, analyze_spectrum

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_UNSUPPORTED = 2
EXIT_DEGENERATE = 3

# 3x3 example with rightmost pair +-i, V_1 and W_1 both close to 1: tiny
# spectral data, wildly oscillating condition number.
_DEMO_MATRIX = (
    (-1.0, 20.0, -20.0),
    (0.0, 19.0, -20.0),
    (0.0, 18.1, -19.0),
)

_NORM_CHOICES = ("1", "2", "inf")

#: the spot check's worst case counts as attained when k at its attaining
#: direction is within this of it, relative.  Both sides round, the p = 2
#: worst case as the top eigenvalue of a Gram matrix: |ratio - 1| was at
#: most 2.2e-15 on the demo and at n = 8, 40 and 100, every p, so an
#: overestimate of 1e-9 stands out
_ATTAINED_TOL = 1e-12

@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation; plain tuples/floats so configs compare equal."""

    command: str
    matrix: Optional[tuple] = None
    y0: Optional[tuple] = None
    z0: Optional[tuple] = None
    norm_p: object = 2
    t_start: float = 0.0
    t_end: float = 4.0 * math.pi
    steps: int = 1024
    out: Optional[str] = None
    seed: Optional[int] = None
    tol_group: Optional[float] = None
    V: Optional[float] = None
    W: Optional[float] = None


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract here is 1
    for every parse-level failure."""

    def error(self, message):
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _norm_from_label(label):
    return np.inf if label == "inf" else int(label)


def _float_list(text: str, flag: str, parser: _Parser):
    out = []
    for i, tok in enumerate(text.split(",")):
        try:
            out.append(float(tok))
        except ValueError:
            parser.error(f"{flag}: entry {i + 1} ({tok!r}) is not a number")
    return tuple(out)


def _join_negative_values(argv):
    """argparse takes only -5 and -.5 for negative numbers and any other
    value like -0.6,0,0.8 or -1e3 for a flag; join such a value to the flag
    before it as --flag=value (no odecond flag starts with a digit)."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and re.match(r"-\.?\d", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parse_args leaves
    it unchanged."""
    parser = _Parser(prog="odecond",
                     description="Condition numbers of y0 -> exp(tA) y0")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="sweep a scenario over a time grid")
    pa.add_argument("--matrix", required=True,
                    help="matrix CSV (one row per line) or scenario JSON")
    pa.add_argument("--y0", help="initial value, comma-separated")
    pa.add_argument("--z0", help="unit perturbation direction, "
                                 "comma-separated (omit for worst case)")
    pa.add_argument("--norm", choices=_NORM_CHOICES, default=None)
    pa.add_argument("--t0", type=float, default=None)
    pa.add_argument("--t1", type=float, default=None)
    pa.add_argument("--steps", type=int, default=None)
    pa.add_argument("--out", required=True,
                    help="output prefix (.csv / .json / .scenario.json)")
    pa.add_argument("--seed", type=int, default=None,
                    help="enable a randomized directional spot check")
    pa.add_argument("--tol-group", type=float, default=None,
                    help="eigenvalue grouping tolerance override")

    pd = sub.add_parser("demo", help="reproduce the built-in 3x3 example")
    pd.add_argument("--out", default=None,
                    help="optional prefix for the two series CSVs")
    pd.add_argument("--steps", type=int, default=1024)

    pe = sub.add_parser("envelope",
                        help="closed-form oscillation envelopes for (V, W)")
    pe.add_argument("--V", type=float, required=True)
    pe.add_argument("--W", type=float, required=True)
    pe.add_argument("--steps", type=int, default=720)
    pe.add_argument("--out", required=True)

    pb = sub.add_parser("branches",
                        help="stationary-point branches of the ratio surface")
    pb.add_argument("--V", type=float, required=True)
    pb.add_argument("--W", type=float, required=True)
    pb.add_argument("--steps", type=int, default=360)
    pb.add_argument("--out", required=True)
    return parser


# ------------------------------------------------------------ input parsing

def _parse_matrix_csv(path: str, parser: _Parser):
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        parser.error(f"--matrix: {exc}")
    rows = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        entries = line.split(",")
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            parser.error(f"{path}: row {lineno} has {len(entries)} entries, "
                         f"expected {width}")
        row = []
        for col, tok in enumerate(entries, start=1):
            try:
                row.append(float(tok))
            except ValueError:
                parser.error(f"{path}: row {lineno}, column {col}: "
                             f"could not parse {tok!r}")
        rows.append(tuple(row))
    if not rows:
        parser.error(f"{path}: no matrix rows found")
    return tuple(rows)


# JSON numbers load as int or float; float() would also take a string,
# and a bool is an int subclass, so both tests compare exact types
def _json_number(value, key: str) -> float:
    if type(value) not in (int, float):
        raise ValueError(f"{key}: {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key} is outside the float range") from None


def _json_numbers(value, key: str) -> tuple:
    kinds = set(map(type, value)) if type(value) is list else None
    if kinds is None or not kinds <= {int, float}:
        raise ValueError(f"{key} must be a list of numbers, got {value!r}")
    if kinds <= {float}:
        # a float converts to itself: only an int can overflow
        return tuple(value)
    return tuple(_json_number(v, f"{key}: entry {i}")
                 for i, v in enumerate(value, start=1))


def _parse_scenario_json(path: str, text: str, parser: _Parser) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        parser.error(f"{path}: line {exc.lineno} column {exc.colno}: "
                     f"{exc.msg}")
    if not isinstance(doc, dict) or "matrix" not in doc:
        parser.error(f"{path}: scenario JSON needs a 'matrix' key")
    out = {}
    try:
        if type(doc["matrix"]) is not list:
            raise ValueError("matrix must be a list of rows")
        out["matrix"] = tuple(_json_numbers(row, "matrix row")
                              for row in doc["matrix"])
        if "y0" in doc:
            out["y0"] = _json_numbers(doc["y0"], "y0")
        if doc.get("z0") is not None:
            out["z0"] = _json_numbers(doc["z0"], "z0")
        if "norm" in doc:
            label = str(doc["norm"])
            if label not in _NORM_CHOICES:
                raise ValueError(f"norm must be one of {_NORM_CHOICES}")
            out["norm"] = label
        if "t" in doc:
            t = doc["t"]
            if type(t) is not dict:
                raise ValueError(f"t must be an object, got {t!r}")
            for key in ("start", "end", "steps"):
                if key not in t:
                    raise ValueError(f"t.{key} is missing")
            out["t_start"] = _json_number(t["start"], "t.start")
            out["t_end"] = _json_number(t["end"], "t.end")
            steps = _json_number(t["steps"], "t.steps")
            if not steps.is_integer():
                raise ValueError(f"t.steps must be an integer, got {steps!r}")
            out["steps"] = int(steps)
    except (TypeError, ValueError) as exc:
        parser.error(f"{path}: malformed scenario value: {exc}")
    return out


def parse_config(argv) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(_join_negative_values(argv))
    if ns.command == "demo":
        if ns.steps < 2:
            parser.error("--steps must be at least 2")
        return RunConfig(command="demo", out=ns.out, steps=ns.steps)
    if ns.command in ("envelope", "branches"):
        if ns.steps < 2:
            parser.error("--steps must be at least 2")
        if not ns.out:
            parser.error("--out must be nonempty")
        return RunConfig(command=ns.command, V=ns.V, W=ns.W,
                         steps=ns.steps, out=ns.out)

    # analyze: the scenario file may carry defaults, flags win
    if not ns.matrix or not ns.out:
        parser.error("--matrix and --out must be nonempty")
    file_vals = {}
    if ns.matrix.endswith(".json"):
        try:
            with open(ns.matrix) as fh:
                text = fh.read()
        except OSError as exc:
            parser.error(f"--matrix: {exc}")
        file_vals = _parse_scenario_json(ns.matrix, text, parser)
        matrix = file_vals["matrix"]
    else:
        matrix = _parse_matrix_csv(ns.matrix, parser)
    # the .scenario.json echo may overwrite its own input only when no flag
    # changes a value of it, so it writes the same bytes
    outputs = [ns.out + ".csv", ns.out + ".json"]
    if any(v is not None for v in (ns.y0, ns.z0, ns.norm, ns.t0, ns.t1,
                                   ns.steps)):
        outputs.append(ns.out + ".scenario.json")
    for path in outputs:
        if os.path.exists(path) and os.path.samefile(path, ns.matrix):
            parser.error(f"--out {ns.out} would overwrite the input {path}")
    y0 = _float_list(ns.y0, "--y0", parser) if ns.y0 \
        else file_vals.get("y0")
    if y0 is None:
        parser.error("--y0 is required (no initial value in the input)")
    z0 = _float_list(ns.z0, "--z0", parser) if ns.z0 \
        else file_vals.get("z0")
    norm_label = ns.norm or file_vals.get("norm") or "2"
    t_start = ns.t0 if ns.t0 is not None else file_vals.get("t_start", 0.0)
    t_end = ns.t1 if ns.t1 is not None \
        else file_vals.get("t_end", 4.0 * math.pi)
    steps = ns.steps if ns.steps is not None \
        else file_vals.get("steps", 1024)
    if not (math.isfinite(t_start) and math.isfinite(t_end)):
        parser.error("--t0 and --t1 must be finite")
    if not t_start < t_end:
        parser.error("--t0 must be smaller than --t1")
    if steps < 2:
        parser.error("--steps must be at least 2")
    return RunConfig(
        command="analyze",
        matrix=matrix,
        y0=y0,
        z0=z0,
        norm_p=_norm_from_label(norm_label),
        t_start=float(t_start),
        t_end=float(t_end),
        steps=int(steps),
        out=ns.out,
        seed=ns.seed,
        tol_group=getattr(ns, "tol_group", None),
    )


# ------------------------------------------------------------------ outputs

def _scenario_echo(cfg: RunConfig) -> dict:
    """The scenario echo without its matrix, which _write_json puts first."""
    return {
        "y0": list(cfg.y0),
        "z0": list(cfg.z0) if cfg.z0 is not None else None,
        "norm": _norm_label(cfg.norm_p),
        "t": {"start": cfg.t_start, "end": cfg.t_end, "steps": cfg.steps},
    }


#: a matrix row's entries joined as json.dump(indent=2) joins them under
#: "matrix"; unindented, so encode takes json's C encoder
_ROW_JSON = json.JSONEncoder(separators=(",\n      ", ": "), allow_nan=False)


def _write_json(path: str, doc, matrix=None) -> None:
    """json.dump(doc, fh, indent=2, allow_nan=False) and a newline.  A
    matrix goes first, under "matrix", with the same bytes: its rows take
    the C encoder, which json.dump with an indent never reaches (a
    100 x 100 echo: 12.1 -> 7.4 ms, best of 30 on a 2-core x86 host)."""
    text = json.dumps(doc, indent=2, allow_nan=False)
    if matrix is not None:
        rows = ",\n    ".join("[\n      " + _ROW_JSON.encode(row)[1:-1]
                              + "\n    ]" for row in matrix)
        text = '{\n  "matrix": [\n    ' + rows + "\n  ]," + text[1:]
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _spot_check(s: Scenario, analysis: SpectrumAnalysis, seed: int) -> dict:
    """Randomized directional oracle at the final grid time: the worst
    case must dominate every sampled direction and be attained, to
    _ATTAINED_TOL, by the direction z* that attains the induced norm of
    E = e^{t(A - r1 I)}: e_l for the column l of largest 1-norm (p = 1),
    the signs of the row of largest 1-norm (p = inf), the top eigenvector
    of E^T E (p = 2).  All come from one E, formed with the r1 of sweep
    by the route a worst-case sweep takes at that t, chosen on the whole
    grid as the sweep chooses it, so the worst case equals a worst-case
    sweep's last k_exact bit for bit."""
    rng = np.random.default_rng(seed)
    r1 = _shift_for(s.matrix, analysis.eigensystem.eigenvalues)
    last = s.t_grid.size - 1
    _, worst, E = next(_propagators(
        s, s.t_grid, r1, analysis.eigensystem, None, only=[last]))
    worst, t, E = float(worst[0]), float(s.t_grid[last]), E[0]
    Z = rng.standard_normal((512, s.n))
    Z /= vector_norms(Z, s.norm_p)[:, None]
    denom = vector_norms(E @ s.y0_hat, s.norm_p)
    best = float(np.max(vector_norms(Z @ E.T, s.norm_p)) / denom)
    if not math.isfinite(best):
        raise OdecondError(
            f"spot check at t = {t:.6g}: sampled ratios are not finite")
    if s.norm_p == 1:
        z = np.eye(s.n)[np.abs(E).sum(axis=0).argmax()]
    elif s.norm_p == 2:
        F, _ = _unit_scaled(E, (-2, -1))
        z = np.linalg.eigh(F.T @ F)[1][:, -1]
    else:
        z = np.where(E[np.abs(E).sum(axis=1).argmax()] < 0.0, -1.0, 1.0)
    ratio = float(vector_norms(E @ z, s.norm_p) / denom) / worst
    return {
        "seed": seed,
        "t": t,
        "sampled_directional_max": best,
        "worst_case": worst,
        "dominates_samples": bool(worst >= best * (1.0 - 1e-12)),
        "attained_ratio": ratio,
        "attained": bool(abs(ratio - 1.0) <= _ATTAINED_TOL),
    }


def cmd_analyze(cfg: RunConfig) -> int:
    scenario = Scenario(
        matrix=np.array(cfg.matrix),
        y0=np.array(cfg.y0),
        z0=np.array(cfg.z0) if cfg.z0 is not None else None,
        norm_p=cfg.norm_p,
        t_grid=np.linspace(cfg.t_start, cfg.t_end, cfg.steps),
    )
    kwargs = {} if cfg.tol_group is None else {"tol": cfg.tol_group}
    analysis = analyze_spectrum(scenario.matrix, norm_p=cfg.norm_p, **kwargs)
    series = sweep(scenario, analysis)
    summary = series.summary_dict()
    if cfg.seed is not None:
        summary["spot_check"] = _spot_check(scenario, analysis, cfg.seed)
    csv_path = cfg.out + ".csv"
    json_path = cfg.out + ".json"
    echo_path = cfg.out + ".scenario.json"
    with open(csv_path, "w") as fh:
        series.to_csv(fh)
    _write_json(json_path, summary)
    _write_json(echo_path, _scenario_echo(cfg), cfg.matrix)
    for path in (csv_path, json_path, echo_path):
        print(f"wrote {path}")
    prof = series.profile
    print(f"block_kind={prof.block_kind} osf={prof.osf:.6g} "
          f"ot_range=[{prof.ot_min:.6g}, {prof.ot_max:.6g}]")
    for note in series.warnings:
        print(f"warning: {note}")
    return EXIT_OK


# --------------------------------------------------------------------- demo

def _demo_rows(prof_a, prof_b, block):
    # reference values with their displayed precision; tolerance is one
    # unit in the last displayed digit
    return [
        ("V1", 0.9988, 4, block.V_mod),
        ("W1", 0.9986, 4, block.W_mod),
        ("Q1", 0.9995, 4, prof_a.q1),
        ("OSF_a", 38.1, 1, prof_a.osf),
        ("OSF_b", 1.0003, 4, prof_b.osf),
        ("a_max", 41.0, 1, prof_a.a_max),
        ("a_min", 0.0263, 4, prof_a.a_min),
        ("a_minmax", 1.1869, 4, prof_a.a_minmax),
        ("a_maxmin", 0.9997, 4, prof_a.a_maxmin),
        ("max_Kinf_a", 1563.0, 0, prof_a.osf * prof_a.ot_max),
        ("min_Kinf_a", 1.0, 0, prof_a.osf * prof_a.ot_min),
        ("max_Kinf_b", 1.1873, 4, prof_b.osf * prof_b.ot_max),
        ("min_Kinf_b", 1.0, 0, prof_b.osf * prof_b.ot_min),
    ]


def cmd_demo(cfg: RunConfig) -> int:
    A = np.array(_DEMO_MATRIX)
    analysis = analyze_spectrum(A)
    block = analysis.blocks[0]
    grid = np.linspace(0.0, 4.0 * math.pi, cfg.steps + 1)
    # scenario a: y0 along the minor right singular direction (largest
    # scale factor); scenario b: along the major one (scale factor ~ 1)
    s_a = Scenario(matrix=A, y0=block.right_minor, t_grid=grid)
    s_b = Scenario(matrix=A, y0=block.right_major, t_grid=grid)
    ser_a = sweep(s_a, analysis)
    ser_b = sweep(s_b, analysis)
    prof_a, prof_b = ser_a.profile, ser_b.profile

    print("built-in example: 3x3 matrix, rightmost pair +-i, Euclidean norm")
    print()
    header = f"{'quantity':<12}{'reference':>12}{'computed':>22}" \
             f"{'rounded':>12}  status"
    print(header)
    print("-" * len(header))
    failures = 0
    for label, ref, decimals, value in _demo_rows(prof_a, prof_b, block):
        ok = abs(value - ref) <= 10.0 ** (-decimals) + 1e-12
        failures += not ok
        print(f"{label:<12}{ref:>12.{decimals}f}{value:>22.17g}"
              f"{value:>12.{decimals}f}  {'PASS' if ok else 'FAIL'}")
    print()
    print("note: the scale factor of the second scenario is sometimes "
          "quoted as 1.003; the full-precision value rounds to 1.0003, "
          "which is the reference used here.")
    if cfg.out:
        for tag, ser in (("a", ser_a), ("b", ser_b)):
            path = f"{cfg.out}_{tag}.csv"
            with open(path, "w") as fh:
                ser.to_csv(fh)
            _write_json(f"{cfg.out}_{tag}.json", ser.summary_dict())
            print(f"wrote {path} and {cfg.out}_{tag}.json")
    return EXIT_OK if failures == 0 else EXIT_PARSE


# ----------------------------------------------------------------- envelope

def cmd_envelope(cfg: RunConfig) -> int:
    pair = VWPair(cfg.V, cfg.W)
    xs = np.linspace(0.0, 2.0 * math.pi, cfg.steps + 1)
    _, _, fmax, fmin = _f_extremes(pair, xs)
    f_path = cfg.out + "_f.csv"
    with open(f_path, "w") as fh:
        write_csv(fh, ("x", "f_max", "f_min"),
                  np.column_stack((xs, fmax, fmin)))

    betas = np.linspace(0.0, math.pi, cfg.steps + 1)
    h_hi, h_lo, _, _ = h_envelope_sweep(pair, betas)
    h_path = cfg.out + "_h.csv"
    with open(h_path, "w") as fh:
        write_csv(fh, ("beta", "h_max", "h_min"),
                  np.column_stack((betas, h_hi, h_lo)))

    V, W = cfg.V, cfg.W
    h = h_extremes(pair)._asdict()
    if not math.isfinite(h["q1"]):
        h["q1"] = None  # q1 = inf at W = 0 < V; strict JSON has no inf
    extremes = {
        "V": V,
        "W": W,
        "f_max_at_0": (1.0 + V) / (1.0 - W),
        "f_max_at_pi": (1.0 - V) / (1.0 - W) if V <= W
        else (1.0 + V) / (1.0 + W),
        "f_min_at_pi": (1.0 + V) / (1.0 + W) if V <= W
        else (1.0 - V) / (1.0 - W),
        "f_min_at_0": (1.0 - V) / (1.0 + W),
        "h": h,
    }
    ext_path = cfg.out + "_extremes.json"
    _write_json(ext_path, extremes)
    for path in (f_path, h_path, ext_path):
        print(f"wrote {path}")
    return EXIT_OK


# ----------------------------------------------------------------- branches

def cmd_branches(cfg: RunConfig) -> int:
    pair = VWPair(cfg.V, cfg.W)
    betas = np.linspace(0.0, math.pi, cfg.steps + 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", BranchLost)
        polylines = trace_branches(pair, betas)
    csv_path = cfg.out + "_branches.csv"
    rows = [np.column_stack((p.beta_samples, p.x_samples, p.h_samples))
            for p in polylines]
    heads = np.repeat(np.array([f"{bid},{p.source},"
                                for bid, p in enumerate(polylines)],
                               dtype=np.bytes_), [len(r) for r in rows])
    with open(csv_path, "w") as fh:
        write_csv(fh, ("branch_id", "source", "beta", "x", "h"),
                  np.concatenate(rows), heads)
    log_path = cfg.out + "_lost.log"
    with open(log_path, "w") as fh:
        for w in caught:
            if issubclass(w.category, BranchLost):
                fh.write(f"{w.message}\n")
    axis = sum(p.source == "axis_branch" for p in polylines)
    print(f"wrote {csv_path} ({len(polylines)} branches, {axis} on the "
          f"axis family)")
    print(f"wrote {log_path}")
    return EXIT_OK


# --------------------------------------------------------------------- main

def main(argv=None) -> int:
    cfg = parse_config(argv if argv is not None else sys.argv[1:])
    handler = {
        "analyze": cmd_analyze,
        "demo": cmd_demo,
        "envelope": cmd_envelope,
        "branches": cmd_branches,
    }[cfg.command]
    try:
        return handler(cfg)
    except (UnsupportedBlock, NonDiagonalizable, AmbiguousGrouping) as exc:
        print(f"unsupported spectrum: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ZeroProjection as exc:
        print(f"genericity violation: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (OdecondError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
