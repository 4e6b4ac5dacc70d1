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
import json
import math
import re
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .condition import Scenario, k_exact, shifted_propagator, sweep
from .errors import (
    AmbiguousGrouping,
    BranchLost,
    NonDiagonalizable,
    OdecondError,
    UnsupportedBlock,
    ZeroProjection,
)
from .matrix_core import vector_norm
from .minimax import h_envelope_sweep, h_extremes, trace_branches
from .oscillator import VWPair, f_vw_max, f_vw_min
from .spectral import analyze_spectrum

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

# the (V, W) range of each command: envelopes hold on [0, 1)^2, branch
# tracing needs the open square
_VW_RANGE = {
    "envelope": ("[0, 1)", lambda v: 0.0 <= v < 1.0),
    "branches": ("(0, 1)", lambda v: 0.0 < v < 1.0),
}


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


def _norm_to_label(p):
    return "inf" if p == np.inf else int(p)


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


def build_parser() -> _Parser:
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
        out["matrix"] = tuple(tuple(float(v) for v in row)
                              for row in doc["matrix"])
        if "y0" in doc:
            out["y0"] = tuple(float(v) for v in doc["y0"])
        if doc.get("z0") is not None:
            out["z0"] = tuple(float(v) for v in doc["z0"])
        if "norm" in doc:
            label = str(doc["norm"])
            if label not in _NORM_CHOICES:
                raise ValueError(f"norm must be one of {_NORM_CHOICES}")
            out["norm"] = label
        if "t" in doc:
            out["t_start"] = float(doc["t"]["start"])
            out["t_end"] = float(doc["t"]["end"])
            out["steps"] = int(doc["t"]["steps"])
    except (TypeError, ValueError, KeyError) as exc:
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
        label, inside = _VW_RANGE[ns.command]
        for flag, value in (("--V", ns.V), ("--W", ns.W)):
            if not inside(value):
                parser.error(f"{flag} must lie in {label}")
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
    doc = {
        "matrix": [list(row) for row in cfg.matrix],
        "y0": list(cfg.y0),
        "z0": list(cfg.z0) if cfg.z0 is not None else None,
        "norm": _norm_to_label(cfg.norm_p),
        "t": {"start": cfg.t_start, "end": cfg.t_end, "steps": cfg.steps},
    }
    return doc


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _spot_check(s: Scenario, seed: int) -> dict:
    """Randomized directional oracle at the final grid time: the worst
    case must dominate every sampled direction and be nearly attained.
    The directions are propagated by e^{t(A - r1 I)}, as k_exact is."""
    rng = np.random.default_rng(seed)
    t = float(s.t_grid[-1])
    worst = k_exact(Scenario(matrix=s.matrix, y0=s.y0,
                             t_grid=np.array([t]), norm_p=s.norm_p), t)
    E = shifted_propagator(s, t)
    Z = rng.standard_normal((512, s.n))
    Z /= np.linalg.norm(Z, s.norm_p, axis=1)[:, None]
    best = float(np.max(np.linalg.norm(Z @ E.T, s.norm_p, axis=1))
                 / vector_norm(E @ s.y0_hat, s.norm_p))
    if not math.isfinite(best):
        raise OdecondError(
            f"spot check at t = {t:.6g}: sampled ratios are not finite")
    return {
        "seed": seed,
        "t": t,
        "sampled_directional_max": best,
        "worst_case": worst,
        "dominates_samples": bool(worst >= best * (1.0 - 1e-12)),
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
        summary["spot_check"] = _spot_check(scenario, cfg.seed)
    csv_path = cfg.out + ".csv"
    json_path = cfg.out + ".json"
    echo_path = cfg.out + ".scenario.json"
    with open(csv_path, "w") as fh:
        series.to_csv(fh)
    _write_json(json_path, summary)
    _write_json(echo_path, _scenario_echo(cfg))
    for path in (csv_path, json_path, echo_path):
        print(f"wrote {path}")
    prof = series.profile
    print(f"block_kind={prof.block_kind} osf={prof.osf:.6g} "
          f"ot_range=[{prof.ot_min:.6g}, {prof.ot_max:.6g}]")
    for note in series.warnings:
        print(f"warning: {note}")
    return EXIT_OK


# --------------------------------------------------------------------- demo

def _fmt_digits(value: float, decimals: int) -> str:
    return f"{value:.{decimals}f}"


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
        rounded = _fmt_digits(value, decimals)
        ok = abs(value - ref) <= 10.0 ** (-decimals) + 1e-12
        failures += not ok
        print(f"{label:<12}{_fmt_digits(ref, decimals):>12}"
              f"{value:>22.17g}{rounded:>12}  {'PASS' if ok else 'FAIL'}")
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
    fmax = np.asarray(f_vw_max(pair, xs), dtype=float)
    fmin = np.asarray(f_vw_min(pair, xs), dtype=float)
    f_path = cfg.out + "_f.csv"
    with open(f_path, "w") as fh:
        fh.write("x,f_max,f_min\n")
        for x, hi, lo in zip(xs, fmax, fmin):
            fh.write(f"{x:.17g},{hi:.17g},{lo:.17g}\n")

    betas = np.linspace(0.0, math.pi, cfg.steps + 1)
    h_hi, h_lo, _, _ = h_envelope_sweep(pair, betas)
    h_path = cfg.out + "_h.csv"
    with open(h_path, "w") as fh:
        fh.write("beta,h_max,h_min\n")
        for b, hi, lo in zip(betas, h_hi, h_lo):
            fh.write(f"{b:.17g},{hi:.17g},{lo:.17g}\n")

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
    with open(csv_path, "w") as fh:
        fh.write("branch_id,source,beta,x,h\n")
        for bid, poly in enumerate(polylines):
            for b, x, h in zip(poly.beta_samples, poly.x_samples,
                               poly.h_samples):
                fh.write(f"{bid},{poly.source},"
                         f"{b:.17g},{x:.17g},{h:.17g}\n")
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
    except (OdecondError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
