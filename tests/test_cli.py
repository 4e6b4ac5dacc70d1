"""End-to-end tests of the command-line front end.

Everything runs in-process through odecond.cli.main so exit codes,
stdout/stderr, and emitted files can all be checked without spawning
subprocesses; only the import check at the end needs a fresh interpreter.
"""

import csv
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import odecond
from odecond.cli import (RunConfig, _json_numbers, _scenario_echo,
                         _write_json, build_parser, main, parse_config)
from odecond.condition import _EXPANSION_TOL, _shift_for
from odecond.matrix_core import (_certified_top_eigenvalue, _unit_scaled,
                                 eigen_propagate)
from odecond.minimax import h_extremes
from odecond.oscillator import VWPair
from odecond.spectral import analyze_spectrum

from conftest import EXAMPLE_A, spectral_kind


def write_matrix_csv(path, A):
    with open(path, "w") as fh:
        for row in np.asarray(A):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return str(path)


def float_columns(path):
    with open(path) as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    return {name: np.array([float(r[name]) for r in rows])
            for name in reader.fieldnames}


def run_cli(argv):
    return main([str(a) for a in argv])


# ------------------------------------------------------------- analyze

def test_analyze_example_summary_reports_scale_factor(tmp_path, capsys):
    block = analyze_spectrum(EXAMPLE_A).blocks[0]
    mat = write_matrix_csv(tmp_path / "A.csv", EXAMPLE_A)
    y0 = ",".join(f"{v:.17g}" for v in block.right_minor)
    out = tmp_path / "run"
    assert run_cli(["analyze", "--matrix", mat, "--y0=" + y0,
                    "--t1", 4.0 * math.pi, "--steps", 64,
                    "--out", out]) == 0
    doc = json.load(open(f"{out}.json"))
    assert round(doc["profile"]["osf"], 1) == 38.1
    assert doc["block"]["kind"] == "simple_single_complex"
    cols = float_columns(f"{out}.csv")
    assert list(cols) == ["t", "k_exact", "k_asym", "osf", "ot",
                          "eps_t", "eps_tu", "precision_bound"]
    capsys.readouterr()


def test_analyze_rotation_block_single_group_no_tail(tmp_path, capsys):
    mat = write_matrix_csv(tmp_path / "R.csv", [[0.0, 1.0], [-1.0, 0.0]])
    out = tmp_path / "rot"
    assert run_cli(["analyze", "--matrix", mat, "--y0", "1,0",
                    "--t1", 2.0, "--steps", 16, "--out", out]) == 0
    doc = json.load(open(f"{out}.json"))
    assert doc["block"]["kind"] == "simple_single_complex"
    assert doc["block"]["block_count"] == 1
    cols = float_columns(f"{out}.csv")
    assert np.all(cols["eps_t"] == 0.0)
    assert np.all(cols["eps_tu"] == 0.0)
    capsys.readouterr()


def test_analyze_max_norm_profile_has_no_euclidean_envelope(tmp_path, capsys):
    mat = write_matrix_csv(tmp_path / "A.csv", EXAMPLE_A)
    out = tmp_path / "inf"
    assert run_cli(["analyze", "--matrix", mat, "--y0", "1,2,3",
                    "--norm", "inf", "--t1", 3.0, "--steps", 16,
                    "--out", out]) == 0
    doc = json.load(open(f"{out}.json"))
    assert doc["profile"]["a_max"] is None
    assert doc["profile"]["osf"] > 0.0
    cols = float_columns(f"{out}.csv")
    np.testing.assert_allclose(cols["ot"] * cols["osf"], cols["k_asym"],
                               rtol=1e-12)
    capsys.readouterr()


@pytest.mark.parametrize("shift", [5.0, -5.0])
def test_analyze_shifted_example_exits_0(tmp_path, capsys, shift):
    # e^{tA} overflows (+5I) or underflows (-5I) at these times; the
    # condition numbers do not, and the run succeeds
    mat = write_matrix_csv(tmp_path / "A.csv", EXAMPLE_A + shift * np.eye(3))
    out = tmp_path / "shifted"
    assert run_cli(["analyze", "--matrix", mat, "--y0", "1,2,3",
                    "--t1", 160.0, "--steps", 33, "--out", out]) == 0
    cols = float_columns(f"{out}.csv")
    assert np.all(np.isfinite(cols["k_exact"]))
    capsys.readouterr()


@pytest.mark.parametrize("shift", [5.0, -5.0])
def test_spot_check_on_shifted_example(tmp_path, capsys, shift):
    # the sampled directions are propagated with e^{t(A - r1 I)} like the
    # worst case, so they neither overflow to NaN nor underflow to zero
    mat = write_matrix_csv(tmp_path / "A.csv", EXAMPLE_A + shift * np.eye(3))
    out = tmp_path / "shifted"
    assert run_cli(["analyze", "--matrix", mat, "--y0", "1,2,3",
                    "--t1", 160.0, "--steps", 33, "--out", out,
                    "--seed", 1]) == 0
    spot = json.load(open(f"{out}.json"))["spot_check"]
    best = spot["sampled_directional_max"]
    assert math.isfinite(best) and best > 0.0
    assert best <= spot["worst_case"]
    assert spot["dominates_samples"] is True
    capsys.readouterr()


def test_analyze_seeded_runs_are_byte_identical(tmp_path, capsys):
    mat = write_matrix_csv(tmp_path / "A.csv", EXAMPLE_A)
    blobs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        assert run_cli(["analyze", "--matrix", mat, "--y0", "1,2,3",
                        "--t1", 6.0, "--steps", 48, "--out", out,
                        "--seed", 11]) == 0
        blobs.append(tuple(open(f"{out}{suf}", "rb").read()
                           for suf in (".csv", ".json", ".scenario.json")))
    assert blobs[0] == blobs[1]
    doc = json.load(open(f"{tmp_path}/one.json"))
    assert doc["spot_check"]["seed"] == 11
    assert doc["spot_check"]["dominates_samples"] is True
    capsys.readouterr()


@pytest.mark.parametrize("matrix, z0", [
    (((-0.0, 5e-324, 1.5e308), (1.0, -2.5, 0.1), (3.0, 0.0, -1e-300)), None),
    (((7.25,),), (1.0,)),
])
def test_echo_writer_equals_indented_json_dump(tmp_path, matrix, z0):
    # the rows take json's C encoder; the bytes must be json.dump's
    cfg = RunConfig("analyze", matrix=matrix, y0=(1.0,) * len(matrix),
                    z0=z0, out=str(tmp_path / "e"))
    want = tmp_path / "want.json"
    with open(want, "w") as fh:
        json.dump({"matrix": [list(row) for row in matrix],
                   **_scenario_echo(cfg)}, fh, indent=2, allow_nan=False)
        fh.write("\n")
    got = tmp_path / "got.json"
    _write_json(str(got), _scenario_echo(cfg), matrix)
    assert got.read_bytes() == want.read_bytes()
    with pytest.raises(ValueError):
        _write_json(str(got), _scenario_echo(cfg), ((math.nan,),))


def test_emitted_scenario_reingests_to_identical_config(tmp_path, capsys):
    mat = write_matrix_csv(tmp_path / "A.csv", EXAMPLE_A)
    out = tmp_path / "rt"
    argv = ["analyze", "--matrix", mat, "--y0", "1,2,3", "--z0",
            "0,1,0", "--t0", "0.5", "--t1", "7.5", "--steps", "32",
            "--out", str(out)]
    cfg_flags = parse_config(argv)
    assert run_cli(argv) == 0
    cfg_echo = parse_config(["analyze", "--matrix",
                             f"{out}.scenario.json", "--out", str(out)])
    assert isinstance(cfg_flags, RunConfig)
    assert cfg_flags == cfg_echo
    capsys.readouterr()


# ----------------------------------------------------------- error paths

def test_malformed_matrix_row_is_named(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,0\n0,oops\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["analyze", "--matrix", bad, "--y0", "1,1",
                 "--t1", 1.0, "--out", tmp_path / "x"])
    assert exc.value.code == 1
    assert "row 2" in capsys.readouterr().err


def test_bad_y0_entry_exits_1(tmp_path, capsys):
    mat = write_matrix_csv(tmp_path / "A.csv", [[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(SystemExit) as exc:
        run_cli(["analyze", "--matrix", mat, "--y0", "1,zz",
                 "--t1", 1.0, "--out", tmp_path / "x"])
    assert exc.value.code == 1
    assert "--y0" in capsys.readouterr().err


def test_analyze_refuses_to_overwrite_its_input(tmp_path, capsys):
    # <out>.csv or <out>.json naming the --matrix file is refused before
    # anything is written; the .scenario.json echo may rewrite its input,
    # which gets the same bytes
    mat = write_matrix_csv(tmp_path / "M.csv", EXAMPLE_A)
    base = ["analyze", "--y0", "1,2,3", "--steps", 4]
    assert run_cli(base + ["--matrix", mat, "--out", tmp_path / "s"]) == 0
    (tmp_path / "s.json").write_bytes((tmp_path / "s.scenario.json")
                                      .read_bytes())
    for src, out in ((mat, "M"), (tmp_path / "s.json", "s")):
        before = Path(src).read_bytes()
        stamp = [p.stat().st_mtime_ns for p in sorted(tmp_path.iterdir())]
        with pytest.raises(SystemExit) as exc:
            run_cli(base + ["--matrix", src, "--out", tmp_path / out])
        assert exc.value.code == 1
        assert "overwrite" in capsys.readouterr().err
        assert Path(src).read_bytes() == before
        assert [p.stat().st_mtime_ns
                for p in sorted(tmp_path.iterdir())] == stamp
    echo = tmp_path / "s.scenario.json"
    before = echo.read_bytes()
    assert run_cli(["analyze", "--matrix", echo,
                    "--out", tmp_path / "s2"]) == 0
    assert run_cli(["analyze", "--matrix", tmp_path / "s2.scenario.json",
                    "--out", tmp_path / "s2"]) == 0
    assert (tmp_path / "s2.scenario.json").read_bytes() == before
    capsys.readouterr()


@pytest.mark.parametrize("flag", [["--y0", "3,2,1"], ["--z0", "0,1,0"],
                                  ["--norm", "1"], ["--t0", "0.5"],
                                  ["--t1", "2"], ["--steps", "9"]])
def test_analyze_refuses_flags_that_rewrite_its_scenario(tmp_path, capsys,
                                                         flag):
    # the echo would overwrite its input with the flag's value: refused
    # before anything is written
    mat = write_matrix_csv(tmp_path / "M.csv", EXAMPLE_A)
    assert run_cli(["analyze", "--matrix", mat, "--y0", "1,2,3",
                    "--steps", 4, "--out", tmp_path / "s"]) == 0
    echo = tmp_path / "s.scenario.json"
    before = echo.read_bytes()
    stamp = [p.stat().st_mtime_ns for p in sorted(tmp_path.iterdir())]
    with pytest.raises(SystemExit) as exc:
        run_cli(["analyze", "--matrix", echo, "--out", tmp_path / "s"]
                + flag)
    assert exc.value.code == 1
    assert "overwrite" in capsys.readouterr().err
    assert echo.read_bytes() == before
    assert [p.stat().st_mtime_ns for p in sorted(tmp_path.iterdir())] == stamp


def test_reversed_time_range_exits_1(tmp_path, capsys):
    mat = write_matrix_csv(tmp_path / "A.csv", [[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(SystemExit) as exc:
        run_cli(["analyze", "--matrix", mat, "--y0", "1,1",
                 "--t0", 5.0, "--t1", 1.0, "--out", tmp_path / "x"])
    assert exc.value.code == 1


def test_negative_time_overflow_exits_1_without_warning(tmp_path, capsys):
    # exact propagation refuses the non-finite e^{t(A - r1 I)} before the
    # dominance sums form their exponentials (a RuntimeWarning is an error
    # under this suite's filter)
    mat = write_matrix_csv(tmp_path / "A.csv", EXAMPLE_A)
    assert run_cli(["analyze", "--matrix", mat, "--y0", "1,2,3",
                    "--t0", -1e3, "--t1", 1, "--out", tmp_path / "x"]) == 1
    assert "not finite" in capsys.readouterr().err


def test_non_finite_error_names_only_failing_samples(tmp_path, capsys):
    # on a rotation e^{tA} is finite at t = 0; the squarings past 1e299
    # overflow, and only those samples are named: the solved 2.5e299 and
    # 7.5e299, and 5e299 and 1e300, which are squared from them
    mat = write_matrix_csv(tmp_path / "R.csv", [[0.0, 1.0], [-1.0, 0.0]])
    assert run_cli(["analyze", "--matrix", mat, "--y0", "1,2",
                    "--t1", 1e300, "--steps", 5,
                    "--out", tmp_path / "x"]) == 1
    err = capsys.readouterr().err
    assert "e^{tB} is not finite for t in [2.5e+299, 1e+300]" in err


@pytest.mark.parametrize("case", ["demo", "n8", "n40"])
def test_spot_check_worst_case_is_last_k_exact(tmp_path, capsys, case):
    # the spot check forms e^{t(A - r1 I)} at the last t by the route the
    # sweep took there, and either route forms each sample alone: the two
    # worst cases agree bit for bit (the n = 8 case is 1.1e-15 apart when
    # the Pade kernel's rounding depends on the chunk).  The demo takes the
    # Pade kernel; the n = 40 case takes the eigen-expansion and its
    # certified 2-norm at the last t
    if case == "demo":
        args = ["--matrix", write_matrix_csv(tmp_path / "A.csv", EXAMPLE_A),
                "--y0", "1,2,3", "--t1", 4096]
    elif case == "n8":
        rng = np.random.default_rng(1)
        mat = write_matrix_csv(tmp_path / "A.csv", rng.standard_normal((8, 8)))
        y0 = ",".join(repr(float(v)) for v in rng.standard_normal(8))
        args = ["--matrix", mat, "--y0", y0, "--t1", 20, "--steps", 64]
    else:
        rng = np.random.default_rng(40)
        A, w1 = spectral_kind(rng, 40)
        y0 = rng.standard_normal(40)
        t1 = 4.0 * math.pi / w1
        args = ["--matrix", write_matrix_csv(tmp_path / "A.csv", A),
                "--y0", ",".join(repr(float(v)) for v in y0),
                "--t1", repr(t1), "--steps", 65]
        s = odecond.condition.Scenario(matrix=A, y0=y0,
                                       t_grid=np.array([t1]))
        es = analyze_spectrum(A).eigensystem
        (_, est, X, _, _), = eigen_propagate(
            A, es, s.y0_hat, None, s.t_grid, _shift_for(A, es.eigenvalues),
            2, _EXPANSION_TOL)
        assert est[0] <= _EXPANSION_TOL
        F, _ = _unit_scaled(X[:, 1:], (-2, -1))
        assert _certified_top_eigenvalue(np.swapaxes(F, -1, -2) @ F)[1][0]
    out = tmp_path / case
    assert run_cli(["analyze", *args, "--seed", 1, "--out", out]) == 0
    spot = json.load(open(f"{out}.json"))["spot_check"]
    assert spot["worst_case"] == float_columns(f"{out}.csv")["k_exact"][-1]
    assert spot["dominates_samples"] is True
    assert spot["attained"] is True
    capsys.readouterr()


def test_analyze_y0_near_overflow_exits_0(tmp_path, capsys):
    # the 2-norm of y0 = (1e200, 1e200) overflows unless scaled first, the
    # norms of (1.5e308, 1.5e308) overflow even then, and (1e-320, 1e-320)
    # is subnormal.  In every norm each run equals the one from
    # y0 = (1, 1), the first byte for byte.  y0_hat of the last two may
    # differ from that of (1, 1) by an ulp, which moves k_exact by up to
    # 3 ulps.
    mat = write_matrix_csv(tmp_path / "D.csv", np.diag([0.0, -1.0]))
    y0s = {"one": "1,1", "big": "1e200,1e200", "huge": "1.5e308,1.5e308",
           "tiny": "1e-320,1e-320"}
    for norm in ("1", "2", "inf"):
        for tag, y0 in y0s.items():
            assert run_cli(["analyze", "--matrix", mat, "--y0", y0,
                            "--t1", 1, "--norm", norm,
                            "--out", tmp_path / f"{tag}{norm}"]) == 0
        assert capsys.readouterr().err == ""
        assert ((tmp_path / f"big{norm}.csv").read_bytes()
                == (tmp_path / f"one{norm}.csv").read_bytes())
        want = float_columns(tmp_path / f"one{norm}.csv")
        for tag in ("huge", "tiny"):
            got = float_columns(tmp_path / f"{tag}{norm}.csv")
            for name, ref in want.items():
                np.testing.assert_allclose(
                    got[name], ref, rtol=8e-16,
                    err_msg=f"y0 {y0s[tag]}, norm {norm}: {name}")


def test_spot_check_propagates_once(monkeypatch):
    # the worst case and the sampled directions share one propagator,
    # formed once by the route a worst-case sweep takes at that t: the Pade
    # kernel on the demo matrix (cond(V) = 52), the eigen-expansion of all
    # of e^{tB} (z = None) on a normal one, for a directional scenario too.
    # Its shift comes from the analysis, as in sweep, with no eigenvalue
    # solve of its own
    normal = [[-0.1, 1.0, 0.0], [-1.0, -0.1, 0.0], [0.0, 0.0, -1.0]]
    expm_grid, eigvals = odecond.matrix_core.expm_grid, np.linalg.eigvals
    propagate = odecond.matrix_core.eigen_propagate
    calls = {}

    def counting_expm_grid(*args):
        calls["expm_grid"] += 1
        return expm_grid(*args)

    def counting_propagate(A, es, y, z, *args):
        assert z is None
        for formed in propagate(A, es, y, z, *args):
            calls["eigen_propagate"] += 1
            yield formed

    def counting_eigvals(*args):
        calls["eigvals"] += 1
        return eigvals(*args)

    monkeypatch.setattr(odecond.condition, "expm_grid", counting_expm_grid)
    monkeypatch.setattr(odecond.condition, "eigen_propagate",
                        counting_propagate)
    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    for matrix, route in ((EXAMPLE_A, "expm_grid"),
                          (normal, "eigen_propagate")):
        for z0 in (None, [0.0, 0.6, 0.8]):
            s = odecond.condition.Scenario(matrix=matrix, y0=[1.0, 2.0, 3.0],
                                           z0=z0,
                                           t_grid=np.linspace(0.0, 3.0, 8))
            analysis = analyze_spectrum(s.matrix)
            calls.update(expm_grid=0, eigen_propagate=0, eigvals=0)
            spot = odecond.cli._spot_check(s, analysis, 1)
            assert calls == {"expm_grid": 0, "eigen_propagate": 0,
                             "eigvals": 0, route: 1}
            assert spot["dominates_samples"] is True


@pytest.mark.parametrize("p", [1, 2, np.inf])
def test_spot_check_flags_an_overestimated_worst_case(monkeypatch, p):
    # a worst case 1e-9 too large still dominates the sampled directions,
    # but its attaining direction gives back only the true value.  The demo
    # matrix takes the Pade kernel, whose induced norm is matrix_norms
    s = odecond.condition.Scenario(matrix=EXAMPLE_A, y0=[1.0, 2.0, 3.0],
                                   norm_p=p, t_grid=np.linspace(0.0, 3.0, 8))
    analysis = analyze_spectrum(s.matrix, norm_p=p)
    spot = odecond.cli._spot_check(s, analysis, 1)
    assert spot["attained"] is True and spot["dominates_samples"] is True
    assert abs(spot["attained_ratio"] - 1.0) <= 1e-14
    norms = odecond.condition.matrix_norms
    monkeypatch.setattr(odecond.condition, "matrix_norms",
                        lambda E, q: norms(E, q) * (1.0 + 1e-9))
    spot = odecond.cli._spot_check(s, analysis, 1)
    assert spot["attained"] is False and spot["dominates_samples"] is True
    assert spot["attained_ratio"] == pytest.approx(1.0 / (1.0 + 1e-9),
                                                   rel=1e-14)


@pytest.mark.parametrize("doc, argv", [
    ('{"matrix": [[1, 0], [0, -1]], "y0": [1, 1]}', ["--t1", "inf"]),
    ('{"matrix": [[1, 0], [0, -1]], "y0": [1, 1], '
     '"t": {"start": 0, "end": Infinity, "steps": 8}}', []),
    ('{"matrix": [[1, 0], [0, -1]], "y0": [1, 1], '
     '"t": {"start": 0, "end": 1, "steps": Infinity}}', []),
], ids=["flag-inf", "json-end-inf", "json-steps-inf"])
def test_non_finite_time_range_exits_1(tmp_path, capsys, doc, argv):
    path = tmp_path / "scen.json"
    path.write_text(doc)
    with pytest.raises(SystemExit) as exc:
        run_cli(["analyze", "--matrix", path, "--out", tmp_path / "x"]
                + argv)
    assert exc.value.code == 1


_DEMO_JSON = json.dumps(np.asarray(EXAMPLE_A).tolist())


@pytest.mark.parametrize("doc, key", [
    ('{"matrix": %s, "y0": "123"}' % _DEMO_JSON, "y0"),
    ('{"matrix": ["12", "34"], "y0": [1, 2]}', "matrix"),
    ('{"matrix": [[true, 0], [0, -1]], "y0": [1, 1]}', "matrix"),
    ('{"matrix": [[1, 0], [0, -1]], "y0": [true, false]}', "y0"),
    ('{"matrix": [[1, 0], [0, -1]], "y0": {"1": 0, "2": 0}}', "y0"),
    ('{"matrix": [[1, 0], [0, -1]], "y0": [1, 1], "z0": ["1", 0]}', "z0"),
    ('{"matrix": [[1, 0], [0, -1]], "y0": [1, 1], '
     '"t": {"start": 0, "end": 1, "steps": 16.9}}', "t.steps"),
    ('{"matrix": [[1, 0], [0, -1]], "y0": [1, 1], '
     '"t": {"start": false, "end": 1, "steps": 8}}', "t.start"),
    ('{"matrix": [[1, 0], [0, -1]], "y0": [1, 1], "t": [0, 1, 8]}', "t"),
    ('{"matrix": [[1, 0], [0, -1]], "y0": [1, 1], '
     '"t": {"start": 0, "end": 1}}', "t.steps is missing"),
    ('{"matrix": [[1, 0], [0, -1]], "y0": [1%s, 1]}' % ("0" * 400),
     "y0: entry 1 is outside the float range"),
], ids=["y0-string", "matrix-strings", "matrix-bool", "y0-bools", "y0-object",
        "z0-string", "steps-fraction", "start-bool", "t-list", "steps-missing",
        "y0-int-overflow"])
def test_scenario_json_takes_only_numbers(tmp_path, capsys, doc, key):
    # strings, booleans and objects are refused, not converted: "123" used
    # to run as y0 = (1, 2, 3) and steps 16.9 as 16; a missing t key and an
    # int past the float range are refused by their key
    path = tmp_path / "scen.json"
    path.write_text(doc)
    with pytest.raises(SystemExit) as exc:
        run_cli(["analyze", "--matrix", path, "--out", tmp_path / "x"])
    assert exc.value.code == 1
    assert f"malformed scenario value: {key}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_scenario_json_float_lists_are_taken_whole():
    # a list of JSON floats converts to itself, with no call per entry; an
    # int among them sends the list through the per-entry path; both give
    # the same floats
    floats = [0.5, -1e300, float("nan"), 2.0]
    with mock.patch("odecond.cli._json_number",
                    side_effect=AssertionError("per-entry path")):
        got = _json_numbers(floats, "y0")
        assert _json_numbers([], "y0") == ()
    assert got[:2] + got[3:] == (0.5, -1e300, 2.0) and math.isnan(got[2])
    mixed = _json_numbers([1, 2.5, -3], "y0")
    assert mixed == (1.0, 2.5, -3.0)
    assert all(type(v) is float for v in mixed)


@pytest.mark.parametrize("argv", [
    ["analyze", "--matrix", "A.csv", "--y0", "1,2,3", "--steps", 4],
    ["demo", "--steps", 2],
    ["envelope", "--V", 0.5, "--W", 0.5, "--steps", 2],
    ["branches", "--V", 0.5, "--W", 0.5, "--steps", 2],
], ids=["analyze", "demo", "envelope", "branches"])
def test_unwritable_output_exits_1(tmp_path, capsys, argv):
    write_matrix_csv(tmp_path / "A.csv", EXAMPLE_A)
    argv = [tmp_path / a if a == "A.csv" else a for a in argv]
    assert run_cli(argv + ["--out", tmp_path / "no" / "x"]) == 1
    assert "No such file or directory" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analyze", "--matrix", "A.csv", "--y0", "1,2,3", "--steps", 10 ** 15],
    ["analyze", "--matrix", "scen.json"],
    ["envelope", "--V", 0.5, "--W", 0.5, "--steps", 10 ** 15],
], ids=["analyze-flag", "analyze-json", "envelope"])
def test_unallocatable_step_count_exits_1(tmp_path, capsys, argv):
    # 1e15 float64 samples are 8 PB, beyond any address space: numpy's
    # allocation fails at once and must end as an error line, not a trace
    write_matrix_csv(tmp_path / "A.csv", EXAMPLE_A)
    (tmp_path / "scen.json").write_text(
        '{"matrix": [[1, 0], [0, -1]], "y0": [1, 1], '
        '"t": {"start": 0, "end": 1, "steps": 1e15}}')
    argv = [tmp_path / a if a in ("A.csv", "scen.json") else a
            for a in argv]
    assert run_cli(argv + ["--out", tmp_path / "x"]) == 1
    assert "error: Unable to allocate" in capsys.readouterr().err


def test_non_finite_z0_exits_1(tmp_path, capsys):
    mat = write_matrix_csv(tmp_path / "A.csv", EXAMPLE_A)
    assert run_cli(["analyze", "--matrix", mat, "--y0", "1,2,3",
                    "--z0", "nan,0,0", "--steps", 8,
                    "--out", tmp_path / "x"]) == 1
    assert "error: z0 must be finite" in capsys.readouterr().err


def test_broken_scenario_json_reports_position(tmp_path, capsys):
    doc = tmp_path / "scen.json"
    doc.write_text('{"matrix": [[1, 0],\n [0, }')
    with pytest.raises(SystemExit) as exc:
        run_cli(["analyze", "--matrix", doc, "--y0", "1,1",
                 "--t1", 1.0, "--out", tmp_path / "x"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert re.search(r"line \d+ column \d+", err)


def test_repeated_eigenvalue_exits_2(tmp_path, capsys):
    mat = write_matrix_csv(tmp_path / "I.csv", [[1.0, 0.0], [0.0, 1.0]])
    assert run_cli(["analyze", "--matrix", mat, "--y0", "1,1",
                    "--t1", 1.0, "--out", tmp_path / "x"]) == 2
    assert "unsupported spectrum" in capsys.readouterr().err


@pytest.mark.parametrize("z0", [None, "0,1,0"])
def test_near_real_pair_exits_2(tmp_path, capsys, z0):
    # Im(lambda) = 3.2e-9: V rounds to 1, outside the closed forms, so the
    # worst case and the directional run are refused, not a ValueError
    mat = write_matrix_csv(tmp_path / "N.csv",
                           [[0.0, 1.0, 0.0], [-1e-17, 0.0, 0.0],
                            [0.0, 0.0, -1.0]])
    argv = ["analyze", "--matrix", mat, "--y0", "1,2,3", "--tol-group",
            1e-14, "--steps", 8, "--out", tmp_path / "x"]
    assert run_cli(argv + (["--z0", z0] if z0 else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("unsupported spectrum: V or W rounds to 1")
    assert "Traceback" not in err


@pytest.mark.parametrize("seed", [1, 10, 17])
def test_conjugated_near_real_pair_exits_2(tmp_path, capsys, seed):
    # dense-S conjugates of the same near-real matrix: V and W come out a
    # few ulps below 1, where the closed forms lose about u / (1 - V), up
    # to 53% of g.  spectral stores them as 1, so sweep refuses the pair
    # and analyze exits 2 with the refusal's message
    N = np.array([[0.0, 1.0, 0.0], [-1e-17, 0.0, 0.0], [0.0, 0.0, -1.0]])
    S = np.random.default_rng(seed).standard_normal((3, 3))
    A = S @ N @ np.linalg.inv(S)
    s = odecond.condition.Scenario(matrix=A, y0=[1.0, 2.0, 3.0],
                                   t_grid=np.linspace(0.0, 1.0, 8))
    with pytest.raises(odecond.errors.UnsupportedBlock,
                       match="V or W rounds to 1"):
        odecond.condition.sweep(s, analyze_spectrum(A, tol=1e-14))
    mat = write_matrix_csv(tmp_path / "N.csv", A)
    assert run_cli(["analyze", "--matrix", mat, "--y0", "1,2,3",
                    "--tol-group", 1e-14, "--steps", 8,
                    "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("unsupported spectrum: V or W rounds to 1")
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_grouping_tolerance_exits_1(tmp_path, capsys, tol):
    mat = write_matrix_csv(tmp_path / "A.csv", EXAMPLE_A)
    assert run_cli(["analyze", "--matrix", mat, "--y0", "1,2,3",
                    "--tol-group", tol, "--out", tmp_path / "x"]) == 1
    assert "tol must be positive and finite" in capsys.readouterr().err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize("flag, value, field, want", [
    ("--z0", "-0.6,0,0.8", "z0", (-0.6, 0.0, 0.8)),
    ("--y0", "-1,2,3", "y0", (-1.0, 2.0, 3.0)),
    ("--t0", "-1e3", "t_start", -1000.0),
])
def test_negative_value_after_flag(tmp_path, flag, value, field, want):
    mat = write_matrix_csv(tmp_path / "A.csv", EXAMPLE_A)
    argv = ["analyze", "--matrix", mat, "--y0", "1,2,3", "--out",
            str(tmp_path / "x"), flag, value]
    assert getattr(parse_config(argv), field) == want


def test_near_degenerate_projection_warns(tmp_path, capsys):
    b = analyze_spectrum(EXAMPLE_A).blocks[0]
    null = np.linalg.svd(np.vstack([b.w_hat.real, b.w_hat.imag]))[2][2]
    y0 = null + 1e-8 * b.right_major
    y0 /= np.linalg.norm(y0)
    mat = write_matrix_csv(tmp_path / "A.csv", EXAMPLE_A)
    out = tmp_path / "x"
    assert run_cli(["analyze", "--matrix", mat,
                    "--y0=" + ",".join(f"{v:.17g}" for v in y0), "--t1", 1.0,
                    "--steps", 5, "--out", out]) == 0
    warned = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("warning: ")]
    assert len(warned) == 1
    assert warned[0].startswith("warning: near-degenerate projection")
    with open(f"{out}.json") as fh:
        assert json.load(fh)["warnings"] == [warned[0][len("warning: "):]]


def test_zero_projection_exits_3(tmp_path, capsys):
    A = [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -2.0]]
    mat = write_matrix_csv(tmp_path / "R.csv", A)
    assert run_cli(["analyze", "--matrix", mat, "--y0", "0,0,1",
                    "--t1", 1.0, "--out", tmp_path / "x"]) == 3
    assert "genericity" in capsys.readouterr().err


# ----------------------------------------------------------------- demo

def test_demo_reference_table_all_pass(capsys):
    assert run_cli(["demo", "--steps", "256"]) == 0
    text = capsys.readouterr().out
    assert text.count("PASS") == 13
    assert "FAIL" not in text
    assert re.search(r"W1\s+0\.9986\s+0\.9986\d+\s+0\.9986\s+PASS", text)
    assert re.search(r"max_Kinf_a\s+1563\s+1563\.2\d+\s+1563\s+PASS", text)


def test_demo_runs_are_byte_identical(capsys):
    assert run_cli(["demo", "--steps", "128"]) == 0
    first = capsys.readouterr().out
    assert run_cli(["demo", "--steps", "128"]) == 0
    assert capsys.readouterr().out == first


def test_demo_writes_both_series(tmp_path, capsys):
    out = tmp_path / "demo"
    assert run_cli(["demo", "--steps", "64", "--out", out]) == 0
    for tag in ("a", "b"):
        cols = float_columns(f"{out}_{tag}.csv")
        assert cols["t"].size == 65
        assert np.all(np.isfinite(cols["k_exact"]))
        doc = json.load(open(f"{out}_{tag}.json"))
        assert doc["profile"]["block_kind"] == "complex"
    capsys.readouterr()


# ------------------------------------------------------------- envelope

def test_envelope_beta_zero_minimum_is_axis_value(tmp_path, capsys):
    out = tmp_path / "env"
    assert run_cli(["envelope", "--V", 0.4, "--W", 0.5,
                    "--steps", 90, "--out", out]) == 0
    h = float_columns(f"{out}_h.csv")
    assert h["beta"][0] == 0.0
    assert abs(h["h_min"][0] - 2.0) < 1e-9
    doc = json.load(open(f"{out}_extremes.json"))
    ref = h_extremes(VWPair(0.4, 0.5))
    assert abs(doc["h"]["maxmax"] - ref.maxmax) < 1e-12
    assert abs(doc["h"]["minmin"] - ref.minmin) < 1e-12
    capsys.readouterr()


def test_envelope_zero_v_is_flat(tmp_path, capsys):
    out = tmp_path / "flat"
    assert run_cli(["envelope", "--V", 0.0, "--W", 0.5,
                    "--steps", 36, "--out", out]) == 0
    f = float_columns(f"{out}_f.csv")
    np.testing.assert_allclose(f["f_max"], 2.0, rtol=1e-14)
    h = float_columns(f"{out}_h.csv")
    np.testing.assert_allclose(h["h_max"], 2.0, rtol=1e-14)
    np.testing.assert_allclose(h["h_min"], 2.0, rtol=1e-14)
    capsys.readouterr()


def test_envelope_ratio_curve_has_local_but_not_global_min(tmp_path, capsys):
    # V > W: the ratio kernel at beta = 0 dips at x = pi without reaching
    # the global minimum at x = 0
    out = tmp_path / "lng"
    assert run_cli(["envelope", "--V", 0.6, "--W", 0.5,
                    "--steps", 720, "--out", out]) == 0
    f = float_columns(f"{out}_f.csv")
    H = f["f_max"] / (1.0 + 0.6 * np.cos(f["x"]))
    i = np.arange(1, H.size - 1)
    local_min = i[(H[i] < H[i - 1]) & (H[i] < H[i + 1])]
    assert local_min.size == 1
    assert abs(f["x"][local_min[0]] - math.pi) < 0.02
    assert H[local_min[0]] > H.min() + 0.5
    assert abs(H.min() - 2.0) < 1e-9
    capsys.readouterr()


def test_envelope_rejects_out_of_range(tmp_path, capsys):
    # VWPair decides the domain [0, 1)^2 before any file is opened
    for V, W in [(1.2, 0.5), (-0.1, 0.5), (0.5, 1.0), ("nan", 0.5)]:
        assert run_cli(["envelope", "--V", V, "--W", W,
                        "--out", tmp_path / "x"]) == 1
        assert "must lie in [0, 1)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------- branches

def test_branches_rejects_boundary_pairs(tmp_path, capsys):
    # envelope takes V = 0 or W = 0; branch tracing needs the open square.
    # VWPair refuses nan and trace_branches the boundary, before any file
    # is opened
    for V, W, why in [(0.0, 0.5, "open interval (0, 1)"),
                      (0.5, 0.0, "open interval (0, 1)"),
                      (0.5, "nan", "[0, 1)")]:
        assert run_cli(["branches", "--V", V, "--W", W,
                        "--out", tmp_path / "x"]) == 1
        assert why in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def branch_table(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    table = {}
    for r in rows:
        rec = table.setdefault(int(r["branch_id"]), {"source": r["source"],
                                                     "beta": [], "h": []})
        rec["beta"].append(float(r["beta"]))
        rec["h"].append(float(r["h"]))
    return table


def test_branches_axis_family_matches_closed_form(tmp_path, capsys):
    out = tmp_path / "br"
    assert run_cli(["branches", "--V", 0.45, "--W", 0.5,
                    "--steps", 360, "--out", out]) == 0
    table = branch_table(f"{out}_branches.csv")
    axis = [rec for rec in table.values() if rec["source"] == "axis_branch"]
    assert axis
    for rec in axis:
        beta = np.array(rec["beta"])
        np.testing.assert_allclose(rec["h"], 1.0 / (1.0 - 0.5 * np.cos(beta)),
                                   atol=1e-9)
    capsys.readouterr()


def test_branches_h_polylines_monotone_and_losses_logged(tmp_path, capsys):
    out = tmp_path / "mono"
    assert run_cli(["branches", "--V", 0.45, "--W", 0.5,
                    "--steps", 360, "--out", out]) == 0
    table = branch_table(f"{out}_branches.csv")
    assert len(table) == 4
    for rec in table.values():
        d = np.diff(rec["h"])
        assert (d >= -1e-9).all() or (d <= 1e-9).all()
        assert (np.diff(rec["beta"]) > 0).all()
    # two interior branches end before beta reaches pi; both get logged
    log = open(f"{out}_lost.log").read()
    assert log.count("branch lost") == 2
    capsys.readouterr()


def test_branches_high_v_topology(tmp_path, capsys):
    # V > 2W/(1+W): no interior stationary pair, just the axis family and
    # the global-maximum branch climbing to (1+V)/((1-V)(1-W))
    out = tmp_path / "hiv"
    assert run_cli(["branches", "--V", 0.7, "--W", 0.5,
                    "--steps", 360, "--out", out]) == 0
    table = branch_table(f"{out}_branches.csv")
    assert len(table) == 2
    sources = sorted(rec["source"] for rec in table.values())
    assert sources == ["axis_branch", "general_branch"]
    top = max(max(rec["h"]) for rec in table.values())
    np.testing.assert_allclose(top, 1.7 / (0.3 * 0.5), rtol=1e-6)
    assert open(f"{out}_lost.log").read() == ""
    capsys.readouterr()


def test_runtime_does_not_import_scipy(tmp_path):
    # scipy is a test dependency only (the oracles' independent reference),
    # and this session has loaded it already, so the check runs in a fresh
    # interpreter that imports the package and runs commands.  numpy loads
    # fft and polynomial lazily; neither is needed, and each costs memory
    envelope = ["envelope", "--V", "0.5", "--W", "0.4", "--steps", "4",
                "--out", str(tmp_path / "e")]
    code = ("import contextlib, io, sys\n"
            "import odecond, odecond.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    odecond.cli.main(['demo', '--steps', '2'])\n"
            f"    odecond.cli.main({envelope!r})\n"
            "lazy = ('numpy.fft', 'numpy.polynomial')\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.partition('.')[0] == 'scipy'\n"
            "             or m.startswith(lazy)))\n")
    src = str(Path(odecond.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_export_resolves():
    # each name of a module's __all__ is defined there, and each public
    # name of the package is the object its module exports under that name
    mods = [importlib.import_module(f"odecond.{name}") for name in
            ("cli", "condition", "errors", "matrix_core", "minimax",
             "oscillator", "spectral")]
    for mod in mods:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
    for name, obj in vars(odecond).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        assert any(getattr(mod, name, None) is obj
                   and name in getattr(mod, "__all__", (name,))
                   for mod in mods), name
