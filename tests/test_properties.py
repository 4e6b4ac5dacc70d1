"""Property tests: every command line and every input file ends with a
documented exit code, and k_exact does not see a spectral shift.

The CLI runs in-process through odecond.cli.main.  A parse failure leaves
through SystemExit, every other outcome through the return value; any
other exception is a traceback and fails the test, as does a
RuntimeWarning (an error under this suite's filter).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_A, unit

from odecond.cli import main
from odecond.condition import Scenario, k_exact

EXIT_CODES = {0, 1, 2, 3}

# the value alphabet: signs, non-finite and malformed tokens, |x| <= 1e3
NUMBER = st.one_of(
    st.sampled_from(["-1", "-0.5", "0", "1", "2", "0.75", "-1e3", "1e3",
                     "1e-300", "nan", "-nan", "inf", "-inf", "", " ", "x",
                     "1,", "--1", "1e3.5", "0x10"]),
    st.floats(-1e3, 1e3, allow_nan=False).map(repr),
)
VECTOR = st.lists(NUMBER, min_size=1, max_size=6).map(",".join)
STEPS = st.one_of(st.integers(-2, 64).map(str),
                  st.sampled_from(["", "x", "2.5", "nan", "-1"]))
NORM = st.sampled_from(["1", "2", "inf", "3", "", "two"])


def _run(argv):
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    assert code in EXIT_CODES, (argv, code)
    return code


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A fixed set of matrix files, one per kind of spectrum and of
    failure, plus an output directory."""
    d = tmp_path_factory.mktemp("props")
    files = {
        "demo.csv": EXAMPLE_A,
        "real.csv": [[-1.0, 2.0], [0.0, -3.0]],
        "identity.csv": np.eye(3),
        "jordan.csv": [[1.0, 1.0], [0.0, 1.0]],
        "rotation.csv": [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0],
                         [0.0, 0.0, -2.0]],
    }
    paths = []
    for name, A in files.items():
        path = d / name
        path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n"
                                for row in np.asarray(A)))
        paths.append(str(path))
    scen = d / "scenario.json"
    scen.write_text(json.dumps({"matrix": EXAMPLE_A.tolist(),
                                "y0": [1.0, 2.0, 3.0], "norm": "2",
                                "t": {"start": 0.0, "end": 3.0,
                                      "steps": 16}}))
    paths += [str(scen), str(d / "missing.csv"), str(d)]
    return {"matrices": paths, "out": str(d / "run"),
            "bad_out": str(d / "no" / "such" / "dir" / "run"), "dir": d}


# values that let a command get past parsing, so the draws reach the
# sweep, the writers and the spot check, not only the parser
GOOD = {
    "--y0": ["1,2,3", "1,0.5", "0,1", "1,2,3,4"],
    "--z0": ["0.6,0,0.8", "1,0,0", "0.5,0,-0.5", "1,0", "0,1"],
    "--norm": ["1", "2", "inf"],
    "--t0": ["0", "-1", "-1e3", "0.5"],
    "--t1": ["1", "6", "12.5", "1e3"],
    "--seed": ["0", "7"],
    "--tol-group": ["1e-8", "1e-3"],
    "--V": ["0", "0.45", "0.8", "0.999"],
    "--W": ["0", "0.5", "0.3", "0.999"],
}
FLAGS = {
    "analyze": ["--matrix", "--y0", "--z0", "--norm", "--t0", "--t1",
                "--out", "--seed", "--tol-group"],
    "demo": ["--out"],
    "envelope": ["--V", "--W", "--out"],
    "branches": ["--V", "--W", "--out"],
    "bogus": ["--out"],
}


@st.composite
def command_lines(draw, matrices, out, bad_out):
    command = draw(st.sampled_from(sorted(FLAGS)))
    drawn = {"--matrix": st.sampled_from(matrices + [""]),
             "--out": st.sampled_from([out, out, out, bad_out, ""])}
    for flag, good in GOOD.items():
        bad = VECTOR if flag in ("--y0", "--z0") else NUMBER
        drawn[flag] = st.one_of(st.sampled_from(good), bad)
    # --steps is always bounded: the defaults (up to 1024) are exercised
    # by the example tests, and would only slow every draw
    argv = [command, "--steps", draw(STEPS)]
    for flag in FLAGS[command]:
        if draw(st.integers(0, 9)):  # now and then a flag is left out
            argv += [flag, draw(drawn[flag])]
    if not draw(st.integers(0, 9)):  # a flag of another command, no value
        argv.append(draw(st.sampled_from(["--V", "--y0", "--bogus", "-h"])))
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_command_line_ends_with_an_exit_code(inputs, data):
    argv = data.draw(command_lines(inputs["matrices"], inputs["out"],
                                   inputs["bad_out"]))
    _run(argv)


def _mostly(good, bad):
    """A value from good, or now and then a drawn malformation."""
    return st.one_of(st.sampled_from(good), bad)


@st.composite
def matrix_csvs(draw):
    """Matrix CSV text of n <= 6 rows, square most of the time, with cells
    from the value alphabet; y0 of the matching length most of the time."""
    n = draw(st.integers(1, 6))
    width = draw(st.sampled_from([n, n, n, n + 1, max(n - 1, 1)]))
    cell = _mostly(["0", "1", "-2", "0.5", "3"], NUMBER)
    rows = [",".join(draw(cell) for _ in range(width)) for _ in range(n)]
    if not draw(st.integers(0, 5)):
        rows.insert(draw(st.integers(0, n)), draw(st.sampled_from(["", "1"])))
    y0 = ",".join(draw(_mostly(["1", "-1", "2", "0"], NUMBER))
                  for _ in range(n))
    return "".join(row + "\n" for row in rows), draw(_mostly([y0], VECTOR))


@settings(max_examples=150, deadline=None)
@given(case=matrix_csvs(), z0=st.one_of(st.none(), VECTOR), norm=NORM)
def test_every_matrix_csv_ends_with_an_exit_code(inputs, case, z0, norm):
    text, y0 = case
    path = inputs["dir"] / "drawn.csv"
    path.write_text(text)
    argv = ["analyze", "--matrix", path, "--y0", y0, "--norm", norm,
            "--steps", "8", "--t1", "2", "--out", inputs["out"]]
    if z0 is not None:
        argv += ["--z0", z0]
    _run(argv)


JSON_NUMBER = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 1, 2, -1, 0.5, 1e3,
                     -1e3, 1e-300, True, None, "1", "x", ""]),
    st.floats(-1e3, 1e3, allow_nan=False),
)
JSON_VALUE = st.recursive(
    JSON_NUMBER, lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.dictionaries(st.sampled_from(["start", "end", "steps", "x"]),
                        inner, max_size=4)),
    max_leaves=40)
JSON_VECTOR = st.one_of(st.lists(JSON_NUMBER, min_size=1, max_size=6),
                        JSON_VALUE)
SCENARIO = st.fixed_dictionaries({
    "matrix": _mostly(
        [EXAMPLE_A.tolist(), [[-1.0, 2.0], [0.0, -3.0]], [[0.0, 1.0],
                                                          [-1.0, 0.0]]],
        st.one_of(st.lists(st.lists(JSON_NUMBER, min_size=1, max_size=6),
                           max_size=6), JSON_VALUE)),
    "y0": _mostly([[1.0, 2.0, 3.0], [1.0, 0.5]], JSON_VECTOR),
    "t": _mostly([{}], st.fixed_dictionaries({
        "start": _mostly([0.0, -1.0], JSON_NUMBER),
        "end": _mostly([1.0, 6.0], JSON_NUMBER),
        "steps": _mostly([8, 2], st.one_of(st.integers(-2, 1000),
                                           JSON_NUMBER))})),
}, optional={
    "z0": _mostly([None, [0.6, 0.0, 0.8], [1.0, 0.0]], JSON_VECTOR),
    "norm": st.sampled_from([1, 2, "inf", "2", 3, None, 2.0, "x"]),
})


@settings(max_examples=150, deadline=None)
@given(doc=st.one_of(SCENARIO, JSON_VALUE), cut=st.integers(0, 3))
def test_every_scenario_json_ends_with_an_exit_code(inputs, doc, cut):
    text = json.dumps(doc)
    if cut == 3:  # a truncated document
        text = text[: len(text) * 3 // 4]
    path = inputs["dir"] / "drawn.json"
    path.write_text(text)
    _run(["analyze", "--matrix", path, "--out", inputs["out"]])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 6),
       t=st.floats(0.01, 10.0), ct=st.floats(-1e3, 1e3),
       p=st.sampled_from([1, 2, np.inf]), directional=st.booleans())
def test_k_exact_invariant_under_identity_shift(seed, n, t, ct, p,
                                                directional):
    # e^{t(A - cI)} = e^{-ct} e^{tA}, and the factor cancels in the ratio
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    y0 = rng.normal(size=n)
    z0 = unit(rng.normal(size=n), p) if directional else None
    grid = np.array([t])
    k = k_exact(Scenario(matrix=A, y0=y0, z0=z0, norm_p=p, t_grid=grid), t)
    shifted = Scenario(matrix=A - ct / t * np.eye(n), y0=y0, z0=z0,
                       norm_p=p, t_grid=grid)
    assert k_exact(shifted, t) == pytest.approx(k, rel=1e-12)
