"""The CSV kernel against Python's '%.17g', cell by cell and row by row,
and every CSV the commands write against a per-cell writer."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odecond import cli, condition, g17


def per_cell(header, table, heads=None):
    """The reference: every cell formatted by '%.17g' on its own."""
    lines = [",".join(header) + "\n"]
    for k, row in enumerate(np.asarray(table, dtype=float).tolist()):
        head = "" if heads is None else heads[k].decode()
        lines.append(head + ",".join("%.17g" % v for v in row) + "\n")
    return "".join(lines)


def kernel(header, table, heads=None):
    buf = io.StringIO()
    g17.write_csv(buf, header, table, heads)
    return buf.getvalue()


def assert_cells_match(values, cols=8):
    """values as one table, row by row, and as one cell per row."""
    values = np.asarray(values, dtype=float).ravel()
    values = np.concatenate((values, np.ones(-values.size % cols)))
    cells = ["%.17g" % v for v in values.tolist()]
    header = [f"c{j}" for j in range(cols)]
    assert kernel(header, values.reshape(-1, cols)) == \
        ",".join(header) + "\n" + "".join(",".join(cells[k:k + cols]) + "\n"
                  for k in range(0, len(cells), cols))
    assert kernel(["c"], values.reshape(-1, 1)) == \
        "c\n" + "".join(c + "\n" for c in cells)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=48),
       st.integers(min_value=1, max_value=8))
def test_kernel_matches_percent_g_on_every_kind_of_float(values, cols):
    # st.floats() draws nan, +-inf, +-0 and subnormals as well
    assert_cells_match(values, cols)


def test_kernel_matches_percent_g_on_random_bit_patterns():
    bits = np.random.default_rng(17).integers(0, 2 ** 64, size=2 ** 18,
                                              dtype=np.uint64)
    assert_cells_match(bits.view(np.float64))


def test_kernel_matches_percent_g_on_edge_values():
    edges = []
    for k in range(-324, 309):
        x = float(f"1e{k}")
        edges += [x, np.nextafter(x, 0.0), np.nextafter(x, math.inf)]
    edges += [2.0 ** k for k in range(-1074, 1024)]
    for x in (1e16, 1e17):
        edges += [x + i for i in range(-1000, 1001)]
    for x in (1e-5, 1e-4, 1e16, 1e17):
        edges += [np.nextafter(x, 0.0), x, np.nextafter(x, math.inf)]
    edges += [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              # the double nearest 1e-280 lies below it
              9.9999999999999996e-281,
              # exact ties of the 17th digit, which round to even
              1125899906842624.25, 1125899906842624.75,
              0.0, -0.0, math.inf, -math.inf, math.nan]
    edges = np.array(edges)
    assert_cells_match(np.concatenate((edges, -edges)))


def test_chunks_are_one_write_each():
    rows = 2 * g17.CHUNK_ROWS + 37
    table = np.random.default_rng(5).standard_normal((rows, 3)) * 1e3
    heads = np.array([f"{k % 7},src{k % 3}," for k in range(rows)],
                     dtype=np.bytes_)
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    g17.write_csv(Recorder(), ["id", "source", "a", "b", "c"], table, heads)
    assert len(writes) == 3
    assert writes[0].startswith("id,source,a,b,c\n0,src0,")
    assert "".join(writes) == per_cell(["id", "source", "a", "b", "c"],
                                       table, heads)
    assert kernel(["a"], np.empty((0, 1))) == "a\n"


# --------------------------------------------------------------- commands

@pytest.fixture
def written(monkeypatch):
    """The (header, table, heads) of every write_csv call of the commands."""
    calls = []

    def spy(stream, header, table, heads=None):
        calls.append((tuple(header), np.array(table, dtype=float),
                      None if heads is None else np.array(heads)))
        g17.write_csv(stream, header, table, heads)

    monkeypatch.setattr(cli, "write_csv", spy)
    monkeypatch.setattr(condition, "write_csv", spy)
    return calls


def assert_files_match(paths, calls):
    assert len(calls) == len(paths)
    for path, call in zip(paths, calls):
        with open(path) as fh:
            assert fh.read() == per_cell(*call), path


def test_demo_csvs_match_per_cell_writer(tmp_path, written, capsys):
    out = str(tmp_path / "demo")
    cli.main(["demo", "--steps", "256", "--out", out])
    assert_files_match([f"{out}_a.csv", f"{out}_b.csv"], written)
    capsys.readouterr()


@pytest.mark.parametrize("z0", [None, "0,1,0"], ids=["worst", "directional"])
@pytest.mark.parametrize("p", ["1", "2", "inf"])
def test_analyze_csv_matches_per_cell_writer(tmp_path, written, capsys, p,
                                             z0):
    # y0 lies mostly along the decaying eigenvalue -0.5, so the dominance
    # sums exceed 1 up to t of about 5: precision_bound is inf there
    mat = tmp_path / "A.csv"
    mat.write_text("0,1,0\n-1,0,0\n0.3,0,-0.5\n")
    out = str(tmp_path / "run")
    argv = ["analyze", "--matrix", str(mat), "--y0", "0.1,0,1", "--norm", p,
            "--t1", "12", "--steps", "200", "--out", out]
    if z0 is not None:
        argv.append("--z0=" + z0)
    assert cli.main(argv) == 0
    assert_files_match([f"{out}.csv"], written)
    assert ",inf\n" in open(f"{out}.csv").read()
    capsys.readouterr()


def test_envelope_csvs_match_per_cell_writer(tmp_path, written, capsys):
    out = str(tmp_path / "env")
    assert cli.main(["envelope", "--V", "0.55", "--W", "0.55",
                     "--steps", "180", "--out", out]) == 0
    assert_files_match([f"{out}_f.csv", f"{out}_h.csv"], written)
    capsys.readouterr()


def test_branches_csv_matches_per_cell_writer(tmp_path, written, capsys):
    out = str(tmp_path / "br")
    assert cli.main(["branches", "--V", "0.55", "--W", "0.55",
                     "--steps", "90", "--out", out]) == 0
    assert_files_match([f"{out}_branches.csv"], written)
    assert "branch lost" in open(f"{out}_lost.log").read()
    capsys.readouterr()
