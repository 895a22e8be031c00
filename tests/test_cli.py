"""Command-line surface: output documents, file parsing, option
validation, exit codes, and agreement with the library calls each
subcommand wraps.
"""
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from conftest import THETA_BC3, THETA_HUANG
from fdrdist import (
    InputError,
    NumericError,
    SimConfig,
    TestingSetup,
    bh_count,
    bh_pmf,
    bh_pmf_uniform_exact,
    bonferroni_count,
    bonferroni_pmf_copula,
    empirical_count_distribution,
    normal_approx,
    power_table,
)
from fdrdist import cli as cli_module
from fdrdist.cli import _MISSING_TOKENS, _is_header_token, main, read_pvalues


@pytest.fixture()
def runner():
    return CliRunner()


def _invoke(runner, args, **kw):
    result = runner.invoke(main, args, catch_exceptions=False, **kw)
    return result


def _json(result):
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


# ------------------------------------------------------------ file parsing

def test_read_plain_file(tmp_path):
    f = tmp_path / "p.txt"
    f.write_text("# a comment\n0.5\n\n0.25\n1.0\n")
    values, lines, skipped = read_pvalues(str(f))
    np.testing.assert_array_equal(values, [0.5, 0.25, 1.0])
    assert lines == [2, 4, 5]
    assert skipped == 0


def test_read_delimited_by_name_skips_missing(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("gene,p\ng1,0.5\ng2,na\ng3,0.125\ng4,NaN\n")
    values, lines, skipped = read_pvalues(str(f), column="p")
    np.testing.assert_array_equal(values, [0.5, 0.125])
    assert lines == [2, 4]
    assert skipped == 2


def test_read_delimited_by_index_detects_header(tmp_path):
    headered = tmp_path / "h.csv"
    headered.write_text("gene,p\ng1,0.5\ng2,0.25\n")
    bare = tmp_path / "b.csv"
    bare.write_text("g1,0.5\ng2,0.25\n")
    for path in (headered, bare):
        values, _, _ = read_pvalues(str(path), column="1")
        np.testing.assert_array_equal(values, [0.5, 0.25])


def test_read_by_index_takes_only_the_first_line_as_header(tmp_path):
    # a later non-numeric cell is an error, as in a plain file, not a header
    f = tmp_path / "late.csv"
    f.write_text("x,0.1\ny,0.2\nz,abc\nw,0.3\n")
    with pytest.raises(InputError, match=r"line 3: 'abc' is not a number"):
        read_pvalues(str(f), column="1")
    plain = tmp_path / "late.txt"
    plain.write_text("0.1\n0.2\nabc\n0.3\n")
    with pytest.raises(InputError, match=r"line 3: 'abc' is not a number"):
        read_pvalues(str(plain))
    # comments and blank lines before the header do not make it a later line
    g = tmp_path / "head.csv"
    g.write_text("# note\n\ngene,p\ng1,0.5\ng2,q\n")
    with pytest.raises(InputError, match=r"line 5: 'q' is not a number"):
        read_pvalues(str(g), column="1")
    h = tmp_path / "ok.csv"
    h.write_text("# note\n\ngene,p\ng1,0.5\ng2,0.25\n")
    values, lines, _ = read_pvalues(str(h), column="1")
    np.testing.assert_array_equal(values, [0.5, 0.25])
    assert lines == [4, 5]


def test_read_rejects_a_negative_column_index(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("g1,0.5\ng2,0.25\n")
    for column in ("-1", "-2"):
        with pytest.raises(InputError, match="column"):
            read_pvalues(str(f), column=column)


def test_read_errors_name_file_and_line(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("0.5\noops\n")
    with pytest.raises(Exception, match=r"line 2.*'oops'"):
        read_pvalues(str(f))
    g = tmp_path / "range.txt"
    g.write_text("0.5\n1.5\n")
    with pytest.raises(Exception, match=r"line 2.*outside"):
        read_pvalues(str(g))


@pytest.mark.parametrize("name, text, column, lines", [
    ("bom.txt", "\ufeff0.5\n0.01\n", None, [1, 2]),
    ("bom.csv", "\ufeffpvalue,gene\n0.5,g1\n0.01,g2\n", "pvalue", [2, 3]),
], ids=["plain", "delimited"])
def test_read_accepts_a_utf8_byte_order_mark(runner, tmp_path, name, text, column, lines):
    # an Excel "CSV UTF-8" export starts with U+FEFF
    f = tmp_path / name
    f.write_text(text, encoding="utf-8")
    args = ["count", str(f), "--alpha", "0.05"] + (["--column", column] if column else [])
    assert _json(_invoke(runner, args))["result"]["n"] == 2
    values, got, _ = read_pvalues(str(f), column=column)
    np.testing.assert_array_equal(values, [0.5, 0.01])
    assert got == lines


def test_read_undecodable_file_is_an_input_error(runner, tmp_path):
    f = tmp_path / "latin1.txt"
    f.write_bytes(b"0.5\n\xe9\n")
    for command in (["count", str(f), "--alpha", "0.05"], ["fit", str(f)]):
        result = _invoke(runner, command)
        assert result.exit_code == 2
        assert f"cannot read {f}: 'utf-8' codec can't decode byte 0xe9" in result.output


def _read_pvalues_loop(path, column=None, delimiter=None):
    """The per-line parser that ``read_pvalues`` replaced, kept as its
    oracle; it opens the file as UTF-8 with an optional byte-order mark,
    as ``read_pvalues`` does."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            raw_lines = fh.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    sep = delimiter or ","
    col_index = None
    if column is not None:
        try:
            col_index = int(column)
        except ValueError:
            col_index = None
        if col_index is not None and col_index < 0:
            raise InputError(f"column index must be >= 0, got {column}")
    values, lines, skipped = [], [], 0
    seen = False
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        first, seen = not seen, True  # only the first data line may be a header
        if column is None:
            token = line
        else:
            cells = [c.strip() for c in line.split(sep)]
            if col_index is None:
                # first data line doubles as the header in name mode
                if column not in cells:
                    raise InputError(
                        f"{path}: header line {lineno} has no column "
                        f"named {column!r} (columns: {cells})"
                    )
                col_index = cells.index(column)
                continue
            if col_index >= len(cells):
                raise InputError(
                    f"{path} line {lineno}: only {len(cells)} columns, "
                    f"column {col_index} requested"
                )
            token = cells[col_index]
            if first and _is_header_token(token):
                continue
        if token.lower() in _MISSING_TOKENS:
            skipped += 1
            continue
        try:
            val = float(token)
        except ValueError:
            raise InputError(f"{path} line {lineno}: {token!r} is not a number")
        if val != val:  # NaN parses as a float; treat as missing
            skipped += 1
            continue
        if not 0.0 <= val <= 1.0:
            raise InputError(
                f"{path} line {lineno}: p-value {val!r} outside [0, 1]"
            )
        values.append(val)
        lines.append(lineno)
    if not values:
        raise InputError(f"{path}: no usable p-values found")
    return np.array(values), lines, skipped


def _mixed_case(word):
    return st.tuples(*(st.sampled_from([c.lower(), c.upper()]) for c in word)).map("".join)


_NUMBERS = st.one_of(
    st.floats(0.0, 1.0).flatmap(lambda v: st.sampled_from(
        [repr(v), "%.17g" % v, "%.3e" % v, "%.4f" % v, "%.2E" % v])),
    st.sampled_from(["0", "1", "-0", "+.5", "0.", "1e-400", "5e-324", "1_0e-1",
                     "0x1p-3", "٣e-1", "1.0000000000000000000000000000001"]),
)
_GOOD = st.one_of(
    _NUMBERS,
    st.sampled_from(sorted(_MISSING_TOKENS)).flatmap(_mixed_case),
    st.sampled_from(["nan", "-nan", "NaN", "+NAN", "nan(123)"]),
)
_FAULTY = st.sampled_from(["2.0", "-0.5", "1.0000001", "inf", "-Infinity", "1e400", "7",
                           "abc", "0.5.5", "--1", "1__0", "0.5x", "0.5,0.25", "p", "gene",
                           "#"])
_PAD = st.sampled_from(["", " ", "\t", "  \t "])
# faulty cells are drawn a quarter of the time, so that many files parse
_CELL = st.tuples(_PAD, st.one_of(_GOOD, _GOOD, _GOOD, _FAULTY), _PAD).map("".join)
_FORMATS = st.one_of(
    st.just((None, None)),
    st.tuples(st.sampled_from(["p", "gene", "q", "0", "1", "2"]),
              st.sampled_from([None, ",", "\t", ";"])),
)


def _fuzz_file(fmt):
    """(format, lines) for a reader format (column, delimiter): an
    optional header, then rows, blanks and comments."""
    sep = fmt[1] or ","
    header = st.permutations(["gene", "p", "q"]).map(lambda names: [sep.join(names)])
    row = st.lists(_CELL, min_size=1, max_size=4 if fmt[0] else 1).map(sep.join)
    line = st.one_of(row, row, row, _PAD, st.sampled_from(["# comment", "  #0.5", "#"]))
    lines = st.tuples(st.one_of(st.just([]), header), st.lists(line, min_size=1, max_size=12))
    return st.tuples(st.just(fmt), lines.map(lambda parts: parts[0] + parts[1]))


@settings(max_examples=300)
@given(case=_FORMATS.flatmap(_fuzz_file), bom=st.booleans(),
       newline=st.sampled_from(["\n", "\r\n"]))
# a value out of range on line 3 is reported before a bad cell on line 5
@example(case=((None, None), ["0.5", "", "2.0", "# note", "abc"]), bom=False, newline="\n")
@example(case=(("1", None), ["g,0.5", "g,na", "g,-1", "g", "g,abc"]), bom=False,
         newline="\n")
@example(case=(("p", "\t"), ["gene\tp", "g1\t0.5", "g2\tNULL", "g3\tnan", "g4\t 0.25 "]),
         bom=True, newline="\r\n")
def test_read_pvalues_matches_the_per_line_oracle(tmp_path_factory, case, bom, newline):
    fmt, lines = case
    path = tmp_path_factory.mktemp("fuzz") / "p.txt"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(("\ufeff" if bom else "") + "".join(x + newline for x in lines))

    def outcome(reader):
        try:
            values, rows, skipped = reader(str(path), *fmt)
        except InputError as exc:
            return str(exc)
        assert values.dtype == np.float64
        return values.tobytes(), rows, skipped

    assert outcome(read_pvalues) == outcome(_read_pvalues_loop)


# ---------------------------------------------------------------- bh-dist

def test_bh_dist_uniform_matches_closed_form(runner):
    doc = _json(_invoke(runner, ["bh-dist", "--n", "10", "--alpha", "0.05",
                                 "--uniform"]))
    assert doc["command"] == "bh-dist"
    assert doc["config"]["n"] == 10
    assert doc["config"]["theta"] == []
    pmf = doc["result"]["pmf"]
    for k, val in enumerate(pmf):
        assert val == pytest.approx(bh_pmf_uniform_exact(10, 0.05, k),
                                    rel=1e-12)


def test_bh_dist_fitted_summary_matches_library(runner):
    doc = _json(_invoke(runner, [
        "bh-dist", "--n", "100", "--alpha", "0.05",
        "--theta", "0.158,0.0492,0.0201"]))
    setup = TestingSetup(100, 0.05, THETA_BC3)
    dist = bh_pmf(setup)
    approx = normal_approx(setup)
    assert doc["result"]["mean"] == pytest.approx(dist.mean(), rel=1e-15)
    assert doc["result"]["sd"] == pytest.approx(dist.sd(), rel=1e-15)
    assert doc["result"]["pr_zero"] == pytest.approx(dist.prob(0), rel=1e-15)
    assert doc["result"]["normal_mu"] == pytest.approx(approx.mu, rel=1e-15)
    assert doc["result"]["normal_sigma"] == pytest.approx(approx.sigma,
                                                          rel=1e-15)


def test_json_and_csv_carry_identical_numbers(runner):
    args = ["bh-dist", "--n", "20", "--alpha", "0.1", "--uniform"]
    doc = _json(_invoke(runner, args))
    csv_out = _invoke(runner, ["--csv"] + args)
    assert csv_out.exit_code == 0
    data_lines = [ln for ln in csv_out.output.splitlines()
                  if ln and not ln.startswith("#")]
    assert data_lines[0] == "k,pmf,borel_tanner_pmf"
    for line in data_lines[1:]:
        k, pmf, _ = line.split(",")
        assert float(pmf) == doc["result"]["pmf"][int(k)]
    assert "# config.n=20" in csv_out.output
    assert "# command=bh-dist" in csv_out.output


def test_theta_and_uniform_are_exclusive(runner):
    both = _invoke(runner, ["bh-dist", "--n", "5", "--alpha", "0.05",
                            "--uniform", "--theta", "0.1"])
    assert both.exit_code == 2
    neither = _invoke(runner, ["bh-dist", "--n", "5", "--alpha", "0.05"])
    assert neither.exit_code == 2
    assert "error:" in neither.output


# -------------------------------------------------------------------- fit

def test_fit_selects_and_reports(runner, tmp_path):
    cfg = SimConfig(n_tests=800, replicates=1, marginal=THETA_BC3,
                    alpha=0.05, seed=7)
    from fdrdist import sample_pvalues
    p = sample_pvalues(cfg)[0]
    f = tmp_path / "p.txt"
    f.write_text("\n".join("%.17g" % v for v in p) + "\n")
    doc = _json(_invoke(runner, ["fit", str(f), "--max-order", "3"]))
    res = doc["result"]
    assert res["converged"] is True
    assert res["n_obs"] == 800
    assert 1 <= res["selected_order"] <= 3
    assert len(res["theta_hat"]) == res["selected_order"]
    assert res["pi0_hat"] == res["theta0_hat"]
    assert len(res["trace"]) >= res["selected_order"]
    assert all("two_delta" in t for t in res["trace"][1:])
    # reruns are bit-identical
    again = _invoke(runner, ["fit", str(f), "--max-order", "3"])
    assert again.output == json.dumps(doc, indent=2) + "\n"


def test_fit_fixed_order(runner, tmp_path):
    rng = np.random.default_rng(5)
    f = tmp_path / "u.txt"
    f.write_text("\n".join(str(v) for v in rng.uniform(size=200)))
    doc = _json(_invoke(runner, ["fit", str(f), "--order", "2"]))
    assert doc["result"]["selected_order"] == 2


def test_fit_rejects_zero_pvalue_with_line_number(runner, tmp_path):
    f = tmp_path / "z.txt"
    f.write_text("0.5\n0.25\n0.0\n0.75\n")
    result = _invoke(runner, ["fit", str(f)])
    assert result.exit_code == 2
    assert "line 3" in result.output
    assert "floor" in result.output


def test_fit_missing_file(runner, tmp_path):
    result = _invoke(runner, ["fit", str(tmp_path / "nope.txt")])
    assert result.exit_code == 2
    assert "cannot read" in result.output


# ------------------------------------------------------------------ count

def test_count_matches_library_and_reports_skips(runner, tmp_path):
    f = tmp_path / "t.csv"
    rows = ["gene,p", "g1,0.004", "g2,na", "g3,0.02", "g4,0.8", "g5,0.001"]
    f.write_text("\n".join(rows) + "\n")
    doc = _json(_invoke(runner, ["count", str(f), "--alpha", "0.05",
                                 "--column", "p"]))
    kept = np.array([0.004, 0.02, 0.8, 0.001])
    assert doc["result"]["n"] == 4
    assert doc["result"]["bh"] == bh_count(kept, 0.05)
    assert doc["result"]["bonferroni"] == bonferroni_count(kept, 0.05)
    assert doc["config"]["skipped_rows"] == 1
    by_index = _json(_invoke(runner, ["count", str(f), "--alpha", "0.05",
                                      "--column", "1"]))
    assert by_index["result"] == doc["result"]


# -------------------------------------------------------------- dependent

def test_dependent_eps_and_z_sigma_are_equivalent(runner):
    base = ["dependent", "--n", "50", "--alpha", "0.05",
            "--theta", "0.158,0.0492,0.0201"]
    via_eps = _json(_invoke(runner, base + ["--eps", "0.042,0.0253,0.00375"]))
    via_z = _json(_invoke(runner, base + ["--z", "0.5",
                                          "--sigma", "0.084,0.0506,0.0075"]))
    assert via_eps["result"]["pmf"] == via_z["result"]["pmf"]
    assert via_eps["result"]["correlation"] == via_z["result"]["correlation"]
    both = _invoke(runner, base + ["--eps", "0.01,0.01,0.001", "--z", "0.5",
                                   "--sigma", "0.084,0.0506,0.0075"])
    assert both.exit_code == 2
    neither = _invoke(runner, base)
    assert neither.exit_code == 2
    assert "either --eps or both" in neither.output


@pytest.mark.parametrize("args", [
    ["bh-dist", "--uniform"],
    ["bonf-dist", "--uniform"],
    ["bonf-dist", "--uniform", "--poisson"],
    ["bonf-dist", "--theta", "0.158,0.0492,0.0201", "--gamma", "1.05"],
    ["dependent", "--theta", "0.158,0.0492,0.0201", "--eps", "0,0,0"],
])
def test_tail_tol_outside_unit_interval_is_bad_input(runner, args):
    for bad in ("0", "1.5", "nan"):
        result = _invoke(runner, args + ["--n", "50", "--alpha", "0.05",
                                         "--tail-tol", bad])
        assert result.exit_code == 2
        assert "tail_tol must lie in (0, 1)" in result.output


def test_bh_dist_tail_tol_below_double_floor_is_bad_input(runner):
    # double precision cannot resolve a step-down tail below 1e-12
    result = _invoke(runner, ["bh-dist", "--uniform", "--n", "50",
                              "--alpha", "0.05", "--tail-tol", "1e-13"])
    assert result.exit_code == 2
    assert "tail_tol must be >= 1e-12" in result.output


def test_bonf_dist_copula_document(runner):
    doc = _json(_invoke(runner, ["bonf-dist", "--n", "50", "--alpha", "0.05",
                                 "--theta", "0.158,0.0492,0.0201",
                                 "--gamma", "1.3"]))
    assert "precision_bits" not in doc["config"]
    res = doc["result"]
    assert res["model"] == "gumbel-copula"
    assert "precision_bits" not in res
    assert 0.0 <= res["quadrature_disagreement"] <= 1e-10
    lib = bonferroni_pmf_copula(TestingSetup(50, 0.05, THETA_BC3), 1.3)
    assert res["pmf"] == [float("%.17g" % v) for v in lib.pmf]
    plain = _json(_invoke(runner, ["bonf-dist", "--n", "50", "--alpha", "0.05",
                                   "--uniform"]))
    assert "quadrature_disagreement" not in plain["result"]


def test_dependent_length_mismatch(runner):
    result = _invoke(runner, ["dependent", "--n", "50", "--alpha", "0.05",
                              "--theta", "0.158,0.0492,0.0201",
                              "--eps", "0.01,0.01"])
    assert result.exit_code == 2
    assert "--eps has length 2" in result.output


# ------------------------------------------------------------------ power

def test_power_rows_match_library(runner):
    doc = _json(_invoke(runner, [
        "power", "--theta", "0.0524,0.00983,0.00327", "--pilot-n", "78",
        "--n-tests", "200", "--alpha", "0.05",
        "--n-list", "78,150", "--z-list", "0,0.4"]))
    grid = power_table(THETA_HUANG, 78, 200, 0.05, (78, 150), (0.0, 0.4))
    assert len(doc["result"]["rows"]) == 4
    for got, row in zip(doc["result"]["rows"], grid.rows):
        assert got["N"] == row.n_subjects
        assert got["z"] == row.z
        assert got["correlation"] == pytest.approx(row.correlation, rel=1e-15)
        assert got["expected_bh"] == pytest.approx(row.expected_bh, rel=1e-15)
        assert got["prob_bh_positive"] == pytest.approx(
            row.prob_bh_positive, rel=1e-15)


def test_power_infeasible_scaling_exits_4(runner):
    result = _invoke(runner, [
        "power", "--theta", "0.0524,0.00983,0.00327", "--pilot-n", "78",
        "--n-tests", "100", "--n-list", "210000", "--z-list", "0"])
    assert result.exit_code == 4
    assert "valid region" in result.output


@pytest.mark.parametrize("bad", ["nan", "inf", "78.5"])
def test_power_non_integer_n_list_is_bad_input(runner, bad):
    result = _invoke(runner, [
        "power", "--theta", "0.0524,0.00983,0.00327", "--pilot-n", "78",
        "--n-tests", "100", "--n-list", "78," + bad, "--z-list", "0"])
    assert result.exit_code == 2
    assert "expected integers" in result.output


# --------------------------------------------------------------- simulate

def test_simulate_deterministic_and_matches_library(runner):
    args = ["--seed", "11", "simulate", "--n", "40", "--alpha", "0.05",
            "--replicates", "400", "--uniform", "--rule", "bonferroni"]
    doc = _json(_invoke(runner, args))
    again = _json(_invoke(runner, args))
    assert doc == again
    cfg = SimConfig(n_tests=40, replicates=400,
                    marginal=THETA_BC3.uniform(), alpha=0.05, seed=11)
    emp = empirical_count_distribution(cfg, "bonferroni")
    assert doc["result"]["pmf"] == pytest.approx(list(emp.pmf), abs=0)
    assert doc["result"]["replicates"] == 400
    assert doc["config"]["seed"] == 11


def test_simulate_gamma_eps_exclusive(runner):
    result = _invoke(runner, ["simulate", "--n", "10", "--alpha", "0.05",
                              "--uniform", "--gamma", "1.5",
                              "--eps", "0.01"])
    assert result.exit_code == 2


# ------------------------------------------------------------- exit codes

def test_bad_alpha_exits_2(runner):
    result = _invoke(runner, ["bh-dist", "--n", "10", "--alpha", "2",
                              "--uniform"])
    assert result.exit_code == 2
    assert "alpha" in result.output


def test_invalid_theta_exits_4(runner):
    result = _invoke(runner, ["bh-dist", "--n", "10", "--alpha", "0.05",
                              "--theta", "0.9,0.9,0.9"])
    assert result.exit_code == 4


def test_numeric_failure_exits_3(runner, monkeypatch):
    def boom(*a, **kw):
        raise NumericError("did not stabilize")

    monkeypatch.setattr(cli_module, "bh_pmf", boom)
    result = _invoke(runner, ["bh-dist", "--n", "10", "--alpha", "0.05",
                              "--uniform"])
    assert result.exit_code == 3
    assert "did not stabilize" in result.output


def test_precision_bits_option_is_gone(runner):
    # no computation runs in extended precision, so there is no precision
    # to choose
    result = runner.invoke(main, ["--precision-bits", "256", "bh-dist",
                                  "--n", "5", "--alpha", "0.05", "--uniform"])
    assert result.exit_code == 2
    assert "No such option" in result.output


def test_malformed_theta_rejected(runner):
    result = runner.invoke(main, ["bh-dist", "--n", "5", "--alpha", "0.05",
                                  "--theta", "0.1,abc"])
    assert result.exit_code == 2


# ------------------------------------------------------------- import set

_NO_SCIPY_SCRIPT = textwrap.dedent("""
    import contextlib, io, sys
    from fdrdist.cli import main

    bc = ["--n", "3226", "--alpha", "0.05", "--theta", "0.158,0.0492,0.0201"]
    commands = [
        ["bh-dist"] + bc,
        ["bonf-dist"] + bc,
        ["bonf-dist"] + bc + ["--poisson"],
        ["bonf-dist"] + bc + ["--gamma", "1.05"],
        ["dependent"] + bc + ["--z", "0.5", "--sigma", "0.084,0.0506,0.0075"],
        ["power", "--theta", "0.0524,0.00983,0.00327", "--pilot-n", "78",
         "--n-tests", "2000", "--n-list", "78,300", "--z-list", "0,0.4"],
        ["--seed", "1", "simulate", "--n", "50", "--alpha", "0.05",
         "--replicates", "200", "--theta", "0.158,0.0492,0.0201"],
        ["count", sys.argv[1], "--alpha", "0.05"],
        ["fit", sys.argv[1], "--max-order", "3"],
    ]
    for args in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            main(args, standalone_mode=False)
    print(sorted(m for m in sys.modules
                 if m.split(".")[0] in ("scipy", "mpmath")))
""")


def test_cli_commands_never_import_scipy(tmp_path):
    # nor mpmath; a fresh interpreter, because this test process has both
    # loaded
    f = tmp_path / "p.txt"
    p = np.exp(-np.random.default_rng(3).gamma(1.5, size=400))
    f.write_text("".join("%.17g\n" % v for v in p))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli_module.__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(f)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_gamma_and_poisson_together_exit_2(runner):
    result = _invoke(runner, ["bonf-dist", "--n", "100", "--alpha", "0.05",
                              "--theta", "0.5", "--gamma", "1.3", "--poisson"])
    assert result.exit_code == 2
    assert "--gamma and --poisson are mutually exclusive" in result.output


@pytest.mark.parametrize("gamma, nodes", [("1e6", "32x1.28e+8"),
                                          ("1e308", "32x1.28e+310")])
def test_copula_over_budget_message_stays_short(runner, gamma, nodes):
    # the E-node count grows with gamma; it prints in three digits
    result = _invoke(runner, ["bonf-dist", "--n", "100", "--alpha", "0.05",
                              "--theta", "0.5", "--gamma", gamma])
    assert result.exit_code == 3
    assert "did not converge" in result.output
    assert f"grid 1, {nodes} nodes for 1 counts" in result.output
    assert len(result.output) < 250
