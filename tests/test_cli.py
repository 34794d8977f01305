import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import maroni
from maroni import formulas, verify
from maroni.cli import main
from maroni.combinatorics import HurwitzParams
from maroni.errors import DomainError, InvariantError


def run_cli(*argv):
    out = io.StringIO()
    import contextlib

    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_classes_csv_contains_known_row():
    code, text = run_cli("classes", "--d", "3", "--g", "2",
                         "--variant", "st", "--format", "csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "j,mu,n,m,r,c,coefficient,variant,provenance"
    assert "4,(1|1|1),3,1,0,0,1/7,st,-" in lines


def test_classes_csv_keeps_the_rows_before_a_failing_type(monkeypatch, capsys):
    # csv rows are written as they are computed: an invariant failure at the
    # second type leaves the header and the first row on stdout
    argv = ["classes", "--d", "3", "--g", "2", "--format", "csv"]
    assert main(argv) == 0
    header, first = capsys.readouterr().out.splitlines()[:2]
    sigma_st, calls = formulas.sigma_st, []

    def second_call_fails(bt):
        calls.append(bt)
        if len(calls) == 2:
            raise InvariantError(f"synthetic defect at {bt}")
        return sigma_st(bt)

    monkeypatch.setattr(formulas, "sigma_st", second_call_fails)
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == f"{header}\n{first}\n"
    assert err == f"error: internal invariant failed: synthetic defect at {calls[1]}\n"


def test_classes_usage_error_on_bad_genus():
    code, _ = run_cli("classes", "--d", "3", "--g", "3")
    assert code == 2


def test_classes_min_below_st():
    _, st_text = run_cli("classes", "--d", "4", "--g", "3", "--format", "json")
    _, min_text = run_cli("classes", "--d", "4", "--g", "3",
                          "--variant", "min", "--format", "json")
    st_rows = json.loads(st_text)
    min_rows = json.loads(min_text)
    assert len(st_rows) == len(min_rows)
    for a, b in zip(st_rows, min_rows):
        assert Fraction(b["coefficient"]) <= Fraction(a["coefficient"])


def test_csv_json_round_trip():
    _, csv_text = run_cli("classes", "--d", "5", "--g", "4", "--format", "csv")
    _, json_text = run_cli("classes", "--d", "5", "--g", "4", "--format", "json")
    csv_lines = csv_text.strip().splitlines()
    header = csv_lines[0].split(",")
    csv_rows = [dict(zip(header, line.split(","))) for line in csv_lines[1:]]
    json_rows = json.loads(json_text)
    assert len(csv_rows) == len(json_rows) > 0
    for c_row, j_row in zip(csv_rows, json_rows):
        # both formats parse back to the same exact values
        assert Fraction(c_row["coefficient"]) == Fraction(j_row["coefficient"])
        for field in ("j", "n", "m", "r", "c"):
            assert int(c_row[field]) == j_row[field]
        for field in ("mu", "variant", "provenance"):
            assert c_row[field] == j_row[field]
        # exact rationals, never floats
        assert isinstance(j_row["coefficient"], str)


GOLDEN_MIN_D3_G2 = """\
j,mu,n,m,r,c,coefficient,variant,provenance
2,(3),1,3,0,2,5/21,min,st
2,(1|1|1),3,1,1,-2,-15/7,min,corr2(conditional:unit-tail)
3,(2|1),2,2,0,1,-20/7,min,corr2(conditional:unit-tail)
4,(3),1,3,1,0,2/21,min,corr1
4,(1|1|1),3,1,0,0,-6/7,min,corr2(conditional:unit-tail)
"""


def test_classes_min_golden_block():
    code, text = run_cli("classes", "--d", "3", "--g", "2",
                         "--variant", "min", "--format", "csv")
    assert code == 0
    assert text == GOLDEN_MIN_D3_G2


def test_output_is_deterministic():
    first = run_cli("classes", "--d", "4", "--g", "6", "--variant", "min")
    second = run_cli("classes", "--d", "4", "--g", "6", "--variant", "min")
    assert first == second


def test_table1_all_pass():
    code, text = run_cli("table1", "--format", "csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 15  # header + 14 rows
    assert all(line.endswith("PASS") for line in lines[1:])


def test_table2_rows():
    code, text = run_cli("table2", "--g", "6", "--format", "csv")
    assert code == 0
    assert "Delta4,g2=2,2,2,PASS" in text
    assert "H,g2=6,12,12,PASS" in text


def test_table2_usage_error_on_odd_genus():
    code, _ = run_cli("table2", "--g", "5")
    assert code == 2


def test_table2_rejects_a_genus_above_the_row_cap(monkeypatch, capsys):
    # the table has 9g/2 + 2 rows, linear in g; the largest even g within
    # the cap reaches the first row, the next is a usage error before it
    import maroni.formulas as formulas
    from maroni.combinatorics import MAX_TYPES

    class Reached(Exception):
        pass

    def first_row(d, g):
        raise Reached

    monkeypatch.setattr(formulas, "HurwitzParams", first_row)
    g = 2 * ((MAX_TYPES - 2) // 9)
    assert 9 * g // 2 + 2 <= MAX_TYPES < 9 * (g + 2) // 2 + 2
    with pytest.raises(Reached):
        main(["table2", "--g", str(g)])
    assert main(["table2", "--g", str(g + 2)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: g={g + 2} gives {9 * g // 2 + 11} rows (cap {MAX_TYPES})\n"


def test_patel_rejects_a_degree_above_the_cap(monkeypatch, capsys):
    # each piece is a partition with d parts, and sigma_st sums O(d) Fractions
    cap = formulas.MAX_PATEL_D
    assert main(["patel", "--d", str(cap), "--g", str(cap - 1)]) == 0
    assert capsys.readouterr().out.count("PASS") == 3

    def forbidden(parts):
        raise AssertionError("a partition was built")

    monkeypatch.setattr(formulas, "Partition", forbidden)
    assert main(["patel", "--d", str(cap + 1), "--g", str(cap)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: d must be <= {cap}, got {cap + 1}\n"


def test_patel_command():
    code, text = run_cli("patel", "--d", "4", "--g", "3", "--format", "csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 4
    assert all(line.endswith("PASS") for line in lines[1:])
    code, text = run_cli("patel", "--d", "3", "--g", "2", "--format", "csv")
    assert code == 0
    assert any(line.endswith("SKIP") for line in text.splitlines())


# a wrong published value fails both the table command (exit 1, a FAIL row)
# and the matching verify check (a failure naming the case)


def test_table1_fails_on_a_wrong_listed_value(monkeypatch):
    # (3, (3,), 2) is an admissible class with delta 0, listed here as 1
    monkeypatch.setattr(verify, "TABLE1", {**verify.TABLE1, (3, (3,), 2): 1})
    code, text = run_cli("table1", "--format", "csv")
    assert code == 1
    assert "3,(3),2,0,1,FAIL" in text.splitlines()
    result = verify.run_table1_check()
    assert not result.ok and result.checked == 49
    assert result.failures == ["d=3 mu=(3) j%4=2: computed 0, expected 1"]


def test_table1_fails_on_a_class_missing_from_the_list(monkeypatch):
    # dropping a listed class leaves its delta 1 against the unlisted 0; the
    # command checks every class, not only the listed ones it shows
    table = dict(verify.TABLE1)
    del table[5, (5,), 2]
    monkeypatch.setattr(verify, "TABLE1", table)
    code, text = run_cli("table1", "--format", "csv")
    assert code == 1
    lines = text.splitlines()
    assert len(lines) == 15  # header, the 13 listed rows and the failing one
    assert "5,(5),2,1,0,FAIL" in lines
    result = verify.run_table1_check()
    assert result.failures == ["d=5 mu=(5) j%8=2: computed 1, expected 0"]


def test_table1_rejects_a_listed_class_that_no_type_reaches(monkeypatch,
                                                            capsys):
    # j = 1 has the wrong parity for mu = (3) at d = 3: a defect of the table
    monkeypatch.setattr(verify, "TABLE1", {**verify.TABLE1, (3, (3,), 1): 1})
    for argv in (["table1"], ["verify", "--suite", "tables"]):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: internal invariant failed: listed pairs never "
                       "reached: [(3, (3,), 1)]\n")


def test_patel_fails_on_a_wrong_display(monkeypatch):
    patel_partial = formulas.patel_partial

    def off_by_one(params):
        delta, e2, e3 = patel_partial(params)
        return delta, e2, e3 + 1

    monkeypatch.setattr(formulas, "patel_partial", off_by_one)
    code, text = run_cli("patel", "--d", "4", "--g", "3", "--format", "csv")
    assert code == 1
    e3 = patel_partial(HurwitzParams(4, 3))[2]
    assert f"E3,{e3 + 1},{e3},FAIL" in text.splitlines()
    result = verify.run_patel_check(max_d=4)
    assert not result.ok
    assert f"d=4 k=1 E3 (3|1): computed {e3}, expected {e3 + 1}" in result.failures


def test_table2_fails_on_a_wrong_hodge_coefficient(monkeypatch):
    lambda_coeff = formulas.lambda_coeff
    monkeypatch.setattr(formulas, "lambda_coeff",
                        lambda bt: lambda_coeff(bt) + 2)
    code, text = run_cli("table2", "--g", "6", "--format", "csv")
    assert code == 1
    rows = [line.split(",") for line in text.splitlines()[1:]]
    failed = {(r[0], r[1]) for r in rows if r[4] == "FAIL"}
    assert ("Delta1", "g1=0 hodge-relation") in failed
    assert {status for *_, status, _ in rows} == {"PASS", "FAIL", "SKIP"}
    result = verify.run_table2_check()
    assert not result.ok
    assert any(m.startswith("g=4 Delta1 g1=0 hodge-relation: computed ")
               for m in result.failures)


def test_verify_tables_suite():
    code, text = run_cli("verify", "--suite", "tables")
    assert code == 0
    assert "RESULT: PASS" in text


def test_run_suites_aggregator():
    from maroni.verify import run_suites

    results = run_suites("all", max_d=4, max_g=6)
    assert results and all(r.ok for r in results)
    names = " ".join(r.name for r in results)
    assert "integer maximum" in names and "table1" in names


def _forbid_every_suite(monkeypatch):
    import maroni.verify as verify

    def forbidden(*args, **kwargs):
        raise AssertionError("a suite ran")

    for name in dir(verify):
        if name.startswith("run_") and name != "run_suites":
            monkeypatch.setattr(verify, name, forbidden)


def test_run_suites_rejects_an_unknown_suite(monkeypatch):
    # a name that selects no suite would return no check, which cmd_verify
    # would print as RESULT: PASS; argparse guards only the command line
    from maroni.verify import run_suites

    _forbid_every_suite(monkeypatch)
    with pytest.raises(DomainError, match=r"^unknown suite 'lattices'$"):
        run_suites("lattices", max_d=3, max_g=2)


@pytest.mark.parametrize("radius", [-1, 100])
@pytest.mark.parametrize("suite", ["lattice", "identities", "tables", "all"])
def test_verify_rejects_a_radius_outside_the_range_for_every_suite(
    monkeypatch, capsys, suite, radius
):
    # the edge bound settles every radius, so verify takes none: any value
    # is argparse's usage error before a suite runs
    _forbid_every_suite(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", suite, "--radius", str(radius)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: maroni")
    assert f"unrecognized arguments: --radius {radius}" in err


@pytest.mark.parametrize("suite", ["lattice", "identities", "tables", "all"])
def test_verify_rejects_a_max_d_above_the_cap(monkeypatch, capsys, suite):
    from maroni.verify import MAX_D

    _forbid_every_suite(monkeypatch)
    assert main(["verify", "--suite", suite, "--max-d", str(MAX_D + 1)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: max-d must be <= {MAX_D}, got {MAX_D + 1}\n"


def test_verify_types_at_the_max_d_cap():
    # counted without running a check; `run_suites("all", max_d=10)` took
    # 3.4 s in process on a shared 2-core host
    from maroni.combinatorics import (
        MAX_TYPES, HurwitzParams, enumerate_boundary_types, type_count,
    )
    from maroni.verify import (
        LATTICE_KS, LATTICE_MAX_LCM, MAX_D, _params_range,
    )

    identity = [bt for params in _params_range(MAX_D, 16)
                for bt in enumerate_boundary_types(params)]
    lattice = [bt for d in range(3, MAX_D + 1) for k in LATTICE_KS
               for bt in enumerate_boundary_types(HurwitzParams(d, (d - 1) * k))
               if bt.m <= LATTICE_MAX_LCM]
    assert (len(identity), max(bt.m for bt in identity)) == (2184, 30)
    assert len(lattice) == 1631
    # the type cap counts the same range without building it
    assert sum(type_count(d, 16 // (d - 1))
               for d in range(3, MAX_D + 1)) == 2184 < MAX_TYPES


def test_classes_rejects_a_degree_above_the_cap(monkeypatch, capsys):
    import maroni.formulas as formulas

    def forbidden(params):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(formulas, "enumerate_boundary_types", forbidden)
    d = formulas.MAX_D + 1
    assert main(["classes", "--d", str(d), "--g", str(d - 1)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: d must be <= {formulas.MAX_D}, got {d}\n"


def test_classes_types_at_the_degree_cap():
    # counted without computing a row; `build_table` at the cap (d = 20,
    # g = 19, variant min) took 3.3 s in process on a shared 2-core host
    from maroni.combinatorics import (
        MAX_TYPES, HurwitzParams, enumerate_boundary_types, type_count,
    )
    from maroni.formulas import MAX_D

    params = HurwitzParams(MAX_D, MAX_D - 1)
    types = enumerate_boundary_types(params)
    assert (len(types), max(bt.m for bt in types)) == (11603, 420)
    assert type_count(MAX_D, 1) == 11603 < MAX_TYPES


def test_classes_rejects_a_genus_above_the_type_cap(monkeypatch, capsys):
    # the work grows linearly in g: d = 20, g = 1900 has 601 293 types
    import maroni.formulas as formulas
    from maroni.combinatorics import MAX_TYPES

    def forbidden(params):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(formulas, "enumerate_boundary_types", forbidden)
    assert main(["classes", "--d", "20", "--g", "1900"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: g=1900 at d=20 gives 601293 boundary types "
                   f"(cap {MAX_TYPES})\n")


@pytest.mark.parametrize("suite", ["lattice", "identities", "tables", "all"])
def test_verify_rejects_a_max_g_above_the_type_cap(monkeypatch, capsys, suite):
    from maroni.combinatorics import MAX_TYPES

    _forbid_every_suite(monkeypatch)
    assert main(["verify", "--suite", suite, "--max-d", "10",
                 "--max-g", "160"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: max-g 160 at max-d 10 gives 144872 boundary types "
                   f"(cap {MAX_TYPES})\n")


def test_classes_has_no_tie_flag(capsys):
    # the tie search runs only as the `verify --tie-exhaustive` check
    with pytest.raises(SystemExit) as exc:
        main(["classes", "--d", "4", "--g", "3", "--tie-exhaustive"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --tie-exhaustive" in err


# sha256 of the stdout of the small table commands in every format
TABLE_SHA256 = {
    ("table1", "table"): "8c180073f1abfcdaec57c77e4106179c9e5a5ff4b50d7fb2ad370d78f0db7d8b",
    ("table1", "csv"): "dd04ed7d2472876251ee09a5ce03636ee4c79a2224df1507da2d0a44be1ce929",
    ("table1", "json"): "a0ac88630c896c89098a9c0b1f081dd5f6a31d7f3756547d4eb9767418bb00e9",
    ("table2 --g 8", "table"): "06de2a030c5b3ce1312a45640dda808976fa28ddb0d25fb6dea6610c3fa5cff1",
    ("table2 --g 8", "csv"): "7f593c8f24c63d4d31260d1e04b51f279884ea58d87a5eecf679463e9b4ecd5f",
    ("table2 --g 8", "json"): "da152cddd31a329f09cf98bcccb6e65226d3e7357f5e1e53babcbc4821900fd7",
    ("patel --d 5 --g 8", "table"): "74aaf2ad38eb68389110092ac567eb70b6d59fcc57c02f4fda7eadf08d3130c0",
    ("patel --d 5 --g 8", "csv"): "07b31d9a270e0380747bd02ddf842fd70e45d13a935ebcb8e529915ef283ddbc",
    ("patel --d 5 --g 8", "json"): "7fd3de073a3ea7ea1a7d3cf43e8b411a9a7bc9e02ab340173aa527642c489d96",
}


@pytest.mark.parametrize("command, fmt", sorted(TABLE_SHA256))
def test_table_command_bytes_are_pinned(command, fmt):
    code, text = run_cli(*command.split(), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_SHA256[command, fmt]


# the json value cells of each table command: computed and expected alike
JSON_VALUE_CELLS = {
    "table1": ("sigma", "expected"),
    "table2 --g 8": ("computed", "expected"),
    "patel --d 5 --g 8": ("coefficient", "sigma_st_at_j2"),
    "patel --d 3 --g 4": ("coefficient", "sigma_st_at_j2"),  # a SKIP row
}


@pytest.mark.parametrize("command", sorted(JSON_VALUE_CELLS))
def test_table_json_values_are_exact_strings(command):
    # rationals serialize as "p/q" strings, so the two values of a row compare
    # without conversion; a value that was not computed is null
    code, text = run_cli(*command.split(), "--format", "json")
    assert code == 0
    rows = json.loads(text)
    assert rows
    for row in rows:
        for key in JSON_VALUE_CELLS[command]:
            assert row[key] is None or isinstance(row[key], str), (key, row)


def test_verify_identities_small_range():
    code, text = run_cli("verify", "--suite", "identities",
                         "--max-d", "4", "--max-g", "6")
    assert code == 0
    assert "sigma_corr1" in text and "RESULT: PASS" in text


def test_verify_fails_checks_that_cover_no_cases(monkeypatch):
    # no boundary type has d <= 2, so these checks cover zero cases; the
    # command rejects such a range, so the suites are run here directly
    import maroni.cli as cli

    empty = (verify.run_identity_suite(max_d=2, max_g=20)
             + verify.run_lattice_suite(max_d=2, radius=3))
    assert empty and all(res.checked == 0 for res in empty)
    monkeypatch.setattr(cli.verify, "run_suites", lambda *a, **kw: empty)
    code, text = run_cli("verify")
    assert code == 1
    *lines, result = text.splitlines()
    assert result == "RESULT: FAIL"
    assert len(lines) == len(empty)
    for line in lines:
        assert line.startswith("[FAIL] ") and line.endswith(": 0 cases checked")


@pytest.mark.parametrize("bounds, message", [
    (["--max-d", "2"], "max-d must be >= 3, got 2"),
    (["--max-d", "-1"], "max-d must be >= 3, got -1"),
    (["--max-d", "3", "--max-g", "1"], "max-g must be >= 2, got 1"),
], ids=["max-d=2", "max-d=-1", "max-g=1"])
@pytest.mark.parametrize("suite", ["lattice", "identities", "tables", "all"])
def test_verify_rejects_an_empty_range_for_every_suite(
    monkeypatch, capsys, suite, bounds, message
):
    # the smallest boundary types have d = 3, g = 2: a smaller range would
    # leave checks with no case, so it is a usage error before any check
    _forbid_every_suite(monkeypatch)
    assert main(["verify", "--suite", suite, *bounds]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_runs_the_smallest_range():
    code, text = run_cli("verify", "--max-d", "3", "--max-g", "2")
    assert code == 0
    assert text.endswith("RESULT: PASS\n")
    assert ": 0 cases checked" not in text


def test_verify_help_names_the_suites_each_range_bounds(monkeypatch, capsys):
    # --max-g bounds only the identities suite: the lattice suite runs at
    # fixed k and the tables suite at fixed ranges, whatever the options say
    monkeypatch.setenv("COLUMNS", "500")  # one line per option, no hyphen breaks
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert ("--max-d MAX_D largest degree d (3..10) of the lattice and "
            "identities suites") in text
    assert ("--max-g MAX_G largest genus g of the identities suite's per-type "
            "checks; the lattice suite runs at g = (d-1)k, k in (1, 2), on "
            "chains with m <= 6") in text
    assert "the tables suite at fixed ranges" in text


def test_verify_degree_check_compares_matrix_pairing(monkeypatch):
    # the check pairs A's coefficients through the matrix entries
    # pairing(m, i, j); a wrong entry must show as a failed check
    monkeypatch.setattr(verify, "pairing", lambda m, i, j: 0)
    code, text = run_cli("verify", "--suite", "identities",
                         "--max-d", "4", "--max-g", "6")
    assert code == 1
    assert "[FAIL] standard A integral with degree checks" in text
    assert "A.R_i differ from the matrix pairing" in text


def test_verify_reports_failures_with_exit_one(monkeypatch):
    import maroni.cli as cli
    from maroni.verify import CheckResult

    bad = CheckResult("synthetic check")
    bad.count()
    bad.fail("synthetic counterexample")
    monkeypatch.setattr(cli.verify, "run_suites", lambda *a, **kw: [bad])
    code, text = run_cli("verify", "--suite", "tables")
    assert code == 1
    assert "[FAIL] synthetic check" in text
    assert "synthetic counterexample" in text
    assert "RESULT: FAIL" in text


@pytest.mark.parametrize(
    "target, variant, error, code, prefix",
    [
        ("joint_round", "corr2", InvariantError, 3,
         "error: internal invariant failed: "),
        # build_table skips types where the joint twist does not apply, so
        # the single twist raises here
        ("single_round", "corr1", DomainError, 2, "error: "),
    ],
)
def test_library_errors_map_to_exit_codes(
    monkeypatch, capsys, target, variant, error, code, prefix
):
    import maroni.lattice as lattice

    def broken(bt, explore_ties=False):
        raise error(f"synthetic defect at {bt}")

    monkeypatch.setattr(lattice, target, broken)
    assert main(["classes", "--d", "3", "--g", "2", "--variant", variant]) == code
    err = capsys.readouterr().err
    # the type is named by its short label, not its field-by-field repr
    label = r"d=3 g=2 j=2 mu=\((3|1\|1\|1)\)"
    assert re.fullmatch(re.escape(prefix + "synthetic defect at ") + label + "\n", err)
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["classes", "--d", "4", "--g", "3", "--variant", "min", "--format", "csv"],
    ["classes", "--d", "4", "--g", "3", "--variant", "corr2", "--format", "csv"],
    ["verify", "--suite", "identities", "--max-d", "3", "--max-g", "2"],
    ["verify", "--suite", "lattice", "--max-d", "3"],
], ids=["classes-min", "classes-corr2", "verify-identities", "verify-lattice"])
def test_a_raising_joint_guard_is_never_read_as_not_applicable(
        monkeypatch, capsys, argv):
    # whether the joint twist applies is asked of the type, so a guard that
    # raises on a type with a part equal to 1 ends the run (exit 2) instead
    # of dropping that type's corr2 row, min candidate or joint check
    import maroni.lattice as lattice

    def raising(bt):
        raise DomainError(f"synthetic guard at {bt}")

    monkeypatch.setattr(lattice, "_require_unit_part", raising)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: synthetic guard at d=")


def module_env():
    # the child imports the same package as this process, installed or not
    src = str(Path(maroni.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "maroni.cli", *argv],
        capture_output=True,
        text=True,
        env=module_env(),
    )


def test_cli_import_loads_no_dataclasses_or_inspect():
    # every maroni command is a fresh process that pays for its imports;
    # dataclasses pulls in inspect, ast and dis, about 1 MiB of start-up
    probe = ("import sys; before = set(sys.modules); import maroni.cli; "
             "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=module_env())
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "maroni.cli" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded)


def test_module_import_loads_only_what_the_module_imports():
    # the package binds no names, so it imports none of its modules itself
    probe = ("import sys; import maroni.combinatorics; "
             "print(*sorted(n for n in sys.modules if n.startswith('maroni')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=module_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["maroni", "maroni.combinatorics",
                                   "maroni.errors"]


def test_console_entry_point():
    proc = run_module("classes", "--d", "3", "--g", "2", "--format", "csv")
    assert proc.returncode == 0
    assert "4,(1|1|1),3,1,0,0,1/7,st,-" in proc.stdout


def test_console_closed_stdout_exits_quietly():
    # the table is far larger than a pipe buffer, so the writer is still
    # running when the reader closes its end after the first line
    proc = subprocess.Popen(
        [sys.executable, "-m", "maroni.cli", "classes", "--d", "16", "--g", "15",
         "--variant", "min", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=module_env(),
    )
    assert proc.stdout.readline().startswith("j,mu,n,m,")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == ""


def test_console_rejects_a_huge_max_g_at_once():
    # the type cap counts the range in closed form, not genus by genus, so
    # a max-g of 10^9 is rejected as fast as a small one, whole process
    start = time.perf_counter()
    proc = run_module("verify", "--max-g", "1000000000")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: max-g 1000000000 at max-d 5 gives "
                           "1229166675083333331 boundary types (cap 20000)\n")
    assert elapsed < 1.0


def test_console_usage_error_exit_code():
    proc = run_module("classes", "--d", "3", "--g", "3")
    assert proc.returncode == 2
    assert "g=(d-1)k" in proc.stderr
