import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import maroni
from maroni.cli import main


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


def test_patel_command():
    code, text = run_cli("patel", "--d", "4", "--g", "3", "--format", "csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 4
    assert all(line.endswith("PASS") for line in lines[1:])
    code, text = run_cli("patel", "--d", "3", "--g", "2", "--format", "csv")
    assert code == 0
    assert any(line.endswith("SKIP") for line in text.splitlines())


def test_verify_tables_suite():
    code, text = run_cli("verify", "--suite", "tables")
    assert code == 0
    assert "RESULT: PASS" in text


def test_run_suites_aggregator():
    from maroni.verify import run_suites

    results = run_suites("all", radius=2, max_d=4, max_g=6)
    assert results and all(r.ok for r in results)
    names = " ".join(r.name for r in results)
    assert "integer maximum" in names and "table1" in names


def test_verify_identities_small_range():
    code, text = run_cli("verify", "--suite", "identities",
                         "--max-d", "4", "--max-g", "6")
    assert code == 0
    assert "sigma_corr1" in text and "RESULT: PASS" in text


def test_verify_fails_checks_that_cover_no_cases():
    # no boundary type has d <= 2, so these checks cover zero cases
    for suite in ("identities", "lattice"):
        code, text = run_cli("verify", "--suite", suite, "--max-d", "2")
        assert code == 1
        assert "RESULT: FAIL" in text
        for line in text.splitlines():
            if line.endswith(": 0 cases checked"):
                assert line.startswith("[FAIL] ")


def test_verify_reports_failures_with_exit_one(monkeypatch):
    import maroni.cli as cli
    from maroni.verify import CheckResult

    bad = CheckResult("synthetic check", checked=3)
    bad.fail("synthetic counterexample")
    monkeypatch.setattr(cli.verify, "run_suites", lambda *a, **kw: [bad])
    code, text = run_cli("verify", "--suite", "tables")
    assert code == 1
    assert "[FAIL] synthetic check" in text
    assert "synthetic counterexample" in text
    assert "RESULT: FAIL" in text


def run_module(*argv):
    # the child imports the same package as this process, installed or not
    src = str(Path(maroni.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "maroni.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point():
    proc = run_module("classes", "--d", "3", "--g", "2", "--format", "csv")
    assert proc.returncode == 0
    assert "4,(1|1|1),3,1,0,0,1/7,st,-" in proc.stdout


def test_console_usage_error_exit_code():
    proc = run_module("classes", "--d", "3", "--g", "3")
    assert proc.returncode == 2
    assert "g=(d-1)k" in proc.stderr
