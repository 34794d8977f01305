"""Tests of the benchmark harness itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import run
import tracer
from workloads import WORKLOADS, items, score

HERE = os.path.dirname(os.path.abspath(__file__))


def child(mode: str, *argv: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), mode, "--", *argv],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_self_time_subtracts_children_and_busy_skips_reentry():
    spans = [
        ("formulas.sigma_min", 0.0, 10.0, -1),
        ("lattice.round_chain", 1.0, 4.0, 0),
        ("chain.a_standard", 2.0, 3.0, 1),
        ("lattice.round_chain", 5.0, 9.0, 0),
        ("formulas.sigma_min", 6.0, 7.0, 3),  # re-entered below itself
    ]
    agg = tracer.aggregate(spans)
    fns, layers = agg["functions"], agg["layers"]
    assert fns["formulas.sigma_min"]["calls"] == 2
    assert fns["formulas.sigma_min"]["self_s"] == (10 - 3 - 4) + 1
    assert fns["formulas.sigma_min"]["busy_s"] == 10
    assert fns["lattice.round_chain"]["self_s"] == (3 - 1) + (4 - 1)
    assert fns["lattice.round_chain"]["busy_s"] == 7
    assert fns["chain.a_standard"]["self_s"] == 1
    assert layers["formulas"] == 4
    assert layers["lattice.rounding"] == 5
    assert layers["chain"] == 1
    # self times partition the root span
    assert sum(layers.values()) == 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert tracer.percentile(values, 0.5) == 100
    assert tracer.percentile(values, 0.99) == 198
    assert tracer.percentile([], 0.99) == 0.0


CLASSES_GOLDEN = "j,mu,m\n2,(3),3\n2,(2|1),2\n3,(1|1|1),1\n"
VERIFY_GOLDEN = ("[PASS] check a: 10 cases checked\n"
                 "[PASS] check b: 5 cases checked\n"
                 "RESULT: PASS\n")


@pytest.mark.parametrize("output, exit_code, expected", [
    (CLASSES_GOLDEN, 0, (3, 0)),
    (CLASSES_GOLDEN.replace("(2|1),2", "(2|1),3"), 0, (3, 1)),  # corrupted
    ("j,mu,m\n2,(3),3\n3,(1|1|1),1\n", 0, (3, 2)),  # row dropped
    (CLASSES_GOLDEN + "4,(3),3\n", 0, (4, 1)),  # extra row
    (CLASSES_GOLDEN.replace("j,mu,m", "j,m,mu"), 0, (3, 3)),  # header
    (CLASSES_GOLDEN, 1, (3, 3)),  # non-zero exit
    ("", 1, (3, 3)),  # crash before any output
])
def test_classes_scoring(output, exit_code, expected):
    assert score("classes", CLASSES_GOLDEN, output, exit_code) == expected


@pytest.mark.parametrize("output, exit_code, expected", [
    (VERIFY_GOLDEN, 0, (2, 0)),
    (VERIFY_GOLDEN.replace("10 cases", "9 cases"), 0, (2, 1)),  # fewer cases
    (VERIFY_GOLDEN.replace("10 cases", "12 cases"), 0, (2, 0)),  # more cases
    (VERIFY_GOLDEN.replace("[PASS] check b", "[FAIL] check b"), 0, (2, 1)),
    ("[PASS] check a: 10 cases checked\n", 0, (2, 1)),  # check missing
    (VERIFY_GOLDEN, 1, (2, 2)),  # non-zero exit
])
def test_verify_scoring(output, exit_code, expected):
    assert score("verify", VERIFY_GOLDEN, output, exit_code) == expected


def test_verify_check_with_no_golden_cases_fails():
    golden = "[PASS] empty: 0 cases checked\nRESULT: PASS\n"
    assert score("verify", golden, golden, 0) == (1, 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_outputs_score_clean(name):
    workload = WORKLOADS[name]
    golden = workload.golden()
    attempted, failed = score(workload.kind, golden, golden, 0)
    assert failed == 0 and attempted > 0
    assert items(workload.kind, golden) > 0


def test_wrappers_leave_classes_output_unchanged():
    argv = ("classes", "--d", "5", "--g", "4", "--variant", "min")
    plain = child("plain", *argv)
    traced = child("traced", *argv)
    assert plain["exit"] == traced["exit"] == 0
    assert traced["stdout"] == plain["stdout"]
    names = {span[0] for span in traced["spans"]}
    assert {"cli.main", "cli.cmd_classes", "formulas.build_table",
            "formulas.sigma_min", "lattice.round_chain"} <= names
    assert traced["counts"]["chain.intersect.calls"] == 0


def test_wrappers_reach_names_bound_by_import():
    """verify and lattice import a_standard/intersect from chain by name."""
    report = child("traced", "verify", "--suite", "identities",
                   "--max-d", "3", "--max-g", "4")
    assert report["exit"] == 0
    parents = {}
    for name, _, _, parent in report["spans"]:
        if name == "chain.a_standard":
            parent_name = report["spans"][parent][0] if parent >= 0 else None
            parents[parent_name] = parents.get(parent_name, 0) + 1
    # direct calls from verify's suite and calls through lattice.f_twist
    assert parents.get("verify.run_identity_suite", 0) > 0
    assert parents.get("lattice.f_twist", 0) > 0
    assert report["counts"]["chain.intersect.calls"] > 0


def test_every_declared_metric_is_computed():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    report = child("traced", "verify", "--suite", "lattice", "--max-d", "3")
    names = [m["name"] for m in spec["per_layer"]]
    values = run.per_layer(report, names, untraced_wall=report["wall_s"])
    assert list(values) == names
    assert values["verify.single_max.cases"] > 0
    assert values["lattice.verify_integer_max.calls"] > 0
    plain = dict(child("plain", "verify", "--suite", "lattice", "--max-d", "3"),
                 mode="plain", setup_s=0.1)
    assert sorted(run.end_to_end([plain])) == sorted(
        m["name"] for m in spec["end_to_end"])


def test_launch_pins_the_child_and_records_its_cpu():
    cpu = max(os.sched_getaffinity(0))
    report = run.launch("plain", ("classes", "--d", "3", "--g", "2"), 60, cpu)
    assert report["cpu"] == cpu
    assert report["exit"] == 0 and report["setup_s"] > 0
