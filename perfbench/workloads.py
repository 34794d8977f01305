"""The benchmark's workloads and the golden-output check of each run.

Each workload is one fixed ``maroni`` command.  Its output at the commit
that introduced the benchmark is kept under ``golden/``; a run's output is
scored against it operation by operation, so a faster run that emits
fewer rows or checks fewer cases reads as failed work, not as a speed-up.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    kind: str  # "classes": an operation is one csv row; "verify": one check

    @property
    def golden_path(self) -> str:
        return os.path.join(GOLDEN_DIR, f"{self.name}.txt")

    def golden(self) -> str:
        with open(self.golden_path, encoding="utf-8") as fh:
            return fh.read()


WORKLOADS = {
    w.name: w
    for w in (
        # 3352 types, max m 140: ~80-90% is lattice rounding in default
        # mode; chain.a_standard and the oracles are never called
        Workload("classes_min",
                 ("classes", "--d", "16", "--g", "15", "--variant", "min",
                  "--format", "csv"), "classes"),
        # 398 types, max m 6: the brute-force integer-maximum oracles
        # (~45%), the chain pairings behind a_standard (~25%), the
        # corrections, and rounding in both modes, the 2^ties branch search
        # included; plus the published tables.  The range is kept small
        # (about 3 s a child) so that a run averages over many children.
        Workload("verify_all",
                 ("verify", "--suite", "all", "--max-d", "5", "--max-g", "12",
                  "--tie-exhaustive"), "verify"),
    )
}

_CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] (.*): (\d+) cases checked$")


def parse_checks(text: str) -> dict[str, tuple[str, int]]:
    """Check name -> (status, cases) from ``maroni verify`` output."""
    out = {}
    for line in text.splitlines():
        match = _CHECK_LINE.match(line)
        if match:
            out[match.group(2)] = (match.group(1), int(match.group(3)))
    return out


def score(kind: str, golden: str, output: str, exit_code: int) -> tuple[int, int]:
    """(attempted, failed) operations of one run against the golden output.

    classes: one operation per golden data row; a row fails when it differs
    from the golden row or is missing, every extra row is one more failed
    operation, and a changed header fails them all.  verify: one operation
    per golden check; it fails when it is missing, prints FAIL, checks fewer
    cases than the golden run, or the golden run checked none.  A non-zero
    exit fails every operation.
    """
    if kind == "classes":
        want, got = golden.splitlines(), output.splitlines()
        attempted = max(len(want), len(got)) - 1
        if exit_code != 0 or not got or got[0] != want[0]:
            return attempted, attempted
        failed = sum(1 for i in range(1, attempted + 1)
                     if i >= len(want) or i >= len(got) or want[i] != got[i])
        return attempted, failed
    want, got = parse_checks(golden), parse_checks(output)
    attempted = len(want)
    if exit_code != 0:
        return attempted, attempted
    failed = 0
    for name, (_, cases) in want.items():
        status, seen = got.get(name, ("FAIL", 0))
        if status != "PASS" or seen < cases or cases == 0:
            failed += 1
    return attempted, failed


def items(kind: str, output: str) -> int:
    """The item count behind wall_s: rows emitted, or cases checked."""
    if kind == "classes":
        return max(len(output.splitlines()) - 1, 0)
    return sum(cases for _, cases in parse_checks(output).values())


# verify check name -> the slug of its per-layer ``verify.<slug>.cases``
CHECK_SLUGS = {
    "sigma_corr1 = sigma_st - correction_n.delta": "corr1_identity",
    "sigma_corr2 = sigma_st - correction_ln.delta": "corr2_identity",
    "correction deltas >= 0 and m/4 - sum_sq >= 0": "nonneg",
    "sigma_st/corr1/lambda/psi symmetric in j <-> b-j": "symmetry",
    "|c|(|c|-2(d-1)) = |c'|(|c'|-2(d-1))": "cvc",
    "standard A integral with degree checks": "degrees",
    "W_E^2 closed form = matrix pairing": "we_square",
    "patel: j=2 display vs sigma_st": "patel",
    "single-twist integer maximum (radius 3)": "single_max",
    "joint-twist integer maximum (radius 3)": "joint_max",
    "twisted divisors effective with no fibre part": "effective",
    "split one-node fibre effective maximum": "nodal_max",
    "tie-exploring rounding agrees with default": "tie_agree",
    "table1: single-twist corrections for d=3,4,5": "table1",
    "table2: trigonal closure corrections": "table2",
}
