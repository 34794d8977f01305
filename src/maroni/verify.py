"""Batch verification suites behind the `maroni verify` command.

Each suite runs a family of exact checks over an enumerated range of
boundary types and reports one line per check with the number of cases
covered.  The suites are also what the acceptance tests drive, so the CLI
and the test suite agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import formulas, lattice
from .chain import ChainModel, a_standard, fibral, intersect
from .combinatorics import (
    HurwitzParams,
    Partition,
    enumerate_boundary_types,
    enumerate_partitions,
    gcd_profile,
    make_boundary_type,
)
from .errors import ApplicabilityError

# the fourteen positive single-twist corrections for d = 3, 4, 5, keyed by
# (d, parts, j mod 2(d-1))
TABLE1: dict[tuple[int, tuple[int, ...], int], int] = {
    (3, (3,), 0): 1,
    (4, (4,), 1): 1,
    (4, (4,), 5): 1,
    (4, (3, 1), 0): 1,
    (4, (2, 2), 0): 1,
    (5, (5,), 0): 2,
    (5, (5,), 2): 1,
    (5, (5,), 6): 1,
    (5, (4, 1), 1): 1,
    (5, (4, 1), 7): 1,
    (5, (3, 2), 1): 1,
    (5, (3, 2), 7): 1,
    (5, (3, 1, 1), 0): 1,
    (5, (2, 2, 1), 0): 1,
}


@dataclass
class CheckResult:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Pass only when at least one case was covered and none failed."""
        return self.checked > 0 and not self.failures

    def count(self) -> None:
        self.checked += 1

    def fail(self, message: str) -> None:
        self.failures.append(message)


def residue_representatives(d: int, mu: Partition):
    """One admissible boundary type per residue class of j mod 2(d-1).

    The single-twist correction depends on j only through this residue, so
    one representative (taken at k = 3, where every residue is realized)
    covers the class.
    """
    params = HurwitzParams(d, 3 * (d - 1))
    period = 2 * (d - 1)
    for residue in range(period):
        j = residue if residue >= 2 else residue + period
        if (j + d - mu.n) % 2 != 0:
            continue
        yield residue, make_boundary_type(params, j, mu)


def table1_deltas(d: int):
    """(mu, residue, computed delta) over all admissible residue classes."""
    for mu in enumerate_partitions(d):
        for residue, bt in residue_representatives(d, mu):
            yield mu, residue, lattice.correction_n(bt).delta


def run_table1_check() -> CheckResult:
    """Golden check of the positive-correction table for d = 3, 4, 5."""
    result = CheckResult("table1: single-twist corrections for d=3,4,5")
    seen = set()
    for d in (3, 4, 5):
        for mu, residue, delta in table1_deltas(d):
            result.count()
            key = (d, mu.parts, residue)
            expected = Fraction(TABLE1.get(key, 0))
            if delta != expected:
                result.fail(f"d={d} mu={mu} j%{2*(d-1)}={residue}: "
                            f"delta={delta}, expected {expected}")
            if key in TABLE1:
                seen.add(key)
    missing = set(TABLE1) - seen
    if missing:
        result.fail(f"listed pairs never reached: {sorted(missing)}")
    return result


def run_table2_check(gs) -> CheckResult:
    """Golden check of the trigonal comparison families for the given g."""
    result = CheckResult("table2: trigonal closure corrections")
    for g in gs:
        for row in formulas.dp_trigonal_check(g):
            if row.status == "SKIP":
                continue
            result.count()
            if row.status != "PASS":
                result.fail(
                    f"g={g} {row.family} {row.label}: computed {row.computed}, "
                    f"expected {row.expected}"
                )
    return result


def run_patel_check(max_d: int = 6, max_k: int = 10) -> CheckResult:
    """The j = 2 display equals sigma_st at the three partitions."""
    result = CheckResult("patel: j=2 display vs sigma_st")
    for d in range(3, max_d + 1):
        for k in range(1, max_k + 1):
            params = HurwitzParams(d, (d - 1) * k)
            for label, displayed, direct in formulas.patel_consistency(params):
                if direct is None:
                    continue
                result.count()
                if displayed != direct:
                    result.fail(
                        f"d={d} k={k} {label}: display {displayed} != "
                        f"sigma_st {direct}"
                    )
    return result


def _params_range(max_d: int, max_g: int):
    for d in range(3, max_d + 1):
        g = d - 1
        while g <= max_g:
            yield HurwitzParams(d, g)
            g += d - 1


def run_identity_suite(max_d: int = 6, max_g: int = 20,
                       explore_ties: bool = False) -> list[CheckResult]:
    """Cross-module identities and structural invariants over a range."""
    corr1_id = CheckResult("sigma_corr1 = sigma_st - correction_n.delta")
    corr2_id = CheckResult("sigma_corr2 = sigma_st - correction_ln.delta")
    nonneg = CheckResult("correction deltas >= 0 and m/4 - sum_sq >= 0")
    symmetry = CheckResult("sigma_st/corr1/lambda/psi symmetric in j <-> b-j")
    cvc = CheckResult("|c|(|c|-2(d-1)) = |c'|(|c'|-2(d-1))")
    degrees = CheckResult("standard A integral with degree checks")
    tie_agree = CheckResult("tie-exploring rounding agrees with default")

    for params in _params_range(max_d, max_g):
        for bt in enumerate_boundary_types(params):
            res1 = lattice.correction_n(bt)
            corr1_id.count()
            if formulas.sigma_corr1(bt) != formulas.sigma_st(bt) - res1.delta:
                corr1_id.fail(f"{params} j={bt.j} mu={bt.mu}")
            nonneg.count()
            if res1.delta < 0 or Fraction(bt.m, 4) - res1.sum_sq < 0:
                nonneg.fail(f"single twist at {params} j={bt.j} mu={bt.mu}")
            try:
                res2 = lattice.correction_ln(bt)
            except ApplicabilityError:
                res2 = None
            if res2 is not None:
                corr2_id.count()
                if formulas.sigma_corr2(bt) != formulas.sigma_st(bt) - res2.delta:
                    corr2_id.fail(f"{params} j={bt.j} mu={bt.mu}")
                nonneg.count()
                if res2.delta < 0:
                    nonneg.fail(f"joint twist at {params} j={bt.j} mu={bt.mu}")

            flip = bt.flipped()
            symmetry.count()
            if (
                formulas.sigma_st(bt) != formulas.sigma_st(flip)
                or formulas.sigma_corr1(bt) != formulas.sigma_corr1(flip)
                or formulas.lambda_coeff(bt) != formulas.lambda_coeff(flip)
                or formulas.psi_coeff(bt) != formulas.psi_coeff(flip)
            ):
                symmetry.fail(f"{params} j={bt.j} mu={bt.mu}")

            cvc.count()
            if abs(bt.c) * (abs(bt.c) - 2 * (bt.d - 1)) != abs(bt.cprime) * (
                abs(bt.cprime) - 2 * (bt.d - 1)
            ):
                cvc.fail(f"{params} j={bt.j} mu={bt.mu}")

            degrees.count()
            a_standard(bt)  # raises InvariantError on any defect

            if explore_ties:
                tie_agree.count()
                if lattice.correction_n(bt, explore_ties=True).delta != res1.delta:
                    tie_agree.fail(f"single twist at {params} j={bt.j} mu={bt.mu}")
                if res2 is not None and (
                    lattice.correction_ln(bt, explore_ties=True).delta
                    != res2.delta
                ):
                    tie_agree.fail(f"joint twist at {params} j={bt.j} mu={bt.mu}")

    results = [corr1_id, corr2_id, nonneg, symmetry, cvc, degrees]
    if explore_ties:
        results.append(tie_agree)
    return results


def run_we_square_check(max_d: int = 12) -> CheckResult:
    """Exceptional branch square: closed form vs matrix pairing."""
    result = CheckResult("W_E^2 closed form = matrix pairing")
    for d in range(1, max_d + 1):
        for mu in enumerate_partitions(d):
            result.count()
            profile = gcd_profile(mu)
            w = fibral(ChainModel(mu.m), profile.delta)
            if intersect(w, w) != -profile.step_square_sum:
                result.fail(f"mu={mu}")
    return result


def run_lattice_suite(max_d: int = 5, radius: int = 3,
                      ks=(1, 2), max_lcm: int = 6) -> list[CheckResult]:
    """Brute-force integer-maximum oracles over an enumerated range."""
    single = CheckResult(f"single-twist integer maximum (radius {radius})")
    joint = CheckResult(f"joint-twist integer maximum (radius {radius})")
    effective = CheckResult("twisted divisors effective with no fibre part")
    nodal = CheckResult("split one-node fibre effective maximum")
    for d in range(3, max_d + 1):
        for k in ks:
            params = HurwitzParams(d, (d - 1) * k)
            for bt in enumerate_boundary_types(params):
                if bt.m > max_lcm:
                    continue
                single.count()
                if not lattice.verify_integer_max(bt, radius):
                    single.fail(f"{params} j={bt.j} mu={bt.mu}")
                effective.count()
                lattice.correction_n(bt)  # raises on any effectivity defect
                try:
                    if not lattice.verify_joint_max(bt, radius):
                        joint.fail(f"{params} j={bt.j} mu={bt.mu}")
                    joint.count()
                    effective.count()
                    lattice.correction_ln(bt)
                except ApplicabilityError:
                    pass
                if d == 3 and bt.mu.parts == (1, 1, 1):
                    nodal.count()
                    if not lattice.verify_trigonal_nodal_max(bt, radius):
                        nodal.fail(f"{params} j={bt.j} mu={bt.mu}")
    return [single, joint, effective, nodal]


def run_suites(suite: str, *, radius: int = 3, max_d: int = 5,
               max_g: int = 16, explore_ties: bool = False) -> list[CheckResult]:
    out: list[CheckResult] = []
    if suite in ("lattice", "all"):
        out.extend(run_lattice_suite(max_d=max_d, radius=radius))
    if suite in ("identities", "all"):
        out.extend(run_identity_suite(max_d=max_d, max_g=max_g,
                                      explore_ties=explore_ties))
        out.append(run_we_square_check())
        out.append(run_patel_check(max_d=max(max_d, 3)))
    if suite in ("tables", "all"):
        out.append(run_table1_check())
        out.append(run_table2_check(range(4, 11, 2)))
    return out
