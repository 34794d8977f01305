"""Batch verification suites behind the `maroni verify` command.

Each suite runs a family of exact checks over an enumerated range of
boundary types and reports one line per check with the number of cases
covered.  The suites are also what the acceptance tests drive, so the CLI
and the test suite agree by construction.
"""

from __future__ import annotations

from fractions import Fraction

from . import formulas, lattice
from .chain import component_degrees, divisor_vector, pairing
from .combinatorics import (
    HurwitzParams,
    Partition,
    check_type_count,
    enumerate_boundary_types,
    enumerate_partitions,
    make_boundary_type,
    type_count,
)
from .errors import DomainError, InvariantError

# fixed check ranges: the lattice oracles run at g = (d-1)k, k in LATTICE_KS,
# on chains with m <= LATTICE_MAX_LCM
LATTICE_KS = (1, 2)
LATTICE_MAX_LCM = 6
PATEL_MAX_K = 10
WE_SQUARE_MAX_D = 12
TABLE2_GS = range(4, 11, 2)
# the types grow fast with d, so max_d above MAX_D is rejected
MAX_D = 10
SUITES = ("lattice", "identities", "tables", "all")

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


class CheckResult:
    def __init__(self, name: str):
        self.name, self.checked, self.failures = name, 0, []

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


def table1_rows() -> dict[tuple[int, tuple[int, ...], int], formulas.CheckRow]:
    """Per admissible class (d, parts, j mod 2(d-1)), d = 3, 4, 5: the delta of
    its representative against its TABLE1 entry (0 when unlisted).  A listed
    class that no admissible type reaches is a defect of TABLE1 itself."""
    rows = {}
    for d in (3, 4, 5):
        for mu in enumerate_partitions(d):
            for residue, bt in residue_representatives(d, mu):
                key = (d, mu.parts, residue)
                rows[key] = formulas.check_row(
                    f"d={d}", f"mu={mu} j%{2 * (d - 1)}={residue}",
                    lattice.correction_n(bt).delta,
                    Fraction(TABLE1.get(key, 0)))
    missing = TABLE1.keys() - rows.keys()
    if missing:
        raise InvariantError(f"listed pairs never reached: {sorted(missing)}")
    return rows


def _tally(result: CheckResult, rows, where: str = "") -> CheckResult:
    """Count every computed (non-SKIP) row and fail every FAIL row."""
    for row in rows:
        if row.status != "SKIP":
            result.count()
        if row.status == "FAIL":
            result.fail(f"{where}{row.family} {row.label}: computed "
                        f"{row.computed}, expected {row.expected}")
    return result


def run_table1_check() -> CheckResult:
    """Golden check of the positive-correction table for d = 3, 4, 5."""
    return _tally(CheckResult("table1: single-twist corrections for d=3,4,5"),
                  table1_rows().values())


def run_table2_check() -> CheckResult:
    """Golden check of the trigonal comparison families for g in TABLE2_GS."""
    result = CheckResult("table2: trigonal closure corrections")
    for g in TABLE2_GS:
        _tally(result, formulas.dp_trigonal_check(g), f"g={g} ")
    return result


def run_patel_check(max_d: int) -> CheckResult:
    """The j = 2 display equals sigma_st at the three partitions."""
    result = CheckResult("patel: j=2 display vs sigma_st")
    for d in range(3, max_d + 1):
        for k in range(1, PATEL_MAX_K + 1):
            params = HurwitzParams(d, (d - 1) * k)
            _tally(result, formulas.patel_consistency(params), f"d={d} k={k} ")
    return result


def _params_range(max_d: int, max_g: int):
    return (HurwitzParams(d, g) for d in range(3, max_d + 1)
            for g in range(d - 1, max_g + 1, d - 1))


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
            st, corr1 = formulas.sigma_st(bt), formulas.sigma_corr1(bt)
            res1 = lattice.correction_n(bt)
            corr1_id.count()
            if corr1 != st - res1.delta:
                corr1_id.fail(str(bt))
            res2 = lattice.correction_ln(bt) if bt.mu.has_unit_part else None
            if res2 is not None:
                corr2_id.count()
                if formulas.sigma_corr2(bt) != st - res2.delta:
                    corr2_id.fail(str(bt))
            # _correction already raises on either (exit 3, naming the type),
            # so this line can fail only if that check is weakened
            for twist, res in (("single", res1), ("joint", res2)):
                if res is not None:
                    nonneg.count()
                    pt = res.point
                    if res.delta_num < 0 or bt.m * pt.den**2 < 4 * pt.scaled_sum_sq:
                        nonneg.fail(f"{twist} twist at {bt}")

            flip = bt.flipped()
            symmetry.count()
            if (
                st != formulas.sigma_st(flip)
                or corr1 != formulas.sigma_corr1(flip)
                or formulas.lambda_coeff(bt) != formulas.lambda_coeff(flip)
                or formulas.psi_coeff(bt) != formulas.psi_coeff(flip)
            ):
                symmetry.fail(str(bt))

            cvc.count()  # c' is flip.c, computed from l
            if abs(bt.c) * (abs(bt.c) - 2 * (bt.d - 1)) != abs(flip.c) * (
                abs(flip.c) - 2 * (bt.d - 1)
            ):
                cvc.fail(str(bt))

            degrees.count()
            std = res1.std  # a_standard raised InvariantError on any defect
            m, coeffs = bt.m, divisor_vector(std.alpha)
            if any(sum(coeffs[t] * pairing(m, t, i)
                       for t in range(max(i - 1, 0), min(i + 1, m) + 1)) != deg
                   for i, deg in enumerate(std.degrees)):
                degrees.fail(f"{bt}: A.R_i differ from the matrix pairing")

            if explore_ties:  # equal rounded points give equal corrections
                tie_agree.count()
                tied = lattice.single_round(bt, explore_ties=True)
                if tied != res1.point:
                    tie_agree.fail(f"single twist at {bt}")
                if res2 is not None:
                    tied = lattice.joint_round(bt, explore_ties=True)
                    if tied != res2.point:
                        tie_agree.fail(f"joint twist at {bt}")

    results = [corr1_id, corr2_id, nonneg, symmetry, cvc, degrees]
    if explore_ties:
        results.append(tie_agree)
    return results


def run_we_square_check() -> CheckResult:
    """Exceptional branch square: closed form vs matrix pairing."""
    result = CheckResult("W_E^2 closed form = matrix pairing")
    for d in range(1, WE_SQUARE_MAX_D + 1):
        for mu in enumerate_partitions(d):
            result.count()
            delta = mu.delta  # W_E = sum delta_i R_i, paired by the matrix rows
            square = sum(e * deg for e, deg in zip(delta, component_degrees(delta)))
            if square != -mu.step_square_sum:
                result.fail(f"mu={mu}")
    return result


def _missed(bt, joint: bool, radius: int) -> str:
    """A failed integer-maximum line: the type, its value and its bound, read
    from its certificate, which builds no correction at a missed maximum."""
    value, bound = lattice.twist_certificate(bt, joint, radius)
    return f"{bt}: twist form value {value} below its edge bound {bound}"


def run_lattice_suite(max_d: int = 5, radius: int = 3) -> list[CheckResult]:
    """Integer-maximum certificates over an enumerated range.

    The twist lines hold when the rounded point reaches its edge bound, a
    maximum over the whole lattice, so the radius only names the claim of
    their labels; the one-node line scans its fibre with margin ``radius``."""
    single = CheckResult(f"single-twist integer maximum (radius {radius})")
    joint = CheckResult(f"joint-twist integer maximum (radius {radius})")
    effective = CheckResult("twisted divisors effective with no fibre part")
    nodal = CheckResult("split one-node fibre effective maximum")
    for d in range(3, max_d + 1):
        for k in LATTICE_KS:
            params = HurwitzParams(d, (d - 1) * k)
            for bt in enumerate_boundary_types(params):
                if bt.m > LATTICE_MAX_LCM:
                    continue
                # each oracle checks effectivity (raising) at a maximum it
                # certifies; a missed one fails its line
                single.count()
                effective.count()
                if not lattice.verify_integer_max(bt, radius):
                    single.fail(_missed(bt, False, radius))
                if bt.mu.has_unit_part:
                    joint.count()
                    effective.count()
                    if not lattice.verify_joint_max(bt, radius):
                        joint.fail(_missed(bt, True, radius))
                if d == 3 and bt.mu.parts == (1, 1, 1):
                    nodal.count()
                    if not lattice.verify_trigonal_nodal_max(bt, radius):
                        nodal.fail(str(bt))
    return [single, joint, effective, nodal]


def run_suites(suite: str, *, max_d: int, max_g: int,
               explore_ties: bool = False) -> list[CheckResult]:
    if suite not in SUITES:  # an unknown suite would run no check at all
        raise DomainError(f"unknown suite {suite!r}")
    if max_d < 3:  # no boundary type below d = 3, g = 2: checks would be empty
        raise DomainError(f"max-d must be >= 3, got {max_d}")
    if max_d > MAX_D:
        raise DomainError(f"max-d must be <= {MAX_D}, got {max_d}")
    if max_g < 2:
        raise DomainError(f"max-g must be >= 2, got {max_g}")
    check_type_count(sum(type_count(d, max_g // (d - 1)) for d in range(3, max_d + 1)),
                     f"max-g {max_g} at max-d {max_d}")
    out: list[CheckResult] = []
    if suite in ("lattice", "all"):
        out.extend(run_lattice_suite(max_d=max_d))
    if suite in ("identities", "all"):
        out.extend(run_identity_suite(max_d=max_d, max_g=max_g,
                                      explore_ties=explore_ties))
        out.append(run_we_square_check())
        out.append(run_patel_check(max_d=max_d))
    if suite in ("tables", "all"):
        out.append(run_table1_check())
        out.append(run_table2_check())
    return out
