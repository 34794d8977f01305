"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All comparisons are exact (tolerance 0): the entire library computes with
integers and fractions.  Run with ``pytest -s tests/test_acceptance.py`` to
see the per-criterion report lines.
"""

from fractions import Fraction

from elliptic_tail import elliptic_tail_special_value
import maroni.verify as V
from maroni.combinatorics import (
    HurwitzParams,
    Partition,
    enumerate_boundary_types,
    enumerate_partitions,
    gcd_profile,
    make_boundary_type,
)
from maroni.chain import a_standard, intersect
from maroni.formulas import (
    dp_trigonal_check,
    lambda_coeff,
    sigma_corr1,
    sigma_corr2,
    sigma_st,
)
from maroni.lattice import correction_ln, correction_n


def report(number: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance {number}] {name}: {status}")
    for message in failures[:10]:
        print(f"    {message}")
    assert not failures, f"criterion {number} ({name}): {failures[:10]}"


def test_criterion_1_single_twist_table():
    """Positive single-twist corrections for d=3,4,5 match the golden
    table exactly; every other residue class gives zero."""
    result = V.run_table1_check()
    assert result.checked >= 49
    report(1, "single-twist correction table d=3,4,5", result.failures)


def test_criterion_2_partial_compactification_display():
    failures = []
    for d in range(3, 7):
        for k in range(1, 11):
            params = HurwitzParams(d, (d - 1) * k)
            b = params.b
            expected = {
                "Delta": Fraction(-(k + 1) * (d - 2), 2 * (b - 1)),
                "E2": Fraction(2 * k + 1, 2 * (b - 1)),
                "E3": Fraction(-((d - 10) * (k + 1) + 4), 6 * (b - 1)),
            }
            mus = {
                "Delta": Partition((1,) * d),
                "E2": Partition((2, 2) + (1,) * (d - 4)) if d >= 4 else None,
                "E3": Partition((3,) + (1,) * (d - 3)),
            }
            for label, mu in mus.items():
                if mu is None:
                    continue  # no two-double-point partition below d=4
                direct = sigma_st(make_boundary_type(params, 2, mu))
                if direct != expected[label]:
                    failures.append(
                        f"d={d} k={k} {label}: {direct} != {expected[label]}"
                    )
    report(2, "j=2 display vs sigma_st for 3<=d<=6, k<=10", failures)


def test_criterion_3_trigonal_table():
    failures = []
    for g in range(4, 31, 2):
        for row in dp_trigonal_check(g):
            if row.status == "FAIL":
                failures.append(f"g={g} {row.family} {row.label}")
        # the two-component families tie the standard class to the Hodge
        # coefficient
        for g1 in range(0, g - 1):
            bt = make_boundary_type(
                HurwitzParams(3, g), 2 * (g1 + 2), Partition((1, 1, 1))
            )
            shift = Fraction(0) if g1 % 2 == 0 else Fraction(1, 4)
            if sigma_st(bt) != lambda_coeff(bt) / 2 - shift:
                failures.append(f"g={g} g1={g1} hodge relation")
    report(3, "trigonal closure corrections for even g <= 30", failures)


def test_criterion_4_integer_max_oracles():
    failures = []
    checked = 0
    for d in range(3, 7):
        for k in (1, 2):
            params = HurwitzParams(d, (d - 1) * k)
            for bt in enumerate_boundary_types(params):
                if bt.m > 6:
                    continue
                checked += 1
                if not V.lattice.verify_integer_max(bt, radius=3):
                    failures.append(f"single max fails: {params} j={bt.j} mu={bt.mu}")
                # effectivity of A + (d-1)N is asserted inside correction_n
                correction_n(bt)
                if not bt.mu.has_unit_part:
                    continue
                if not V.lattice.verify_joint_max(bt, radius=3):
                    failures.append(f"joint max fails: {params} j={bt.j} mu={bt.mu}")
                # effectivity of A + G is asserted inside correction_ln
                correction_ln(bt)
    assert checked >= 200
    report(4, "integer-maximum oracles at radius 3 (d<=6, lcm<=6)", failures)


def test_criterion_5_cross_formula_identities():
    failures = []
    joint_signs = set()
    for d in range(3, 7):
        for k in range(1, 5):
            params = HurwitzParams(d, (d - 1) * k)
            for bt in enumerate_boundary_types(params):
                res1 = correction_n(bt)
                if sigma_corr1(bt) != sigma_st(bt) - res1.delta:
                    failures.append(f"corr1 identity: {params} j={bt.j} mu={bt.mu}")
                if res1.delta < 0 or Fraction(bt.m, 4) - res1.point.sum_sq < 0:
                    failures.append(f"corr1 bounds: {params} j={bt.j} mu={bt.mu}")
                if not bt.mu.has_unit_part:
                    continue
                res2 = correction_ln(bt)
                joint_signs.add(1 if bt.c > 0 else -1)
                if sigma_corr2(bt) != sigma_st(bt) - res2.delta:
                    failures.append(f"corr2 identity: {params} j={bt.j} mu={bt.mu}")
                if res2.delta < 0:
                    failures.append(f"corr2 bounds: {params} j={bt.j} mu={bt.mu}")
    if joint_signs != {1, -1}:
        failures.append(f"imbalance signs covered: {joint_signs}, expected both")
    report(5, "cross-formula identities for d<=6, g<=4(d-1)", failures)


def test_criterion_5b_identities_hold_symbolically():
    """The c-dependence cancels in the corr2 identity for either sign."""
    import sympy

    c, d, l, m, S, E, L, J = sympy.symbols("c d l m S E L J", real=True)
    a = d - 1 + c
    fmax = m / (8 * (d - 1) * (d - 2)) * (l**2 + (d - 2) * a**2) + S / (8 * (d - 2))
    ferr = -(d - 2) / 2 * E - m / 8
    for sign in (1, -1):
        abs_c = sign * c  # c > 0 resp. c < 0
        fibre = -m * c / 2 if sign == 1 else 0
        sigma_standard = m * (-abs_c / 4 + c**2 / (8 * (d - 1))) + L + J
        sigma_joint = (
            L + J - S / (8 * (d - 2))
            - m * l**2 / (8 * (d - 1) * (d - 2))
            - (d - 2) / 2 * (m / 4 - E)
        )
        delta = fmax + ferr + fibre
        assert sympy.simplify(sigma_standard - sigma_joint - delta) == 0
    print("[acceptance 5b] corr2 identity cancels symbolically: PASS")


def test_criterion_6_structural_invariants():
    failures = []
    for d in range(1, 13):
        for mu in enumerate_partitions(d):
            delta, steps = gcd_profile(mu)
            if intersect(delta, delta) != -steps:
                failures.append(f"branch square: mu={mu}")
    for d in range(3, 7):
        for k in (1, 2, 3):
            params = HurwitzParams(d, (d - 1) * k)
            for bt in enumerate_boundary_types(params):
                cprime = bt.flipped().c
                if abs(bt.c) * (abs(bt.c) - 2 * (d - 1)) != abs(cprime) * (
                    abs(cprime) - 2 * (d - 1)
                ):
                    failures.append(f"c vs c': {params} j={bt.j} mu={bt.mu}")
                if sigma_st(bt) != sigma_st(bt.flipped()):
                    failures.append(f"sigma symmetry: {params} j={bt.j} mu={bt.mu}")
                std = a_standard(bt)  # integrality+degree checks built in
                if sum(std.degrees) != 0:
                    failures.append(f"degree sum: {params} j={bt.j} mu={bt.mu}")
    report(6, "structural invariants (branch square, c vs c', symmetry, degrees)",
           failures)


def test_criterion_7_elliptic_tail_positivity():
    failures = []
    for k in range(1, 61):
        for d1 in range(1, 61):
            value = elliptic_tail_special_value(k, d1)
            if (k, d1) == (1, 1):
                if value != 0:
                    failures.append("value at (1,1) should vanish")
            elif value <= 0:
                failures.append(f"k={k} d1={d1}: {value} <= 0")
    report(7, "elliptic-tail gain k(k+1)d1/2 - 1 positivity", failures)
