import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from chain_divisors import (
    add,
    component,
    fibral,
    full_fibre,
    shift_and_fibre_part,
    standard_divisor,
    theta_dot,
    theta_representative,
    we_divisor,
    zero_divisor,
)
from gcd_table import table_twist_degrees
from maroni.chain import (
    a_standard,
    component_degrees,
    expected_twist_degrees,
    intersect,
    pairing,
)
from maroni.combinatorics import (
    HurwitzParams,
    Partition,
    enumerate_boundary_types,
    enumerate_partitions,
    gcd_profile,
    make_boundary_type,
)
from maroni.errors import DomainError
from normal_surface import normal_surface_numbers


@st.composite
def divisors(draw, max_m=8):
    m = draw(st.integers(min_value=1, max_value=max_m))
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=12),
            min_size=m + 1,
            max_size=m + 1,
        )
    )
    return fibral(m, coeffs)


def test_pairing_matrix_entries():
    r = [component(3, i).coeffs for i in range(4)]
    assert intersect(r[0], r[0]) == -1
    assert intersect(r[3], r[3]) == -1
    assert intersect(r[1], r[1]) == -2
    assert intersect(r[2], r[1]) == 1
    assert intersect(r[0], r[2]) == 0


def test_bilinear_pairing_extends_matrix_rule():
    for m in range(1, 7):
        for i in range(m + 1):
            for j in range(m + 1):
                assert intersect(component(m, i).coeffs,
                                 component(m, j).coeffs) == pairing(m, i, j)


@pytest.mark.parametrize("m, i, j, message", [
    (0, 0, 0, "must be >= 1, got 0"),  # one component: no chain
    (-1, 0, 0, "must be >= 1, got -1"),
    (2, 3, 0, "index out of range for m=2"),
    (2, 0, -1, "index out of range for m=2"),
])
def test_pairing_rejects_a_chain_or_index_out_of_range(m, i, j, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        pairing(m, i, j)


@given(divisors())
def test_full_fibre_is_numerically_trivial(d):
    assert intersect(full_fibre(d.m).coeffs, d.coeffs) == 0


@st.composite
def divisor_pairs(draw, max_m=8):
    m = draw(st.integers(min_value=1, max_value=max_m))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    rows = st.lists(coeff, min_size=m + 1, max_size=m + 1)
    return fibral(m, draw(rows)), fibral(m, draw(rows))


@given(divisor_pairs())
def test_pairing_is_symmetric_and_bilinear(pair):
    e, f = pair[0].coeffs, pair[1].coeffs
    assert intersect(e, f) == intersect(f, e)
    assert intersect(add(*pair).coeffs, e) == intersect(e, e) + intersect(f, e)


@given(divisors())
def test_square_closed_form(d):
    e = d.coeffs
    closed = -sum((a - b) ** 2 for a, b in zip(e, e[1:]))
    assert intersect(e, e) == closed


@example(fibral(1, [Fraction(1, 3), 2]))  # m = 1: no interior row
@given(divisors())
def test_component_degrees_match_matrix_pairing(d):
    expected = [intersect(d.coeffs, component(d.m, i).coeffs)
                for i in range(d.m + 1)]
    assert list(component_degrees(d.coeffs)) == expected


def test_length_mismatch_rejected():
    with pytest.raises(DomainError):
        intersect(zero_divisor(2).coeffs, zero_divisor(3).coeffs)
    with pytest.raises(DomainError):
        fibral(2, [1, 2])
    with pytest.raises(DomainError):
        zero_divisor(2) - zero_divisor(3)


@pytest.mark.parametrize("e, f, message", [
    ([1, 2, 3], [1, 2], "lengths 3 and 2"),
    ([], [1], "lengths 0 and 1"),
    ([Fraction(1, 2)], [3], "must be >= 1, got 0"),  # one entry: no chain
    ([], [], "must be >= 1, got -1"),
])
def test_intersect_rejects_vectors_that_are_no_chain(e, f, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        intersect(e, f)


def test_intersect_pairs_ints_and_fractions_exactly():
    # R_0 + R_1 on m = 1 is the fibre: (1, 1).(1, 1) = -1 + 2 - 1 = 0
    assert intersect([1, 1], [1, 1]) == 0
    assert intersect((Fraction(1, 2), 0), [0, Fraction(2, 3)]) == Fraction(1, 3)
    value = intersect([2, -1, 0], [1, 1, 4])  # the matrix times f is (0, 3, -3)
    assert type(value) is Fraction and value == -3


def test_theta_on_fibre():
    assert theta_dot(full_fibre(4)) == -2


def test_theta_adjunction_matches_representative():
    rng = random.Random(0)
    for m in range(1, 9):
        rep = theta_representative(m)
        for _ in range(200):
            d = fibral(
                m,
                [
                    Fraction(rng.randint(-60, 60), rng.randint(1, 12))
                    for _ in range(m + 1)
                ],
            )
            via_rep = intersect(rep.coeffs, d.coeffs) - 2 * d.coeffs[m]
            assert theta_dot(d) == via_rep


def test_theta_against_standard_twist_divisor():
    for d, g in [(3, 2), (3, 4), (4, 3), (5, 4), (6, 5)]:
        for bt in enumerate_boundary_types(HurwitzParams(d, g)):
            std = a_standard(bt)
            assert theta_dot(standard_divisor(std)) == Fraction(bt.m * bt.c, 2)


def test_shift_examples():
    d = fibral(2, [2, 3, 1])
    sh, fib = shift_and_fibre_part(d)
    assert sh.coeffs == (Fraction(-1), Fraction(0), Fraction(-2))
    assert fib.coeffs == (Fraction(1), Fraction(1), Fraction(1))

    z = zero_divisor(2)
    assert shift_and_fibre_part(z) == (z, z)

    d = fibral(1, [-1, -1])
    sh, fib = shift_and_fibre_part(d)
    assert sh.coeffs == (Fraction(0), Fraction(0))
    assert fib.coeffs == (Fraction(-1), Fraction(-1))


@given(divisors())
def test_shift_properties(d):
    sh, fib = shift_and_fibre_part(d)
    assert max(sh.coeffs) == 0
    assert shift_and_fibre_part(sh)[0] == sh
    # d - sh is a rational multiple of the fibre
    diff = d - sh
    assert len(set(diff.coeffs)) == 1
    # fibre part defined by d + (-d)_sh
    neg_sh, _ = shift_and_fibre_part(d.scaled(-1))
    assert add(d, neg_sh) == fib


def test_standard_twist_divisor_examples():
    bt = make_boundary_type(HurwitzParams(3, 4), 4, Partition((3,)))
    assert bt.c == 0
    assert standard_divisor(a_standard(bt)).coeffs == (0, 1, 1, 0)

    bt = make_boundary_type(HurwitzParams(4, 3), 7, Partition((4,)))
    assert bt.c == -1
    assert standard_divisor(a_standard(bt)).coeffs == (2, 3, 2, 2, 0)

    bt = make_boundary_type(HurwitzParams(3, 2), 2, Partition((1, 1, 1)))
    assert bt.c == -2
    assert standard_divisor(a_standard(bt)).coeffs == (1, 0)


def test_standard_twist_degrees_everywhere():
    for d, g in [(3, 2), (3, 6), (4, 3), (4, 6), (5, 4), (6, 5)]:
        for bt in enumerate_boundary_types(HurwitzParams(d, g)):
            std = a_standard(bt)
            degrees = std.degrees
            assert degrees[0] == bt.d - bt.n - bt.r
            assert degrees[-1] == bt.r
            assert sum(degrees) == 0
            assert degrees == expected_twist_degrees(bt)
            # integral chain coefficients
            assert all(c.denominator == 1 for c in standard_divisor(std).coeffs)


def test_delta_twist_degrees_match_the_gcd_table():
    # the interior degrees (delta_{i-1} - 2 delta_i + delta_{i+1})/2 against
    # the gcd-table sums they replaced, for every partition of d = 3..12
    # (smaller d has no boundary type) and every residue r at g = d - 1
    partitions = 0
    for d in range(3, 13):
        for mu in enumerate_partitions(d):
            partitions += 1
            types = [bt for bt in enumerate_boundary_types(HurwitzParams(d, d - 1))
                     if bt.mu == mu]
            assert types
            for bt in types:
                assert expected_twist_degrees(bt) == table_twist_degrees(bt)
    assert partitions == 268


def test_degree_guard_rejects_inconsistent_type():
    # bypassing the factory with mismatched (r, c) must trip the degree check
    from maroni.combinatorics import BoundaryType
    from maroni.errors import InvariantError

    params = HurwitzParams(3, 4)
    bad = BoundaryType(params, j=4, mu=Partition((3,)), q=1, r=1, c=2)
    with pytest.raises(InvariantError):
        a_standard(bad)


def test_we_divisor_examples():
    bt = make_boundary_type(HurwitzParams(5, 4), 2, Partition((1,) * 5))
    w, wsq = we_divisor(bt)
    assert all(c == 0 for c in w.coeffs) and wsq == 0

    bt = make_boundary_type(HurwitzParams(3, 2), 2, Partition((3,)))
    w, wsq = we_divisor(bt)
    assert w.coeffs == (0, 2, 2, 0) and wsq == -8
    assert intersect(w.coeffs, w.coeffs) == -8

    bt = make_boundary_type(HurwitzParams(4, 3), 5, Partition((4,)))
    w, wsq = we_divisor(bt)
    assert w.coeffs == (0, 3, 2, 3, 0) and wsq == -20


def test_we_square_closed_form_up_to_d12():
    for d in range(1, 13):
        for mu in enumerate_partitions(d):
            delta, steps = gcd_profile(mu)
            assert intersect(delta, delta) == -steps


def test_normal_surface_basic_numbers():
    rec = normal_surface_numbers(1, 1, [0, 0], 0)
    assert rec.tprime_self == -2 and rec.c_dot_tprime == 1

    rec = normal_surface_numbers(2, 1, [0, 0], 0)
    assert rec.c_pullback_dot_ramification == 3
    rec = normal_surface_numbers(2, 1, [0, 0], 2)
    assert rec.c_pullback_dot_ramification == 7


def test_normal_surface_constant_coefficients():
    # constant multiplicities: only the step down to the implicit 0 remains
    rec = normal_surface_numbers(3, 2, [2, 2, 2], 0)
    assert rec.z_self == -3 * 4


def test_normal_surface_worked_case():
    rec = normal_surface_numbers(2, 1, [1, 1], 0, l=4, delta=(0, 1, 0))
    assert rec.z_self == -2
    assert rec.push_z_self == -2
    assert rec.tprime_pullback_dot_ramification == -2
    assert rec.push_z_dot_branch == 8


def test_normal_surface_index_range():
    with pytest.raises(DomainError):
        normal_surface_numbers(2, 0, [1, 1], 0)
    with pytest.raises(DomainError):
        normal_surface_numbers(2, 2, [1, 1], 0)
    with pytest.raises(DomainError):
        normal_surface_numbers(0, 1, [1, 1], 0)
