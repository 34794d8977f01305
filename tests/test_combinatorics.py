import itertools
from math import gcd, lcm

import pytest

from gcd_table import d_table
from maroni.combinatorics import (
    MAX_TYPES,
    BoundaryType,
    HurwitzParams,
    Partition,
    check_type_count,
    enumerate_boundary_types,
    enumerate_partitions,
    gcd_profile,
    make_boundary_type,
    type_count,
)
from maroni.errors import DomainError


def partitions_oracle(d, cap=None):
    """Independent recursive enumeration (ascending parts, then reversed)."""
    cap = d if cap is None else cap
    if d == 0:
        return [()]
    out = []
    for largest in range(1, min(cap, d) + 1):
        for rest in partitions_oracle(d - largest, largest):
            out.append((largest,) + rest)
    return out


KNOWN_COUNTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 9: 30,
                10: 42, 11: 56, 12: 77}


def test_partition_enumeration_matches_oracle():
    for d in range(1, 13):
        got = {p.parts for p in enumerate_partitions(d)}
        assert got == set(partitions_oracle(d))
        assert len(enumerate_partitions(d)) == KNOWN_COUNTS[d]


def test_partition_enumeration_examples():
    parts = [p.parts for p in enumerate_partitions(3)]
    assert parts == [(3,), (2, 1), (1, 1, 1)]
    assert [p.m for p in enumerate_partitions(3)] == [3, 2, 1]
    assert [p.parts for p in enumerate_partitions(1)] == [(1,)]
    fives = enumerate_partitions(5)
    assert len(fives) == 7
    by_parts = {p.parts: p for p in fives}
    assert by_parts[(4, 1)].m == 4
    assert by_parts[(3, 2)].m == 6


def test_partition_enumeration_rejects_nonpositive():
    with pytest.raises(DomainError):
        enumerate_partitions(0)


def test_partition_validation_and_parse():
    with pytest.raises(DomainError):
        Partition((1, 2))
    with pytest.raises(DomainError):
        Partition((3, 0))
    assert str(Partition((3, 2, 1))) == "(3|2|1)"


def test_gcd_profile_examples():
    assert gcd_profile(Partition((3,))) == ((0, 2, 2, 0), 8)
    assert gcd_profile(Partition((1, 1, 1))) == ((0, 0), 0)
    assert gcd_profile(Partition((4,))) == ((0, 3, 2, 3, 0), 20)
    # column 0 carries the parts themselves
    assert [row[0] for row in d_table(Partition((4, 2)))] == [4, 2]


def test_delta_symmetry_and_nonnegativity():
    for d in range(1, 13):
        for mu in enumerate_partitions(d):
            delta, m = mu.delta, mu.m
            assert delta[0] == delta[m] == 0
            assert all(x >= 0 for x in delta)
            assert all(delta[i] == delta[m - i] for i in range(m + 1))


def test_hurwitz_params_validation():
    p = HurwitzParams(4, 3)
    assert p.k == 1 and p.b == 12
    with pytest.raises(DomainError):
        HurwitzParams(2, 1)
    with pytest.raises(DomainError):
        HurwitzParams(3, 3)
    with pytest.raises(DomainError):
        HurwitzParams(4, 0)


def test_make_boundary_type_division_example():
    bt = make_boundary_type(HurwitzParams(4, 3), 5, Partition((4,)))
    assert (bt.q, bt.r, bt.c) == (1, 1, 1)
    assert bt.l == 7


def test_make_boundary_type_parity_rejection():
    with pytest.raises(DomainError, match=r"^j \+ d - n = 3 is odd for j=3, mu=\(1\|1\|1\)$"):
        make_boundary_type(HurwitzParams(3, 2), 3, Partition((1, 1, 1)))


def test_make_boundary_type_range_check():
    p = HurwitzParams(3, 2)
    with pytest.raises(DomainError):
        make_boundary_type(p, 1, Partition((3,)))
    with pytest.raises(DomainError):
        make_boundary_type(p, p.b - 1, Partition((3,)))
    with pytest.raises(DomainError):
        make_boundary_type(p, 4, Partition((2, 2)))
    # j + d - n is even for mu = (2|1), so only the range check rejects these
    for j in (1, p.b - 1):
        with pytest.raises(DomainError, match=rf"^branch index j={j} outside 2\.\.6$"):
            make_boundary_type(p, j, Partition((2, 1)))


def test_zero_remainder_example():
    bt = make_boundary_type(HurwitzParams(3, 4), 4, Partition((3,)))
    assert (bt.r, bt.c) == (1, 0)


def test_enumeration_d3_g2():
    types = enumerate_boundary_types(HurwitzParams(3, 2))
    keys = {(bt.j, bt.mu.parts) for bt in types}
    assert keys == {
        (2, (3,)), (4, (3,)), (3, (2, 1)), (2, (1, 1, 1)), (4, (1, 1, 1)),
    }
    assert all(bt.j <= bt.l for bt in types)


def test_enumeration_order_is_j_then_reverse_lex():
    types = enumerate_boundary_types(HurwitzParams(3, 2))
    seen = [(bt.j, bt.mu.parts) for bt in types]
    assert seen == sorted(seen, key=lambda t: (t[0], tuple(-x for x in t[1])))


def test_imbalance_depends_on_residue_only():
    params = HurwitzParams(4, 9)  # b = 30
    period = 2 * 3
    for mu in enumerate_partitions(4):
        for j in range(2, params.b // 2 + 1):
            if (j + 4 - mu.n) % 2 != 0 or j + period > params.b - 2:
                continue
            bt = make_boundary_type(params, j, mu)
            shifted = make_boundary_type(params, j + period, mu)
            assert bt.c == shifted.c and bt.r == shifted.r


def test_c_versus_cprime_invariant():
    # c' is the c of the flipped type, computed from l = b - j
    for d, g in [(3, 2), (3, 6), (4, 3), (4, 9), (5, 8), (6, 10)]:
        params = HurwitzParams(d, g)
        for bt in enumerate_boundary_types(params):
            flip = bt.flipped()
            lhs = abs(bt.c) * (abs(bt.c) - 2 * (d - 1))
            rhs = abs(flip.c) * (abs(flip.c) - 2 * (d - 1))
            assert lhs == rhs
            assert flip.flipped() == bt


def test_boundary_type_is_hashable_and_frozen():
    bt = make_boundary_type(HurwitzParams(3, 2), 2, Partition((3,)))
    assert isinstance(bt, BoundaryType)
    assert bt.j == 2 and bt.j <= bt.l
    with pytest.raises(AttributeError):
        bt.j = 4


def test_derived_partition_data_is_fresh_and_invisible():
    # m, delta and its step square sum are derived once per partition
    # object; each must equal a fresh computation from the parts, and none
    # may show in equality, hashing or repr
    for d in range(1, 13):
        for mu in enumerate_partitions(d):
            m = lcm(*mu.parts)
            delta = tuple(d - sum(gcd(p, i) for p in mu.parts) for i in range(m + 1))
            steps = sum((a - b) ** 2 for a, b in itertools.pairwise(delta))
            assert (mu.m, mu.delta, mu.step_square_sum) == (
                m, delta, steps), mu
            assert repr(mu) == f"Partition(parts={mu.parts!r})"
            assert hash(mu) == hash((mu.parts,))
    params = HurwitzParams(5, 8)
    types = enumerate_boundary_types(params)
    for bt in types:
        assert (bt.m, bt.delta, bt.delta_square_sum) == (
            lcm(*bt.mu.parts), bt.mu.delta, bt.mu.step_square_sum)
    # a set and a dict built from one enumeration answer for fresh objects
    rebuilt = [make_boundary_type(params, bt.j, Partition(tuple(bt.mu.parts)))
               for bt in types]
    assert set(rebuilt) == set(types) and len(set(types)) == len(types)
    labels = {bt: str(bt) for bt in types}
    assert [labels[bt] for bt in rebuilt] == [str(bt) for bt in types]
    assert [hash(a) for a in rebuilt] == [hash(b) for b in types]
    assert [repr(a) for a in rebuilt] == [repr(b) for b in types]
    partitions = {mu: mu.parts for mu in enumerate_partitions(7)}
    assert all(partitions[Partition(mu.parts)] == mu.parts for mu in partitions)
    bt = types[0]
    assert repr(bt) == (
        "BoundaryType(params=HurwitzParams(d=5, g=8), j=2, mu=Partition(parts=(5,)), "
        f"q={bt.q}, r={bt.r}, c={bt.c})")


def test_type_count_matches_the_enumeration():
    for d in range(3, 9):
        for k in range(1, 5):
            params = HurwitzParams(d, (d - 1) * k)
            count = type_count(d, k, k - 1)
            assert count == len(enumerate_boundary_types(params))


def test_closed_form_type_count_equals_the_walk():
    # walked[d][g]: the types of degree d up to genus g, one genus and
    # partition at a time (per mu, j = 2 + (d-n) % 2 .. b/2 in steps of 2)
    walked = {}
    for d in range(3, 11):
        partitions, total, walked[d] = enumerate_partitions(d), 0, []
        for g in range(200):
            if g and g % (d - 1) == 0:
                b = HurwitzParams(d, g).b
                total += sum((b // 2 - 2 - (d - mu.n) % 2) // 2 + 1 for mu in partitions)
            walked[d].append(total)
    for max_d in range(3, 11):
        for max_g in range(1, 200):
            closed = sum(type_count(d, max_g // (d - 1)) for d in range(3, max_d + 1))
            assert closed == sum(walked[d][max_g] for d in range(3, max_d + 1))
    assert sum(type_count(d, 160 // (d - 1)) for d in range(3, 11)) == 144872


def test_type_count_rejects_a_range_above_the_cap():
    count = type_count(20, 100, 99)
    assert count == 601293
    with pytest.raises(DomainError, match=rf"^g=1900 gives 601293 boundary types "
                                          rf"\(cap {MAX_TYPES}\)$"):
        check_type_count(count, "g=1900")
    check_type_count(MAX_TYPES, "at the cap")
