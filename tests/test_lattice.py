import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from maroni.chain import ChainModel, component, fibral, full_fibre, theta_representative
from maroni.combinatorics import (
    HurwitzParams,
    Partition,
    enumerate_boundary_types,
    make_boundary_type,
)
from maroni.errors import ApplicabilityError, DomainError
from maroni.lattice import (
    correction_ln,
    correction_n,
    critical_n,
    f_twist,
    ferr_ln,
    fmax_ln,
    fmax_n,
    joint_critical,
    joint_f_value,
    joint_quadratic,
    joint_round,
    round_chain,
    single_quadratic,
    verify_integer_max,
    verify_joint_max,
)

HALF = Fraction(1, 2)


def bt_of(d, g, j, parts):
    return make_boundary_type(HurwitzParams(d, g), j, Partition(parts))


def small_types(max_d=5, gs=None):
    for d in range(3, max_d + 1):
        for g in gs or (d - 1, 2 * (d - 1)):
            yield from enumerate_boundary_types(HurwitzParams(d, g))


# ---------------------------------------------------------------------------
# the quadratic functional


def test_f_vanishes_at_zero():
    for bt in small_types():
        chain = ChainModel(bt.m)
        assert f_twist(bt, fibral(chain, [0] * (bt.m + 1))) == 0


def test_f_at_dualizing_representative():
    # the representative is an integral point with value mc/2
    for bt in small_types():
        rep = theta_representative(ChainModel(bt.m))
        assert f_twist(bt, rep) == Fraction(bt.m * bt.c, 2)


def test_f_at_single_component():
    # mu=(3), c=0: R_0 is one of the tie branches of the rounded maximum
    bt = bt_of(3, 4, 4, (3,))
    chain = ChainModel(3)
    assert f_twist(bt, component(chain, 0)) == 1


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=30),
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
)
def test_f_invariant_under_fibre_shift(seed, q):
    rng = random.Random(seed)
    types = list(small_types(max_d=4))
    bt = types[seed % len(types)]
    chain = ChainModel(bt.m)
    n = fibral(
        chain,
        [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(bt.m + 1)],
    )
    shifted = n + full_fibre(chain).scaled(q)
    assert f_twist(bt, n) == f_twist(bt, shifted)


def test_critical_point_examples():
    assert critical_n(bt_of(3, 4, 4, (3,))) == (
        Fraction(3, 2), HALF, Fraction(0),
    )
    bt = bt_of(3, 2, 4, (1, 1, 1))  # m = 1, delta = 0
    assert critical_n(bt) == (Fraction(bt.a, 4),)
    assert critical_n(bt_of(4, 3, 5, (4,))) == (
        Fraction(8, 3), Fraction(3, 2), Fraction(1), Fraction(1, 6),
    )


def test_fmax_examples():
    assert fmax_n(bt_of(3, 4, 4, (3,))) == Fraction(5, 4)
    # balanced partition with c = 0: j = 0 mod 2(d-1)
    for d in (3, 4, 5):
        bt = bt_of(d, d - 1, 2 * (d - 1), (1,) * d)
        assert bt.c == 0
        assert fmax_n(bt) == Fraction(d - 1, 8)
    assert fmax_n(bt_of(4, 3, 5, (4,))) == Fraction(7, 2)


def test_fmax_equals_f_at_critical_point():
    for bt in small_types():
        crit = critical_n(bt)
        n = fibral(ChainModel(bt.m), list(crit) + [0])
        assert f_twist(bt, n) == fmax_n(bt)


def test_fmax_bounds_f_near_critical_point():
    # every integer point within radius 3 of the critical point stays
    # below the closed-form maximum
    import itertools

    for bt in small_types(max_d=4):
        if bt.m > 3:
            continue
        crit = critical_n(bt)
        chain = ChainModel(bt.m)
        centers = [round(t) for t in crit]
        fmax = fmax_n(bt)
        for h in itertools.product(range(-3, 4), repeat=bt.m):
            coords = [c + dh for c, dh in zip(centers, h)]
            assert f_twist(bt, fibral(chain, coords + [0])) <= fmax


# ---------------------------------------------------------------------------
# rounding


def test_round_chain_integer_targets():
    pt = round_chain([3, -2, 0, 7])
    assert pt.alpha == (3, -2, 0, 7)
    assert all(e == 0 for e in pt.e)
    assert pt.sum_sq == 0


def test_round_chain_known_cases():
    pt = round_chain([Fraction(3, 2), HALF, Fraction(0)])
    assert pt.sum_sq == Fraction(1, 4)
    pt = round_chain([Fraction(8, 3), Fraction(3, 2), Fraction(1), Fraction(1, 6)])
    assert pt.sum_sq == Fraction(1, 3)


def test_round_chain_constraints_hold():
    rng = random.Random(7)
    for _ in range(300):
        m = rng.randint(1, 8)
        targets = [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(m)]
        pt = round_chain(targets)
        assert all(a - t == e for a, t, e in zip(pt.alpha, targets, pt.e))
        chain = list(pt.e) + [Fraction(0)]
        assert -HALF <= chain[m - 1] < HALF
        assert all(abs(a - b) <= HALF for a, b in zip(chain, chain[1:]))


def test_round_chain_tie_exploration_agrees():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randint(1, 7)
        targets = [Fraction(rng.randint(-20, 20), rng.choice([1, 2, 2, 4])) for _ in range(m)]
        default = round_chain(targets)
        explored = round_chain(targets, explore_ties=True)
        assert default.sum_sq == explored.sum_sq


def test_round_chain_rejects_empty():
    with pytest.raises(DomainError):
        round_chain([])


# ---------------------------------------------------------------------------
# single-twist corrections


def test_correction_table_anchors():
    assert correction_n(bt_of(3, 4, 4, (3,))).delta == 1
    assert correction_n(bt_of(4, 3, 5, (4,))).delta == 1
    assert correction_n(bt_of(5, 8, 8, (5,))).delta == 2


def test_correction_components():
    res = correction_n(bt_of(4, 3, 5, (4,)))
    assert res.fmax == Fraction(7, 2)
    assert res.sum_sq == Fraction(1, 3)
    assert res.point.value == 3  # delta = 3 - mc/2 = 3 - 2


def test_correction_depends_on_residue_only():
    # the correction is a function of (j mod 2(d-1), mu): representatives
    # from one residue class agree
    for d, g in [(3, 6), (4, 9), (5, 8)]:
        params = HurwitzParams(d, g)
        period = 2 * (d - 1)
        for mu in [Partition((d,)), Partition((d - 1, 1)), Partition((1,) * d)]:
            for j in range(2, params.b - 2 - period + 1):
                if (j + d - mu.n) % 2 != 0:
                    continue
                lo = correction_n(make_boundary_type(params, j, mu))
                hi = correction_n(make_boundary_type(params, j + period, mu))
                assert lo.delta == hi.delta and lo.sum_sq == hi.sum_sq


def test_integer_max_examples():
    assert verify_integer_max(bt_of(3, 4, 4, (3,)), radius=3)
    assert verify_integer_max(bt_of(3, 2, 4, (1, 1, 1)), radius=5)


def _box(center, radius):
    return range(center - radius, center + radius + 1)


def test_integer_max_methods_agree():
    # the chain DP and the naive product scan agree on boxes around the
    # rounded point, where the rounded value is the maximum, and on boxes
    # moved away from it
    for bt in small_types(max_d=5):
        if bt.m > 4:
            continue
        alpha = round_chain(critical_n(bt)).alpha
        quad = single_quadratic(bt)
        for radius in range(3):
            boxes = [_box(a, radius) for a in alpha]
            assert quad.scan_max(boxes) == quad.box_max(boxes) == quad.value(alpha)
            moved = [_box(a + 2 * radius + 1, radius) for a in alpha]
            assert quad.scan_max(moved) == quad.box_max(moved) <= quad.value(alpha)


def test_single_quadratic_matches_pairing_functional():
    rng = random.Random(5)
    for bt in small_types():
        quad = single_quadratic(bt)
        chain = ChainModel(bt.m)
        for _ in range(6):
            alpha = [rng.randint(-8, 8) for _ in range(bt.m)]
            n_div = fibral(chain, [*alpha, 0])
            assert quad.value(alpha) == 2 * f_twist(bt, n_div)


def test_scan_radius_validation():
    bt = bt_of(3, 4, 4, (3,))
    with pytest.raises(DomainError):
        verify_integer_max(bt, radius=-1)


# ---------------------------------------------------------------------------
# joint corrections


def test_joint_requires_unit_part():
    bt = bt_of(3, 4, 4, (3,))
    with pytest.raises(ApplicabilityError):
        joint_critical(bt)
    with pytest.raises(ApplicabilityError):
        correction_ln(bt)


def test_joint_critical_tail_family():
    # d=3, mu=(1,1,1), j = 2(g - g2 + 1): x_0 = g2 + 1, g_0 = a/2
    g, g2 = 6, 3
    bt = bt_of(3, g, 2 * (g - g2 + 1), (1, 1, 1))
    x, grad = joint_critical(bt)
    assert x == (Fraction(g2 + 1),)
    assert grad == (Fraction(bt.a, 2),)


def test_joint_critical_nonnegative_on_canonical_types():
    for d in range(3, 7):
        g = d - 1
        while g <= 20:
            for bt in enumerate_boundary_types(HurwitzParams(d, g)):
                if not bt.mu.has_unit_part:
                    continue
                x, _ = joint_critical(bt)
                assert all(xi >= 0 for xi in x)
            g += d - 1


def test_joint_round_tail_cases():
    # g2 odd: the N-target (g2+2)/2 is a half-integer, e_0 = -1/2,
    # xi_0 = g2 + 1 stays integral
    g, g2 = 6, 3
    bt = bt_of(3, g, 2 * (g - g2 + 1), (1, 1, 1))
    assert bt.c == 0
    pt = joint_round(bt)
    assert pt.e == (-HALF,)
    assert pt.eprime == (Fraction(0),)
    assert pt.xi == (g2 + 1,)

    # g2 even: c = -2 and the target (g2+1)/2 is again a half-integer
    g2 = 2
    bt = bt_of(3, g, 2 * (g - g2 + 1), (1, 1, 1))
    assert bt.c == -2
    pt = joint_round(bt)
    assert pt.e == (-HALF,)
    assert pt.xi == (g2 + 1,)


def test_joint_round_parity_rule():
    for bt in small_types(max_d=6):
        if not bt.mu.has_unit_part:
            continue
        pt = joint_round(bt)
        m = bt.m
        for i, (e, ep) in enumerate(zip(pt.e, pt.eprime)):
            assert ep - e == (0 if (m - i) % 2 == 0 else HALF)
        assert all(x >= 0 for x in pt.xi)


def test_branch_functional_matches_branch_pairing():
    # the representative pairs on R_0..R_{m-1} like l sections through R_0
    # plus the exceptional part sum delta_i R_i
    from maroni.lattice import branch_functional_divisor

    for bt in small_types(max_d=6):
        if not bt.mu.has_unit_part:
            continue
        chain = ChainModel(bt.m)
        rep = branch_functional_divisor(bt)
        exceptional = fibral(chain, bt.delta)
        from maroni.chain import intersect

        for t in range(bt.m):
            expected = (bt.l if t == 0 else 0) + intersect(
                exceptional, component(chain, t)
            )
            assert intersect(rep, component(chain, t)) == expected


def test_joint_value_matches_closed_form():
    for bt in small_types(max_d=6):
        if not bt.mu.has_unit_part:
            continue
        x, g = joint_critical(bt)
        nvec = [Fraction(gi + xi, bt.d - 1) for gi, xi in zip(g, x)]
        assert joint_f_value(bt, nvec, x) == fmax_ln(bt)
        res = correction_ln(bt)
        assert res.point.value == fmax_ln(bt) + ferr_ln(bt, res.sum_sq)


def test_joint_correction_tail_values():
    g = 8
    for g2 in range(0, g):
        bt = bt_of(3, g, 2 * (g - g2 + 1), (1, 1, 1))
        expected = Fraction((g2 + 1) ** 2, 4)
        if g2 % 2 == 0:
            expected -= Fraction(1, 4)
        assert correction_ln(bt).delta == expected
    # hyperelliptic: both branch points on the far side
    bt = bt_of(3, g, 2, (1, 1, 1))
    assert correction_ln(bt).delta == Fraction(g * (g + 2), 4)


def test_joint_max_examples():
    for g in (4, 6, 8, 10):
        for g2 in range(0, g):
            bt = bt_of(3, g, 2 * (g - g2 + 1), (1, 1, 1))
            assert verify_joint_max(bt, radius=3)


def test_joint_max_radius_zero():
    bt = bt_of(3, 4, 4, (1, 1, 1))
    assert verify_joint_max(bt, radius=0)


def test_joint_max_methods_agree():
    cases = [bt for bt in small_types(max_d=5)
             if bt.mu.has_unit_part and bt.m <= 2]
    cases.append(bt_of(4, 3, 4, (3, 1)))  # one deeper chain, m = 3
    for bt in cases:
        pt = joint_round(bt)
        quad = joint_quadratic(bt)
        best = quad.value(zip(pt.alpha, pt.xi))
        for radius in range(3):
            boxes = [
                [(n, x) for n in _box(a, radius)
                 for x in _box(xi, radius) if x >= 0]
                for a, xi in zip(pt.alpha, pt.xi)
            ]
            assert quad.scan_max(boxes) == quad.box_max(boxes) == best


def test_joint_quadratic_matches_pairing_functional():
    rng = random.Random(6)
    for bt in small_types():
        if not bt.mu.has_unit_part:
            continue
        quad = joint_quadratic(bt)
        for _ in range(6):
            nvec = [rng.randint(-8, 8) for _ in range(bt.m)]
            xvec = [rng.randint(0, 8) for _ in range(bt.m)]
            assert quad.value(zip(nvec, xvec)) == (
                2 * (bt.d - 1) * joint_f_value(bt, nvec, xvec)
            )


def test_nodal_ray_forms():
    from fractions import Fraction as F

    from maroni.lattice import nodal_f1, trigonal_nodal_rays

    bt = bt_of(3, 6, 6, (1, 1, 1))
    l, b = bt.l, bt.params.b
    rays, best = trigonal_nodal_rays(bt)
    by = {r.label: r for r in rays}
    # degree-2 rays carry the zero form, degree-1 rays the two parabolas
    assert by["C1"].quadratic == by["C1"].linear == 0
    assert by["C2"].quadratic == by["C2"].linear == 0
    assert (by["T1"].quadratic, by["T1"].linear) == (F(-1, 4), F(l, 4))
    assert (by["T2"].quadratic, by["T2"].linear) == (F(-1, 4), F(b - l, 4))
    assert by["T1"].critical_value == F(l * l, 16)
    assert by["T2"].critical_value == F((b - l) ** 2, 16)
    assert best == F(max(l, b - l) ** 2, 16)
    # the degree-2 coordinate drops out of the mixed face
    for a1 in range(4):
        assert nodal_f1(bt, (a1, 0, 0, 5)) == nodal_f1(bt, (0, 0, 0, 5))
    # mixed degree-2 support is never an improvement
    assert nodal_f1(bt, (2, 0, 3, 0)) == -6


def test_nodal_max_brute_force():
    from maroni.lattice import verify_trigonal_nodal_max

    for g in (4, 6, 8):
        params = HurwitzParams(3, g)
        for j in range(2, params.b // 2 + 1, 2):
            bt = make_boundary_type(params, j, Partition((1, 1, 1)))
            assert verify_trigonal_nodal_max(bt)


def test_nodal_applicability():
    from maroni.lattice import trigonal_nodal_rays

    with pytest.raises(ApplicabilityError):
        trigonal_nodal_rays(bt_of(3, 4, 4, (3,)))
    with pytest.raises(ApplicabilityError):
        trigonal_nodal_rays(bt_of(4, 3, 2, (1, 1, 1, 1)))


def test_rounding_defect_two_routes():
    # the mixed-square expansion of the defect equals its closed form
    rng = random.Random(3)
    for _ in range(200):
        m = rng.randint(1, 12)
        e = [Fraction(0)] * m
        e[m - 1] = Fraction(rng.randint(-2, 1), 4)
        for i in range(m - 2, -1, -1):
            e[i] = e[i + 1] + Fraction(rng.randint(-2, 2), 4)
        eprime = [e[i] + (0 if (m - i) % 2 == 0 else HALF) for i in range(m)]
        ch_e = e + [Fraction(0)]
        ch_ep = eprime + [Fraction(0)]
        t = [ch_e[i - 1] - ch_e[i] for i in range(1, m + 1)]
        s = [ch_ep[i - 1] - ch_ep[i] for i in range(1, m + 1)]
        for d in (3, 4, 5, 6):
            expanded = (
                -Fraction(d - 2, 2) * sum(ti * ti for ti in t)
                - HALF * sum((ti - si) ** 2 for ti, si in zip(t, s))
            )
            sum_sq = sum(ti * ti for ti in t)
            assert expanded == -Fraction(d - 2, 2) * sum_sq - Fraction(m, 8)
