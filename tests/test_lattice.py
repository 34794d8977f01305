import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from chain_divisors import (
    add,
    branch_functional_divisor,
    component,
    fibral,
    full_fibre,
    shift_and_fibre_part,
    standard_divisor,
    theta_representative,
)
from box_oracle import box_max, scan_max
from maroni.chain import a_standard, intersect
from maroni.combinatorics import (
    HurwitzParams,
    Partition,
    enumerate_boundary_types,
    enumerate_partitions,
    make_boundary_type,
)
from maroni.errors import DomainError, InvariantError
import maroni.lattice as lattice
from maroni.lattice import (
    correction_ln,
    correction_n,
    f_twist,
    joint_f_value,
    joint_round,
    round_chain,
    single_round,
    verify_integer_max,
    verify_joint_max,
)
from maroni.nodal import _nodal_max_x4, nodal_f1, verify_trigonal_nodal_max
import maroni.twist as twist
from maroni.twist import twist_quadratic, twist_states
from nodal_oracle import oracle_nodal_max, trigonal_nodal_rays
from rounding_oracle import (
    ferr_ln,
    oracle_critical_n,
    oracle_fmax_ln,
    oracle_fmax_n,
    oracle_joint_critical,
    oracle_joint_round,
    oracle_round,
    over_common_denominator,
)

HALF = Fraction(1, 2)


def round_fractions(targets, explore_ties=False):
    """``round_chain`` on rational targets, over their common denominator."""
    nums, den = over_common_denominator(targets)
    return round_chain(nums, explore_ties, den=den)


def fmax_and_value(bt, res):
    """f_max and the functional's value of a correction at bt, as Fractions.

    Over the scale 8(d-1)k the value is delta minus the fibre term f_A, and
    f_max adds S = den^2 sum_sq and the defect, m(d-1)k for the joint twist
    (a point with xi) and 0 for the single one.
    """
    value = res.delta_num + (bt.m * bt.c * res.scale // 2 if bt.c > 0 else 0)
    defect = 0 if res.point.xi is None else bt.m * res.scale // 8
    fmax = value + res.point.scaled_sum_sq + defect
    return Fraction(fmax, res.scale), Fraction(value, res.scale)


def residuals(point):
    """The residuals e_i = E_i/den of an integer point; oracle points store e."""
    if isinstance(point, lattice.RoundedPoint):
        return tuple(Fraction(s, point.den) for s in point.scaled)
    return point.e


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
        assert f_twist(bt, fibral(bt.m, [0] * (bt.m + 1)).coeffs) == 0


def test_f_at_dualizing_representative():
    # the representative is an integral point with value mc/2
    for bt in small_types():
        rep = theta_representative(bt.m)
        assert f_twist(bt, rep.coeffs) == Fraction(bt.m * bt.c, 2)


def test_f_at_single_component():
    # mu=(3), c=0: R_0 is one of the tie branches of the rounded maximum
    bt = bt_of(3, 4, 4, (3,))
    assert f_twist(bt, component(3, 0).coeffs) == 1


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=30),
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
)
def test_f_invariant_under_fibre_shift(seed, q):
    rng = random.Random(seed)
    types = list(small_types(max_d=4))
    bt = types[seed % len(types)]
    n = fibral(
        bt.m,
        [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(bt.m + 1)],
    )
    shifted = add(n, full_fibre(bt.m).scaled(q))
    assert f_twist(bt, n.coeffs) == f_twist(bt, shifted.coeffs)


def test_critical_point_examples():
    assert oracle_critical_n(bt_of(3, 4, 4, (3,))) == [
        Fraction(3, 2), HALF, Fraction(0),
    ]
    bt = bt_of(3, 2, 4, (1, 1, 1))  # m = 1, delta = 0
    assert oracle_critical_n(bt) == [Fraction(bt.a, 4)]
    assert oracle_critical_n(bt_of(4, 3, 5, (4,))) == [
        Fraction(8, 3), Fraction(3, 2), Fraction(1), Fraction(1, 6),
    ]


def test_fmax_examples():
    assert oracle_fmax_n(bt_of(3, 4, 4, (3,))) == Fraction(5, 4)
    # balanced partition with c = 0: j = 0 mod 2(d-1)
    for d in (3, 4, 5):
        bt = bt_of(d, d - 1, 2 * (d - 1), (1,) * d)
        assert bt.c == 0
        assert oracle_fmax_n(bt) == Fraction(d - 1, 8)
    assert oracle_fmax_n(bt_of(4, 3, 5, (4,))) == Fraction(7, 2)


def test_fmax_equals_f_at_critical_point():
    for bt in small_types():
        crit = oracle_critical_n(bt)
        n = fibral(bt.m, crit + [0])
        assert f_twist(bt, n.coeffs) == oracle_fmax_n(bt)


def test_fmax_bounds_f_near_critical_point():
    # every integer point within radius 3 of the critical point stays
    # below the closed-form maximum
    import itertools

    for bt in small_types(max_d=4):
        if bt.m > 3:
            continue
        crit = oracle_critical_n(bt)
        centers = [round(t) for t in crit]
        fmax = oracle_fmax_n(bt)
        for h in itertools.product(range(-3, 4), repeat=bt.m):
            coords = [c + dh for c, dh in zip(centers, h)]
            assert f_twist(bt, fibral(bt.m, coords + [0]).coeffs) <= fmax


# ---------------------------------------------------------------------------
# rounding


def test_round_chain_integer_targets():
    pt = round_chain([3, -2, 0, 7], den=1)
    assert pt.alpha == (3, -2, 0, 7)
    assert all(e == 0 for e in residuals(pt))
    assert pt.sum_sq == 0


def test_round_chain_known_cases():
    pt = round_fractions([Fraction(3, 2), HALF, Fraction(0)])
    assert pt.sum_sq == Fraction(1, 4)
    pt = round_fractions([Fraction(8, 3), Fraction(3, 2), Fraction(1), Fraction(1, 6)])
    assert pt.sum_sq == Fraction(1, 3)


def test_round_chain_constraints_hold():
    rng = random.Random(7)
    for _ in range(300):
        m = rng.randint(1, 8)
        targets = [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(m)]
        pt = round_fractions(targets)
        assert all(a - t == e for a, t, e in zip(pt.alpha, targets, residuals(pt)))
        chain = list(residuals(pt)) + [Fraction(0)]
        assert -HALF <= chain[m - 1] < HALF
        assert all(abs(a - b) <= HALF for a, b in zip(chain, chain[1:]))


def test_round_chain_tie_exploration_agrees():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randint(1, 7)
        targets = [Fraction(rng.randint(-20, 20), rng.choice([1, 2, 2, 4])) for _ in range(m)]
        default = round_fractions(targets)
        explored = round_fractions(targets, explore_ties=True)
        assert default.sum_sq == explored.sum_sq


def test_round_chain_rejects_empty():
    with pytest.raises(DomainError):
        round_chain([], den=1)
    with pytest.raises(DomainError):
        round_chain([1, 2], den=0)
    with pytest.raises(TypeError):  # the denominator is never inferred
        round_chain([1, 2])


# differential tests of the integer pass against the Fraction search

ORACLE_MAX_M = 120  # the oracle's list copies are O(m^2)
ORACLE_MAX_TIES = 8  # its tie mode walks 2^ties branches


def _fields(point, joint=False):
    out = (point.alpha, residuals(point), point.sum_sq)
    return out + (point.xi,) if joint else out  # xi = x + e' fixes e' too


def _ties(point):
    """Tied edges: the default choice leaves an edge residual of -1/2."""
    chain = [*residuals(point), 0]
    return sum(a - b == -HALF for a, b in zip(chain, chain[1:]))


@st.composite
def admissible_types(draw, max_d=30):
    """A random admissible (d, k, j, mu), j on either side of b/2."""
    d = draw(st.integers(min_value=3, max_value=max_d))
    parts, left = [], d
    while left:
        parts.append(draw(st.integers(min_value=1, max_value=left)))
        left -= parts[-1]
    mu = Partition(tuple(sorted(parts, reverse=True)))
    assume(mu.m <= ORACLE_MAX_M)
    params = HurwitzParams(d, (d - 1) * draw(st.integers(min_value=1, max_value=3)))
    parity = (d - mu.n) % 2
    half_j = draw(st.integers(min_value=1, max_value=(params.b - 2 - parity) // 2))
    return make_boundary_type(params, 2 * half_j + parity, mu)


@settings(max_examples=150, deadline=None)
@given(admissible_types())
def test_integer_rounding_matches_fraction_oracle(bt):
    default = oracle_round(oracle_critical_n(bt))
    for ties in (False, True):
        want = default
        if ties and _ties(default) <= ORACLE_MAX_TIES:
            want = oracle_round(oracle_critical_n(bt), explore_ties=True)
        assert _fields(single_round(bt, ties)) == _fields(want)
    if not bt.mu.has_unit_part:
        return
    default = oracle_joint_round(bt)
    for ties in (False, True):
        if min(default.xi) < 0:
            with pytest.raises(InvariantError):
                joint_round(bt, ties)
            continue
        want = default
        if ties and _ties(default) <= ORACLE_MAX_TIES:
            want = oracle_joint_round(bt, explore_ties=True)
        assert _fields(joint_round(bt, ties), joint=True) == _fields(want, joint=True)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=-20, max_value=20), st.sampled_from([1, 2, 4])),
        min_size=1,
        max_size=8,
    )
)
def test_round_chain_matches_oracle_with_ties(pairs):
    # denominators 1, 2 and 4 put ties on many edges
    targets = [Fraction(p, q) for p, q in pairs]
    for ties in (False, True):
        want = _fields(oracle_round(targets, ties))
        assert _fields(round_fractions(targets, ties)) == want
        nums = [int(t * 4) for t in targets]
        assert _fields(round_chain(nums, ties, den=4)) == want


# ---------------------------------------------------------------------------
# single-twist corrections


def test_correction_table_anchors():
    assert correction_n(bt_of(3, 4, 4, (3,))).delta == 1
    assert correction_n(bt_of(4, 3, 5, (4,))).delta == 1
    assert correction_n(bt_of(5, 8, 8, (5,))).delta == 2


def test_correction_components():
    bt = bt_of(4, 3, 5, (4,))
    res = correction_n(bt)
    assert fmax_and_value(bt, res) == (Fraction(7, 2), 3)  # delta = 3 - mc/2 = 3 - 2
    assert res.point.sum_sq == Fraction(1, 3)


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
                assert lo.delta == hi.delta and lo.point.sum_sq == hi.point.sum_sq


def test_corrections_depend_on_the_residue_class_across_genera():
    # verify.residue_representatives takes one type per (mu, j mod 2(d-1));
    # delta and S = den^2 sum_sq agree over k = 1..4 within each class
    for d in range(3, 7):
        seen = {}
        for k in range(1, 5):
            for bt in enumerate_boundary_types(HurwitzParams(d, (d - 1) * k)):
                res = correction_n(bt)
                key = (bt.mu, bt.j % (2 * (d - 1)))
                got = (res.delta, res.point.scaled_sum_sq)
                assert seen.setdefault(key, got) == got, (bt, key)
        assert len(seen) == len(enumerate_partitions(d)) * (d - 1)


def test_every_type_has_the_delta_of_its_residue_class_representative():
    # table1 checks one representative per class (d, mu, j mod 2(d-1)),
    # taken at k = 3; every type of d = 3..6, k = 1..4, in both
    # orientations, has the delta of its class's representative
    from maroni.verify import residue_representatives

    checked, reached, classes = 0, set(), {}
    for d in range(3, 7):
        period = 2 * (d - 1)
        for mu in enumerate_partitions(d):
            for residue, rep in residue_representatives(d, mu):
                classes[mu, residue] = correction_n(rep).delta
        for k in range(1, 5):
            for bt in enumerate_boundary_types(HurwitzParams(d, (d - 1) * k)):
                for oriented in (bt, bt.flipped()):
                    key = (oriented.mu, oriented.j % period)
                    assert correction_n(oriented).delta == classes[key], oriented
                    checked += 1
                    reached.add(key)
    assert (checked, len(classes)) == (1364, 104)
    assert reached == set(classes)


def test_integer_max_examples():
    assert verify_integer_max(bt_of(3, 4, 4, (3,)), radius=3)
    assert verify_integer_max(bt_of(3, 2, 4, (1, 1, 1)), radius=5)


def _box(center, radius):
    return range(center - radius, center + radius + 1)


def test_box_max_example():
    # with f = 3 g_0 - (g_0 - g_1)^2 - g_1^2 on a two-node chain, the
    # brute-force maximum over -2..2 in each node is 4, at (2, 1)
    quad = twist.ChainQuadratic(((0, 3), (0, 0)), weights=(0, 1))
    box = [(0, g) for g in range(-2, 3)]
    assert (box_max(quad, [box, box]), quad.value([(0, 2), (0, 1)])) == (4, 4)


def single_quadratic(bt):
    return twist_quadratic(bt, a_standard(bt).degrees)


def joint_quadratic(bt):
    return twist_quadratic(bt, a_standard(bt).degrees, bt.chain_nums(bt.l))


def test_integer_max_methods_agree():
    # the chain DP and the naive product scan agree on boxes around the
    # rounded point, where the rounded value is the maximum, and on boxes
    # moved away from it; likewise for the joint twist below
    for bt in small_types(max_d=5):
        if bt.m > 4:
            continue
        alpha = round_fractions(oracle_critical_n(bt)).alpha
        quad = single_quadratic(bt)
        best = quad.value(twist_states(bt.d, alpha))
        for radius in range(3):
            boxes = [twist_states(bt.d, _box(a, radius)) for a in alpha]
            assert scan_max(quad, boxes) == box_max(quad, boxes) == best
            moved = [twist_states(bt.d, _box(a + 2 * radius + 1, radius))
                     for a in alpha]
            assert scan_max(quad, moved) == box_max(quad, moved) <= best


def _joint_boxes(bt):
    """The joint form, its value at the rounded point, and the point's boxes.

    ``boxes(radius, shift_n, shift_x, nonneg)`` gives, per chain position,
    the states (x, g) of every (n, x) within ``radius`` of the shifted
    point, with x >= 0 kept only when ``nonneg``.
    """
    pt, quad = joint_round(bt), joint_quadratic(bt)

    def boxes(radius, shift_n=0, shift_x=0, nonneg=True):
        return [twist_states(bt.d, *zip(*itertools.product(
                    _box(a + shift_n, radius),
                    [x for x in _box(xi + shift_x, radius) if x >= 0 or not nonneg])))
                for a, xi in zip(pt.alpha, pt.xi)]

    return quad, quad.value(twist_states(bt.d, pt.alpha, pt.xi)), boxes


def test_edge_bound_is_at_least_every_box_maximum():
    # soundness: the edge bound is at least the exact box maximum around the
    # rounded point and on boxes moved off it, for both twists; the single
    # twist's bound is its global maximum, reached at the rounded point, and
    # the joint one drops xi >= 0, so its moved boxes reach below x = 0
    cases = joint = 0
    for d, k in itertools.product(range(3, 9), (1, 2, 3)):
        for bt in enumerate_boundary_types(HurwitzParams(d, (d - 1) * k)):
            if bt.m > 6:
                continue
            cases += 1
            alpha = single_round(bt).alpha
            quad = single_quadratic(bt)
            bound = quad.edge_bound(d - 1, free_x=False)
            assert bound == quad.value(twist_states(d, alpha))
            for radius in range(3):
                around = [twist_states(d, _box(a, radius)) for a in alpha]
                moved = [twist_states(d, _box(a - 2 * radius - 1, radius))
                         for a in alpha]
                assert box_max(quad, around) == bound >= box_max(quad, moved)
            if not bt.mu.has_unit_part:
                continue
            joint += 1
            quad, best, boxes = _joint_boxes(bt)
            bound = quad.edge_bound(d - 1, free_x=True)
            assert bound >= best
            for radius in range(3):
                assert bound >= box_max(quad, boxes(radius)) >= best
                assert bound >= box_max(quad, boxes(
                    radius, 2 * radius + 1, -2 * radius - 1, nonneg=False))
    assert (cases, joint) == (1256, 928)


def test_edge_bound_settles_every_lattice_suite_case():
    # the edge bound is the only lattice oracle, so nothing is lost: on every
    # type the lattice suite accepts, both rounded points reach their bound
    from maroni.verify import LATTICE_KS, LATTICE_MAX_LCM, MAX_D

    single = joint = 0
    for d, k in itertools.product(range(3, MAX_D + 1), LATTICE_KS):
        for bt in enumerate_boundary_types(HurwitzParams(d, (d - 1) * k)):
            if bt.m > LATTICE_MAX_LCM:
                continue
            quad = single_quadratic(bt)
            states = twist_states(d, single_round(bt).alpha)
            assert quad.value(states) == quad.edge_bound(d - 1, free_x=False), bt
            single += 1
            if bt.mu.has_unit_part:
                pt, quad = joint_round(bt), joint_quadratic(bt)
                states = twist_states(d, pt.alpha, pt.xi)
                assert quad.value(states) == quad.edge_bound(d - 1, free_x=True), bt
                joint += 1
    assert (single, joint) == (1631, 1266)


def test_edge_bound_is_the_exact_maximum_of_one_edge():
    # one edge is the whole form p x + q g - w0 x^2 - w1 g^2 on x + g = 0 mod
    # M, so the bound must equal its maximum; every maximizer has |x| <=
    # |p|/(2 w0) + sqrt(1/4 + w1 M^2/(4 w0)) < 16 and |g| <= |q|/(2 w1) + M,
    # so the box below holds them all.  Weights and moduli are drawn wider
    # than the twist forms' (d-2, 1), so that the u-window matters
    rng = random.Random(16)
    for _ in range(150):
        p, q = rng.randint(-20, 20), rng.randint(-20, 20)
        w0, w1, mod = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 6)
        quad = twist.ChainQuadratic(((p, q),), (w0, w1))
        box = [(x, g) for x, g in itertools.product(range(-16, 17), repeat=2)
               if (x + g) % mod == 0]
        assert quad.edge_bound(mod, free_x=True) == max(quad.value([s]) for s in box)
        assert quad.edge_bound(mod, free_x=False) == max(
            quad.value([s]) for s in box if s[0] == 0)


def test_edge_bound_rejects_a_zero_modulus_or_weight():
    # the bound divides by mod and w1, and by w0 when x is free; each zero
    # is a DomainError naming it, not a ZeroDivisionError
    two_nodes = ((0, 3), (0, 0))
    for weights, mod, free_x, bad in (((1, 1), 0, False, "mod >= 1, got 0"),
                                      ((1, 0), 1, False, "w1 >= 1, got 0"),
                                      ((0, 1), 1, True, "w0 >= 1, got 0")):
        with pytest.raises(DomainError, match=re.escape(f"edge bound needs {bad}")):
            twist.ChainQuadratic(two_nodes, weights).edge_bound(mod, free_x)
    assert twist.ChainQuadratic(two_nodes, (0, 1)).edge_bound(1, False) == 4
    with pytest.raises(TypeError):  # free_x has no default
        twist.ChainQuadratic(two_nodes, (1, 1)).edge_bound(1)


def _verify_all_lattice_types():
    from maroni.verify import LATTICE_KS, LATTICE_MAX_LCM

    for d in range(3, 6):
        for k in LATTICE_KS:
            for bt in enumerate_boundary_types(HurwitzParams(d, (d - 1) * k)):
                if bt.m <= LATTICE_MAX_LCM:
                    yield bt


@pytest.mark.parametrize("shift", [1, -1])
def test_oracles_trust_only_the_exact_edge_bound(monkeypatch, capsys, shift):
    # the bound meets the rounded value on this range.  One above it
    # certifies nothing: every oracle returns False, and verify's two
    # integer-maximum lines fail with exit 1.  A wrong bound below the value
    # is an invariant failure naming the type
    bound = twist.ChainQuadratic.edge_bound
    monkeypatch.setattr(twist.ChainQuadratic, "edge_bound",
                        lambda self, *a, **kw: bound(self, *a, **kw) + shift)
    oracles = 0
    for bt in _verify_all_lattice_types():
        applicable = 1 + bt.mu.has_unit_part
        for oracle in (verify_integer_max, verify_joint_max)[:applicable]:
            if shift < 0:
                with pytest.raises(InvariantError, match=(
                        r"above its edge bound -?\d+ at " + re.escape(str(bt)) + "$")):
                    oracle(bt, 3)
            else:
                assert not oracle(bt, 3)
            oracles += 1
    assert oracles == 110 + 74  # verify_all's two case counts
    if shift < 0:
        return
    from maroni.cli import main

    assert main(["verify", "--suite", "lattice", "--max-d", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("[")] == [
        "[FAIL] single-twist integer maximum (radius 3): 110 cases checked",
        "[FAIL] joint-twist integer maximum (radius 3): 74 cases checked",
        "[PASS] twisted divisors effective with no fibre part: 184 cases checked",
        "[PASS] split one-node fibre effective maximum: 5 cases checked",
    ]
    assert lines[-1] == "RESULT: FAIL"
    # each failure names its type, its twist form value and the bound it
    # missed, here by exactly the shift
    missed = [re.fullmatch(r" {7}d=\d+ g=\d+ j=\d+ mu=\([\d|]+\): twist form "
                           r"value (-?\d+) below its edge bound (-?\d+)", line)
              for line in lines if line.startswith(" ")]
    assert len(missed) == 110 + 74 and all(missed)
    assert all(int(hit[2]) == int(hit[1]) + shift for hit in missed)


def _lowering_move(quad, d, alpha, xi=None):
    """The first +-1 move of one N-coordinate that lowers the form's value."""
    best = quad.value(twist_states(d, alpha, xi))
    for i, step in itertools.product(range(len(alpha)), (1, -1)):
        moved = (*alpha[:i], alpha[i] + step, *alpha[i + 1:])
        if quad.value(twist_states(d, moved, xi)) < best:
            return moved
    raise AssertionError("no lowering move")


def _moved_below(pt, quad, d):
    """The point moved by ``_lowering_move``, its scaled residuals E_i =
    alpha_i den - N_i moved along, so that the moved point is consistent."""
    alpha = _lowering_move(quad, d, pt.alpha, pt.xi)
    scaled = tuple(e + (b - a) * pt.den for e, a, b in zip(pt.scaled, pt.alpha, alpha))
    return pt._replace(alpha=alpha, scaled=scaled)


def test_oracles_reject_a_point_moved_below_the_maximum(monkeypatch, capsys):
    # some +-1 moves reach other maximizers, so each case moves the point
    # by a step that lowers its value: the bound is missed and the point is
    # not certified.  verify's line for that twist then fails with exit 1,
    # one line per case naming the moved value and the bound, and builds no
    # correction at the moved point (its checks would exit 3 there)
    from maroni.cli import main

    for name, label, cases in (("single_round", "single", 110),
                               ("joint_round", "joint", 74)):
        joint, rounding = label == "joint", getattr(lattice, name)
        oracle = verify_joint_max if joint else verify_integer_max
        quad_of = joint_quadratic if joint else single_quadratic
        moved, expected = {}, []
        for bt in _verify_all_lattice_types():
            if joint and not bt.mu.has_unit_part:
                continue
            quad = quad_of(bt)
            moved[bt] = pt = _moved_below(rounding(bt), quad, bt.d)
            value = quad.value(twist_states(bt.d, pt.alpha, pt.xi))
            expected.append(f"       {bt}: twist form value {value} below its "
                            f"edge bound {quad.edge_bound(bt.d - 1, joint)}")
        with monkeypatch.context() as patched:
            patched.setattr(lattice, name, lambda bt: moved[bt])
            for bt in moved:
                assert not oracle(bt, 1)
            assert main(["verify", "--suite", "lattice", "--max-d", "5"]) == 1
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert err == ""
        assert [line for line in lines if line.startswith("[FAIL]")] == [
            f"[FAIL] {label}-twist integer maximum (radius 3): {cases} cases checked"]
        assert [line for line in lines if line.startswith(" ")] == expected
        assert len(expected) == cases and lines[-1] == "RESULT: FAIL"


def test_single_quadratic_matches_pairing_functional():
    rng = random.Random(5)
    for bt in small_types():
        quad = single_quadratic(bt)
        for _ in range(6):
            alpha = [rng.randint(-8, 8) for _ in range(bt.m)]
            assert quad.value(twist_states(bt.d, alpha)) == (
                2 * (bt.d - 1) * f_twist(bt, [*alpha, 0]))


def test_single_form_is_the_joint_form_at_zero():
    # 2(d-1) f(0, N) = (d-1) 2 f(N): with X = 0 the branch term W.X drops out
    rng = random.Random(7)
    types = [bt for bt in small_types(max_d=6) if bt.mu.has_unit_part]
    assert {bt.d for bt in types} == {3, 4, 5, 6}
    for bt in types:
        single, joint = single_quadratic(bt), joint_quadratic(bt)
        # the forms differ only in the x column, which x = 0 never reads
        assert single.weights == joint.weights
        assert [q for _, q in single.linear] == [q for _, q in joint.linear]
        for _ in range(6):
            states = twist_states(bt.d, [rng.randint(-8, 8) for _ in range(bt.m)])
            assert single.value(states) == joint.value(states)


def test_scan_radius_validation():
    bt = bt_of(3, 4, 4, (3,))
    with pytest.raises(DomainError):
        verify_integer_max(bt, radius=-1)


def test_edge_bound_tries_few_candidates_over_the_joint_range(monkeypatch):
    # why the edge bound, not a box scan, certifies the lattice lines: per
    # edge it tries only the u of its window (``range`` in ``edge_bound``),
    # each with two coset points; count those u over the joint types of the
    # default lattice range (max_d 5).  A joint box DP at radius r compares
    # every state with every state of the box before it, up to (2r+1)^4
    # pairs an edge: about 1.7e7 at radius 12 on this range
    from maroni.verify import LATTICE_KS, LATTICE_MAX_LCM

    windows = []

    def counted_range(*args):
        windows.append(range(*args))
        return windows[-1]

    monkeypatch.setattr(twist, "range", counted_range, raising=False)
    types = edges = 0
    for d in range(3, 6):
        for k in LATTICE_KS:
            for bt in enumerate_boundary_types(HurwitzParams(d, (d - 1) * k)):
                if bt.m > LATTICE_MAX_LCM or not bt.mu.has_unit_part:
                    continue
                joint_quadratic(bt).edge_bound(bt.d - 1, free_x=True)
                types, edges = types + 1, edges + bt.m
                assert len(windows) == edges  # one window per edge
    sizes = [len(w) for w in windows]
    assert (types, edges, min(sizes), max(sizes), sum(sizes)) == (74, 159, 2, 3, 385)


# ---------------------------------------------------------------------------
# joint corrections


def test_joint_requires_unit_part():
    bt = bt_of(3, 4, 4, (3,))
    with pytest.raises(DomainError, match="ramification index 1"):
        joint_round(bt)
    with pytest.raises(DomainError, match="ramification index 1"):
        correction_ln(bt)


def test_joint_critical_tail_family():
    # d=3, mu=(1,1,1), j = 2(g - g2 + 1): x_0 = g2 + 1, g_0 = a/2
    g, g2 = 6, 3
    bt = bt_of(3, g, 2 * (g - g2 + 1), (1, 1, 1))
    x, grad = oracle_joint_critical(bt)
    assert x == (Fraction(g2 + 1),)
    assert grad == (Fraction(bt.a, 2),)


def test_joint_critical_nonnegative_on_canonical_types():
    for d in range(3, 7):
        g = d - 1
        while g <= 20:
            for bt in enumerate_boundary_types(HurwitzParams(d, g)):
                if not bt.mu.has_unit_part:
                    continue
                x, _ = oracle_joint_critical(bt)
                assert all(xi >= 0 for xi in x)
            g += d - 1


def test_joint_round_tail_cases():
    # g2 odd: the N-target (g2+2)/2 is a half-integer, e_0 = -1/2,
    # xi_0 = g2 + 1 stays integral
    g, g2 = 6, 3
    bt = bt_of(3, g, 2 * (g - g2 + 1), (1, 1, 1))
    assert bt.c == 0
    pt = joint_round(bt)
    assert residuals(pt) == (-HALF,)
    assert pt.xi[0] - Fraction(bt.l, 2 * (bt.d - 2)) == 0  # e'_0 = xi_0 - x_0
    assert pt.xi == (g2 + 1,)

    # g2 even: c = -2 and the target (g2+1)/2 is again a half-integer
    g2 = 2
    bt = bt_of(3, g, 2 * (g - g2 + 1), (1, 1, 1))
    assert bt.c == -2
    pt = joint_round(bt)
    assert residuals(pt) == (-HALF,)
    assert pt.xi == (g2 + 1,)


def test_joint_round_parity_rule():
    for bt in small_types(max_d=6):
        if not bt.mu.has_unit_part:
            continue
        pt = joint_round(bt)
        m = bt.m
        for i, e in enumerate(residuals(pt)):  # e'_i = xi_i - x_i
            x = Fraction((m - i) * bt.l - bt.delta[i], 2 * (bt.d - 2))
            assert pt.xi[i] - x - e == (0 if (m - i) % 2 == 0 else HALF)
        assert all(x >= 0 for x in pt.xi)


def test_branch_functional_matches_branch_pairing():
    # the representative pairs on R_0..R_{m-1} like l sections through R_0
    # plus the exceptional part sum delta_i R_i
    for bt in small_types(max_d=6):
        if not bt.mu.has_unit_part:
            continue
        rep = branch_functional_divisor(bt)
        exceptional = fibral(bt.m, bt.delta)
        for t in range(bt.m):
            r_t = component(bt.m, t).coeffs
            expected = (bt.l if t == 0 else 0) + intersect(exceptional.coeffs, r_t)
            assert intersect(rep.coeffs, r_t) == expected


def test_chain_nums_is_a_the_critical_twist_and_the_branch_class():
    # the one builder of (m-i)x - delta_i against its three readings: twice
    # -A at x = c, 2(d-1) times the Fraction critical point at x = a, and
    # minus the branch divisor's coefficients (R_m one 0) at x = l
    for bt in small_types(max_d=6):
        assert bt.chain_nums(bt.c) == [2 * a for a in a_standard(bt).alpha]
        critical = [Fraction(n, 2 * (bt.d - 1)) for n in bt.chain_nums(bt.a)]
        assert critical == oracle_critical_n(bt)
        branch = branch_functional_divisor(bt).coeffs
        assert (*(-x for x in bt.chain_nums(bt.l)), 0) == branch


def test_joint_value_matches_closed_form():
    for bt in small_types(max_d=6):
        if not bt.mu.has_unit_part:
            continue
        x, g = oracle_joint_critical(bt)
        nvec = [Fraction(gi + xi, bt.d - 1) for gi, xi in zip(g, x)]
        assert joint_f_value(bt, nvec, x) == oracle_fmax_ln(bt)
        res = correction_ln(bt)
        assert fmax_and_value(bt, res)[1] == (
            oracle_fmax_ln(bt) + ferr_ln(bt, res.point.sum_sq))


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
        best = quad.value(twist_states(bt.d, pt.alpha, pt.xi))
        def box(ns, xs):  # every (n, x) in ns x xs as a state (x, g)
            return twist_states(bt.d, *zip(*itertools.product(ns, xs)))

        for radius in range(3):
            boxes = [box(_box(a, radius), [x for x in _box(xi, radius) if x >= 0])
                     for a, xi in zip(pt.alpha, pt.xi)]
            assert scan_max(quad, boxes) == box_max(quad, boxes) == best
            moved = [box(_box(a + 2 * radius + 1, radius), _box(xi + radius, radius))
                     for a, xi in zip(pt.alpha, pt.xi)]
            assert scan_max(quad, moved) == box_max(quad, moved) <= best


def test_joint_quadratic_matches_pairing_functional():
    rng = random.Random(6)
    for bt in small_types():
        if not bt.mu.has_unit_part:
            continue
        quad = joint_quadratic(bt)
        for _ in range(6):
            nvec = [rng.randint(-8, 8) for _ in range(bt.m)]
            xvec = [rng.randint(0, 8) for _ in range(bt.m)]
            assert quad.value(twist_states(bt.d, nvec, xvec)) == (
                2 * (bt.d - 1) * joint_f_value(bt, nvec, xvec)
            )


def _assert_built_from_its_parts(res, bt, xs, k):
    """A result keeps integers over 8(d-1)k, the A it was built from, and a
    Fraction delta; f = (twist form at the point)/(2(d-1))."""
    std = a_standard(bt)
    quad = twist_quadratic(bt, std.degrees, xs)
    assert (res.std, res.scale) == (std, 8 * (bt.d - 1) * k)
    states = twist_states(bt.d, res.point.alpha, res.point.xi)
    assert fmax_and_value(bt, res)[1] == Fraction(quad.value(states), 2 * (bt.d - 1))
    assert type(res.delta) is Fraction


@settings(max_examples=120, deadline=None)
@given(admissible_types(max_d=12))
def test_integer_corrections_match_fraction_expressions(bt):
    # the scaled-integer corrections against the Fraction expressions they
    # replaced, with sum_sq from the Fraction rounding oracle and the fibre
    # part of A from its shift normal form; the tie search returns the point
    # each correction is built on
    fibre = shift_and_fibre_part(standard_divisor(a_standard(bt)))[1].coeffs[0]
    fmax = oracle_fmax_n(bt)
    sum_sq = oracle_round(oracle_critical_n(bt)).sum_sq
    value = fmax - Fraction(bt.d - 1, 2) * sum_sq
    res = correction_n(bt)
    assert (res.delta, *fmax_and_value(bt, res), res.point.sum_sq) == (
        value + fibre, fmax, value, sum_sq)
    _assert_built_from_its_parts(res, bt, None, 1)
    assert single_round(bt, explore_ties=True) == res.point
    if not bt.mu.has_unit_part:
        return
    joint = oracle_joint_round(bt)
    if min(joint.xi) < 0:
        for build in (correction_ln, lambda bt: joint_round(bt, explore_ties=True)):
            with pytest.raises(InvariantError):
                build(bt)
        return
    fmax = oracle_fmax_ln(bt)
    value = fmax + ferr_ln(bt, joint.sum_sq)
    res = correction_ln(bt)
    assert (res.delta, *fmax_and_value(bt, res), res.point.sum_sq) == (
        value + fibre, fmax, value, joint.sum_sq)
    _assert_built_from_its_parts(res, bt, bt.chain_nums(bt.l),
                                 (bt.d - 1) * (bt.d - 2))
    assert joint_round(bt, explore_ties=True) == res.point


# a unit-part type, so that both corrections apply
CHECKED_TYPE = (3, 4, 4, (1, 1, 1))


@pytest.mark.parametrize("rounding", [single_round, joint_round])
def test_rounding_tie_check_names_the_type(monkeypatch, rounding):
    import maroni.lattice as lattice

    def asymmetric(nums, den, check_ties):
        raise InvariantError(f"tied edge 0 over {den} is asymmetric")

    monkeypatch.setattr(lattice, "_round_scaled", asymmetric)
    with pytest.raises(InvariantError, match=r"^tied edge 0 over \d+ is asymmetric "
                       r"at d=3 g=4 j=4 mu=\(1\|1\|1\)$"):
        rounding(bt_of(*CHECKED_TYPE), True)


@pytest.mark.parametrize("correction", [correction_n, correction_ln])
def test_correction_value_check_fires(monkeypatch, correction):
    # a twist form whose value at the rounded point is off by 1 disagrees
    # with the closed form (a node term shifted at CHECKED_TYPE, where g_0
    # is 0, would not change it)
    value = twist.ChainQuadratic.value
    monkeypatch.setattr(twist.ChainQuadratic, "value",
                        lambda quad, states: value(quad, states) + 1)
    with pytest.raises(InvariantError,
                       match=r"value mismatch at d=3 g=4 j=4 mu=\(1\|1\|1\)"):
        correction(bt_of(*CHECKED_TYPE))


@pytest.mark.parametrize("correction", [correction_n, correction_ln])
def test_correction_effectivity_check_fires(monkeypatch, correction):
    # raising A's chain coefficients alpha (A = -sum alpha_i R_i) leaves its
    # degrees, and so the value check, alone but makes A + G non-effective
    import maroni.lattice as lattice

    standard = lattice.a_standard

    def raised(bt):
        std = standard(bt)
        return std._replace(alpha=tuple(a + 100 for a in std.alpha))

    monkeypatch.setattr(lattice, "a_standard", raised)
    with pytest.raises(InvariantError, match="not effective"):
        correction(bt_of(*CHECKED_TYPE))


@pytest.mark.parametrize("rounding, correction",
                         [(single_round, correction_n), (joint_round, correction_ln)])
def test_correction_effectivity_check_is_tight(monkeypatch, rounding, correction):
    # A + G missing effectivity by exactly 1: at the index of least slack
    # g_i - alpha_i(A), alpha_i is raised to g_i + 1 (degrees, and so the
    # value check, unchanged); a check loosened by one would pass this
    standard = lattice.a_standard
    types = [bt for d in range(3, 6)
             for bt in enumerate_boundary_types(HurwitzParams(d, d - 1))
             if bt.mu.has_unit_part]
    assert len(types) == 29
    for bt in types:
        point = rounding(bt)
        gs = [g for _, g in twist_states(bt.d, point.alpha, point.xi)]

        def missed_by_one(bt):
            std = standard(bt)
            slack = [g - a for g, a in zip(gs, std.alpha)]
            i = slack.index(min(slack))
            alpha = [*std.alpha]
            alpha[i] += slack[i] + 1
            return std._replace(alpha=tuple(alpha))

        monkeypatch.setattr(lattice, "a_standard", missed_by_one)
        with pytest.raises(InvariantError, match="not effective"):
            correction(bt)
        monkeypatch.setattr(lattice, "a_standard", standard)


def test_correction_residual_bound_fires(monkeypatch):
    # alpha_0 raised by 3, with residuals kept consistent (E = alpha den - N),
    # passes the value and effectivity checks; its first edge residual is at
    # least 5/2, so m/4 >= sum_sq fails for every m < 25
    import maroni.lattice as lattice

    rounded = lattice.single_round

    def far(bt, explore_ties=False):
        point = rounded(bt, explore_ties)
        nums, den = bt.chain_nums(bt.a), 2 * (bt.d - 1)
        alpha = (point.alpha[0] + 3, *point.alpha[1:])
        scaled = tuple(a * den - n for a, n in zip(alpha, nums))
        return point._replace(alpha=alpha, scaled=scaled)

    monkeypatch.setattr(lattice, "single_round", far)
    types = [bt for d in range(3, 6)
             for bt in enumerate_boundary_types(HurwitzParams(d, 2 * (d - 1)))]
    assert len(types) == 67
    for bt in types:
        with pytest.raises(InvariantError,
                           match=re.escape(f"residual bound violated at {bt}") + "$"):
            correction_n(bt)


def test_identity_suite_checks_the_joint_residual_bound(monkeypatch):
    # a joint result whose residual S breaks m den^2 >= 4 S, with its delta
    # kept (so the corr2 identity still holds), fails the bound line alone
    from maroni.verify import run_identity_suite

    built = lattice.correction_ln

    def far(bt):
        res = built(bt)
        scaled = (res.point.den * bt.m,) * bt.m  # S = (den m)^2 > m den^2 / 4
        return res._replace(point=res.point._replace(scaled=scaled))

    monkeypatch.setattr(lattice, "correction_ln", far)
    results = run_identity_suite(max_d=3, max_g=4, explore_ties=False)
    failed = [res for res in results if not res.ok]
    assert [res.name for res in failed] == [
        "correction deltas >= 0 and m/4 - sum_sq >= 0"]
    joint = [bt for g in (2, 4) for bt in enumerate_boundary_types(HurwitzParams(3, g))
             if bt.mu.has_unit_part]
    assert failed[0].failures == [f"joint twist at {bt}" for bt in joint]
    assert failed[0].checked == len(joint) + sum(
        len(enumerate_boundary_types(HurwitzParams(3, g))) for g in (2, 4))


def test_nodal_ray_forms():
    from fractions import Fraction as F

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
    for g in (4, 6, 8):
        params = HurwitzParams(3, g)
        for j in range(2, params.b // 2 + 1, 2):
            bt = make_boundary_type(params, j, Partition((1, 1, 1)))
            assert verify_trigonal_nodal_max(bt)


def trigonal_types(ks=range(1, 7)):
    for k in ks:
        for bt in enumerate_boundary_types(HurwitzParams(3, 2 * k)):
            if bt.mu.parts == (1, 1, 1):
                yield bt


def test_nodal_scan_rejects_a_negative_margin():
    # a negative margin shrinks the scan box below the maximum, which would
    # read as a failed check rather than a usage error
    bt = make_boundary_type(HurwitzParams(3, 4), 4, Partition((1, 1, 1)))
    with pytest.raises(DomainError):
        verify_trigonal_nodal_max(bt, -1)


def test_nodal_integer_scan_matches_fraction_oracle():
    types = list(trigonal_types())
    assert len(types) == 27
    for bt in types:
        for margin in range(4):
            assert verify_trigonal_nodal_max(bt, margin) == oracle_nodal_max(bt, margin)


@pytest.mark.parametrize("shift", [Fraction(-1, 4), Fraction(1, 4)])
def test_nodal_scans_reject_a_wrong_maximum(monkeypatch, shift):
    # a maximum of f1 moved down is exceeded, one moved up is not attained;
    # the integer scan compares 4 f1, so its closed form moves by 4 shift
    import maroni.nodal as nodal
    import nodal_oracle

    def shifted(bt):
        found, best = trigonal_nodal_rays(bt)
        return found, best + shift

    monkeypatch.setattr(nodal, "_nodal_max_x4",
                        lambda l, b: _nodal_max_x4(l, b) + int(4 * shift))
    monkeypatch.setattr(nodal_oracle, "trigonal_nodal_rays", shifted)
    for bt in trigonal_types(ks=(1, 2, 3)):
        assert not verify_trigonal_nodal_max(bt)
        assert not oracle_nodal_max(bt)


@pytest.mark.parametrize("extra", [
    lambda z: 1,  # constant: seen at 0
    lambda z: z[1],  # linear: seen at e_1
    lambda z: z[2] * (z[2] - 1),  # square: seen at 2 e_2 only
    lambda z: z[0] * z[3],  # cross term: seen at e_0 + e_3 only
])
def test_nodal_form_mismatch_raises(monkeypatch, extra):
    import maroni.nodal as nodal

    form = nodal._nodal_f1_x4
    monkeypatch.setattr(nodal, "_nodal_f1_x4",
                        lambda l, b, z: form(l, b, z) + extra(z))
    with pytest.raises(InvariantError,
                       match=r"at d=3 g=\d+ j=\d+ mu=\(1\|1\|1\)$"):
        verify_trigonal_nodal_max(bt_of(3, 6, 6, (1, 1, 1)))


def test_nodal_applicability():
    for check in (verify_trigonal_nodal_max, trigonal_nodal_rays):
        with pytest.raises(DomainError, match="split one-node fibre"):
            check(bt_of(3, 4, 4, (3,)))
        with pytest.raises(DomainError, match="split one-node fibre"):
            check(bt_of(4, 3, 2, (1, 1, 1, 1)))


def test_nodal_closed_form_is_the_ray_maximum():
    types = list(trigonal_types(ks=range(1, 21)))  # g = 2..40
    assert len(types) == 230
    for bt in types:
        assert _nodal_max_x4(bt.l, bt.params.b) == 4 * trigonal_nodal_rays(bt)[1]


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
