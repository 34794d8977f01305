from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import row_oracle
from elliptic_tail import elliptic_tail_gain, elliptic_tail_special_value
from maroni.combinatorics import (
    HurwitzParams,
    Partition,
    enumerate_boundary_types,
    enumerate_partitions,
    make_boundary_type,
)
from maroni.errors import DomainError
from maroni.formulas import (
    CONDITIONAL_TAIL,
    build_table,
    check_row,
    dp_trigonal_check,
    lambda_coeff,
    patel_consistency,
    patel_partial,
    psi_coeff,
    sigma_corr1,
    sigma_corr2,
    sigma_min,
    sigma_st,
)
from maroni.lattice import correction_ln, correction_n, joint_round, single_round


def bt_of(d, g, j, parts):
    return make_boundary_type(HurwitzParams(d, g), j, Partition(parts))


def small_types(max_d=6, ks=(1, 2)):
    for d in range(3, max_d + 1):
        for k in ks:
            yield from enumerate_boundary_types(HurwitzParams(d, (d - 1) * k))


def test_sigma_st_exact_value():
    assert sigma_st(bt_of(3, 2, 4, (1, 1, 1))) == Fraction(1, 7)


def test_sigma_st_matches_partial_display_at_j2():
    for d in range(3, 7):
        for k in range(1, 4):
            params = HurwitzParams(d, (d - 1) * k)
            b = params.b
            bt = make_boundary_type(params, 2, Partition((1,) * d))
            assert sigma_st(bt) == Fraction(-(k + 1) * (d - 2), 2 * (b - 1))


def test_sigma_st_assembles_from_chain_pieces():
    """The closed form equals the sum of its intersection-theoretic parts.

    Per boundary point the extended-class coefficient collects: the twist
    divisor part A.theta/2 - A.A/(2(d-1)), the fibre part of A (computed
    here via the shift normal form, not the c>0 case split), minus the
    Hodge coefficient, plus the branch contributions psi/4 and
    (-psi + W_E^2)/(8(d-1)).
    """
    from fractions import Fraction as F

    from chain_divisors import (
        shift_and_fibre_part,
        standard_divisor,
        theta_dot,
        we_divisor,
    )
    from maroni.chain import a_standard, intersect

    for d, g in [(3, 2), (3, 6), (4, 3), (4, 9), (5, 4), (6, 10)]:
        for bt in enumerate_boundary_types(HurwitzParams(d, g)):
            a_div = standard_divisor(a_standard(bt))
            _, fibre_part = shift_and_fibre_part(a_div)
            f_a = fibre_part.coeffs[0]  # multiplicity of the full fibre
            _, we_sq = we_divisor(bt)
            psi = psi_coeff(bt)
            assembled = (
                theta_dot(a_div) / 2
                - intersect(a_div.coeffs, a_div.coeffs) / (2 * (d - 1))
                + f_a
                - lambda_coeff(bt)
                + psi / 4
                + (-psi + we_sq) / (8 * (d - 1))
            )
            assert assembled == sigma_st(bt)
            assert f_a == (F(-bt.m * bt.c, 2) if bt.c > 0 else 0)


def test_sigma_st_symmetric():
    for bt in small_types():
        assert sigma_st(bt) == sigma_st(bt.flipped())
        assert sigma_corr1(bt) == sigma_corr1(bt.flipped())


def test_residue_class_dependence():
    params = HurwitzParams(4, 9)  # b = 30
    period = 2 * 3
    slope = Fraction(4 - 2, 8 * (params.b - 1) * (4 - 1))
    for mu in [Partition((4,)), Partition((2, 2)), Partition((2, 1, 1))]:
        for j in range(2, params.b // 2):
            if (j + 4 - mu.n) % 2 != 0 or j + period > params.b - 2:
                continue
            bt, bt2 = (
                make_boundary_type(params, j, mu),
                make_boundary_type(params, j + period, mu),
            )
            jj = bt.j * (params.b - bt.j) - bt2.j * (params.b - bt2.j)
            assert sigma_st(bt) - sigma_st(bt2) == mu.m * slope * jj


def test_lambda_coefficient():
    bt = bt_of(3, 4, 4, (1, 1, 1))
    b = 12
    assert lambda_coeff(bt) == Fraction(4 * 8, 8 * (b - 1))
    assert lambda_coeff(bt_of(3, 4, 4, (3,))) == Fraction(14, 33)
    # two-component degeneration: contribution (g1+2)(g-g1)/(2(2g+3))
    g, g1 = 6, 2
    bt = bt_of(3, g, 2 * (g1 + 2), (1, 1, 1))
    assert lambda_coeff(bt) == Fraction((g1 + 2) * (g - g1), 2 * (2 * g + 3))


def test_sigma_st_is_its_fibre_term_plus_psi_minus_lambda():
    # sigma_st = m (c^2/(8(d-1)) - |c|/4) + (2d-3)/(8(d-1)) psi - lambda ties
    # the Hodge and psi coefficients to the standard class; the verify
    # symmetry check sees neither off by a term symmetric in j <-> b - j
    checked = 0
    for bt in small_types(max_d=12, ks=(1, 2, 3)):
        d, m, c = bt.d, bt.m, bt.c
        fibre = m * (Fraction(c * c, 8 * (d - 1)) - Fraction(abs(c), 4))
        psi = Fraction(2 * d - 3, 8 * (d - 1)) * psi_coeff(bt)
        assert sigma_st(bt) == fibre + psi - lambda_coeff(bt), bt
        checked += 1
    assert checked == 10296


def test_lambda_one_fraction_matches_display():
    # the one-Fraction lambda against the display
    # m (j(b-j)/(8(b-1)) - (d - sum 1/m_nu)/12); the verify symmetry check
    # cannot see a Hodge-term error symmetric in j <-> b - j
    checked = hodge_types = 0
    for bt in small_types(max_d=8):
        checked += 1
        b, j, m = bt.params.b, bt.j, bt.m
        hodge = bt.d - sum(Fraction(1, p) for p in bt.mu.parts)
        display = m * (Fraction(j * (b - j), 8 * (b - 1)) - hodge / 12)
        assert lambda_coeff(bt) == display, bt
        hodge_types += hodge != 0  # h = m hodge is 0 only for mu = (1|...|1)
    assert (checked, hodge_types) == (812, 746)


def test_psi_coefficient():
    for bt in small_types(max_d=4):
        b = bt.params.b
        assert psi_coeff(bt) == Fraction(bt.m * bt.j * (b - bt.j), b - 1)
        assert psi_coeff(bt) == psi_coeff(bt.flipped())
    bt = bt_of(3, 2, 2, (1, 1, 1))
    assert psi_coeff(bt) == Fraction(2 * 1 * 6, 7)


def test_corr1_identity_and_anchors():
    for bt in small_types():
        assert sigma_corr1(bt) == sigma_st(bt) - correction_n(bt).delta
    bt = bt_of(3, 4, 4, (3,))
    assert sigma_corr1(bt) == sigma_st(bt) - 1
    bt = bt_of(5, 8, 9, (3, 2))
    assert bt.j % 8 == 1
    assert sigma_corr1(bt) == sigma_st(bt) - 1


def test_corr2_identity_and_applicability():
    for bt in small_types():
        if bt.mu.has_unit_part:
            assert sigma_corr2(bt) == sigma_st(bt) - correction_ln(bt).delta
        else:
            with pytest.raises(DomainError, match="ramification index 1"):
                sigma_corr2(bt)


def test_corr2_trigonal_anchor():
    g, g2 = 8, 5
    bt = bt_of(3, g, 2 * (g - g2 + 1), (1, 1, 1))
    assert sigma_st(bt) - sigma_corr2(bt) == Fraction((g2 + 1) ** 2, 4)


def test_sigma_min_provenance():
    # no positive correction: the standard class already achieves the min
    bt = bt_of(3, 4, 6, (3,))
    value, tag = sigma_min(bt)
    assert value == sigma_st(bt) and tag == "st"
    # single twist improves the triple-point type at the right residue
    bt = bt_of(3, 4, 4, (3,))
    value, tag = sigma_min(bt)
    assert value == sigma_st(bt) - 1 and tag == "corr1"
    # joint twist wins on the canonical tail family
    bt = bt_of(3, 4, 4, (1, 1, 1))
    value, tag = sigma_min(bt)
    assert tag == "corr2" and value == sigma_corr2(bt)


def test_sigma_min_is_the_first_least_candidate():
    # the least of st, corr1 and (with a part equal to 1) corr2, and on a
    # tie the first of them in that order.  The provenance follows a rule
    # that needs no comparison: corr2 exactly when the partition has a part
    # 1; otherwise st when the single-twist delta is 0, and corr1 if not
    ties, tags = 0, Counter()
    for bt in small_types(max_d=8):
        candidates = [(sigma_st(bt), "st"), (sigma_corr1(bt), "corr1")]
        if bt.mu.has_unit_part:
            candidates.append((sigma_corr2(bt), "corr2"))
        least = min(value for value, _ in candidates)
        got, tag = sigma_min(bt)
        assert (got, tag) == next(c for c in candidates if c[0] == least)
        ties += sum(value == least for value, _ in candidates) > 1
        rule = ("corr2" if bt.mu.has_unit_part
                else "st" if correction_n(bt).delta == 0 else "corr1")
        assert tag == rule, bt
        tags[tag] += 1
    assert ties > 0
    assert tags == {"st": 105, "corr2": 558, "corr1": 149}


@st.composite
def row_types(draw):
    """A canonical type at d = 3..12, k = 1..3."""
    d = draw(st.integers(min_value=3, max_value=12))
    params = HurwitzParams(d, (d - 1) * draw(st.integers(min_value=1, max_value=3)))
    return draw(st.sampled_from(enumerate_boundary_types(params)))


@settings(max_examples=300, deadline=None)
@given(row_types())
def test_integer_row_forms_match_the_displays(bt):
    # the integer forms of the row evaluator to come (tests/row_oracle.py)
    # against the Fraction displays, value by value and for the minimum
    assert Fraction(*row_oracle.st_num(bt)) == sigma_st(bt)
    assert Fraction(*row_oracle.corr1_num(bt)) == sigma_corr1(bt)
    if bt.mu.has_unit_part:
        assert Fraction(*row_oracle.corr2_num(bt)) == sigma_corr2(bt)
    assert row_oracle.row_min(bt) == sigma_min(bt)


def test_step_histogram_gives_the_residuals_and_the_single_delta():
    # each edge residual of both roundings, and each edge term of
    # 8(d-1) delta_n, depends on that edge's delta step alone; the joint
    # twist in both orientations
    types = joint = 0
    for d in range(3, 11):
        for k in (1, 2, 3):
            for bt in enumerate_boundary_types(HurwitzParams(d, (d - 1) * k)):
                types += 1
                assert row_oracle.hist_s1(bt) == single_round(bt).scaled_sum_sq, bt
                assert row_oracle.hist_delta_n(bt) == (
                    8 * (d - 1) * correction_n(bt).delta), bt
                if not bt.mu.has_unit_part:
                    continue
                for oriented in (bt, bt.flipped()):
                    joint += 1
                    assert row_oracle.hist_s2(oriented) == (
                        joint_round(oriented).scaled_sum_sq), oriented
    assert (types, joint) == (4158, 5902)


def test_edge_terms_pair_to_multiples_of_eight_d_minus_one():
    # tau(s) + tau(-s) for s = c mod 2, and tau(0) for even c, over one
    # period of s at every reachable c: with the mirrored steps of delta
    # this makes delta_n an integer for every partition and genus.  Every
    # case is also >= 0, so delta_n >= 0 for every type and genus at these
    # degrees; past s = d-1 a pair is >= 2 s^2 - 2 (d-1)^2 >= 0 anyway,
    # since each centred residual is at most d-1 in size
    cases = positive = 0
    for d in range(3, 31):
        for c, s, value in row_oracle.tau_pairs(d):
            cases += 1
            assert value % (8 * (d - 1)) == 0, (d, c, s, value)
            assert value >= 0, (d, c, s, value)
            positive += value > 0
    assert (cases, positive) == (51_100, 42_987)


def test_delta_steps_are_antisymmetric_with_the_parity_of_d_minus_n():
    # the steps s_i = delta_i - delta_{i+1} (i < m) mirror, s_{m-1-i} = -s_i,
    # because delta is symmetric, and each has the parity of d - n, so of c:
    # with the paired edge terms above, delta_n is an integer for every
    # partition of these degrees and every genus
    partitions = 0
    for d in range(3, 13):
        for mu in enumerate_partitions(d):
            partitions += 1
            delta = mu.delta
            steps = [delta[i] - delta[i + 1] for i in range(mu.m)]
            assert steps == [-s for s in reversed(steps)], mu
            assert all((s - d + mu.n) % 2 == 0 for s in steps), mu
    assert partitions == 268


def test_build_table_d3_g2():
    rows = tuple(build_table(HurwitzParams(3, 2), "st"))
    keys = [(r.bt.j, r.bt.mu.parts) for r in rows]
    assert keys == [
        (2, (3,)), (2, (1, 1, 1)), (3, (2, 1)), (4, (3,)), (4, (1, 1, 1)),
    ]
    by_key = {k: r.coefficient for k, r in zip(keys, rows)}
    assert by_key[(4, (1, 1, 1))] == Fraction(1, 7)
    assert all(r.provenance == "-" for r in rows)


def test_build_table_min_below_st():
    for d, g in [(3, 2), (3, 4), (4, 3), (5, 4)]:
        params = HurwitzParams(d, g)
        st_rows = tuple(build_table(params, "st"))
        min_rows = tuple(build_table(params, "min"))
        assert len(st_rows) == len(min_rows)
        for a, b in zip(st_rows, min_rows):
            assert b.coefficient <= a.coefficient


def test_build_table_corr2_only_applicable():
    rows = tuple(build_table(HurwitzParams(4, 3), "corr2"))
    assert rows
    for row in rows:
        assert row.bt.mu.has_unit_part
        assert row.provenance == CONDITIONAL_TAIL


def test_build_table_d4_g3_contains_imbalance_one():
    rows = build_table(HurwitzParams(4, 3), "st")
    row = next(
        r for r in rows if (r.bt.j, r.bt.mu.parts) == (5, (4,))
    )
    assert row.bt.c == 1
    assert row.coefficient == sigma_st(row.bt)


def test_build_table_rejects_unknown_variant():
    with pytest.raises(DomainError):
        build_table(HurwitzParams(3, 2), "best")


@pytest.mark.parametrize("d, g, variant, message", [
    (21, 20, "st", "d must be <= 20, got 21"),
    (3, 2, "best", "unknown variant 'best'"),
    (20, 57, "min", "g=57 at d=20 gives 23516 boundary types (cap 20000)"),
])
def test_build_table_checks_its_input_at_the_call(monkeypatch, d, g, variant,
                                                  message):
    # the rows are lazy, but a bad input raises before any row is asked for
    import maroni.formulas as formulas

    def forbidden(params):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(formulas, "enumerate_boundary_types", forbidden)
    with pytest.raises(DomainError) as exc:
        build_table(HurwitzParams(d, g), variant)
    assert str(exc.value) == message


def test_patel_partial_displays():
    params = HurwitzParams(3, 4)
    b = params.b
    k = params.k
    assert patel_partial(params) == (
        Fraction(-(k + 1), 2 * (b - 1)),
        Fraction(2 * k + 1, 2 * (b - 1)),
        Fraction(7 * k + 3, 6 * (b - 1)),
    )
    params = HurwitzParams(10, 9)
    b = params.b
    assert patel_partial(params)[2] == Fraction(-2, 3 * (b - 1))


def test_patel_consistency_range():
    for d in range(3, 7):
        for k in range(1, 6):
            rows = patel_consistency(HurwitzParams(d, (d - 1) * k))
            assert [row.family for row in rows] == ["Delta", "E2", "E3"]
            for row in rows:
                if row.family == "E2" and d == 3:
                    assert (row.computed, row.status) == (None, "SKIP")
                else:
                    assert row.status == "PASS"
                    assert row.computed == row.expected


def test_elliptic_tail_values():
    assert elliptic_tail_special_value(1, 1) == 0
    assert elliptic_tail_special_value(2, 1) == 2
    assert elliptic_tail_gain(3, 4, 2, 0, 0, 0) == 0
    # elliptic configuration: polynomial part plus fibre terms k*d1 - 1
    for k in range(1, 8):
        for d1 in range(1, 8):
            assembled = elliptic_tail_gain(k, 4, d1, 1, 0, k) + (k * d1 - 1)
            assert assembled == elliptic_tail_special_value(k, d1)
    with pytest.raises(DomainError):
        elliptic_tail_gain(1, 3, 1, 1, 0, -1)


def test_check_row_is_skip_without_a_value_else_pass_iff_equal():
    assert check_row("f", "l", None, Fraction(0)).status == "SKIP"
    assert check_row("f", "l", None, None).status == "SKIP"
    assert check_row("f", "l", Fraction(1), 1).status == "PASS"
    assert check_row("f", "l", Fraction(0), 1).status == "FAIL"
    row = check_row("f", "l", Fraction(1, 2), None, note="n")
    assert row == ("f", "l", Fraction(1, 2), None, "FAIL", "n")


def test_trigonal_report_rows():
    rows = dp_trigonal_check(6)
    assert all(r.status in ("PASS", "SKIP") for r in rows)
    by = {(r.family, r.label): r for r in rows}
    assert by[("Delta4", "g2=3")].computed == Fraction(4)
    assert by[("Delta4", "g2=2")].computed == Fraction(2)
    assert by[("Delta3", "g1=1")].computed == Fraction(1)
    assert by[("Delta3", "g1=2")].computed == Fraction(0)
    assert by[("H", "g2=6")].computed == Fraction(12)
    assert by[("Delta2", "-")].status == "SKIP"


def test_trigonal_report_has_the_closed_form_row_count():
    # dp_trigonal_check caps g by this count before building a row
    for g in range(4, 41, 2):
        assert len(dp_trigonal_check(g)) == 9 * g // 2 + 2


def test_trigonal_report_rejects_bad_genus():
    with pytest.raises(DomainError):
        dp_trigonal_check(5)
    with pytest.raises(DomainError):
        dp_trigonal_check(2)
