"""Closed-form boundary coefficients of the extended Maroni classes.

For an admissible type (j, mu) with derived data (n, m, r, c, delta) the
standard extended class has boundary coefficient

  sigma_st = m ( -|c|/4 + c^2/(8(d-1)) + (1/12)(d - sum 1/m_nu)
               + j(b-j)(d-2)/(8(b-1)(d-1)) ),

symmetric in j <-> b - j.  Twisting by the best boundary line bundle
replaces it by

  sigma_corr1 = m ( (1/12)(d - sum 1/m_nu) + j(b-j)(d-2)/(8(b-1)(d-1)) )
              - (1/(8(d-1))) sum (delta_{i-1} - delta_i)^2
              - ((d-1)/2) ( m/4 - sum (e_{i-1} - e_i)^2 ),

with the residuals e_i of the lattice rounding of the critical twist; when
the partition has a part equal to 1 (and the component over the l-side end
of the chain is a rational tail of degree 1) the joint twist gives

  sigma_corr2 = m ( (1/12)(d - sum 1/m_nu) + j(b-j)(d-2)/(8(b-1)(d-1)) )
              - (1/(8(d-2))) sum (delta_{i-1} - delta_i)^2
              - m (b-j)^2/(8(d-1)(d-2))
              - ((d-2)/2) ( m/4 - sum (e_{i-1} - e_i)^2 ).

Each correction formula is evaluated from its own display; the identities
sigma_st - sigma_corr1 = correction_n.delta and sigma_st - sigma_corr2 =
correction_ln.delta are exercised by the verification suites, not assumed
here.  Also provided: the coefficients of the Hodge and psi classes, the
j = 2 partial-compactification display, the elliptic-tail gain, and the
trigonal cross-check table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lattice
from .combinatorics import (
    BoundaryType,
    HurwitzParams,
    Partition,
    enumerate_boundary_types,
    make_boundary_type,
)
from .errors import ApplicabilityError, DomainError

VARIANT_ST = "st"
VARIANT_CORR1 = "corr1"
VARIANT_CORR2 = "corr2"
VARIANT_MIN = "min"
VARIANTS = (VARIANT_ST, VARIANT_CORR1, VARIANT_CORR2, VARIANT_MIN)

# provenance marker: the joint correction needs a rational tail of degree 1
# over the end component carrying b - j branch points, which is not
# determined by (j, mu) alone
CONDITIONAL_TAIL = "conditional:unit-tail"


def _hodge_local(bt: BoundaryType) -> Fraction:
    """d - sum 1/m_nu."""
    return Fraction(bt.d) - sum(Fraction(1, p) for p in bt.mu.parts)


def _local_term(bt: BoundaryType) -> Fraction:
    """m ( (1/12)(d - sum 1/m_nu) + j(b-j)(d-2)/(8(b-1)(d-1)) )."""
    d, b, j, m = bt.d, bt.params.b, bt.j, bt.m
    return m * (
        _hodge_local(bt) / 12
        + Fraction(j * (b - j) * (d - 2), 8 * (b - 1) * (d - 1))
    )


def sigma_st(bt: BoundaryType) -> Fraction:
    """Boundary coefficient of the standard extended Maroni class."""
    d, m, c = bt.d, bt.m, bt.c
    return (
        m * (Fraction(-abs(c), 4) + Fraction(c * c, 8 * (d - 1)))
        + _local_term(bt)
    )


def lambda_coeff(bt: BoundaryType) -> Fraction:
    """Coefficient of the boundary type in the Hodge class."""
    b, j, m = bt.params.b, bt.j, bt.m
    return m * (Fraction(j * (b - j), 8 * (b - 1)) - _hodge_local(bt) / 12)


def psi_coeff(bt: BoundaryType) -> Fraction:
    """Coefficient of the boundary type in the psi class."""
    b = bt.params.b
    return Fraction(bt.m * bt.j * (b - bt.j), b - 1)


def sigma_corr1(bt: BoundaryType, explore_ties: bool = False) -> Fraction:
    """Coefficient after the best single boundary-line-bundle twist."""
    d, m = bt.d, bt.m
    point = lattice.round_chain(lattice.critical_n(bt), explore_ties)
    return (
        _local_term(bt)
        - Fraction(bt.delta_square_sum, 8 * (d - 1))
        - Fraction(d - 1, 2) * (Fraction(m, 4) - point.sum_sq)
    )


def sigma_corr2(bt: BoundaryType, explore_ties: bool = False) -> Fraction:
    """Coefficient after the best joint twist; needs a part equal to 1.

    The formula is orientation-dependent: j counts the branch points on the
    end component away from the rational tail, l = b - j those on the tail
    side.  Rows derived from it are conditional on the tail hypothesis.
    """
    d, m, l = bt.d, bt.m, bt.l
    point = lattice.joint_round(bt, explore_ties)
    return (
        _local_term(bt)
        - Fraction(bt.delta_square_sum, 8 * (d - 2))
        - Fraction(m * l * l, 8 * (d - 1) * (d - 2))
        - Fraction(d - 2, 2) * (Fraction(m, 4) - point.sum_sq)
    )


def sigma_min(
    bt: BoundaryType, explore_ties: bool = False
) -> tuple[Fraction, str]:
    """Row-wise minimum over the implemented formulas, with provenance.

    This under-approximates the full intersection over all twists: only the
    standard, single-twist and (when applicable) joint-twist closed forms
    enter the minimum.  Provenance prefers the unconditional achiever.
    """
    values: list[tuple[Fraction, str]] = [
        (sigma_st(bt), VARIANT_ST),
        (sigma_corr1(bt, explore_ties), VARIANT_CORR1),
    ]
    try:
        values.append((sigma_corr2(bt, explore_ties), VARIANT_CORR2))
    except ApplicabilityError:
        pass
    best = min(v for v, _ in values)
    for value, tag in values:
        if value == best:
            return best, tag
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class TableRow:
    bt: BoundaryType
    coefficient: Fraction
    variant: str
    provenance: str


@dataclass(frozen=True)
class DivisorClassTable:
    """One coefficient per canonical admissible type, for one variant."""

    params: HurwitzParams
    variant: str
    rows: tuple[TableRow, ...]


def build_table(
    params: HurwitzParams, variant: str, explore_ties: bool = False
) -> DivisorClassTable:
    """Assemble the coefficient table over all canonical boundary types.

    The corr2 table keeps only the applicable types (a part equal to 1);
    the other variants have one row per canonical admissible type.  Rows
    are ordered j ascending, then mu reverse-lexicographic.
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    rows: list[TableRow] = []
    for bt in enumerate_boundary_types(params):
        if variant == VARIANT_ST:
            rows.append(TableRow(bt, sigma_st(bt), variant, "-"))
        elif variant == VARIANT_CORR1:
            rows.append(TableRow(bt, sigma_corr1(bt, explore_ties), variant, "-"))
        elif variant == VARIANT_CORR2:
            try:
                value = sigma_corr2(bt, explore_ties)
            except ApplicabilityError:
                continue
            rows.append(TableRow(bt, value, variant, CONDITIONAL_TAIL))
        else:
            value, tag = sigma_min(bt, explore_ties)
            prov = tag if tag != VARIANT_CORR2 else f"{tag}({CONDITIONAL_TAIL})"
            rows.append(TableRow(bt, value, variant, prov))
    return DivisorClassTable(params, variant, tuple(rows))


# ---------------------------------------------------------------------------
# j = 2 partial compactification

PARTIAL_LABELS = ("Delta", "E2", "E3")


def partial_partitions(d: int) -> tuple[Partition, Partition | None, Partition]:
    """The partitions indexing the j = 2 boundary pieces Delta, E2, E3.

    E2 needs two parts equal to 2 and does not exist for d = 3.
    """
    ones = Partition((1,) * d)
    e2 = Partition((2, 2) + (1,) * (d - 4)) if d >= 4 else None
    e3 = Partition((3,) + (1,) * (d - 3))
    return ones, e2, e3


def patel_partial(params: HurwitzParams) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients of Delta, E2, E3 in the j = 2 partial class.

    Using b = 2(k+1)(d-1) these are -(k+1)(d-2)/(2(b-1)), (2k+1)/(2(b-1))
    and -((d-10)(k+1)+4)/(6(b-1)); each equals sigma_st at j = 2 with the
    matching partition (the E2 comparison needs d >= 4).
    """
    d, k, b = params.d, params.k, params.b
    return (
        Fraction(-(k + 1) * (d - 2), 2 * (b - 1)),
        Fraction(2 * k + 1, 2 * (b - 1)),
        Fraction(-((d - 10) * (k + 1) + 4), 6 * (b - 1)),
    )


def patel_consistency(
    params: HurwitzParams,
) -> list[tuple[str, Fraction, Fraction | None]]:
    """Pair each displayed j = 2 coefficient with sigma_st at that type."""
    displayed = patel_partial(params)
    out = []
    for label, value, mu in zip(
        PARTIAL_LABELS, displayed, partial_partitions(params.d)
    ):
        direct = (
            sigma_st(make_boundary_type(params, 2, mu)) if mu is not None else None
        )
        out.append((label, value, direct))
    return out


# ---------------------------------------------------------------------------
# elliptic tails over the j = 2 locus


def elliptic_tail_gain(
    k: int, d: int, d1: int, g1: int, x: int, y: int
) -> Fraction:
    """Polynomial part of the coefficient gain from a two-component twist.

    The relevant locus carries two curves of genus g1, g2 covering one end
    with degrees d1, d2; twisting by y times the first curve upstairs and
    x times the end component downstairs gains

        (x + k - (y+1)/2) y d1 - x(x-1)(d-1)/2 + (1-g1) y - x

    before the fibre-part terms, which depend on the configuration and are
    added by the caller.
    """
    if y < 0:
        raise DomainError(f"effective twist needs y >= 0, got {y}")
    return (
        (Fraction(x) + k - Fraction(y + 1, 2)) * y * d1
        - Fraction(x * (x - 1) * (d - 1), 2)
        + (1 - g1) * y
        - x
    )


def elliptic_tail_special_value(k: int, d1: int) -> Fraction:
    """The gain k(k+1)d1/2 - 1 for an elliptic tail (g1 = 1, y = k, x = 0).

    This includes the fibre-part contribution k d1 - 1 of that
    configuration; it is positive for every (k, d1) except (1, 1).
    """
    return Fraction(k * (k + 1) * d1, 2) - 1


# ---------------------------------------------------------------------------
# trigonal comparison table


@dataclass(frozen=True)
class CheckRow:
    family: str
    label: str
    computed: Fraction | None
    expected: Fraction | None
    status: str  # PASS | FAIL | SKIP
    note: str = ""


def _row(family: str, label: str, computed, expected, note: str = "") -> CheckRow:
    status = "PASS" if computed == expected else "FAIL"
    return CheckRow(family, label, computed, expected, status, note)


def dp_trigonal_check(g: int) -> list[CheckRow]:
    """Compare the computed trigonal corrections with the known closures.

    For d = 3 and even g the difference sigma_st - sigma_corr is evaluated
    family by family: the nodal locus and the type-1 degenerations need no
    correction; the triple-point family gains 1 when its genus parameter is
    odd; the type-4 and hyperelliptic families are corrected by the joint
    twist with a quadratic gain in the tail genus.  The type-2, type-5 and
    general type-6 families need boundary data not derivable from (j, mu)
    alone and are listed as unchecked targets.
    """
    if g % 2 != 0 or g < 4:
        raise DomainError(f"trigonal comparison needs even g >= 4, got g={g}")
    params = HurwitzParams(3, g)
    ones = Partition((1, 1, 1))
    triple = Partition((3,))
    rows: list[CheckRow] = []

    def corr1_diff(j: int, mu: Partition) -> Fraction:
        bt = make_boundary_type(params, j, mu)
        return sigma_st(bt) - sigma_corr1(bt)

    def corr2_diff(j: int, mu: Partition) -> Fraction:
        bt = make_boundary_type(params, j, mu)
        return sigma_st(bt) - sigma_corr2(bt)

    rows.append(_row("Delta", "nodal", corr1_diff(2, ones), Fraction(0)))

    for g1 in range(0, g - 1):  # g1 + g2 = g - 2
        j = 2 * (g1 + 2)
        bt = make_boundary_type(params, j, ones)
        rows.append(_row("Delta1", f"g1={g1}", sigma_st(bt) - sigma_corr1(bt), Fraction(0)))
        shift = Fraction(0) if g1 % 2 == 0 else Fraction(1, 4)
        rows.append(
            _row(
                "Delta1",
                f"g1={g1} hodge-relation",
                sigma_st(bt),
                lambda_coeff(bt) / 2 - shift,
                note="sigma_st vs lambda/2",
            )
        )
        if g1 % 2 == 0:
            residual = (
                (7 * g + 6) * lambda_coeff(bt) - 3 * g - 2 * (g - 3) * sigma_st(bt)
            )
            rows.append(
                _row(
                    "Delta1",
                    f"g1={g1} residual",
                    residual,
                    Fraction(3 * g1 * (g - g1 - 2), 2),
                    note="residual class coefficient",
                )
            )

    rows.append(
        CheckRow("Delta2", "-", None, Fraction(0), "SKIP", "boundary data not restated")
    )

    for g1 in range(0, g - 1):
        j = 2 * g1 + 2
        expected = Fraction(1) if g1 % 2 == 1 else Fraction(0)
        rows.append(_row("Delta3", f"g1={g1}", corr1_diff(j, triple), expected))

    for g2 in range(0, g):  # g1 + g2 = g - 1
        j = 2 * (g - g2 + 1)
        expected = Fraction((g2 + 1) ** 2, 4)
        if g2 % 2 == 0:
            expected -= Fraction(1, 4)
        rows.append(_row("Delta4", f"g2={g2}", corr2_diff(j, ones), expected))

    rows.append(
        CheckRow(
            "Delta5", "-", None, None, "SKIP",
            "target g2(g2+1)/2; boundary data not restated",
        )
    )
    rows.append(
        CheckRow(
            "Delta6", "-", None, None, "SKIP",
            "target (g2+1)^2/4 (-1/4 for even g2); boundary data not restated",
        )
    )

    rows.append(
        _row("H", f"g2={g}", corr2_diff(2, ones), Fraction(g * (g + 2), 4))
    )
    return rows
