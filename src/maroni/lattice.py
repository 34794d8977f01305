"""Quadratic twist functionals, rational critical points, lattice rounding.

Twisting the normalized bundle by a fibre-supported line bundle N changes
the boundary coefficient of the extended Maroni class by

    f(N) = N.A + ((d-1)/2) (N.N - N.theta),

a negative-definite quadratic in the coefficients of N on R_0..R_{m-1}.
Its critical point has coordinates a_i = ((m-i)a - delta_i)/(2(d-1)) with
a = d - 1 + c, generally irrational for the lattice, so it is rounded:
choose alpha_{m-1} = a_{m-1} + e_{m-1} with e_{m-1} in [-1/2, 1/2), then
successively alpha_i = a_i + e_i with |e_i - e_{i+1}| <= 1/2.  Any point
produced this way maximizes f over the integer lattice, with

    f(alpha) = f_max - ((d-1)/2) sum_{i=1}^m (e_{i-1} - e_i)^2,

and the divisor A + (d-1)N it produces has non-negative chain coefficients
with the R_m one equal to 0, so no fibre part is left over.

When the partition has a part equal to 1 and the component over R_0
through that point is a rational tail of degree 1, an effective upstairs
divisor Z can be twisted in as well.  With X the pushforward of Z and
G = (d-1)N - X the joint functional

    f(Z, N) = (1/(2(d-1))) ((d-2) X.X + W.X + G.(G - (d-1) theta + 2A))

has critical coordinates x_i = ((m-i)l - delta_i)/(2(d-2)) (l = b - j on
the R_0 side) and g_i = ((m-i)a - delta_i)/2; rounding uses the same
e-chain for (d-1)a_i = g_i + x_i plus the parity shift e'_i = e_i for m-i
even and e_i + 1/2 for m-i odd, which makes the x-coordinates integral.

Everything here is exact.  Each functional also has one integer form, a
``ChainQuadratic`` (node terms, edge terms, pinned end state), whose exact
chain dynamic program maximizes it over a radius box as an independent
oracle; the naive product scan over the same box is kept as the test
reference for that dynamic program.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil, floor
from typing import Any, Callable

from .chain import (
    ChainModel,
    FibralDivisor,
    a_standard,
    component,
    fibral,
    full_fibre,
    intersect,
    shift_and_fibre_part,
    theta_dot,
)
from .combinatorics import BoundaryType
from .errors import ApplicabilityError, DomainError, InvariantError

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class RoundedPoint:
    """An integer point near a rational critical point of the twist form.

    ``alpha`` are the rounded chain coefficients and ``e`` the residuals
    alpha_i - a_i (with e_m = 0 implicit); ``sum_sq`` is
    sum_{i=1}^m (e_{i-1} - e_i)^2.  For the joint construction ``xi`` and
    ``eprime`` hold the effective-divisor coordinates and their parity-
    shifted residuals.  ``value`` is the exact functional value.
    """

    alpha: tuple[int, ...]
    e: tuple[Fraction, ...]
    sum_sq: Fraction
    xi: tuple[int, ...] | None = None
    eprime: tuple[Fraction, ...] | None = None
    value: Fraction | None = None


@dataclass(frozen=True)
class CorrectionResult:
    """The amount subtracted from the standard coefficient at one type."""

    bt: BoundaryType
    delta: Fraction
    point: RoundedPoint
    fmax: Fraction
    sum_sq: Fraction


def _residual_sum_sq(e: list[Fraction]) -> Fraction:
    chain = list(e) + [Fraction(0)]
    return sum((a - b) ** 2 for a, b in zip(chain, chain[1:]))


def round_chain(targets, explore_ties: bool = False) -> RoundedPoint:
    """Round a rational target vector to the lattice along the chain.

    The last coordinate is rounded with residual in [-1/2, 1/2), each
    earlier one with residual within 1/2 of its successor.  By default the
    half-open interval makes the choice deterministic; with
    ``explore_ties`` both admissible integers at a boundary tie are
    explored (at most 2^m branches) and the branch minimizing
    sum (e_{i-1} - e_i)^2, or equivalently maximizing the twist functional,
    is returned.  All branches attain the same functional value, so this
    is an agreement check rather than a search.
    """
    a = [Fraction(t) for t in targets]
    m = len(a)
    if m == 0:
        raise DomainError("empty target vector")

    def candidates(i: int, e_next: Fraction) -> list[int]:
        lo, hi = a[i] + e_next - HALF, a[i] + e_next + HALF
        if explore_ties:
            return list(range(ceil(lo), floor(hi) + 1))
        # half-open [lo, hi): the lower integer wins a boundary tie
        return [ceil(lo)]

    best: tuple[Fraction, list[int], list[Fraction]] | None = None
    stack: list[tuple[list[int], list[Fraction]]] = [([], [])]
    while stack:
        alphas, es = stack.pop()
        i = m - 1 - len(alphas)
        if i < 0:
            sum_sq = _residual_sum_sq(es)
            if best is None or sum_sq < best[0]:
                best = (sum_sq, alphas, es)
            continue
        e_next = es[0] if es else Fraction(0)
        for cand in reversed(candidates(i, e_next)):
            stack.append(([cand] + alphas, [cand - a[i]] + es))
    assert best is not None
    sum_sq, alphas, es = best
    return RoundedPoint(tuple(alphas), tuple(es), sum_sq)


# ---------------------------------------------------------------------------
# single twist (line bundle N only)


def _normalized(bt: BoundaryType, n: FibralDivisor) -> FibralDivisor:
    """Subtract the fibre multiple so the R_m coefficient becomes 0."""
    last = n.coeffs[-1]
    if last == 0:
        return n
    return n - full_fibre(n.chain).scaled(last)


def f_twist(bt: BoundaryType, n: FibralDivisor) -> Fraction:
    """The coefficient change f(N) = N.A + ((d-1)/2)(N.N - N.theta).

    Fibre multiples are normalized away first, so adding a full fibre to N
    does not change the value.
    """
    n = _normalized(bt, n)
    a_div = a_standard(bt).divisor
    d = bt.d
    return intersect(n, a_div) + Fraction(d - 1, 2) * (
        intersect(n, n) - theta_dot(n)
    )


def critical_n(bt: BoundaryType) -> tuple[Fraction, ...]:
    """Rational coordinates of the critical twist on R_0..R_{m-1}."""
    d, m, a = bt.d, bt.m, bt.a
    delta = bt.delta
    return tuple(
        Fraction((m - i) * a - delta[i], 2 * (d - 1)) for i in range(m)
    )


def fmax_n(bt: BoundaryType) -> Fraction:
    """Closed form of the critical value of the single-twist functional."""
    d, m, c = bt.d, bt.m, bt.c
    return m * (
        Fraction(c * c, 8 * (d - 1)) + Fraction(c, 4) + Fraction(d - 1, 8)
    ) + Fraction(bt.delta_square_sum, 8 * (d - 1))


def correction_n(bt: BoundaryType, explore_ties: bool = False) -> CorrectionResult:
    """The reduction of the standard coefficient by the best single twist.

    delta = f(alpha) + (f_A - f_{A+(d-1)N}); the second term is -mc/2 when
    c > 0 and 0 otherwise.  The rounded point is checked against the
    functional evaluated from the chain pairings, and the divisor
    A + (d-1)N is checked to have non-negative coefficients with no fibre
    part left.
    """
    point = round_chain(critical_n(bt), explore_ties)
    fmax = fmax_n(bt)
    f_alpha = fmax - Fraction(bt.d - 1, 2) * point.sum_sq

    std = a_standard(bt)
    chain = std.divisor.chain
    n_div = fibral(chain, [*point.alpha, 0])
    if f_twist(bt, n_div) != f_alpha:
        raise InvariantError(f"rounded value mismatch at {bt}")

    twisted = std.divisor + n_div.scaled(bt.d - 1)
    if min(twisted.coeffs) < 0 or twisted.coeffs[-1] != 0:
        raise InvariantError(f"twisted divisor not effective at {bt}")
    _, fibre_part = shift_and_fibre_part(twisted)
    if any(fibre_part.coeffs):
        raise InvariantError(f"twisted divisor has a fibre part at {bt}")

    delta = f_alpha + std.fibre_part_degree
    if delta < 0:
        raise InvariantError(f"negative correction {delta} at {bt}")
    if Fraction(bt.m, 4) - point.sum_sq < 0:
        raise InvariantError(f"residual bound violated at {bt}")
    return CorrectionResult(
        bt, delta, replace(point, value=f_alpha), fmax, point.sum_sq
    )


@dataclass(frozen=True)
class ChainQuadratic:
    """An integer objective on the states s_0..s_{m-1} of a chain.

    The value is sum_i node(i, s_i) + sum_{i=1}^m edge(s_{i-1}, s_i) with
    s_m pinned to ``end``.  A box is one iterable of allowed states per
    chain position.
    """

    node: Callable[[int, Any], int]
    edge: Callable[[Any, Any], int]
    end: Any

    def value(self, states) -> int:
        chain = [*states, self.end]
        return sum(self.node(i, s) for i, s in enumerate(chain[:-1])) + sum(
            self.edge(sp, s) for sp, s in zip(chain, chain[1:])
        )

    def box_max(self, boxes) -> int:
        """Exact maximum over the box by dynamic programming along the chain."""
        boxes = list(boxes)
        scores = {s: self.node(0, s) for s in boxes[0]}
        for i in range(1, len(boxes)):
            scores = {
                s: self.node(i, s)
                + max(v + self.edge(sp, s) for sp, v in scores.items())
                for s in boxes[i]
            }
        return max(v + self.edge(sp, self.end) for sp, v in scores.items())

    def scan_max(self, boxes) -> int:
        """The same maximum by enumerating the box point by point."""
        return max(self.value(states) for states in itertools.product(*boxes))


def single_quadratic(bt: BoundaryType) -> ChainQuadratic:
    """2 f(N) on integer coordinates of N on R_0..R_{m-1} (R_m pinned to 0).

    2 f(N) = 2 N.A + (d-1)(N.N - N.theta), with N.A = sum x_i (A.R_i),
    N.N = -sum (x_{i-1} - x_i)^2 and N.theta = -x_0.
    """
    degrees, dm1 = a_standard(bt).degrees, bt.d - 1
    return ChainQuadratic(
        node=lambda i, x: 2 * x * degrees[i] + (dm1 * x if i == 0 else 0),
        edge=lambda xp, x: -dm1 * (xp - x) ** 2,
        end=0,
    )


def _radius_box(center: int, radius: int) -> range:
    return range(center - radius, center + radius + 1)


def verify_integer_max(bt: BoundaryType, radius: int = 3) -> bool:
    """Check by exhaustive box search that the rounded point maximizes f.

    Maximizes 2 f over every integer vector within sup-distance ``radius``
    of the rounded point; returns True iff nothing exceeds its value there.
    """
    if radius < 0:
        raise DomainError("radius must be >= 0")
    point = round_chain(critical_n(bt))
    quad = single_quadratic(bt)
    boxes = [_radius_box(a, radius) for a in point.alpha]
    return quad.box_max(boxes) <= quad.value(point.alpha)


# ---------------------------------------------------------------------------
# joint twist (effective upstairs divisor Z plus line bundle N)


def _require_unit_part(bt: BoundaryType) -> None:
    if not bt.mu.has_unit_part:
        raise ApplicabilityError(
            f"joint twist needs a ramification index 1, got mu={bt.mu}"
        )


def joint_critical(
    bt: BoundaryType,
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Critical coordinates (x, g) of the joint functional.

    x_i = ((m-i)l - delta_i)/(2(d-2)) and g_i = ((m-i)a - delta_i)/2 for
    i = 0..m-1, with l = b - j counted on the R_0 side.
    """
    _require_unit_part(bt)
    d, m, a, l = bt.d, bt.m, bt.a, bt.l
    delta = bt.delta
    x = tuple(Fraction((m - i) * l - delta[i], 2 * (d - 2)) for i in range(m))
    g = tuple(Fraction((m - i) * a - delta[i], 2) for i in range(m))
    return x, g


def branch_functional_divisor(bt: BoundaryType) -> FibralDivisor:
    """The fibral divisor pairing like the branch class on R_0..R_{m-1}.

    On the span of R_0..R_{m-1} the branch divisor (l sections through R_0
    plus the exceptional part) acts like -sum ((m-i)l - delta_i) R_i.
    """
    m, l = bt.m, bt.l
    delta = bt.delta
    return fibral(
        ChainModel(m), [-((m - i) * l - delta[i]) for i in range(m)] + [0]
    )


def joint_f_value(bt: BoundaryType, nvec, xvec) -> Fraction:
    """Evaluate the joint functional from the chain pairings directly."""
    d = bt.d
    chain = ChainModel(bt.m)
    n_div = fibral(chain, list(nvec) + [0])
    x_div = fibral(chain, list(xvec) + [0])
    g_div = n_div.scaled(d - 1) - x_div
    w_div = branch_functional_divisor(bt)
    a_div = a_standard(bt).divisor
    return Fraction(1, 2 * (d - 1)) * (
        (d - 2) * intersect(x_div, x_div)
        + intersect(w_div, x_div)
        + intersect(g_div, g_div)
        - (d - 1) * theta_dot(g_div)
        + 2 * intersect(g_div, a_div)
    )


def fmax_ln(bt: BoundaryType) -> Fraction:
    """Closed form of the critical value of the joint functional."""
    _require_unit_part(bt)
    d, m, a, l = bt.d, bt.m, bt.a, bt.l
    return Fraction(m, 8 * (d - 1) * (d - 2)) * (
        l * l + (d - 2) * a * a
    ) + Fraction(bt.delta_square_sum, 8 * (d - 2))


def joint_round(bt: BoundaryType, explore_ties: bool = False) -> RoundedPoint:
    """Round the joint critical point to the lattice.

    The N-coordinates a_i = (g_i + x_i)/(d-1) are rounded along the chain;
    the parity rule e'_i = e_i (+ 1/2 when m - i is odd) then makes every
    xi_i = x_i + e'_i an integer, because a_i - x_i is an integer or a
    half-integer according to the parity of m - i.  Effectivity (xi >= 0)
    is checked.
    """
    _require_unit_part(bt)
    d, m = bt.d, bt.m
    x, g = joint_critical(bt)
    targets = [Fraction(gi + xi, d - 1) for gi, xi in zip(g, x)]

    # the two critical blocks differ by (m-i)(a-l)/(2(d-1)), an odd multiple
    # of 1/2 exactly when m-i is odd
    k, q = bt.params.k, bt.q
    for i in range(m):
        if targets[i] - x[i] != Fraction((m - i) * (2 * (q - k - 1) + 1), 2):
            raise InvariantError(f"half-integrality relation fails at {bt}")

    point = round_chain(targets, explore_ties)
    eprime = tuple(
        e if (m - i) % 2 == 0 else e + HALF for i, e in enumerate(point.e)
    )
    xi = []
    for i in range(m):
        val = x[i] + eprime[i]
        if val.denominator != 1:
            raise InvariantError(f"non-integral effective coordinate at {bt}")
        if val < 0:
            raise InvariantError(f"effectivity xi_{i} >= 0 fails at {bt}")
        xi.append(int(val))
    return replace(point, xi=tuple(xi), eprime=eprime)


def ferr_ln(bt: BoundaryType, sum_sq: Fraction) -> Fraction:
    """The rounding defect -((d-2)/2) sum (e_{i-1}-e_i)^2 - m/8."""
    return -Fraction(bt.d - 2, 2) * sum_sq - Fraction(bt.m, 8)


def correction_ln(bt: BoundaryType, explore_ties: bool = False) -> CorrectionResult:
    """The reduction of the standard coefficient by the best joint twist.

    delta = f_max + f_err + (f_A - f_{A+G}) with the fibre term -mc/2 for
    c > 0 and 0 otherwise.  The closed form is cross-checked against the
    direct evaluation of the functional at the rounded point, and A + G is
    checked to be effective with no fibre part.
    """
    point = joint_round(bt, explore_ties)
    fmax = fmax_ln(bt)
    value = fmax + ferr_ln(bt, point.sum_sq)

    if joint_f_value(bt, point.alpha, point.xi) != value:
        raise InvariantError(f"joint rounded value mismatch at {bt}")

    std = a_standard(bt)
    chain = std.divisor.chain
    assert point.xi is not None
    g_div = fibral(chain, [*point.alpha, 0]).scaled(bt.d - 1) - fibral(
        chain, [*point.xi, 0]
    )
    twisted = std.divisor + g_div
    if min(twisted.coeffs) < 0 or twisted.coeffs[-1] != 0:
        raise InvariantError(f"A + G not effective at {bt}")

    delta = value + std.fibre_part_degree
    if delta < 0:
        raise InvariantError(f"negative joint correction {delta} at {bt}")
    return CorrectionResult(
        bt, delta, replace(point, value=value), fmax, point.sum_sq
    )


def joint_quadratic(bt: BoundaryType) -> ChainQuadratic:
    """2(d-1) f(Z, N) on integer states (n_i, x_i), R_m pinned to (0, 0).

    With g = (d-1)n - x this is (d-2) X.X + W.X + G.G + (d-1) g_0 + 2 G.A,
    the pairings read off the rows W.R_i and A.R_i.
    """
    m, d = bt.m, bt.d
    chain = ChainModel(m)
    w_div = branch_functional_divisor(bt)
    w_rows = [int(intersect(w_div, component(chain, i))) for i in range(m)]
    v_rows = a_standard(bt).degrees

    def node(i: int, s: tuple[int, int]) -> int:
        n, x = s
        g = (d - 1) * n - x
        val = x * w_rows[i] + 2 * g * v_rows[i]
        return val + (d - 1) * g if i == 0 else val

    def edge(sp: tuple[int, int], s: tuple[int, int]) -> int:
        gp = (d - 1) * sp[0] - sp[1]
        g = (d - 1) * s[0] - s[1]
        return -(d - 2) * (sp[1] - s[1]) ** 2 - (gp - g) ** 2

    return ChainQuadratic(node, edge, end=(0, 0))


def verify_joint_max(bt: BoundaryType, radius: int = 3) -> bool:
    """Exhaustive box check of the joint integer maximum at (alpha, xi).

    Integer perturbations of both coordinate blocks within the radius are
    searched, keeping the effectivity constraint xi >= 0; True iff no point
    exceeds the rounded value.
    """
    if radius < 0:
        raise DomainError("radius must be >= 0")
    point = joint_round(bt)
    assert point.xi is not None
    quad = joint_quadratic(bt)
    boxes = [
        [(n, x) for n in _radius_box(a, radius)
         for x in _radius_box(xi, radius) if x >= 0]
        for a, xi in zip(point.alpha, point.xi)
    ]
    return quad.box_max(boxes) <= quad.value(zip(point.alpha, point.xi))


# ---------------------------------------------------------------------------
# one-node trigonal fibres with a split cover on each side
#
# For d = 3 and mu = (1,1,1) a component can have, over each side P_i of
# the one-node fibre, a degree-2 piece C_i and a degree-1 piece T_i, with
# C_i.C_i = -2, T_i.T_i = -1, C_1.C_2 = C_1.T_2 = C_2.T_1 = 1 and the
# other products 0; the ramification pairs as U.C_1 = l, U.C_2 = b - l,
# U.T_i = 0.  The upstairs-twist part of the coefficient change,
#
#     f1(Z) = (Z.Z - Z.U)/2 - ((pZ).(pZ) - pZ.W)/(2(d-1)),
#
# is maximized over the cone of effective Z that contain no full preimage
# of a component (so C_i and T_i never appear together).

_NODAL_BASIS = ("C1", "T1", "C2", "T2")
_NODAL_GRAM = (
    (-2, 0, 1, 1),
    (0, -1, 1, 0),
    (1, 1, -2, 0),
    (1, 0, 0, -1),
)


def _require_split_nodal(bt: BoundaryType) -> None:
    if bt.d != 3 or bt.mu.parts != (1, 1, 1):
        raise ApplicabilityError(
            f"split one-node fibre needs d=3, mu=(1,1,1), got d={bt.d}, mu={bt.mu}"
        )


def nodal_f1(bt: BoundaryType, z) -> Fraction:
    """The upstairs-twist functional on the split one-node configuration.

    ``z`` gives the multiplicities of (C_1, T_1, C_2, T_2).
    """
    _require_split_nodal(bt)
    l, b = bt.l, bt.params.b
    z = [Fraction(v) for v in z]
    z_sq = sum(
        z[i] * z[k] * _NODAL_GRAM[i][k] for i in range(4) for k in range(4)
    )
    z_u = z[0] * l + z[2] * (b - l)
    push = (2 * z[0] + z[1], 2 * z[2] + z[3])
    push_sq = -((push[0] - push[1]) ** 2)
    push_w = push[0] * l + push[1] * (b - l)
    return Fraction(z_sq - z_u, 2) - Fraction(push_sq - push_w, 4)


@dataclass(frozen=True)
class NodalRay:
    """The functional restricted to one effective ray t -> t . curve."""

    label: str
    quadratic: Fraction
    linear: Fraction
    critical_point: Fraction | None
    critical_value: Fraction


def trigonal_nodal_rays(bt: BoundaryType) -> tuple[tuple[NodalRay, ...], Fraction]:
    """Ray-by-ray maxima of the upstairs-twist functional, and their max.

    The degree-2 rays carry the zero form; the degree-1 rays carry
    t(l - t)/4 and t(b - l - t)/4, so the effective maximum is
    max(l^2, (b-l)^2)/16 (attained at an integer since l is even here).
    """
    _require_split_nodal(bt)
    rays = []
    for idx, label in enumerate(_NODAL_BASIS):
        unit = [0] * 4
        unit[idx] = 1
        f1 = nodal_f1(bt, unit)
        f2 = nodal_f1(bt, [2 * v for v in unit])
        quad = Fraction(f2 - 2 * f1, 2)
        lin = f1 - quad
        if quad < 0:
            crit = -lin / (2 * quad)
            value = -(lin**2) / (4 * quad)
        else:
            if quad != 0 or lin != 0:
                raise InvariantError(f"unbounded ray {label} at {bt}")
            crit, value = None, Fraction(0)
        rays.append(NodalRay(label, quad, lin, crit, value))
    return tuple(rays), max(r.critical_value for r in rays)


def verify_trigonal_nodal_max(bt: BoundaryType, margin: int = 3) -> bool:
    """Brute-force check of the effective maximum of the nodal functional.

    Scans all integer effective combinations with coordinates up to the
    critical scale plus ``margin``, excluding supports that contain a full
    preimage C_i + T_i; True iff none exceeds the ray maximum (which is
    attained, both critical points being integral for admissible types).
    """
    _, effective_max = trigonal_nodal_rays(bt)
    l, b = bt.l, bt.params.b
    bound = max(l, b - l) // 2 + margin
    attained = False
    for a1 in range(bound + 1):
        for b1 in range(bound + 1):
            if a1 and b1:
                continue
            for a2 in range(bound + 1):
                for b2 in range(bound + 1):
                    if a2 and b2:
                        continue
                    value = nodal_f1(bt, (a1, b1, a2, b2))
                    if value > effective_max:
                        return False
                    attained = attained or value == effective_max
    return attained
