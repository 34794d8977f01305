"""Quadratic twist functionals, rational critical points, lattice rounding.

Twisting the normalized bundle by a fibre-supported line bundle N changes
the boundary coefficient of the extended Maroni class by

    f(N) = N.A + ((d-1)/2) (N.N - N.theta),

a negative-definite quadratic in the coefficients of N on R_0..R_{m-1}.
Its critical point a_i = N_i/D, with N_i = (m-i)a - delta_i, D = 2(d-1)
and a = d - 1 + c, is rounded in one integer pass from i = m-1 down to 0
that carries the scaled residual E_i = alpha_i D - N_i (E_m = 0):

    alpha_i = ceil((2(N_i + E_{i+1}) - D) / (2D)),

the least integer whose edge residual E_i - E_{i+1} lies in [-D/2, D/2).
Any point with every |E_i - E_{i+1}| <= D/2 maximizes f over the integer
lattice, with f(alpha) = f_max - ((d-1)/2) sum_{i=1}^m (E_{i-1} - E_i)^2/D^2,
and the divisor A + (d-1)N it produces has non-negative chain coefficients
with the R_m one equal to 0, so no fibre part is left over.

Ties.  When 2(N_i + E_{i+1}) = D mod 2D both alpha_i and alpha_i + 1 are
admissible, with edge residuals -D/2 and D/2.  All admissible points have
the same sum of squares.  Proof: taking alpha_i + 1 raises E_i by D, so
the next target N_{i-1} + E_i moves by D, alpha_{i-1} by 1 and E_{i-1} by
D; by induction every alpha_t, E_t with t < i moves by 1, D, and every
edge residual E_{t-1} - E_t with t < i, and whether it is tied, is
unchanged.  Only edge (i, i+1) changes, from -D/2 to D/2, with the same
square.  So the tie-exploring mode returns the default point, checking
at each tied edge that the other integer gives the negated edge residual;
only ``verify`` runs it, and the corrections take the default point.

When the partition has a part equal to 1 and the component over R_0
through that point is a rational tail of degree 1, an effective upstairs
divisor Z can be twisted in as well.  With X the pushforward of Z and
G = (d-1)N - X the joint functional

    f(Z, N) = (1/(2(d-1))) ((d-2) X.X + W.X + G.(G - (d-1) theta + 2A))

has critical coordinates x_i = X_i/(2(d-2)), X_i = (m-i)l - delta_i (l =
b - j on the R_0 side) and g_i = ((m-i)a - delta_i)/2.  The same pass
rounds (g_i + x_i)/(d-1) = N_i/D with N_i = ((m-i)a - delta_i)(d-2) + X_i,
D = 2(d-1)(d-2); the parity shift e'_i = E_i/D (+ 1/2 when m-i is odd)
makes xi_i = x_i + e'_i = ((d-1)X_i + E_i + [m-i odd] D/2)/D an integer.

Everything here is exact.  Both twists have one integer form, a data-only
``ChainQuadratic`` built by ``twist_quadratic`` from the integer degrees
A.R_i and W.R_i: 2(d-1) f(Z, N) on states (x, g), g = (d-1)n - x, with
node terms W.R_i x_i + (2 A.R_i + (d-1)[i=0]) g_i, the separable edges
-(d-2)(x' - x)^2 - (g' - g)^2 and the end pinned at (0, 0).  The single
twist is this form at X = 0 (W = 0, states (0, (d-1)n)), where
2(d-1) f(0, N) = (d-1) 2f(N).
Its evaluator checks the value of every correction; ``f_twist`` and
``joint_f_value``, built on the ``Fraction`` pairing, are its reference.

Certificates.  In edge coordinates u_t = x_{t-1} - x_t, v_t = g_{t-1} - g_t
(end pinned) the form is sum_t (P_t u_t + Q_t v_t - w0 u_t^2 - w1 v_t^2)
with (P_t, Q_t) the prefix sums of the node terms and u_t + v_t = 0 mod
d-1, so its per-edge maxima sum to a bound, ``edge_bound``.  The best v of
a coset costs at most w1 (d-1)^2/4, so only u with w0 (u - P/(2w0))^2 <=
w0/4 + w1 (d-1)^2/4 are tried, each with the two coset points around
Q/(2w1).  The bound is the single twist's exact maximum (u = 0) and drops
xi >= 0 for the joint one; only a rounded point below it goes to the
radius-box dynamic program ``box_max`` (tested against the naive scan).

Scales.  Each correction is an integer over the scale 8(d-1)k, k = 1 for
the single twist and (d-1)(d-2) for the joint one, with S = D^2 sum_sq and
the form's value 2(d-1) f: 8(d-1)k f_max = 8(d-1)k f + S + defect =
4k value + S + defect, where the defect is 0 for the single twist and
m(d-1)k for the joint one.  The fibre term f_A (-mc/2 if c > 0, else 0)
is the integer -mc scale/2 there; only delta, fmax and value are Fractions.
The one-node trigonal oracle scans an integer form of 4 f1, proved equal
to ``nodal_f1`` at the 15 points that fix a quadratic in four variables.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import isqrt, lcm
from typing import NamedTuple

from .chain import (
    ChainModel,
    FibralDivisor,
    StandardA,
    a_standard,
    component_degrees,
    fibral,
    full_fibre,
    intersect,
    theta_dot,
)
from .combinatorics import BoundaryType
from .errors import ApplicabilityError, DomainError, InvariantError


class RoundedPoint(NamedTuple):
    """An integer point near a rational critical point N/den of a twist form.

    ``alpha`` are the rounded chain coefficients and ``scaled`` the scaled
    residuals E_i = alpha_i den - N_i (E_m = 0 implicit); ``xi`` holds the
    joint effective-divisor coordinates.  With e_i = E_i/den, ``sum_sq`` =
    sum_{i=1}^m (e_{i-1} - e_i)^2 is derived on access.
    """

    alpha: tuple[int, ...]
    scaled: tuple[int, ...]
    den: int
    xi: tuple[int, ...] | None = None

    @property
    def scaled_sum_sq(self) -> int:
        """S = den^2 sum_sq = sum_{i=1}^m (E_{i-1} - E_i)^2, an integer."""
        s = self.scaled
        return sum((p - q) ** 2 for p, q in itertools.pairwise(s)) + s[-1] ** 2

    @property
    def sum_sq(self) -> Fraction:
        return Fraction(self.scaled_sum_sq, self.den**2)


class CorrectionResult(NamedTuple):
    """The amount ``delta`` subtracted from the standard coefficient at one type.

    Integers over ``scale`` = 8(d-1)k: delta, the critical value ``fmax`` and
    the functional's ``value`` at ``point``, with the A and twist form used.
    """

    point: RoundedPoint
    std: StandardA
    quad: ChainQuadratic
    scale: int
    delta_num: int
    fmax_num: int
    value_num: int

    delta = property(lambda self: Fraction(self.delta_num, self.scale))
    fmax = property(lambda self: Fraction(self.fmax_num, self.scale))
    value = property(lambda self: Fraction(self.value_num, self.scale))


def _round_scaled(nums, den: int, check_ties: bool) -> RoundedPoint:
    """The half-open rounding of nums/den in one integer pass (see above)."""
    m = len(nums)
    alpha, scaled = [0] * m, [0] * m
    two_den, resid = 2 * den, 0
    for i in range(m - 1, -1, -1):
        twice = 2 * (nums[i] + resid)
        low = -((den - twice) // two_den)  # ceil((twice - den) / two_den)
        scaled_i = low * den - nums[i]
        if check_ties and (twice + den) // two_den > low:
            edge = scaled_i - resid  # low + 1 is admissible too
            if edge + den != -edge:
                raise InvariantError(f"tied edge {i} over {den} is asymmetric")
        alpha[i], scaled[i], resid = low, scaled_i, scaled_i
    return RoundedPoint(tuple(alpha), tuple(scaled), den)


def round_chain(
    targets, explore_ties: bool = False, den: int | None = None
) -> RoundedPoint:
    """Round a target vector to the lattice along the chain.

    The targets are rationals, or integer numerators over ``den``.  The
    last coordinate is rounded with residual in [-1/2, 1/2), each earlier
    one with residual within [-1/2, 1/2) of its successor's.  Every tie
    choice gives the same sum (e_{i-1} - e_i)^2 (module docstring), so
    ``explore_ties`` keeps this point and checks the other choice per tie.

    >>> round_chain([Fraction(1, 2)]).alpha
    (0,)
    >>> round_chain([Fraction(3, 2), Fraction(1, 2), Fraction(0)]).sum_sq
    Fraction(1, 4)
    """
    if den is None:
        fracs = [Fraction(t) for t in targets]
        den = lcm(*(f.denominator for f in fracs))
        targets = [f.numerator * (den // f.denominator) for f in fracs]
    if not targets or den < 1:
        raise DomainError(f"need a non-empty target vector and den >= 1, got {den}")
    return _round_scaled(targets, den, explore_ties)


# ---------------------------------------------------------------------------
# single twist (line bundle N only)


def f_twist(bt: BoundaryType, n: FibralDivisor) -> Fraction:
    """The coefficient change f(N) = N.A + ((d-1)/2)(N.N - N.theta).

    Fibre multiples are normalized away first, so adding a full fibre to N
    does not change the value.  Evaluated from the matrix pairing, as the
    reference for ``twist_quadratic`` at X = 0.
    """
    n = n - full_fibre(n.chain).scaled(n.coeffs[-1])  # R_m coefficient 0
    a_div = a_standard(bt).divisor
    d = bt.d
    return intersect(n, a_div) + Fraction(d - 1, 2) * (
        intersect(n, n) - theta_dot(n)
    )


def _single_nums(bt: BoundaryType) -> tuple[list[int], int]:
    """Numerators N_i = (m-i)a - delta_i and denominator 2(d-1) of a_i."""
    m, a, delta = bt.m, bt.a, bt.delta
    return [(m - i) * a - delta[i] for i in range(m)], 2 * (bt.d - 1)


def single_round(bt: BoundaryType, explore_ties: bool = False) -> RoundedPoint:
    """Round the single-twist critical point to the lattice."""
    nums, den = _single_nums(bt)
    try:
        return round_chain(nums, explore_ties, den=den)
    except InvariantError as err:
        raise InvariantError(f"{err} at {bt}") from err


def fmax_n(bt: BoundaryType) -> Fraction:
    """Single-twist critical value (m a^2 + sum of delta steps^2)/(8(d-1))."""
    return Fraction(bt.m * bt.a**2 + bt.delta_square_sum, 8 * (bt.d - 1))


def _parts(bt: BoundaryType, point: RoundedPoint, xs=None):
    """A rounded point with its A and twist form (branch numerators xs)."""
    std = a_standard(bt)
    return point, std, twist_quadratic(bt, std.degrees, xs)


def correction_n(bt: BoundaryType) -> CorrectionResult:
    """The reduction of the standard coefficient by the best single twist.

    delta = f(alpha) + (f_A - f_{A+(d-1)N}); the second term is -mc/2 when
    c > 0 and 0 otherwise.  ``_correction`` checks it with k = 1, X = 0.
    """
    return _correction(bt, *_parts(bt, single_round(bt)))


def _correction(bt, point, std, quad) -> CorrectionResult:
    """The correction f + f_A at a rounded point, over the scale 8(d-1)k.

    A point with xi is the joint twist: k = (d-1)(d-2), defect m(d-1)k.
    8(d-1)k f_max = 4k value + S + defect is checked (module docstring),
    then A + G >= 0 (g_i >= alpha_i of A; its R_m coefficient is 0, so no
    fibre part is left), the residual bound m/4 >= sum_sq and delta >= 0.
    """
    if point.xi is None:
        k, defect, fmax, label = 1, 0, fmax_n(bt), "correction"
    else:
        k = (bt.d - 1) * (bt.d - 2)
        defect, fmax, label = bt.m * (bt.d - 1) * k, fmax_ln(bt), "joint correction"
    s, scale = point.scaled_sum_sq, 8 * (bt.d - 1) * k
    states = twist_states(bt.d, point.alpha, point.xi)
    f_num = 4 * k * quad.value(states)
    fmax_num = f_num + s + defect
    if fmax_num * fmax.denominator != fmax.numerator * scale:
        raise InvariantError(f"rounded {label} value mismatch at {bt}")
    if min(g - a for (_, g), a in zip(states, std.alpha)) < 0:
        raise InvariantError(f"A + G of the {label} not effective at {bt}")
    if bt.m * point.den**2 < 4 * s:
        raise InvariantError(f"residual bound violated at {bt}")
    delta_num = f_num - (bt.m * bt.c * scale // 2 if bt.c > 0 else 0)  # f + f_A
    if delta_num < 0:
        raise InvariantError(f"negative {label} {Fraction(delta_num, scale)} at {bt}")
    return CorrectionResult(point, std, quad, scale, delta_num, fmax_num, f_num)


class ChainQuadratic(NamedTuple):
    """An integer objective on states s_i = (x_i, g_i) along a chain.

    The value is sum_i (p_i x_i + q_i g_i) - sum_{i=1}^m (w0 (x_{i-1} -
    x_i)^2 + w1 (g_{i-1} - g_i)^2) with (p_i, q_i) = ``linear[i]``,
    (w0, w1) = ``weights`` and s_m pinned to (0, 0).  A box is one iterable
    of allowed states per chain position.
    """

    linear: tuple[tuple[int, int], ...]
    weights: tuple[int, int]

    def value(self, states) -> int:
        (w0, w1), states = self.weights, [*states, (0, 0)]
        return sum(p * x + q * g - w0 * (x - xn) ** 2 - w1 * (g - gn) ** 2
                   for (p, q), (x, g), (xn, gn) in zip(self.linear, states, states[1:]))

    def box_max(self, boxes) -> int:
        """Exact maximum over the box by dynamic programming along the chain.

        A predecessor at (x', g') with score sc reaches a state (x, g) with
        sc - w0 (x' - x)^2 - w1 (g' - g)^2 = k + p x + q g - w0 x^2 - w1 g^2,
        where the line (p, q, k) = (2 w0 x', 2 w1 g', sc - w0 x'^2 - w1 g'^2)
        is stored per state, so each pair costs two products in integers.
        With f = 3 g_0 - (g_0 - g_1)^2 - g_1^2 on a two-node chain, the
        brute-force maximum over -2..2 in each node is 4, at (2, 1):

        >>> quad = ChainQuadratic(((0, 3), (0, 0)), weights=(0, 1))
        >>> box = [(0, g) for g in range(-2, 3)]
        >>> quad.box_max([box, box]), quad.value([(0, 2), (0, 1)])
        (4, 4)
        """
        w0, w1 = self.weights

        def line(x, g, score):
            return 2 * w0 * x, 2 * w1 * g, score - w0 * x * x - w1 * g * g

        def reach(lines, x, g):
            best = max([k + p * x + q * g for p, q, k in lines])
            return best - w0 * x * x - w1 * g * g

        boxes, (p, q) = list(boxes), self.linear[0]
        lines = [line(x, g, p * x + q * g) for x, g in boxes[0]]
        for (p, q), box in zip(self.linear[1:], boxes[1:]):
            lines = [line(x, g, p * x + q * g + reach(lines, x, g)) for x, g in box]
        return reach(lines, 0, 0)

    def edge_bound(self, mod: int, free_x: bool = True) -> int:
        """The sum of per-edge maxima over states with x + g = 0 mod ``mod``.

        Tries u with (2 w0 u - P)^2 <= w0^2 + w0 w1 mod^2, or u = 0 unless
        ``free_x`` (module docstring).  On ``box_max``'s example, mod 1:

        >>> ChainQuadratic(((0, 3), (0, 0)), weights=(0, 1)).edge_bound(1, False)
        4
        """
        (w0, w1), bound, big_p, big_q = self.weights, 0, 0, 0
        reach, step = isqrt(w0 * w0 + w0 * w1 * mod * mod), 2 * w1 * mod
        for p, q in self.linear:
            big_p, big_q = big_p + p, big_q + q
            us = range(-((reach - big_p) // (2 * w0)),
                       (big_p + reach) // (2 * w0) + 1) if free_x else (0,)
            best = []
            for u in us:  # the coset point of -u at or below Q/(2 w1), and the next
                low = -u % mod
                low += (big_q - 2 * w1 * low) // step * mod
                high = low + mod
                best.append(big_p * u - w0 * u * u + max(
                    big_q * low - w1 * low * low, big_q * high - w1 * high * high))
            bound += max(best)
        return bound


def twist_quadratic(bt: BoundaryType, degrees, xs=None) -> ChainQuadratic:
    """2(d-1) f(Z, N) on integer states (x_i, g_i = (d-1)n_i - x_i).

    2(d-1) f = (d-2) X.X + W.X + G.G + (d-1) g_0 + 2 G.A, with W.R_i read
    off the branch numerators ``xs`` (W = -sum X_i R_i) and A.R_i =
    ``degrees[i]``.  With ``xs`` None, W = 0 and on the states (0, (d-1)n)
    it is 2(d-1) f(N), the single twist as the joint form at X = 0.
    """
    d, q_col = bt.d, [2 * a for a in degrees[:-1]]
    q_col[0] += d - 1
    w_col = component_degrees([-x for x in xs] + [0]) if xs else itertools.repeat(0)
    return ChainQuadratic(tuple(zip(w_col, q_col)), weights=(d - 2, 1))


def twist_states(d: int, ns, xs=None) -> list[tuple[int, int]]:
    """The states (x_i, (d-1)n_i - x_i) of N-coordinates ns (x = 0 if no xs)."""
    return [(x, (d - 1) * n - x) for n, x in zip(ns, xs or [0] * len(ns))]


def _radius_box(center: int, radius: int) -> range:
    return range(center - radius, center + radius + 1)


def verify_integer_max(bt: BoundaryType, radius: int = 3) -> bool:
    """Check that the rounded point maximizes f within the radius box.

    True if its twist form value 2(d-1) f reaches the edge bound, here the
    exact global maximum, or if ``box_max`` finds nothing larger within
    sup-distance ``radius`` of the point (then checked as ``correction_n``).
    """
    if radius < 0:
        raise DomainError("radius must be >= 0")
    return _is_box_max(bt, *_parts(bt, single_round(bt)), radius)


def _is_box_max(bt, point, std, quad, radius: int) -> bool:
    """Whether the point maximizes the twist form within the radius box.  A
    maximum is then checked as its correction; those checks hold only at the
    rounded point, so a point below the maximum is reported first."""
    dm1, free_x = bt.d - 1, point.xi is not None
    best = quad.value(twist_states(bt.d, point.alpha, point.xi))
    boxes = ([(x, dm1 * n - x) for n in _radius_box(a, radius)
              for x in _radius_box(xi, radius if free_x else 0) if x >= 0]
             for a, xi in zip(point.alpha, point.xi or itertools.repeat(0)))
    if best != quad.edge_bound(dm1, free_x) and quad.box_max(boxes) > best:
        return False
    _correction(bt, point, std, quad)
    return True


# ---------------------------------------------------------------------------
# joint twist (effective upstairs divisor Z plus line bundle N)


def _require_unit_part(bt: BoundaryType) -> None:
    if not bt.mu.has_unit_part:
        raise ApplicabilityError(
            f"joint twist needs a ramification index 1, got mu={bt.mu}"
        )


def _branch_nums(bt: BoundaryType) -> list[int]:
    """The branch numerators X_i = (m-i)l - delta_i, i < m."""
    m, l, delta = bt.m, bt.l, bt.delta
    return [(m - i) * l - delta[i] for i in range(m)]


def _joint_nums(bt: BoundaryType) -> tuple[list[int], list[int], int]:
    """X_i = (m-i)l - delta_i, the numerators N_i and the denominator D.

    N_i = ((m-i)a - delta_i)(d-2) + X_i and D = 2(d-1)(d-2), so that
    N_i/D = (g_i + x_i)/(d-1) is the critical N-coordinate.
    """
    _require_unit_part(bt)
    d, m, a, delta = bt.d, bt.m, bt.a, bt.delta
    xs = _branch_nums(bt)
    nums = [((m - i) * a - delta[i]) * (d - 2) + x for i, x in enumerate(xs)]
    return xs, nums, 2 * (d - 1) * (d - 2)


def branch_functional_divisor(bt: BoundaryType) -> FibralDivisor:
    """The fibral divisor pairing like the branch class on R_0..R_{m-1}.

    On the span of R_0..R_{m-1} the branch divisor (l sections through R_0
    plus the exceptional part) acts like -sum ((m-i)l - delta_i) R_i.
    """
    return fibral(ChainModel(bt.m), [-x for x in _branch_nums(bt)] + [0])


def joint_f_value(bt: BoundaryType, nvec, xvec) -> Fraction:
    """The joint functional from the matrix pairing: the tests' reference."""
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
    """Joint critical value, one Fraction over 8(d-1)(d-2)."""
    _require_unit_part(bt)
    d, m, a, l = bt.d, bt.m, bt.a, bt.l
    return Fraction(m * (l * l + (d - 2) * a * a) + (d - 1) * bt.delta_square_sum,
                    8 * (d - 1) * (d - 2))


def joint_round(bt: BoundaryType, explore_ties: bool = False) -> RoundedPoint:
    """Round the joint critical point to the lattice.

    The N-coordinates N_i/D are rounded along the chain; the parity rule
    e'_i = e_i (+ 1/2 when m - i is odd) then makes every xi_i = x_i + e'_i
    an integer, because N_i/D - x_i is an integer or a half-integer
    according to the parity of m - i.  Both facts and effectivity
    (xi >= 0) are checked, in integers.
    """
    xs, nums, den = _joint_nums(bt)
    d, m, half = bt.d, bt.m, den // 2

    # the two critical blocks differ by (m-i)(a-l)/(2(d-1)), an odd multiple
    # of 1/2 exactly when m-i is odd
    step = (2 * (bt.q - bt.params.k - 1) + 1) * half
    for i in range(m):
        if nums[i] - (d - 1) * xs[i] != (m - i) * step:
            raise InvariantError(f"half-integrality relation fails at {bt}")

    try:
        point = round_chain(nums, explore_ties, den=den)
    except InvariantError as err:
        raise InvariantError(f"{err} at {bt}") from err
    xi = []
    for i, (x, s) in enumerate(zip(xs, point.scaled)):
        val, rem = divmod((d - 1) * x + s + (half if (m - i) % 2 else 0), den)
        if rem:
            raise InvariantError(f"non-integral effective coordinate at {bt}")
        if val < 0:
            raise InvariantError(f"effectivity xi_{i} >= 0 fails at {bt}")
        xi.append(val)
    return point._replace(xi=tuple(xi))


def correction_ln(bt: BoundaryType) -> CorrectionResult:
    """The reduction of the standard coefficient by the best joint twist.

    delta = f_max + f_err + (f_A - f_{A+G}), f_err = -((d-2)/2) sum_sq - m/8,
    with the fibre term -mc/2 for c > 0 and 0 otherwise.  ``_correction``
    checks it with k = (d-1)(d-2) and defect m(d-1)k, and A + G = A +
    (d-1)N - X.
    """
    return _correction(bt, *_parts(bt, joint_round(bt), _branch_nums(bt)))


def verify_joint_max(bt: BoundaryType, radius: int = 3) -> bool:
    """Check that (alpha, xi) maximizes the joint twist within the radius box.

    True if the point's value reaches the edge bound (which drops xi >= 0),
    or if ``box_max`` finds nothing larger among the integer moves of both
    coordinate blocks within the radius with xi >= 0 (then checked as
    ``correction_ln``).
    """
    if radius < 0:
        raise DomainError("radius must be >= 0")
    return _is_box_max(bt, *_parts(bt, joint_round(bt), _branch_nums(bt)), radius)


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
#
# For Z = a_1 C_1 + b_1 T_1 + a_2 C_2 + b_2 T_2 and p_i = 2a_i + b_i, Z.U
# cancels against pZ.W except on T_i: 4 f1 = 2 Z.Z + (p_1 - p_2)^2 + l b_1
# + (b - l) b_2, in integers.  On the quadrants {C_1 or T_1} x {C_2 or T_2}:
#
#     C_1, C_2:  -4 a_1 a_2
#     T_1, T_2:  -(b_1 + b_2)^2 + b_1 l + b_2 (b - l)
#     C_1, T_2:  -b_2^2 + b_2 (b - l)
#     T_1, C_2:  -b_1^2 + b_1 l
#
# so the effective maximum is max(l^2, (b - l)^2)/16.  A quadratic in four
# variables is fixed by its values at the 15 points 0, e_i, 2e_i, e_i + e_k
# (i < k), so agreeing with 4 nodal_f1 there proves the integer form equal.

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

    ``z`` gives the multiplicities of (C_1, T_1, C_2, T_2).  For integer
    multiplicities every pairing is an integer sum, and f1 is the one
    ``Fraction`` (2 (Z.Z - Z.U) - ((pZ).(pZ) - pZ.W)) / 4.
    """
    _require_split_nodal(bt)
    l, b = bt.l, bt.params.b
    z = tuple(z)
    z_sq = sum(
        z[i] * z[k] * _NODAL_GRAM[i][k] for i in range(4) for k in range(4)
    )
    z_u = z[0] * l + z[2] * (b - l)
    push = (2 * z[0] + z[1], 2 * z[2] + z[3])
    push_sq = -((push[0] - push[1]) ** 2)
    push_w = push[0] * l + push[1] * (b - l)
    return Fraction(2 * (z_sq - z_u) - (push_sq - push_w), 4)


class NodalRay(NamedTuple):
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


def _nodal_f1_x4(l: int, b: int, z) -> int:
    """4 f1 at the multiplicities z of (C_1, T_1, C_2, T_2), in integers."""
    c1, t1, c2, t2 = z
    z_sq = 2 * (c1 * c2 + c1 * t2 + t1 * c2 - c1 * c1 - c2 * c2) - t1 * t1 - t2 * t2
    return 2 * z_sq + (2 * c1 + t1 - 2 * c2 - t2) ** 2 + l * t1 + (b - l) * t2


_NODAL_POINTS = [tuple(sum(i == t for i in ix) for t in range(4)) for ix in (
    (), *((i,) * s for i in range(4) for s in (1, 2)),
    *itertools.combinations(range(4), 2))]  # 0, e_i, 2e_i, e_i + e_k


def verify_trigonal_nodal_max(bt: BoundaryType, margin: int = 3) -> bool:
    """Brute-force check of the effective maximum of the nodal functional.

    Scans all integer effective combinations with coordinates up to the
    critical scale plus ``margin``, excluding supports that contain a full
    preimage C_i + T_i; True iff none exceeds the ray maximum and it is
    attained (both critical points being integral for admissible types).
    The scan uses the integer 4 f1, first proved equal to 4 ``nodal_f1``.
    """
    if margin < 0:
        raise DomainError("margin must be >= 0")
    _, effective_max = trigonal_nodal_rays(bt)
    l, b = bt.l, bt.params.b
    for z in _NODAL_POINTS:
        if _nodal_f1_x4(l, b, z) != 4 * nodal_f1(bt, z):
            raise InvariantError(f"integer nodal form differs from f1 at {bt}")
    bound = max(l, b - l) // 2 + margin
    # one side's allowed (C_i, T_i) multiplicities: never both non-zero
    side = [(a, 0) for a in range(bound + 1)] + [(0, t) for t in range(1, bound + 1)]
    values = (_nodal_f1_x4(l, b, (*p1, *p2)) for p1 in side for p2 in side)
    return max(values, default=None) == 4 * effective_max
