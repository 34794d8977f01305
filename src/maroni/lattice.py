"""Quadratic twist functionals, rational critical points, lattice rounding.

Twisting the normalized bundle by a fibre-supported line bundle N changes
the boundary coefficient of the extended Maroni class by

    f(N) = N.A + ((d-1)/2) (N.N - N.theta),

a negative-definite quadratic in the coefficients of N on R_0..R_{m-1}.
Its critical point a_i = N_i/D, N = chain_nums(a) = ((m-i)a - delta_i)_i,
D = 2(d-1), a = d - 1 + c, is rounded in one integer pass from i = m-1
down to 0 that carries the scaled residual E_i = alpha_i D - N_i (E_m = 0):

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

has critical coordinates x_i = X_i/(2(d-2)), X = chain_nums(l) (l = b - j
on the R_0 side) and g_i = ((m-i)a - delta_i)/2.  The same pass
rounds (g_i + x_i)/(d-1) = N_i/D with N_i = ((m-i)a - delta_i)(d-2) + X_i,
D = 2(d-1)(d-2); the parity shift e'_i = E_i/D (+ 1/2 when m-i is odd)
makes xi_i = x_i + e'_i = ((d-1)X_i + E_i + [m-i odd] D/2)/D an integer.

Everything here is exact.  Both twists have one integer form, the
``twist.ChainQuadratic`` of ``twist_quadratic``, whose ``edge_bound``
certifies each rounded maximum (``twist`` docstring).

Scales.  Each correction is an integer over the scale 8(d-1)k, k = 1 for
the single twist and (d-1)(d-2) for the joint one, with S = D^2 sum_sq and
the form's value 2(d-1) f: 8(d-1)k f_max = 8(d-1)k f + S + defect =
4k value + S + defect, where the defect is 0 for the single twist and
m(d-1)k for the joint one.  Each correction checks it against the closed
form 8(d-1)k f_max: m a^2 + Sd for the single twist, (d-1)(m(l^2 +
(d-2)a^2) + (d-1)Sd) for the joint one, Sd the sum of squared delta steps.
The fibre term f_A (-mc/2 if c > 0, else 0) is the integer -mc scale/2
there; only the ``delta`` view is a Fraction.  The references
``f_twist`` and ``joint_f_value`` pair coefficient vectors with ``intersect``.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import NamedTuple

from .chain import StandardA, a_standard, divisor_vector, intersect
from .combinatorics import BoundaryType
from .errors import DomainError, InvariantError
# perfbench/tracer.py traces the nodal check and functional as lattice names
from .nodal import nodal_f1, verify_trigonal_nodal_max
from .twist import twist_quadratic, twist_states


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

    ``delta_num`` is delta as an integer over ``scale`` = 8(d-1)k, kept with
    the ``point`` and A it was built from; ``delta`` is its one ``Fraction``
    view.
    """

    point: RoundedPoint
    std: StandardA
    scale: int
    delta_num: int

    delta = property(lambda self: Fraction(self.delta_num, self.scale))


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


def round_chain(targets, explore_ties: bool = False, *, den: int) -> RoundedPoint:
    """Round the target vector N_i/den to the lattice along the chain.

    The targets are integer numerators over ``den``.  The last coordinate
    is rounded with residual in [-1/2, 1/2), each earlier one with residual
    within [-1/2, 1/2) of its successor's.  Every tie choice gives the same
    sum (e_{i-1} - e_i)^2 (module docstring), so ``explore_ties`` keeps
    this point and checks the other choice per tie.

    >>> round_chain([1], den=2).alpha
    (0,)
    >>> round_chain([3, 1, 0], den=2).sum_sq
    Fraction(1, 4)
    """
    if not targets or den < 1:
        raise DomainError(f"need a non-empty target vector and den >= 1, got {den}")
    return _round_scaled(targets, den, explore_ties)


# ---------------------------------------------------------------------------
# single twist (line bundle N only)


def f_twist(bt: BoundaryType, n) -> Fraction:
    """The coefficient change f(N) = N.A + ((d-1)/2)(N.N - N.theta).

    N is the coefficient vector (n_0, ..., n_m).  Fibre multiples are
    normalized away first (n_m becomes 0), so adding a full fibre to N does
    not change the value, and theta.N = -n_0.  Evaluated from the matrix
    pairing, as the reference for ``twist_quadratic`` at X = 0.
    """
    n, a = [e - n[-1] for e in n], divisor_vector(a_standard(bt).alpha)
    return intersect(n, a) + Fraction(bt.d - 1, 2) * (intersect(n, n) + n[0])


def single_round(bt: BoundaryType, explore_ties: bool = False) -> RoundedPoint:
    """Round the single-twist critical point chain_nums(a)/(2(d-1))."""
    try:
        return round_chain(bt.chain_nums(bt.a), explore_ties, den=2 * (bt.d - 1))
    except InvariantError as err:
        raise InvariantError(f"{err} at {bt}") from err


def correction_n(bt: BoundaryType) -> CorrectionResult:
    """The reduction of the standard coefficient by the best single twist.

    delta = f(alpha) + (f_A - f_{A+(d-1)N}); the second term is -mc/2 when
    c > 0 and 0 otherwise.  ``_correction`` checks it with k = 1, X = 0.
    """
    point, std, value, _ = _twist(bt, False)
    return _correction(bt, point, std, value)


def _twist(bt: BoundaryType, joint: bool):
    """A twist's rounded point, its A, its twist form's value 2(d-1) f there
    and the form."""
    point = joint_round(bt) if joint else single_round(bt)
    std = a_standard(bt)
    quad = twist_quadratic(bt, std.degrees, bt.chain_nums(bt.l) if joint else None)
    return point, std, quad.value(twist_states(bt.d, point.alpha, point.xi)), quad


def _correction(bt, point, std, value) -> CorrectionResult:
    """The correction f + f_A at a rounded point, over the scale 8(d-1)k.

    ``value`` is the twist form's value there.  A point with xi is the joint
    twist: k = (d-1)(d-2), defect m(d-1)k.
    8(d-1)k f_max = 4k value + S + defect is checked (module docstring),
    then A + G >= 0 (g_i >= alpha_i of A; its R_m coefficient is 0, so no
    fibre part is left), the residual bound m/4 >= sum_sq and delta >= 0.
    """
    d, m, a, steps = bt.d, bt.m, bt.a, bt.delta_square_sum
    if point.xi is None:
        k, defect, label = 1, 0, "correction"
        closed = m * a * a + steps
    else:
        k = (d - 1) * (d - 2)
        defect, label = m * (d - 1) * k, "joint correction"
        closed = (d - 1) * (m * (bt.l ** 2 + (d - 2) * a * a) + (d - 1) * steps)
    s, scale = point.scaled_sum_sq, 8 * (d - 1) * k
    f_num = 4 * k * value
    if f_num + s + defect != closed:
        raise InvariantError(f"rounded {label} value mismatch at {bt}")
    states = twist_states(d, point.alpha, point.xi)
    if min(g - alpha for (_, g), alpha in zip(states, std.alpha)) < 0:
        raise InvariantError(f"A + G of the {label} not effective at {bt}")
    if m * point.den**2 < 4 * s:
        raise InvariantError(f"residual bound violated at {bt}")
    delta_num = f_num - (m * bt.c * scale // 2 if bt.c > 0 else 0)  # f + f_A
    if delta_num < 0:
        raise InvariantError(f"negative {label} {Fraction(delta_num, scale)} at {bt}")
    return CorrectionResult(point, std, scale, delta_num)


def twist_certificate(bt: BoundaryType, joint: bool, radius: int) -> tuple[int, int]:
    """A twist's form value 2(d-1) f at its rounded point and the edge bound.

    The bound is the exact maximum over the whole lattice, so ``radius``
    only names the claim and must be >= 0.  A value above the bound means
    a wrong bound, an invariant failure.  A value below it is not
    certified and builds no correction; a certified maximum is then
    checked as its correction, whose checks hold only at the maximum.
    """
    if radius < 0:
        raise DomainError("radius must be >= 0")
    point, std, value, quad = _twist(bt, joint)
    bound = quad.edge_bound(bt.d - 1, joint)
    if value > bound:
        raise InvariantError(f"twist form value {value} above its edge bound "
                             f"{bound} at {bt}")
    if value == bound:
        _correction(bt, point, std, value)
    return value, bound


def verify_integer_max(bt: BoundaryType, radius: int = 3) -> bool:
    """Whether the rounded point maximizes f: its twist form value reaches
    the edge bound (``twist_certificate``), then checked as ``correction_n``."""
    return operator.eq(*twist_certificate(bt, False, radius))


# ---------------------------------------------------------------------------
# joint twist (effective upstairs divisor Z plus line bundle N)


def _require_unit_part(bt: BoundaryType) -> None:
    if not bt.mu.has_unit_part:
        raise DomainError(
            f"joint twist needs a ramification index 1, got mu={bt.mu}"
        )


def _joint_nums(bt: BoundaryType) -> tuple[list[int], list[int], int]:
    """X = chain_nums(l), the numerators N_i and the denominator D.

    N_i = (d-2) chain_nums(a)_i + X_i and D = 2(d-1)(d-2), so that
    N_i/D = (g_i + x_i)/(d-1) is the critical N-coordinate.
    """
    _require_unit_part(bt)
    d, xs = bt.d, bt.chain_nums(bt.l)
    nums = [(d - 2) * n + x for n, x in zip(bt.chain_nums(bt.a), xs)]
    return xs, nums, 2 * (d - 1) * (d - 2)


def joint_f_value(bt: BoundaryType, nvec, xvec) -> Fraction:
    """The joint functional from the matrix pairing: the tests' reference.

    N and X (the pushforward of Z) are given on R_0..R_{m-1}, R_m's
    coefficient 0, and G = (d-1)N - X, so theta.G = -g_0.  On that span the
    branch class (l sections through R_0 plus the exceptional part) pairs
    like W = -sum_i chain_nums(l)_i R_i.
    """
    d, x = bt.d, [*xvec, 0]
    g = [(d - 1) * n - e for n, e in zip([*nvec, 0], x)]
    w, a = divisor_vector(bt.chain_nums(bt.l)), divisor_vector(a_standard(bt).alpha)
    return Fraction(1, 2 * (d - 1)) * (
        (d - 2) * intersect(x, x) + intersect(w, x) + intersect(g, g)
        + (d - 1) * g[0] + 2 * intersect(g, a))


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
    point, std, value, _ = _twist(bt, True)
    return _correction(bt, point, std, value)


def verify_joint_max(bt: BoundaryType, radius: int = 3) -> bool:
    """Whether (alpha, xi) maximizes the joint twist: its value reaches the
    edge bound, which drops xi >= 0, so no integer move of both coordinate
    blocks is larger (``twist_certificate``), then checked as
    ``correction_ln``."""
    return operator.eq(*twist_certificate(bt, True, radius))
