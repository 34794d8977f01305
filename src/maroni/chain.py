"""Intersection theory on the resolved fibre chain over a boundary point.

Over a general point of a boundary divisor the fibre of the resolved
line-bundle model is a chain of smooth rational curves R_0, ..., R_m
(m = lcm of the ramification partition): two end components of
self-intersection -1 joined by m - 1 exceptional (-2)-curves, consecutive
components meeting once.  A distinguished section S meets R_m only.

A divisor supported on the chain is its coefficient vector (e_0, ..., e_m);
a twist divisor -sum_{i<m} v_i R_i, such as A or the branch class, is
``divisor_vector(v)``.  For D = sum e_i R_i the pairing satisfies
D.D = -sum_{i=1}^m (e_{i-1} - e_i)^2, the full fibre F = sum R_i is
numerically trivial, and the relative dualizing class theta pairs as
theta.D = -e_0 - e_m.

The engine needs only the degrees D.R_i, second differences of the
coefficients (``component_degrees``: O(m), integers for integral D); the
matrix pairing ``intersect`` of two coefficient vectors is kept as their
reference.  The matrix entries R_i . R_j are ``pairing(m, i, j)``;
``intersect`` pairs the integer numerators of both sides over their
common denominators through them and returns one ``Fraction``, and the
``verify`` degree check reads the same entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .combinatorics import BoundaryType
from .errors import DomainError, InvariantError


def pairing(m: int, i: int, j: int) -> int:
    """The intersection number R_i . R_j on the chain R_0..R_m, m >= 1."""
    if m < 1:
        raise DomainError(f"chain length parameter must be >= 1, got {m}")
    if not (0 <= i <= m and 0 <= j <= m):
        raise DomainError(f"component index out of range for m={m}")
    if i == j:
        return -1 if i in (0, m) else -2
    return 1 if abs(i - j) == 1 else 0


def _over_common_denominator(coeffs) -> tuple[list[int], int]:
    """Integer numerators of the coefficients over their least common denominator."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    den = lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


def intersect(e, f) -> Fraction:
    """The pairing (sum e_i R_i).(sum f_k R_k) of two coefficient vectors.

    Both vectors list the coefficients on R_0..R_m.  Each side is put over
    its common denominator; the entries ``pairing`` on the band
    |i - k| <= 1 pair the integer numerators, and one ``Fraction`` is built
    at the end.  Unequal lengths, or a vector of one entry, raise
    ``DomainError``.
    """
    if len(e) != len(f):
        raise DomainError(f"coefficient vectors of lengths {len(e)} and {len(f)}")
    m = len(e) - 1
    if m < 1:  # pairing rejects it too, but two empty vectors reach no entry
        raise DomainError(f"chain length parameter must be >= 1, got {m}")
    (e, den_e), (f, den_f) = map(_over_common_denominator, (e, f))
    total = sum(e[i] * pairing(m, i, k) * f[k] for i in range(m + 1)
                for k in range(max(i - 1, 0), min(i + 1, m) + 1))
    return Fraction(total, den_e * den_f)


def component_degrees(e) -> tuple:
    """The degrees D.R_0, ..., D.R_m of D = sum e_i R_i (m >= 1).

    Row i of the intersection matrix gives -e_0 + e_1 on R_0,
    e_{i-1} - 2e_i + e_{i+1} on interior components and e_{m-1} - e_m on R_m.
    """
    m = len(e) - 1
    inner = (e[i - 1] - 2 * e[i] + e[i + 1] for i in range(1, m))
    return (e[1] - e[0], *inner, e[m - 1] - e[m])


def divisor_vector(v) -> list[int]:
    """The coefficient vector (-v_0, ..., -v_{m-1}, 0) of -sum_{i<m} v_i R_i."""
    return [-x for x in v] + [0]


class StandardA(NamedTuple):
    """The standard fibre-supported twist divisor A of a boundary type.

    Writing -A = sum_{i<m} alpha_i R_i with alpha_i = ((m-i)c - delta_i)/2
    (half of ``BoundaryType.chain_nums(c)``),
    every alpha_i is an integer and the restriction degrees A . R_i are
    d - n - r on R_0, r on R_m, and half the second difference of delta
    on interior components, with total degree 0.  The fibre part of A
    is -(mc/2) F when c > 0 and 0 otherwise.
    """

    alpha: tuple[int, ...]
    degrees: tuple[int, ...]


def expected_twist_degrees(bt: BoundaryType) -> tuple[int, ...]:
    """Restriction degrees of the normalized bundle on R_0..R_m.

    These are d - n - r on R_0, r on R_m, and on interior components
    (1/2) sum_nu (-d_{nu,i-1} + 2 d_{nu,i} - d_{nu,i+1}) = (delta_{i-1} -
    2 delta_i + delta_{i+1})/2, as sum_nu d_{nu,i} = d - delta_i; they sum to 0.
    """
    d, n, r, m = bt.d, bt.n, bt.r, bt.m
    delta = bt.delta
    degs = [d - n - r]
    for i in range(1, m):
        twice = delta[i - 1] - 2 * delta[i] + delta[i + 1]
        if twice % 2 != 0:
            raise InvariantError(f"odd interior degree at i={i} for {bt.mu}")
        degs.append(twice // 2)
    degs.append(r)
    if sum(degs) != 0:
        raise InvariantError(f"twist degrees do not sum to 0 for {bt}")
    return tuple(degs)


def a_standard(bt: BoundaryType) -> StandardA:
    """Build the standard divisor A, checking integrality and degrees."""
    alpha = []
    for i, num in enumerate(bt.chain_nums(bt.c)):
        if num % 2 != 0:
            raise InvariantError(
                f"non-integral chain coefficient at i={i} for type {bt}"
            )
        alpha.append(num // 2)
    degrees = component_degrees(divisor_vector(alpha))
    if degrees != expected_twist_degrees(bt):
        raise InvariantError(f"restriction degrees of A are off for {bt}")
    return StandardA(tuple(alpha), degrees)

