"""Intersection numbers on the normal model over one ramification part.

These numbers are not used by the coefficient engine; they are kept with
the tests as a worked reference for the upstairs twist pairings.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from maroni.errors import DomainError


@dataclass(frozen=True)
class NormalSurfaceNumbers:
    """Intersection numbers on the normal model over one ramification part.

    For a part of index m_nu, the chain upstairs has Cartier pieces T'_i
    of self-intersection -2 m_nu meeting each other and the marked
    component C in m_nu points; the pullback of C meets the ramification
    divisor in 3(m_nu - 1) + 2 g(C) points.  Twisting by an upstairs
    divisor with coefficients a_0, ..., a_{m-1} (a_m = 0) has square
    -m_nu sum (a_{i-1} - a_i)^2, and its pushforward has square
    -sum (d_{nu,i-1} a_{i-1} - d_{nu,i} a_i)^2.
    """

    tprime_self: int
    c_dot_tprime: int
    tprime_dot_next: int
    c_pullback_dot_ramification: int
    tprime_pullback_dot_ramification: int
    z_self: Fraction
    push_z_self: Fraction
    push_z_dot_branch: Fraction | None


def normal_surface_numbers(
    m_nu: int,
    i: int,
    coeffs,
    genus_c: int,
    *,
    l: int | None = None,
    delta: tuple[int, ...] | None = None,
) -> NormalSurfaceNumbers:
    """Evaluate the normal-model intersection numbers for one part.

    ``coeffs`` are the chain multiplicities a_0..a_{m-1}; the index i must
    satisfy 1 <= i <= m - 1.  When the branch-side data (l, delta) is
    supplied, the pairing of the pushforward with the branch divisor is
    included as well.
    """
    if m_nu < 1:
        raise DomainError(f"ramification index must be >= 1, got {m_nu}")
    a = [Fraction(x) for x in coeffs]
    m = len(a)
    if not 1 <= i <= m - 1:
        raise DomainError(f"chain index i={i} outside 1..{m - 1}")
    a.append(Fraction(0))

    def dnu(t: int) -> int:
        return m_nu if t % m == 0 else gcd(m_nu, t)

    z_self = -m_nu * sum((a[t - 1] - a[t]) ** 2 for t in range(1, m + 1))
    push = [dnu(t) * a[t] for t in range(m + 1)]
    push_self = -sum((push[t - 1] - push[t]) ** 2 for t in range(1, m + 1))
    push_branch = None
    if l is not None and delta is not None:
        push_branch = a[0] * m_nu * l - sum(
            (push[t - 1] - push[t]) * (delta[t - 1] - delta[t])
            for t in range(1, m + 1)
        )
    return NormalSurfaceNumbers(
        tprime_self=-2 * m_nu,
        c_dot_tprime=m_nu,
        tprime_dot_next=m_nu,
        c_pullback_dot_ramification=3 * (m_nu - 1) + 2 * genus_c,
        tprime_pullback_dot_ramification=-dnu(i - 1) + 2 * dnu(i) - dnu(i + 1),
        z_self=z_self,
        push_z_self=push_self,
        push_z_dot_branch=push_branch,
    )
