"""The elliptic-tail gain over the j = 2 locus, checked by the tests alone.

No command and no ``verify`` line reads these closed forms, so they live
beside the acceptance criterion that checks their positivity.
"""

from __future__ import annotations

from fractions import Fraction

from maroni.errors import DomainError


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
