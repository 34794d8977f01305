"""The Fraction depth-first rounding search, kept as a test oracle.

``oracle_round`` is the rounding that ``maroni.lattice.round_chain`` did
before it became one integer pass: it walks the chain from R_{m-1} down to
R_0 in exact Fractions and, with ``explore_ties``, explores both admissible
integers at every tie (2^ties branches), returning the branch with the
least sum of squared edge residuals.  ``oracle_critical_n``,
``oracle_joint_critical`` and ``oracle_joint_round`` rebuild the single
and joint critical points and the joint parity shift from the closed
forms, independently of the integer numerators the library uses.
``oracle_fmax_n``, ``oracle_fmax_ln`` and ``ferr_ln`` are the Fraction
forms of the critical values and of the joint rounding defect that the
corrections were computed from before they moved to scaled integers.
``over_common_denominator`` turns rational targets into the integer
numerators over one denominator that ``round_chain`` takes.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, lcm
from typing import NamedTuple

HALF = Fraction(1, 2)


class OraclePoint(NamedTuple):
    alpha: tuple[int, ...]
    e: tuple[Fraction, ...]
    sum_sq: Fraction
    xi: tuple[int, ...] | None = None
    eprime: tuple[Fraction, ...] | None = None


def over_common_denominator(targets) -> tuple[list[int], int]:
    """(N, D) with targets_i = N_i/D, D the least common denominator."""
    fracs = [Fraction(t) for t in targets]
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _residual_sum_sq(e) -> Fraction:
    chain = list(e) + [Fraction(0)]
    return sum((a - b) ** 2 for a, b in zip(chain, chain[1:]))


def oracle_round(targets, explore_ties: bool = False) -> OraclePoint:
    a = [Fraction(t) for t in targets]
    m = len(a)

    def candidates(i: int, e_next: Fraction) -> list[int]:
        lo, hi = a[i] + e_next - HALF, a[i] + e_next + HALF
        if explore_ties:
            return list(range(ceil(lo), floor(hi) + 1))
        # half-open [lo, hi): the lower integer wins a boundary tie
        return [ceil(lo)]

    best = None
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
    sum_sq, alphas, es = best
    return OraclePoint(tuple(alphas), tuple(es), sum_sq)


def oracle_critical_n(bt) -> list[Fraction]:
    """a_i = ((m-i)a - delta_i)/(2(d-1))."""
    d, m, a, delta = bt.d, bt.m, bt.a, bt.delta
    return [Fraction((m - i) * a - delta[i], 2 * (d - 1)) for i in range(m)]


def oracle_joint_critical(bt):
    """Critical coordinates (x, g) of the joint functional.

    x_i = ((m-i)l - delta_i)/(2(d-2)) and g_i = ((m-i)a - delta_i)/2 for
    i = 0..m-1, with l = b - j counted on the R_0 side.
    """
    d, m, a, l, delta = bt.d, bt.m, bt.a, bt.l, bt.delta
    x = tuple(Fraction((m - i) * l - delta[i], 2 * (d - 2)) for i in range(m))
    g = tuple(Fraction((m - i) * a - delta[i], 2) for i in range(m))
    return x, g


def oracle_joint_round(bt, explore_ties: bool = False) -> OraclePoint:
    """Round (g_i + x_i)/(d-1), then shift by 1/2 where m - i is odd."""
    d, m = bt.d, bt.m
    x, g = oracle_joint_critical(bt)
    point = oracle_round(
        [(gi + xi) / (d - 1) for gi, xi in zip(g, x)], explore_ties
    )
    eprime = tuple(
        e if (m - i) % 2 == 0 else e + HALF for i, e in enumerate(point.e)
    )
    xi = tuple(x[i] + eprime[i] for i in range(m))
    assert all(v.denominator == 1 for v in xi)
    return point._replace(xi=tuple(int(v) for v in xi), eprime=eprime)


def oracle_fmax_n(bt) -> Fraction:
    """m (c^2/(8(d-1)) + c/4 + (d-1)/8) + sum of delta steps^2 / (8(d-1))."""
    d, m, c = bt.d, bt.m, bt.c
    return m * (
        Fraction(c * c, 8 * (d - 1)) + Fraction(c, 4) + Fraction(d - 1, 8)
    ) + Fraction(bt.delta_square_sum, 8 * (d - 1))


def oracle_fmax_ln(bt) -> Fraction:
    d, m, a, l = bt.d, bt.m, bt.a, bt.l
    return Fraction(m, 8 * (d - 1) * (d - 2)) * (
        l * l + (d - 2) * a * a
    ) + Fraction(bt.delta_square_sum, 8 * (d - 2))


def ferr_ln(bt, sum_sq: Fraction) -> Fraction:
    """The joint rounding defect -((d-2)/2) sum (e_{i-1}-e_i)^2 - m/8."""
    return -Fraction(bt.d - 2, 2) * sum_sq - Fraction(bt.m, 8)
