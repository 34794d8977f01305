"""The integer twist form of both twists and its exact maximizers.

Both twists have one integer form, a data-only ``ChainQuadratic`` built by
``twist_quadratic`` from the integer degrees A.R_i and W.R_i: 2(d-1) f(Z, N)
on states (x, g), g = (d-1)n - x, with node terms W.R_i x_i + (2 A.R_i +
(d-1)[i=0]) g_i, the separable edges -(d-2)(x' - x)^2 - (g' - g)^2 and the
end pinned at (0, 0).  The single twist is this form at X = 0 (W = 0,
states (0, (d-1)n)), where 2(d-1) f(0, N) = (d-1) 2f(N).  Its evaluator
checks the value of every correction in ``lattice``; ``f_twist`` and
``joint_f_value`` there, pairing coefficient vectors, are its reference.

Certificates.  In edge coordinates u_t = x_{t-1} - x_t, v_t = g_{t-1} - g_t
(end pinned) the form is sum_t (P_t u_t + Q_t v_t - w0 u_t^2 - w1 v_t^2)
with (P_t, Q_t) the prefix sums of the node terms and u_t + v_t = 0 mod
d-1, so its per-edge maxima sum to a bound, ``edge_bound``.  The best v of
a coset costs at most w1 (d-1)^2/4, so only u with w0 (u - P/(2w0))^2 <=
w0/4 + w1 (d-1)^2/4 are tried, each with the two coset points around
Q/(2w1).  The bound is the single twist's exact maximum (u = 0) and drops
xi >= 0 for the joint one.  It is the only lattice oracle: a rounded point
that reaches it is a maximum over the whole lattice, one above it is an
invariant failure, and one below it is not certified.  The tests check it
against an exact box dynamic program and the naive scan.
"""

from __future__ import annotations

import itertools
from math import isqrt
from typing import NamedTuple

from .chain import component_degrees, divisor_vector
from .combinatorics import BoundaryType
from .errors import DomainError


class ChainQuadratic(NamedTuple):
    """An integer objective on states s_i = (x_i, g_i) along a chain.

    The value is sum_i (p_i x_i + q_i g_i) - sum_{i=1}^m (w0 (x_{i-1} -
    x_i)^2 + w1 (g_{i-1} - g_i)^2) with (p_i, q_i) = ``linear[i]``,
    (w0, w1) = ``weights`` and s_m pinned to (0, 0).
    """

    linear: tuple[tuple[int, int], ...]
    weights: tuple[int, int]

    def value(self, states) -> int:
        (w0, w1), states = self.weights, [*states, (0, 0)]
        return sum(p * x + q * g - w0 * (x - xn) ** 2 - w1 * (g - gn) ** 2
                   for (p, q), (x, g), (xn, gn) in zip(self.linear, states, states[1:]))

    def edge_bound(self, mod: int, free_x: bool) -> int:
        """The sum of per-edge maxima over states with x + g = 0 mod ``mod``.

        Tries u with (2 w0 u - P)^2 <= w0^2 + w0 w1 mod^2, or u = 0 unless
        ``free_x`` (module docstring).  ``mod`` and w1 must be >= 1, and w0
        too with ``free_x`` (else >= 0).  With f = 3 g_0 - (g_0 - g_1)^2 - g_1^2
        on a two-node chain, mod 1, the maximum is 4, at (2, 1):

        >>> ChainQuadratic(((0, 3), (0, 0)), weights=(0, 1)).edge_bound(1, False)
        4
        """
        (w0, w1), bound, big_p, big_q = self.weights, 0, 0, 0
        for name, got, least in ("mod", mod, 1), ("w1", w1, 1), ("w0", w0, int(free_x)):
            if got < least:
                raise DomainError(f"edge bound needs {name} >= {least}, got {got}")
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
    off the branch numerators ``xs`` = ``BoundaryType.chain_nums(l)`` (W =
    -sum X_i R_i) and A.R_i = ``degrees[i]``.  With ``xs`` None, W = 0 and on the states (0, (d-1)n)
    it is 2(d-1) f(N), the single twist as the joint form at X = 0.
    """
    d, q_col = bt.d, [2 * a for a in degrees[:-1]]
    q_col[0] += d - 1
    w_col = component_degrees(divisor_vector(xs)) if xs else itertools.repeat(0)
    return ChainQuadratic(tuple(zip(w_col, q_col)), weights=(d - 2, 1))


def twist_states(d: int, ns, xs=None) -> list[tuple[int, int]]:
    """The states (x_i, (d-1)n_i - x_i) of N-coordinates ns (x = 0 if no xs)."""
    return [(x, (d - 1) * n - x) for n, x in zip(ns, xs or [0] * len(ns))]
