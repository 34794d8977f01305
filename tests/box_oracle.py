"""Exact maxima of a twist form over a box, kept as test oracles.

A box is one iterable of allowed states (x, g) per chain position.
``box_max`` finds the maximum by a dynamic program along the chain, and
``scan_max`` enumerates the box point by point as its reference.  Both are
exact, so the tests of the edge bound (``maroni.twist.ChainQuadratic.
edge_bound``), the only lattice oracle of the package, compare with them.
"""

from __future__ import annotations

import itertools


def box_max(quad, boxes) -> int:
    """Exact maximum of ``quad`` over the box by dynamic programming along the chain.

    A predecessor at (x', g') with score sc reaches a state (x, g) with
    sc - w0 (x' - x)^2 - w1 (g' - g)^2 = k + p x + q g - w0 x^2 - w1 g^2,
    where the line (p, q, k) = (2 w0 x', 2 w1 g', sc - w0 x'^2 - w1 g'^2)
    is stored per state, so each pair costs two products in integers.
    """
    w0, w1 = quad.weights

    def line(x, g, score):
        return 2 * w0 * x, 2 * w1 * g, score - w0 * x * x - w1 * g * g

    def reach(lines, x, g):
        best = max([k + p * x + q * g for p, q, k in lines])
        return best - w0 * x * x - w1 * g * g

    boxes, (p, q) = list(boxes), quad.linear[0]
    lines = [line(x, g, p * x + q * g) for x, g in boxes[0]]
    for (p, q), box in zip(quad.linear[1:], boxes[1:]):
        lines = [line(x, g, p * x + q * g + reach(lines, x, g)) for x, g in box]
    return reach(lines, 0, 0)


def scan_max(quad, boxes) -> int:
    """The chain DP's reference: the box enumerated point by point."""
    return max(quad.value(states) for states in itertools.product(*boxes))
