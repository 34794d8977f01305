"""The Fraction references of the split one-node fibre, kept as test oracles.

``trigonal_nodal_rays`` derives the effective maximum of ``maroni.nodal.
nodal_f1`` ray by ray through the ``Fraction`` functional; it is the
reference for the closed form max(l, b-l)^2/16 that ``maroni.nodal.
verify_trigonal_nodal_max`` checks.  ``oracle_nodal_max`` is the check
that ``verify_trigonal_nodal_max`` made before it moved to the integer
form of 4 f1: it walks the same box, with the same supports, point by
point through ``nodal_f1``, against the ray maximum.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from maroni.errors import InvariantError
from maroni.nodal import _require_split_nodal, nodal_f1

_NODAL_BASIS = ("C1", "T1", "C2", "T2")


class NodalRay(NamedTuple):
    """The functional restricted to one effective ray t -> t . curve."""

    label: str
    quadratic: Fraction
    linear: Fraction
    critical_point: Fraction | None
    critical_value: Fraction


def trigonal_nodal_rays(bt) -> tuple[tuple[NodalRay, ...], Fraction]:
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


def oracle_nodal_max(bt, margin: int = 3) -> bool:
    """True iff no effective point of the box exceeds the ray maximum and
    the maximum is attained; C_i and T_i never appear together."""
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
