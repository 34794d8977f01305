"""The Fraction scan of the split one-node fibre, kept as a test oracle.

``oracle_nodal_max`` is the check that ``maroni.nodal.
verify_trigonal_nodal_max`` made before it moved to the integer form of
4 f1: it walks the same box, with the same supports, point by point
through the ``Fraction``-valued ``nodal_f1``.
"""

from __future__ import annotations

from maroni.nodal import nodal_f1, trigonal_nodal_rays


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
