"""The upstairs twist of a one-node trigonal fibre with a split cover.

``nodal_f1`` is the functional as one ``Fraction``, and
``verify_trigonal_nodal_max`` the check that its effective maximum is the
closed form max(l, b-l)^2/16.  The check scans an integer form of 4 f1,
proved equal to ``nodal_f1`` at the 15 points that fix a quadratic in
four variables.  The ray-by-ray derivation of that maximum through
``nodal_f1`` is the tests' reference (``tests/nodal_oracle.py``).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .combinatorics import BoundaryType
from .errors import DomainError, InvariantError

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
# With M = max(l, b - l) and s the sum of the T multiplicities each
# quadrant is at most M s - s^2 <= M^2/4, reached at s = M/2 on one T ray,
# so the effective maximum of 4 f1 is M^2/4 (``_nodal_max_x4``).  A
# quadratic in four variables is fixed by its values at the 15 points 0,
# e_i, 2e_i, e_i + e_k (i < k), so agreeing with 4 nodal_f1 there proves
# the integer form equal.

_NODAL_GRAM = (
    (-2, 0, 1, 1),
    (0, -1, 1, 0),
    (1, 1, -2, 0),
    (1, 0, 0, -1),
)


def _require_split_nodal(bt: BoundaryType) -> None:
    if bt.d != 3 or bt.mu.parts != (1, 1, 1):
        raise DomainError(
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


def _nodal_f1_x4(l: int, b: int, z) -> int:
    """4 f1 at the multiplicities z of (C_1, T_1, C_2, T_2), in integers."""
    c1, t1, c2, t2 = z
    z_sq = 2 * (c1 * c2 + c1 * t2 + t1 * c2 - c1 * c1 - c2 * c2) - t1 * t1 - t2 * t2
    return 2 * z_sq + (2 * c1 + t1 - 2 * c2 - t2) ** 2 + l * t1 + (b - l) * t2


_NODAL_POINTS = [tuple(sum(i == t for i in ix) for t in range(4)) for ix in (
    (), *((i,) * s for i in range(4) for s in (1, 2)),
    *itertools.combinations(range(4), 2))]  # 0, e_i, 2e_i, e_i + e_k


def _nodal_max_x4(l: int, b: int) -> int:
    """4 max(l, b-l)^2/16, the effective maximum of 4 f1 (l and b are even)."""
    return max(l, b - l) ** 2 // 4


def verify_trigonal_nodal_max(bt: BoundaryType, margin: int = 3) -> bool:
    """Brute-force check of the effective maximum of the nodal functional.

    Scans all integer effective combinations with coordinates up to the
    critical scale plus ``margin``, excluding supports that contain a full
    preimage C_i + T_i; True iff none exceeds the closed-form maximum and
    it is attained (both critical points being integral for admissible
    types).  The scan uses the integer 4 f1, first proved equal to 4
    ``nodal_f1``.
    """
    if margin < 0:
        raise DomainError("margin must be >= 0")
    _require_split_nodal(bt)
    l, b = bt.l, bt.params.b
    for z in _NODAL_POINTS:
        if _nodal_f1_x4(l, b, z) != 4 * nodal_f1(bt, z):
            raise InvariantError(f"integer nodal form differs from f1 at {bt}")
    bound = max(l, b - l) // 2 + margin
    # one side's allowed (C_i, T_i) multiplicities: never both non-zero
    side = [(a, 0) for a in range(bound + 1)] + [(0, t) for t in range(1, bound + 1)]
    values = (_nodal_f1_x4(l, b, (*p1, *p2)) for p1 in side for p2 in side)
    return max(values, default=None) == _nodal_max_x4(l, b)
