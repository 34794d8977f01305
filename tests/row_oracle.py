"""The coefficient displays as integers over one scale, kept as a test oracle.

Every term of ``sigma_st``, ``sigma_corr1`` and ``sigma_corr2`` is an
integer over T = 24(b-1)(d-1)^2(d-2) (d >= 3).  With u = 24(b-1)(d-1),
h = d m - sum m/m_nu and L = 2(b-1)(d-1)h + 3m j(b-j)(d-2), the local
term times u:

    u sigma_st    = L + 3(b-1) m (c^2 - 2|c|(d-1)),
    u sigma_corr1 = L + 3(b-1) (S_1 - Delta - (d-1)^2 m),
    T sigma_corr2 = (d-1)(d-2) L - 3(b-1) [(d-1)^2 Delta + (d-1) m l^2
                    + (d-1)^2 (d-2)^2 m - S_2],

with Delta the sum of squared delta steps and S_1, S_2 the integer
``scaled_sum_sq`` of ``single_round`` and ``joint_round``.  ``row_min`` is
the first least candidate in the order st, corr1, corr2, compared as
integers over T.
"""

from __future__ import annotations

from fractions import Fraction

from maroni.lattice import joint_round, single_round


def _scales(bt) -> tuple[int, int, int]:
    """u, T and L = u times the local term."""
    d, b, j, m = bt.d, bt.params.b, bt.j, bt.m
    u = 24 * (b - 1) * (d - 1)
    h = d * m - sum(m // p for p in bt.mu.parts)
    local = 2 * (b - 1) * (d - 1) * h + 3 * m * j * (b - j) * (d - 2)
    return u, u * (d - 1) * (d - 2), local


def st_num(bt) -> tuple[int, int]:
    """(u sigma_st, u)."""
    u, _, local = _scales(bt)
    b, d, m, c = bt.params.b, bt.d, bt.m, bt.c
    return local + 3 * (b - 1) * m * (c * c - 2 * abs(c) * (d - 1)), u


def corr1_num(bt) -> tuple[int, int]:
    """(u sigma_corr1, u)."""
    u, _, local = _scales(bt)
    b, d, m = bt.params.b, bt.d, bt.m
    s1 = single_round(bt).scaled_sum_sq
    return local + 3 * (b - 1) * (s1 - bt.delta_square_sum - (d - 1) ** 2 * m), u


def corr2_num(bt) -> tuple[int, int]:
    """(T sigma_corr2, T); needs a part equal to 1, as ``joint_round`` does."""
    _, t, local = _scales(bt)
    b, d, m, l = bt.params.b, bt.d, bt.m, bt.l
    s2 = joint_round(bt).scaled_sum_sq
    tail = ((d - 1) ** 2 * bt.delta_square_sum + (d - 1) * m * l * l
            + (d - 1) ** 2 * (d - 2) ** 2 * m - s2)
    return (d - 1) * (d - 2) * local - 3 * (b - 1) * tail, t


def row_min(bt) -> tuple[Fraction, str]:
    """The first least of st, corr1 (and corr2 with a part 1), over T."""
    candidates = [(st_num(bt), "st"), (corr1_num(bt), "corr1")]
    if bt.mu.has_unit_part:
        candidates.append((corr2_num(bt), "corr2"))
    _, t, _ = _scales(bt)
    best = None
    for (num, scale), tag in candidates:
        over_t = num * (t // scale)
        if best is None or over_t < best[0]:
            best = (over_t, tag)
    return Fraction(best[0], t), best[1]
