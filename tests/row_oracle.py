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

Step-histogram lemmas.  With the delta steps s_i = delta_i - delta_{i+1}
(i < m), their histogram cnt and cr_D(x) = (x + D/2) mod D - D/2, each
edge residual of a rounding depends on its step alone:

    S_1 = sum_s cnt(s) cr_{2(d-1)}(s - a)^2,
    S_2 = sum_s cnt(s) cr_{2(d-1)(d-2)}((d-1)s - (d-2)a - l)^2,
    8(d-1) delta_n = sum_s cnt(s) tau(s),
    tau(s) = (d-1-|c|)^2 + s^2 - cr_{2(d-1)}(s - a)^2,

and tau(s) + tau(-s) = 0 mod 8(d-1) for s = c mod 2, tau(0) = 0 mod
8(d-1) for even c; ``tau_pairs`` lists these finite cases per degree.
"""

from __future__ import annotations

from collections import Counter
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


def step_histogram(bt) -> Counter:
    """cnt(s): how many of the m steps delta_i - delta_{i+1} equal s."""
    delta = bt.delta
    return Counter(delta[i] - delta[i + 1] for i in range(bt.m))


def centred(x: int, den: int) -> int:
    """cr_D(x) = (x + D/2) mod D - D/2, the residue of x in [-D/2, D/2)."""
    return (x + den // 2) % den - den // 2


def hist_s1(bt) -> int:
    """S_1, the single rounding's ``scaled_sum_sq``, from the histogram."""
    den = 2 * (bt.d - 1)
    return sum(n * centred(s - bt.a, den) ** 2
               for s, n in step_histogram(bt).items())


def hist_s2(bt) -> int:
    """S_2, the joint rounding's ``scaled_sum_sq``, from the histogram."""
    d, a, l = bt.d, bt.a, bt.l
    den = 2 * (d - 1) * (d - 2)
    return sum(n * centred((d - 1) * s - (d - 2) * a - l, den) ** 2
               for s, n in step_histogram(bt).items())


def tau(d: int, c: int, s: int) -> int:
    """The edge term of 8(d-1) delta_n at one step s."""
    return ((d - 1 - abs(c)) ** 2 + s * s
            - centred(s - (d - 1 + c), 2 * (d - 1)) ** 2)


def hist_delta_n(bt) -> int:
    """8(d-1) delta_n as a sum of edge terms."""
    return sum(n * tau(bt.d, bt.c, s) for s, n in step_histogram(bt).items())


def tau_pairs(d: int):
    """(c, s, value) per finite case at degree d: c = d - n - 2r over
    1 <= n <= d, 0 <= r <= d - 2, and for s = c mod 2 over one period
    4(d-1) the value tau(s) + tau(-s), plus tau(0) when c is even."""
    for c in sorted({d - n - 2 * r for n in range(1, d + 1) for r in range(d - 1)}):
        for s in range(c % 2, 4 * (d - 1), 2):
            yield c, s, tau(d, c, s) + tau(d, c, -s)
        if c % 2 == 0:
            yield c, 0, tau(d, c, 0)
