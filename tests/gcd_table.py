"""The gcd table d_{nu,i} = gcd(m_nu, i), kept as the tests' reference.

The package stores only delta_i = d - sum_nu d_{nu,i}; the table itself
and the restriction degrees read off it are rebuilt here, so that the
delta form of ``maroni.chain.expected_twist_degrees`` can be compared with
the gcd-table form it replaced.
"""

from math import gcd

from maroni.combinatorics import BoundaryType, Partition


def d_table(mu: Partition) -> tuple[tuple[int, ...], ...]:
    """Rows d_{nu,0..m}, one per part (d_{nu,0} = m_nu)."""
    m = mu.m
    return tuple(tuple(gcd(part, i) for i in range(m + 1)) for part in mu.parts)


def table_twist_degrees(bt: BoundaryType) -> tuple[int, ...]:
    """d - n - r on R_0, r on R_m and, on interior components,
    (1/2) sum_nu (-d_{nu,i-1} + 2 d_{nu,i} - d_{nu,i+1}), read off the table."""
    table = d_table(bt.mu)
    interior = []
    for i in range(1, bt.m):
        twice = sum(-row[i - 1] + 2 * row[i] - row[i + 1] for row in table)
        assert twice % 2 == 0, (bt, i)
        interior.append(twice // 2)
    return (bt.d - bt.n - bt.r, *interior, bt.r)
