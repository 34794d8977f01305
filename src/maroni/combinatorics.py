"""Partitions, admissible boundary types, and their integer invariants.

The boundary of the compactified Hurwitz space of degree-d, genus-g
simply-branched covers of the line is a union of divisors S_{j,mu} indexed
by a branch-point split j (with S_{j,mu} = S_{b-j,mu}, b = 2g - 2 + 2d) and
a partition mu = (m_1, ..., m_n) of d recording the ramification over the
node.  Every coefficient formula in this package is a function of the
derived integer data collected here:

* n = n(mu), m = m(mu) = lcm(m_1, ..., m_n);
* the gcd table d_{nu,i} = gcd(m_nu, i) (with d_{nu,0} = m_nu), the
  vector delta_i = d - sum_nu d_{nu,i} for i = 0..m and its step square
  sum, which a ``Partition`` derives once and carries next to m;
* the division (j + d - n)/2 = q(d-1) + r with 0 <= r < d - 1 and the
  degree imbalance c = d - n - 2r across the two end components of the
  fibre chain; c' is the imbalance of the same division of l = b - j,
  the c of the flipped type.

A pair (j, mu) is admissible only when j + d - n is even.  Only c is
stored; c' is computed from l by ``BoundaryType.flipped``, so the
side-independence |c|(|c| - 2(d-1)) = |c'|(|c'| - 2(d-1)) can be asserted
rather than assumed.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from math import gcd, lcm
from typing import NamedTuple

from .errors import DomainError


class HurwitzParams(namedtuple("HurwitzParams", "d g")):
    """Global numerical data: degree d >= 3 and genus g = (d-1)k, k >= 1.

    The branch-point count is b = 2g - 2 + 2d = 2(k+1)(d-1).  Degree 2 is
    excluded throughout: the Maroni data is empty there and the joint
    correction formulas divide by d - 2.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates

    def __new__(cls, d: int, g: int):
        if d < 3:
            raise DomainError(f"degree must be >= 3, got d={d}")
        if g < 1 or g % (d - 1) != 0:
            raise DomainError(
                f"genus must satisfy g=(d-1)k with k>=1: got d={d}, g={g}"
            )
        return super().__new__(cls, d, g)

    @property
    def k(self) -> int:
        return self.g // (self.d - 1)

    @property
    def b(self) -> int:
        return 2 * self.g - 2 + 2 * self.d


class Partition(namedtuple("Partition", "parts")):
    """A partition of d: non-increasing positive parts m_1 >= ... >= m_n."""

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates

    def __new__(cls, parts: tuple[int, ...]):
        if not parts or any(p < 1 for p in parts):
            raise DomainError(f"parts must be positive, got {parts}")
        if any(a < b for a, b in itertools.pairwise(parts)):
            raise DomainError(f"parts must be non-increasing, got {parts}")
        self = super().__new__(cls, parts)
        # m = lcm(parts), delta and its step square sum: once, outside eq/hash/repr
        object.__setattr__(self, "m", lcm(*parts))
        delta, step_square_sum = gcd_profile(self)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "step_square_sum", step_square_sum)
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set {name!r}: a Partition is immutable")

    __delattr__ = __setattr__

    @property
    def d(self) -> int:
        return sum(self.parts)

    @property
    def n(self) -> int:
        return len(self.parts)

    @property
    def has_unit_part(self) -> bool:
        return self.parts[-1] == 1

    def __str__(self) -> str:
        return "(" + "|".join(str(p) for p in self.parts) + ")"


def enumerate_partitions(d: int) -> list[Partition]:
    """All partitions of d, in reverse-lexicographic order.

    >>> [str(p) for p in enumerate_partitions(3)]
    ['(3)', '(2|1)', '(1|1|1)']
    """
    if d <= 0:
        raise DomainError(f"partition enumeration needs d >= 1, got {d}")

    out: list[Partition] = []

    def extend(prefix: list[int], remaining: int, cap: int) -> None:
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            extend(prefix, remaining - part, part)
            prefix.pop()

    extend([], d, d)
    return out


@functools.lru_cache(maxsize=None)
def gcd_profile(mu: Partition) -> tuple[tuple[int, ...], int]:
    """The vector delta_i = d - sum_nu d_{nu,i} and its step square sum.

    d_{nu,i} = gcd(m_nu, i) for i = 0..m, so d_{nu,0} = m_nu; since m_nu
    divides m also d_{nu,m} = m_nu, hence delta_0 = delta_m = 0.  The
    vector is symmetric, delta_i = delta_{m-i}.  The step square sum is
    sum_{i=1}^m (delta_i - delta_{i-1})^2.  The partition is the cache key,
    so equal partitions share one pair.

    >>> gcd_profile(Partition((3,)))
    ((0, 2, 2, 0), 8)
    """
    d, m = mu.d, mu.m
    # gcd(m_nu, 0) = m_nu is the convention d_{nu,0} = m_nu
    delta = tuple(d - sum(gcd(p, i) for p in mu.parts) for i in range(m + 1))
    return delta, sum((a - b) ** 2 for a, b in itertools.pairwise(delta))


class BoundaryType(NamedTuple):
    """An admissible boundary pair (j, mu) together with its derived data.

    The orientation convention puts j branch points on the end component
    R_m of the resolved fibre chain and l = b - j on the other end R_0;
    r and c are computed from j; c' is ``flipped().c``.  Construct through
    :func:`make_boundary_type`, which enforces the parity condition.
    """

    params: HurwitzParams
    j: int
    mu: Partition
    q: int
    r: int
    c: int

    def __str__(self) -> str:
        """The short label messages name a type by: d=4 g=3 j=4 mu=(3|1)."""
        return f"d={self.d} g={self.params.g} j={self.j} mu={self.mu}"

    @property
    def d(self) -> int:
        return self.params.d

    @property
    def n(self) -> int:
        return self.mu.n

    @property
    def m(self) -> int:
        return self.mu.m

    @property
    def l(self) -> int:
        return self.params.b - self.j

    @property
    def a(self) -> int:
        """The shifted imbalance d - 1 + c."""
        return self.params.d - 1 + self.c

    @property
    def delta(self) -> tuple[int, ...]:
        return self.mu.delta

    @property
    def delta_square_sum(self) -> int:
        return self.mu.step_square_sum

    def chain_nums(self, x: int) -> list[int]:
        """(m-i)x - delta_i, i < m: twice -A at x = c, the critical twist
        over 2(d-1) at x = a, the branch numerators X_i at x = l."""
        m, delta = self.mu.m, self.mu.delta
        return [(m - i) * x - delta[i] for i in range(m)]

    def flipped(self) -> "BoundaryType":
        """The same unordered boundary type with the two sides swapped."""
        return make_boundary_type(self.params, self.l, self.mu)


def make_boundary_type(params: HurwitzParams, j: int, mu: Partition) -> BoundaryType:
    """Build an admissible boundary type, rejecting parity violations.

    The branch index must satisfy 2 <= j <= b - 2 and j + d - n must be
    even; then (j + d - n)/2 = q(d-1) + r defines q, r and c = d - n - 2r.
    """
    if mu.d != params.d:
        raise DomainError(f"partition {mu} is not a partition of d={params.d}")
    b, d, n = params.b, params.d, mu.n
    if not 2 <= j <= b - 2:
        raise DomainError(f"branch index j={j} outside 2..{b - 2}")
    if (j + d - n) % 2 != 0:
        raise DomainError(f"j + d - n = {j + d - n} is odd for j={j}, mu={mu}")
    q, r = divmod((j + d - n) // 2, d - 1)
    return BoundaryType(params=params, j=j, mu=mu, q=q, r=r, c=d - n - 2 * r)


# the most boundary types one command may enumerate (linear in g at each d)
MAX_TYPES = 20_000


def type_count(d: int, max_k: int, min_k: int = 0) -> int:
    """The canonical types of degree d over every g = (d-1)k, min_k < k <= max_k.

    With a = d - 1 and s = k + 1 (b/2 = sa) a partition with p = (d-n) % 2
    has floor((sa - p)/2) types, j = 2 + p, ... <= b/2.  Over s = 1..t they
    sum to (at(t+1)/2 - pt - odd)/2, odd counting the odd sa - p.

    >>> type_count(3, 1), type_count(3, 2), type_count(3, 2, 1)
    (5, 13, 8)
    """
    a, total = d - 1, 0
    for mu in enumerate_partitions(d):
        p = (d - mu.n) % 2
        for t, sign in ((max_k + 1, 1), (min_k + 1, -1)):
            odd = p * t if a % 2 == 0 else (t + 1 - p) // 2
            total += sign * ((a * t * (t + 1) // 2 - p * t - odd) // 2)
    return total


def check_type_count(count: int, label: str) -> None:
    """Reject a range of ``count`` boundary types above ``MAX_TYPES``."""
    if count > MAX_TYPES:
        raise DomainError(f"{label} gives {count} boundary types (cap {MAX_TYPES})")


def enumerate_boundary_types(params: HurwitzParams) -> list[BoundaryType]:
    """All admissible canonical types: 2 <= j <= b/2, parity-filtered.

    One representative is produced per unordered pair {j, b-j}; the order
    is j ascending, then mu reverse-lexicographic.
    """
    out: list[BoundaryType] = []
    partitions = enumerate_partitions(params.d)
    for j in range(2, params.b // 2 + 1):
        for mu in partitions:
            if (j + params.d - mu.n) % 2 == 0:
                out.append(make_boundary_type(params, j, mu))
    return out
