"""Fibral divisors on the chain that only the tests construct.

The coefficient engine needs none of these.  A ``FibralDivisor`` is a
rational coefficient vector (e_0, ..., e_m) on the chain R_0..R_m; the
matrix pairing ``maroni.chain.intersect`` and the references
``maroni.lattice.f_twist`` and ``joint_f_value`` take its ``coeffs``.  The
helpers here are worked references for that pairing.
"""

from collections import namedtuple
from fractions import Fraction

from maroni.chain import StandardA
from maroni.combinatorics import BoundaryType
from maroni.errors import DomainError


class FibralDivisor(namedtuple("FibralDivisor", "m coeffs")):
    """A rational coefficient vector (e_0, ..., e_m) on a chain, m >= 1."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates
    # a divisor is not a sequence: no tuple concatenation or repetition
    __add__ = __mul__ = __rmul__ = None

    def __new__(cls, m: int, coeffs: tuple[Fraction, ...]):
        if m < 1:
            raise DomainError(f"chain length parameter must be >= 1, got {m}")
        if len(coeffs) != m + 1:
            raise DomainError(f"expected {m + 1} coefficients, got {len(coeffs)}")
        return super().__new__(cls, m, coeffs)

    def __sub__(self, other: "FibralDivisor") -> "FibralDivisor":
        _check_same_chain(self, other)
        return FibralDivisor(
            self.m, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def scaled(self, scalar) -> "FibralDivisor":
        s = Fraction(scalar)
        return FibralDivisor(self.m, tuple(s * a for a in self.coeffs))


def _check_same_chain(d1: FibralDivisor, d2: FibralDivisor) -> None:
    if d1.m != d2.m:
        raise DomainError("divisors live on chains of different lengths")


def fibral(m: int, coeffs) -> FibralDivisor:
    """Build a divisor on R_0..R_m from any iterable of ints/Fractions."""
    return FibralDivisor(m, tuple(Fraction(c) for c in coeffs))


def full_fibre(m: int) -> FibralDivisor:
    """F = R_0 + ... + R_m, numerically trivial on the chain."""
    return fibral(m, [1] * (m + 1))


def theta_dot(d: FibralDivisor) -> Fraction:
    """Pairing of the relative dualizing class with a fibral divisor.

    Adjunction on the chain gives theta . D = -e_0 - e_m; this equals the
    pairing against -2S + sum_{i<m}(m-i) R_i by S . R_m = 1.
    """
    return -d.coeffs[0] - d.coeffs[-1]


def standard_divisor(std: StandardA) -> FibralDivisor:
    """A = -sum_{i<m} alpha_i R_i as a Fraction divisor on the chain."""
    return fibral(len(std.alpha), [-a for a in std.alpha] + [0])


def branch_functional_divisor(bt: BoundaryType) -> FibralDivisor:
    """The fibral divisor pairing like the branch class on R_0..R_{m-1}.

    On the span of R_0..R_{m-1} the branch divisor (l sections through R_0
    plus the exceptional part) acts like -sum X_i R_i, X = ``chain_nums(l)``.
    """
    return fibral(bt.m, [-x for x in bt.chain_nums(bt.l)] + [0])


def add(d1: FibralDivisor, d2: FibralDivisor) -> FibralDivisor:
    """D1 + D2; the engine itself only ever takes differences."""
    return d1 - d2.scaled(-1)


def component(m: int, i: int) -> FibralDivisor:
    """The component R_i of R_0..R_m as a divisor."""
    return fibral(m, [1 if t == i else 0 for t in range(m + 1)])


def zero_divisor(m: int) -> FibralDivisor:
    return fibral(m, [0] * (m + 1))


def theta_representative(m: int) -> FibralDivisor:
    """The fibre-supported part sum_{i<m} (m-i) R_i of the dualizing class.

    The full representative is this divisor minus twice the section S; the
    section term only matters when pairing against divisors with a nonzero
    R_m coefficient.
    """
    return fibral(m, [m - i for i in range(m)] + [0])


def shift_and_fibre_part(d: FibralDivisor) -> tuple[FibralDivisor, FibralDivisor]:
    """The shift D_sh (maximum coefficient moved to 0) and the fibre part.

    D_sh subtracts max_i e_i from every coefficient; the fibre part is
    (min_i e_i) . F and equals D + (-D)_sh.
    """
    top = max(d.coeffs)
    bottom = min(d.coeffs)
    shifted = FibralDivisor(d.m, tuple(e - top for e in d.coeffs))
    return shifted, full_fibre(d.m).scaled(bottom)


def we_divisor(bt: BoundaryType) -> tuple[FibralDivisor, Fraction]:
    """The exceptional branch divisor sum delta_i R_i and its square.

    The square is returned in the closed form -sum (delta_i - delta_{i-1})^2,
    which agrees with the matrix pairing.
    """
    w = fibral(bt.m, bt.delta)
    return w, Fraction(-bt.delta_square_sum)
