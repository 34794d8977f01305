"""Fibral divisors on the chain that only the tests construct.

The coefficient engine needs none of these.  A ``FibralDivisor`` is a
rational coefficient vector (e_0, ..., e_m) over a ``ChainModel``; the
matrix pairing ``maroni.chain.intersect`` and the references
``maroni.lattice.f_twist`` and ``joint_f_value`` take its ``coeffs``.  The
helpers here are worked references for that pairing.
"""

from collections import namedtuple
from fractions import Fraction

from maroni.chain import ChainModel, StandardA
from maroni.combinatorics import BoundaryType
from maroni.errors import DomainError


class FibralDivisor(namedtuple("FibralDivisor", "chain coeffs")):
    """A rational coefficient vector (e_0, ..., e_m) over a ChainModel."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates
    # a divisor is not a sequence: no tuple concatenation or repetition
    __add__ = __mul__ = __rmul__ = None

    def __new__(cls, chain: ChainModel, coeffs: tuple[Fraction, ...]):
        if len(coeffs) != chain.m + 1:
            raise DomainError(f"expected {chain.m + 1} coefficients, got {len(coeffs)}")
        return super().__new__(cls, chain, coeffs)

    def __sub__(self, other: "FibralDivisor") -> "FibralDivisor":
        _check_same_chain(self, other)
        return FibralDivisor(
            self.chain, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def scaled(self, scalar) -> "FibralDivisor":
        s = Fraction(scalar)
        return FibralDivisor(self.chain, tuple(s * a for a in self.coeffs))


def _check_same_chain(d1: FibralDivisor, d2: FibralDivisor) -> None:
    if d1.chain != d2.chain:
        raise DomainError("divisors live on chains of different lengths")


def fibral(chain: ChainModel, coeffs) -> FibralDivisor:
    """Build a divisor from any iterable of ints/Fractions."""
    return FibralDivisor(chain, tuple(Fraction(c) for c in coeffs))


def full_fibre(chain: ChainModel) -> FibralDivisor:
    """F = R_0 + ... + R_m, numerically trivial on the chain."""
    return fibral(chain, [1] * (chain.m + 1))


def theta_dot(d: FibralDivisor) -> Fraction:
    """Pairing of the relative dualizing class with a fibral divisor.

    Adjunction on the chain gives theta . D = -e_0 - e_m; this equals the
    pairing against -2S + sum_{i<m}(m-i) R_i by S . R_m = 1.
    """
    return -d.coeffs[0] - d.coeffs[-1]


def standard_divisor(std: StandardA) -> FibralDivisor:
    """A = -sum_{i<m} alpha_i R_i as a Fraction divisor on the chain."""
    return fibral(ChainModel(len(std.alpha)), [-a for a in std.alpha] + [0])


def branch_functional_divisor(bt: BoundaryType) -> FibralDivisor:
    """The fibral divisor pairing like the branch class on R_0..R_{m-1}.

    On the span of R_0..R_{m-1} the branch divisor (l sections through R_0
    plus the exceptional part) acts like -sum X_i R_i, X = ``chain_nums(l)``.
    """
    return fibral(ChainModel(bt.m), [-x for x in bt.chain_nums(bt.l)] + [0])


def add(d1: FibralDivisor, d2: FibralDivisor) -> FibralDivisor:
    """D1 + D2; the engine itself only ever takes differences."""
    return d1 - d2.scaled(-1)


def component(chain: ChainModel, i: int) -> FibralDivisor:
    """The component R_i as a divisor."""
    return fibral(chain, [1 if t == i else 0 for t in range(chain.m + 1)])


def zero_divisor(chain: ChainModel) -> FibralDivisor:
    return fibral(chain, [0] * (chain.m + 1))


def theta_representative(chain: ChainModel) -> FibralDivisor:
    """The fibre-supported part sum_{i<m} (m-i) R_i of the dualizing class.

    The full representative is this divisor minus twice the section S; the
    section term only matters when pairing against divisors with a nonzero
    R_m coefficient.
    """
    m = chain.m
    return fibral(chain, [m - i for i in range(m)] + [0])


def shift_and_fibre_part(d: FibralDivisor) -> tuple[FibralDivisor, FibralDivisor]:
    """The shift D_sh (maximum coefficient moved to 0) and the fibre part.

    D_sh subtracts max_i e_i from every coefficient; the fibre part is
    (min_i e_i) . F and equals D + (-D)_sh.
    """
    top = max(d.coeffs)
    bottom = min(d.coeffs)
    shifted = FibralDivisor(d.chain, tuple(e - top for e in d.coeffs))
    return shifted, full_fibre(d.chain).scaled(bottom)


def we_divisor(bt: BoundaryType) -> tuple[FibralDivisor, Fraction]:
    """The exceptional branch divisor sum delta_i R_i and its square.

    The square is returned in the closed form -sum (delta_i - delta_{i-1})^2,
    which agrees with the matrix pairing.
    """
    chain = ChainModel(bt.m)
    w = fibral(chain, bt.delta)
    return w, Fraction(-bt.delta_square_sum)
