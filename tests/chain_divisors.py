"""Fibral divisors on the chain that only the tests construct.

The coefficient engine needs none of these; they are kept with the tests
as worked references for the chain pairing (``maroni.chain.intersect``).
"""

from fractions import Fraction

from maroni.chain import ChainModel, FibralDivisor, fibral, full_fibre
from maroni.combinatorics import BoundaryType


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
