"""Exact boundary coefficients of divisor classes extending the Maroni
divisor on compactified Hurwitz spaces.

The package is organized bottom-up:

* :mod:`maroni.combinatorics` - partitions, admissible boundary types and
  their integer invariants;
* :mod:`maroni.chain` - intersection theory on the resolved fibre chain;
* :mod:`maroni.lattice` - the quadratic twist functionals, their rational
  critical points, lattice rounding and integer-maximum certificates;
* :mod:`maroni.formulas` - the closed-form boundary coefficients and the
  published cross-checks;
* :mod:`maroni.verify` / :mod:`maroni.cli` - property suites and the
  command-line surface.

All arithmetic is exact (integers and ``fractions.Fraction``).
"""

from .combinatorics import (
    BoundaryType,
    GcdProfile,
    HurwitzParams,
    Partition,
    enumerate_boundary_types,
    enumerate_partitions,
    gcd_profile,
    make_boundary_type,
)
from .chain import (
    ChainModel,
    FibralDivisor,
    StandardA,
    a_standard,
    fibral,
    full_fibre,
    intersect,
    theta_dot,
)
from .errors import ApplicabilityError, DomainError, InvariantError, ParityError
from .formulas import (
    build_table,
    dp_trigonal_check,
    elliptic_tail_gain,
    elliptic_tail_special_value,
    lambda_coeff,
    patel_partial,
    psi_coeff,
    sigma_corr1,
    sigma_corr2,
    sigma_min,
    sigma_st,
)
from .lattice import (
    CorrectionResult,
    NodalRay,
    RoundedPoint,
    correction_ln,
    correction_n,
    f_twist,
    fmax_n,
    joint_round,
    nodal_f1,
    round_chain,
    single_round,
    trigonal_nodal_rays,
    verify_integer_max,
    verify_joint_max,
    verify_trigonal_nodal_max,
)

__version__ = "0.1.0"
