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

All arithmetic is exact (integers and ``fractions.Fraction``).  The package
binds no names of its own: callers import from the modules above.
"""
