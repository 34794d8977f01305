"""The package's records are immutable named tuples.

Every record is a ``typing.NamedTuple`` or, where its constructor checks
its input, a ``collections.namedtuple`` subclass whose ``__new__`` runs the
checks; ``verify.CheckResult`` is the one mutable record.  These tests pin
the semantics every record keeps: no field can be assigned, ``_replace``
builds an equal record of the same type (through the checks).  The
tests' own ``FibralDivisor`` (``tests/chain_divisors.py``) keeps the same
constructor checks and is not a sequence that ``+`` or ``*`` would
concatenate or repeat.
"""

from fractions import Fraction

import pytest

from chain_divisors import FibralDivisor, fibral
from maroni import formulas, lattice
from maroni.chain import a_standard
from maroni.combinatorics import HurwitzParams, Partition, make_boundary_type
from maroni.errors import DomainError
from maroni.twist import twist_quadratic
from maroni.verify import CheckResult


def every_record():
    """One instance of each record type, keyed by its class name."""
    params = HurwitzParams(3, 4)
    mu = Partition((1, 1, 1))
    bt = make_boundary_type(params, 4, mu)
    correction = lattice.correction_n(bt)
    records = [
        params, mu, bt, a_standard(bt),
        correction.point, correction, twist_quadratic(bt, correction.std.degrees),
        tuple(formulas.build_table(params, "st"))[0], formulas.dp_trigonal_check(4)[0],
    ]
    return {type(r).__name__: r for r in records}


RECORD_NAMES = sorted(every_record())


def test_every_record_type_is_covered():
    assert RECORD_NAMES == sorted([
        "BoundaryType", "ChainQuadratic", "CheckRow", "CorrectionResult",
        "HurwitzParams", "Partition", "RoundedPoint", "StandardA", "TableRow"])


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_no_field_can_be_assigned(name):
    record = every_record()[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 0


def test_partition_derived_data_is_read_only():
    mu = Partition((3, 2, 1))
    for attr in ("m", "delta", "step_square_sum"):
        with pytest.raises(AttributeError):
            setattr(mu, attr, getattr(mu, attr))
        with pytest.raises(AttributeError):
            delattr(mu, attr)
    assert (mu.m, mu.delta[1], mu.step_square_sum) == (6, 3, 22)


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_replace_round_trips(name):
    record = every_record()[name]
    for copy in (record._replace(), record._replace(**record._asdict())):
        assert copy == record and type(copy) is type(record)
        assert hash(copy) == hash(record) and repr(copy) == repr(record)


def test_replace_runs_the_constructor_checks():
    mu = Partition((3, 1))
    other = mu._replace(parts=(2, 2))
    assert (other.m, other.delta, other.step_square_sum) == (2, (0, 2, 0), 8)
    with pytest.raises(DomainError):
        mu._replace(parts=(1, 3))
    with pytest.raises(DomainError):
        HurwitzParams(3, 4)._replace(d=2)
    with pytest.raises(DomainError):
        fibral(2, [1, 0, 0])._replace(m=0)
    with pytest.raises(DomainError):
        fibral(2, [1, 0, 0])._replace(coeffs=(Fraction(1),))


def test_divisors_do_not_concatenate_or_repeat():
    f = fibral(2, [1, 2, 0])
    for operation in (lambda: f + f, lambda: f * 2, lambda: 2 * f, lambda: f * f):
        with pytest.raises(TypeError):
            operation()
    assert (f - f).coeffs == (0, 0, 0) and f.scaled(2).coeffs == (2, 4, 0)
    assert isinstance(f - f, FibralDivisor)


def test_check_result_is_mutable_and_counts():
    result = CheckResult("synthetic")
    assert (result.name, result.checked, result.failures, result.ok) == (
        "synthetic", 0, [], False)
    result.count()
    result.count()
    assert (result.checked, result.failures, result.ok) == (2, [], True)
    result.fail("case")
    assert (result.checked, result.failures, result.ok) == (2, ["case"], False)
    assert not CheckResult("empty").ok
    assert CheckResult("a").failures is not CheckResult("b").failures
