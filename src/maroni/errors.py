"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument outside an operation's domain, or a construction that
    does not apply (a joint twist without a part 1): exit 2 in ``cli``."""


class ParityError(DomainError):
    """The branch-point count j is incompatible with the ramification
    partition: j + d - n must be even for an admissible boundary type."""


class InvariantError(RuntimeError):
    """An internal consistency check failed; this signals a bug, not a
    bad input."""
