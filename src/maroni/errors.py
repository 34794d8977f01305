"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument outside an operation's domain (j + d - n odd, say), or a
    construction that does not apply (a joint twist without a part 1):
    exit 2 in ``cli``."""


class InvariantError(RuntimeError):
    """An internal consistency check failed; this signals a bug, not a
    bad input."""
