"""Exception types shared across the package."""


class PreconditionError(ValueError):
    """An operation was called on inputs outside its stated domain."""


class LimitError(PreconditionError):
    """A full-S_n computation was requested beyond the configured size cap."""


class VerificationError(Exception):
    """A result failed the check against an independent computation that
    the package makes before returning it."""
