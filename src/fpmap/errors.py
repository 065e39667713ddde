"""Exception types shared across the package."""


class FpmapError(Exception):
    """Base class for all package-specific errors."""


class InputError(FpmapError, ValueError):
    """Malformed or inconsistent input: primes that differ, bad indices, bad config."""


class CapExceededError(FpmapError):
    """A stage's work would pass the enumeration cap, the package's one size
    cap, which a user sets through caps.enum or FPMAP_ENUM_CAP; it bounds a
    Graev norm's table too, and the demo's certificate combinations."""


class InvalidNormError(FpmapError):
    """The norm was not validated, or its validation found violations."""


class ExhaustedError(FpmapError):
    """No qualifying subsequence of the requested length exists."""

    def __init__(self, message, achievable_length=None, failed_slot=None, constraint=None):
        super().__init__(message)
        self.achievable_length = achievable_length
        self.failed_slot = failed_slot
        self.constraint = constraint


class NormBoundFailedError(FpmapError):
    """A bound that must hold by construction failed; upstream state is inconsistent."""


class InternalDisagreementError(FpmapError):
    """Two redundant computations of the same quantity disagree."""
