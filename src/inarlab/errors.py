"""Exception hierarchy shared across the package.

Split along the boundaries the CLI cares about: parameter/config mistakes
(exit code 2) versus resource limits, sampling-budget refusals and
numerical failures (exit code 3).
"""


class InarLabError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(InarLabError, ValueError):
    """A numeric or structural argument is outside its documented domain."""


class InvalidConfigError(InvalidParameterError):
    """A configuration object violates one of its invariants."""


class SamplingBudgetError(InarLabError, RuntimeError):
    """Refused to sample: truncation tail mass exceeds the allowed threshold."""


class ResourceLimitError(InarLabError, RuntimeError):
    """A computation would exceed a configured size limit."""


class WindowTooWideError(ResourceLimitError):
    """Requested observation window is wider than the enumeration maximum."""


class ExplosionLimitError(ResourceLimitError):
    """A joint law would have more atoms than the configured limit."""


class AlphabetTooLargeError(ResourceLimitError):
    """Subset enumeration requested on an alphabet above the exact cap."""


class NumericalError(InarLabError, ArithmeticError):
    """A computed quantity breaks an identity its inputs guarantee."""


class InsufficientDataError(InarLabError, ValueError):
    """Too few usable points for the requested estimate."""
