"""Exception hierarchy shared across the package.

Every public entry point raises one of these instead of bare ValueError so
callers (and the CLI exit-code mapping) can tell input mistakes apart from
numerical failures and budget exhaustion.
"""


class PlatformDesignError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PlatformDesignError, ValueError):
    """An input violates its documented domain (range, sign, shape)."""


class NotPositiveDefinite(PlatformDesignError):
    """A matrix is not positive semi-definite within the allowed jitter."""


class RootBracketError(PlatformDesignError):
    """A root finder could not bracket or reach its target level."""


class PrecisionUnreachable(PlatformDesignError):
    """The QMC lattice reached its 2^22-point cap before the requested precision."""


class BudgetExceeded(PlatformDesignError):
    """A search exceeded its configured resource cap (e.g. maximum sample size)."""


class ParseError(PlatformDesignError):
    """A data file could not be parsed; the message carries line numbers."""


class SchemaError(PlatformDesignError):
    """A data file is missing a required column or has an unusable layout."""


class InsufficientData(PlatformDesignError):
    """Too few complete observations to estimate the requested quantities."""


class ZeroVariance(PlatformDesignError):
    """An arm's responses are constant, so standardized estimates are undefined."""
