"""Exception types shared across the library.

All errors derive from ValueError so that callers who do not care about
the fine-grained type can catch the usual thing.
"""

__all__ = [
    "HankelLabError",
    "DegreeOverflowError",
    "GridSizeError",
    "NonAnalyticError",
    "ParameterError",
    "SectionSizeError",
    "CostGuardError",
    "UndefinedRatioError",
]


class HankelLabError(ValueError):
    """Base class for library-specific errors."""


class DegreeOverflowError(HankelLabError):
    """A polynomial operation exceeded the configured degree bound."""


class GridSizeError(HankelLabError):
    """An evaluation grid is too small for the requested polynomial."""


class NonAnalyticError(HankelLabError):
    """An operation requiring analytic input received negative frequencies."""


class ParameterError(HankelLabError):
    """Invalid operator parameters (k, l, mu, beta, alpha, ...)."""


class SectionSizeError(HankelLabError):
    """A requested matrix section exceeds the configured size guard."""


class CostGuardError(HankelLabError):
    """A multilinear evaluation would exceed the configured cost budget."""


class UndefinedRatioError(HankelLabError):
    """A norm ratio is undefined (zero denominator)."""
