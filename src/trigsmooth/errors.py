"""Exception types shared across the package."""


class SmoothnessError(Exception):
    """Base class for all package-specific errors."""


class ConstraintViolation(SmoothnessError, ValueError):
    """A parameter tuple or coefficient sequence violates a structural constraint."""


class DomainError(SmoothnessError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class AliasError(SmoothnessError, ValueError):
    """Grid too small to hold the stored harmonics without aliasing."""


class TagError(SmoothnessError, ValueError):
    """Operation requires a series tag the input does not carry."""


class PreconditionError(SmoothnessError, ValueError):
    """An index-range or monotonicity precondition of an inequality clause fails."""


class DivideByZeroError(SmoothnessError, ZeroDivisionError):
    """A ratio against zero was requested (degenerate input)."""


class ConfigError(SmoothnessError):
    """Malformed run configuration.  Mapped to CLI exit code 2."""


class ConfigNotFound(ConfigError):
    """Config file missing.  Mapped to CLI exit code 2."""


class TruncationBudgetError(SmoothnessError):
    """Estimated truncation remainder exceeds the configured budget.  CLI exit code 4."""
