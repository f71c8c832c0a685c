"""Semantic exceptions shared across the package."""


class ErgostatError(Exception):
    """Base class for all package errors."""


class MapDefinitionError(ErgostatError, ValueError):
    """Map descriptor violates its contract (non-monotone branch, bad breakpoints,
    failed expansion check)."""


class DomainError(ErgostatError, ValueError):
    """Argument outside its admissible domain (point outside [0,1), alpha outside
    the rate-function range, inadmissible cylinder word)."""


class DegenerateVarianceError(ErgostatError):
    """Asymptotic variance is zero (or numerically indistinguishable from zero);
    the requested limit-theorem experiment is ill-posed."""


class ConvergenceError(ErgostatError):
    """Iterative solver failed to reach its tolerance within its budget."""


class BudgetExceededError(ErgostatError):
    """Requested computation exceeds a hard resource cap (stream length,
    Monte Carlo feasibility floor, recurrence cap)."""


class ConfigError(ErgostatError, ValueError):
    """Configuration failed to parse or validate, or asks for a run that cannot be made.

    `issues` is a list of (line_number, message) pairs; line_number is 0 for
    file-level problems.
    """

    def __init__(self, issues):
        self.issues = list(issues)
        lines = "; ".join(f"line {ln}: {msg}" if ln else msg for ln, msg in self.issues)
        super().__init__(lines or "invalid configuration")
