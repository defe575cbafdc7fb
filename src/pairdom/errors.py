"""Exception hierarchy shared across the package."""


class PairdomError(Exception):
    """Base class for all package errors."""


class ParameterError(PairdomError, ValueError):
    """A distribution, copula or configuration parameter violates its contract."""


class DomainError(PairdomError, ValueError):
    """A function argument lies outside its mathematical domain."""


class DegenerateSampleError(PairdomError):
    """All paired differences are zero; the test statistic is undefined."""


class CapacityError(PairdomError):
    """An exact computation would exceed its configured size cap."""


class CsvFormatError(PairdomError):
    """A CSV input is malformed. Carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class AlignmentError(PairdomError):
    """Two dated series share no dates."""


class InsufficientDataError(PairdomError):
    """Too few observations for the requested operation."""
