"""Shared exception types."""


class ForrlabError(Exception):
    """Base class for package-specific failures."""


class SamplingFailureError(ForrlabError):
    """Rejection sampler exhausted its attempt budget."""

    def __init__(self, message: str, attempts: int):
        super().__init__(f"{message} (after {attempts} attempts)")
        self.attempts = attempts


class ResourceLimitError(ForrlabError):
    """A size cap (qubit count, dense-table feasibility) was exceeded."""


class PartitionError(ForrlabError):
    """Rectangle cells do not partition the input square, or a point is
    covered by zero / more than one cell."""


class InvariantError(ForrlabError):
    """An internal self-check failed, so the run's results cannot be trusted."""
