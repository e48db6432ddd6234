"""Exception types shared across the package.

The CLI maps these onto its stable exit codes: bad input data is an
InputError (exit 2), blown size or work budgets are a ResourceLimitError
(exit 3), and ContractError marks a violated caller precondition. A
ContractError or AssertionError that reaches the CLI is an internal
error (exit 4), since the CLI itself is then the caller at fault.
"""

from __future__ import annotations


class OcmatchError(Exception):
    """Base class for package errors."""


class InputError(OcmatchError, ValueError):
    """Malformed instance data: bad file syntax, out-of-range ids, self-loops."""


class ContractError(OcmatchError, ValueError):
    """A documented precondition of an operation was violated by the caller."""


class ResourceLimitError(OcmatchError, RuntimeError):
    """A hard size cap or search budget was exceeded.

    When a search had already found feasible solutions, ``best_bound``
    carries the best value known at the point the budget ran out, and
    ``upper_bound``, when known, a value no solution can exceed.
    """

    def __init__(
        self, message: str, best_bound: float | None = None, upper_bound: float | None = None
    ):
        super().__init__(message)
        self.best_bound = best_bound
        self.upper_bound = upper_bound
