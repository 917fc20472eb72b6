"""Exception types shared across the package, and the row checks of array evaluations.

The closed forms take arrays: one entry per row of a sweep. A check that
fails raises DomainError, or, given an error record (`row_errors`), marks the
failing rows and lets the evaluation go on. Each row keeps the message of the
first check it fails, which is the message it would raise on its own, since
every check runs in the same order for a single row and for many.
"""

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the physical or mathematical domain of an operation."""


class ConfigError(ValueError):
    """A run configuration failed validation. Carries the offending field path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class QuadratureError(RuntimeError):
    """Adaptive integration could not reach the requested tolerance.

    The best available estimate and its error bound are attached so callers
    can still report a partial result.
    """

    def __init__(self, message, best_estimate, error_estimate):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


def row_errors(shape):
    """Empty error record: one DomainError message per row, None while the row is good."""
    return np.full(shape, None, object)


def check(ok, message, errors=None):
    """Fail the rows where `ok` is false with DomainError(message).

    Without an error record, raise if any row fails. With one, write the
    message on the failing rows that no earlier check failed; `ok` must
    broadcast to the record's shape. `message` may also be a function that
    takes the mask of failing rows and returns their messages in order.
    """
    if errors is None:
        if not (ok.all() if isinstance(ok, np.ndarray) else ok):
            raise DomainError(message if isinstance(message, str) else message(np.logical_not(ok))[0])
        return
    new = np.logical_not(ok) & np.equal(errors, None)
    if new.any():
        errors[new] = message if isinstance(message, str) else message(new)


def raise_first(errors):
    """Raise the DomainError of the first failed row of an error record, if any."""
    failed = np.flatnonzero(np.not_equal(errors, None))
    if failed.size:
        raise DomainError(errors.flat[failed[0]])


def plain(value):
    """A Python number for a 0-d result, so that scalar calls return plain floats and complexes."""
    return np.asarray(value).item() if np.ndim(value) == 0 else value
