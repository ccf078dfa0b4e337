"""Exception types and the argument checks shared across the solver modules."""

import numbers

import numpy as np


class CsviuError(Exception):
    """Base class for every error raised by this package."""


class ModelError(CsviuError):
    """Invalid system data: shape mismatch, non-finite entries or bad config."""


class SingularLambda(CsviuError):
    """The control curvature matrix is singular; D'D must be positive definite."""


class MaxIterations(CsviuError):
    """An iteration hit its step budget before reaching tolerance."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class MonotonicityViolation(CsviuError):
    """Value iteration lost its monotone ordering, which signals a numerical failure."""


class SeriesDivergent(CsviuError):
    """A closed-loop series does not converge, so the requested quantity is undefined."""


class AssumptionViolated(CsviuError):
    """A positivity or convexity assumption required by the solver does not hold."""


def check_count(name: str, value, least: int) -> int:
    """``value`` as an int; ``ValueError`` naming ``name`` unless it is an
    integer, not a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_state(name: str, x, n: int) -> np.ndarray:
    """``x`` as a float vector; ``ValueError`` naming ``name`` unless it has
    length ``n`` and finite entries."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (n,):
        raise ValueError(f"{name} has length {x.size}, expected {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite, got {x}")
    return x
