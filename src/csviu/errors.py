"""Exception types and the argument checks shared across the solver modules."""

import math
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


class NoPSDSolution(MaxIterations):
    """Value iteration provably diverges: no positive semidefinite fixed point exists.

    ``iterations`` is the value-iteration step whose iterate P carries the
    certificate and ``ratio`` is the factor lambda > 1 with R_inf(P) >= lambda P
    for the recession map R_inf of the value map (see :mod:`csviu.riccati`);
    where B = 0 and Su = 0 make the value map affine, it is the spectral
    radius, at least one, of the map's linear part.
    """

    def __init__(self, message, iterations, ratio, residual=None):
        super().__init__(message, iterations=iterations, residual=residual)
        self.ratio = ratio


class MonotonicityViolation(CsviuError):
    """Value iteration lost its monotone ordering, which signals a numerical failure."""


class SeriesDivergent(CsviuError):
    """A closed-loop series does not converge, so the requested quantity is undefined."""


class AssumptionViolated(CsviuError):
    """A positivity or convexity assumption required by the solver does not hold."""


class ArgumentError(CsviuError, ValueError):
    """A function argument fails its check: wrong type, shape or a non-finite entry."""


def check_count(name: str, value, least: int) -> int:
    """``value`` as an int; :class:`ArgumentError` naming ``name`` unless it
    is an integer, not a bool, of at least ``least``."""
    # an int passes before the isinstance test of an ABC, which costs about 0.4 us
    if (type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral))
            or value < least):
        raise ArgumentError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_real(name: str, value, low: float = -math.inf, high: float = math.inf) -> float:
    """``value`` as a float; :class:`ArgumentError` naming ``name`` unless it
    is a finite real number, not a bool, with ``low < value < high``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (math.isfinite(value) and low < value < high)):
        raise ArgumentError(f"{name} must be a finite real in ({low:g}, {high:g}), got {value!r}")
    return float(value)


def as_floats(name: str, a, error: type = ArgumentError) -> np.ndarray:
    """``a`` as a float array; ``error`` naming ``name`` when numpy cannot
    convert it, as with text or ragged nesting.  Model data pass
    :class:`ModelError`."""
    try:
        return np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise error(f"{name} must be an array of real numbers: {exc}") from None


def check_state(name: str, x, n: int) -> np.ndarray:
    """``x`` as a float vector; :class:`ArgumentError` naming ``name`` unless
    it has length ``n`` and finite entries."""
    x = as_floats(name, x).reshape(-1)
    if x.shape != (n,):
        raise ArgumentError(f"{name} has length {x.size}, expected {n}")
    return check_matrix(name, x, (n,))


def check_matrix(name: str, a, shape: tuple) -> np.ndarray:
    """``a`` as a float array; :class:`ArgumentError` naming ``name`` unless
    it has shape ``shape`` and finite entries."""
    a = as_floats(name, a)
    if a.shape != shape:
        raise ArgumentError(f"{name} has shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise ArgumentError(f"{name} must be finite, got {a}")
    return a
