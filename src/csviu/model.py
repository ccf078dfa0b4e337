"""System data, criterion configuration and model file loading.

The plant is linear in the mean,

    x+ = A x + B u + noise,      y = C x + D u,

but the noise intensity grows with the magnitude of the state and of the
control: the state channel injects (sigma_x + sigma_bar_x * diag(|x|)) eps_x,
the control channel (sigma_u + sigma_bar_u * diag(|u|)) eps_u, and an
exogenous channel sigma * w.  The stacked disturbance (w, eps_x, eps_u) is
iid, zero mean, with identity covariance.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ModelError, as_floats

NOISE_KINDS = ("gaussian", "rademacher", "uniform-scaled")

# every matrix of a model file, with its shape in the dimensions n (states),
# m (controls), p (outputs) and r (exogenous noise channels)
_SHAPES = {
    "A": "nn", "B": "nm", "C": "pn", "D": "pm", "sigma": "nr",
    "sigma_x": "nn", "sigma_bar_x": "nn", "sigma_u": "nm", "sigma_bar_u": "nm",
}
# criterion block keys of a model file -> CriterionConfig fields
_CRITERION_KEYS = {
    "alpha": "alpha", "kappa": "kappa", "paths": "paths", "seed": "seed", "max_iters": "max_iters",
}
_TOLERANCE_KEYS = {"fixed_point": "tol_fixed_point", "sor": "tol_sor"}
# CriterionConfig fields that count, with their least value; the other fields are reals
_COUNTS = {"kappa": 0, "paths": 1, "seed": 0, "max_iters": 1}


def _as_matrix(name, value):
    """``value`` as a finite float matrix; :class:`ModelError` naming ``name`` otherwise."""
    arr = np.atleast_2d(as_floats(name, value, ModelError))
    if arr.ndim != 2:
        raise ModelError(f"{name} must be a matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ModelError(f"{name} contains non-finite entries")
    return arr


def _shapes(n, m, p, r) -> dict:
    dims = {"n": n, "m": m, "p": p, "r": r}
    return {name: tuple(dims[d] for d in symbols) for name, symbols in _SHAPES.items()}


def _check_keys(what, data, known) -> None:
    if not isinstance(data, dict):
        raise ModelError(f"{what} must be an object, got {type(data).__name__}")
    unknown = set(data) - set(known)
    if unknown:
        raise ModelError(f"unknown {what} keys: {sorted(unknown, key=str)}")


def _criterion_value(name, value):
    """A criterion value as a float, or as an int for a count; :class:`ModelError` otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ModelError(f"{name} must be a real number, got {value!r}")
    if name not in _COUNTS:
        return float(value)
    least = _COUNTS[name]
    if value < least or not (isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise ModelError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class CriterionConfig:
    """Run parameters for solvers and Monte Carlo estimators.

    ``kappa is None`` means an infinite horizon.  ``alpha`` and the
    tolerances are stored as floats; ``kappa``, ``paths``, ``seed``
    and ``max_iters`` must be integral and are stored as ints (50.0 as 50).
    Bools, strings and values out of range (a tolerance must be finite and
    positive) raise :class:`ModelError` naming the field.
    """

    alpha: float = 1.0
    kappa: int | None = None
    paths: int = 1000
    seed: int = 0
    tol_fixed_point: float = 1e-11
    tol_sor: float = 1e-10
    max_iters: int = 200000

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (f.name == "kappa" and value is None):
                object.__setattr__(self, f.name, _criterion_value(f.name, value))
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ModelError(f"alpha must be a positive real, got {self.alpha!r}")
        for name in ("tol_fixed_point", "tol_sor"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ModelError(f"{name} must be a finite positive real, got {value!r}")


@dataclass(frozen=True)
class SystemModel:
    """Plant matrices plus noise intensities; immutable once validated.

    ``transition``, the stacked matrix of the transition map, is built on
    first use and cached on the instance; ``dataclasses.replace`` starts a
    fresh cache.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    sigma: np.ndarray
    sigma_x: np.ndarray
    sigma_bar_x: np.ndarray
    sigma_u: np.ndarray
    sigma_bar_u: np.ndarray
    criterion: CriterionConfig | None = field(default=None, compare=False)

    def __post_init__(self):
        for name in _SHAPES:
            object.__setattr__(self, name, _as_matrix(name, getattr(self, name)))
        n, m, p, r = self.n, self.m, self.p, self.r
        for name, shape in _shapes(n, m, p, r).items():
            got = getattr(self, name).shape
            if got != shape:
                raise ModelError(
                    f"{name} has shape {got}, expected {shape} "
                    f"for dimensions n={n}, m={m}, p={p}, r={r}"
                )

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def r(self) -> int:
        return self.sigma.shape[1]

    @cached_property
    def transition(self) -> np.ndarray:
        """The (2(n+m) + r+n+m, n) transition matrix, read-only.

        The next state is ``[x, u, w, eps_x, eps_u, |x| o eps_x, |u| o eps_u] @ transition``
        for the state x, control u and stacked noise (w, eps_x, eps_u): its row
        blocks are A', B', sigma', sigma_x', sigma_u', sigma_bar_x' and
        sigma_bar_u'.
        """
        T = np.vstack([getattr(self, name).T for name in
                       ("A", "B", "sigma", "sigma_x", "sigma_u", "sigma_bar_x", "sigma_bar_u")])
        T.flags.writeable = False
        return T

    @classmethod
    def from_dict(cls, data: dict) -> "SystemModel":
        """Build a model from a plain dict of nested lists (row major).

        ``A`` and ``B`` are required.  A missing or null matrix among the
        other seven is zero of its shape (p = 1 without ``C``, r = 1 without
        ``sigma``), and a null ``criterion`` is absent.  Unknown keys, here and
        in the criterion and tolerances blocks, raise :class:`ModelError`.
        """
        _check_keys("model", data, (*_SHAPES, "criterion"))
        if data.get("A") is None or data.get("B") is None:
            raise ModelError("model data must contain at least A and B")
        given = {
            name: _as_matrix(name, data[name]) for name in _SHAPES if data.get(name) is not None
        }
        p = given["C"].shape[0] if "C" in given else 1
        r = given["sigma"].shape[1] if "sigma" in given else 1
        shapes = _shapes(given["A"].shape[0], given["B"].shape[1], p, r)
        matrices = {name: given.get(name, np.zeros(shape)) for name, shape in shapes.items()}
        criterion = None
        if data.get("criterion") is not None:
            criterion = _criterion_from_dict(data["criterion"])
        return cls(**matrices, criterion=criterion)

    def to_dict(self) -> dict:
        out = {name: getattr(self, name).tolist() for name in _SHAPES}
        if self.criterion is not None:
            cfg = self.criterion
            block = {key: getattr(cfg, f) for key, f in _CRITERION_KEYS.items()}
            block["tolerances"] = {key: getattr(cfg, f) for key, f in _TOLERANCE_KEYS.items()}
            out["criterion"] = block
        return out


def _criterion_from_dict(data) -> CriterionConfig:
    _check_keys("criterion", data, (*_CRITERION_KEYS, "tolerances"))
    tolerances = {} if data.get("tolerances") is None else data["tolerances"]
    _check_keys("tolerances", tolerances, _TOLERANCE_KEYS)
    kwargs = {f: data[key] for key, f in _CRITERION_KEYS.items() if key in data}
    kwargs.update((f, tolerances[key]) for key, f in _TOLERANCE_KEYS.items() if key in tolerances)
    return CriterionConfig(**kwargs)


def load_model(path) -> SystemModel:
    """Load a model from a JSON file; missing noise matrices default to zero."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"model file {path} is not valid JSON: {exc}") from exc
    return SystemModel.from_dict(data)
