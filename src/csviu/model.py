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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ModelError

NOISE_KINDS = ("gaussian", "rademacher", "uniform-scaled")

_MATRIX_FIELDS = (
    "A", "B", "C", "D", "sigma", "sigma_x", "sigma_bar_x", "sigma_u", "sigma_bar_u",
)


def _as_matrix(name, value):
    arr = np.atleast_2d(np.asarray(value, dtype=float))
    if arr.ndim != 2:
        raise ModelError(f"{name} must be a matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ModelError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class CriterionConfig:
    """Run parameters for solvers and Monte Carlo estimators.

    ``kappa is None`` means an infinite horizon.
    """

    alpha: float = 1.0
    kappa: int | None = None
    paths: int = 1000
    seed: int = 0
    tol_fixed_point: float = 1e-11
    tol_sor: float = 1e-10
    max_iters: int = 200000
    sor_omega: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ModelError(f"alpha must be a positive real, got {self.alpha!r}")
        if self.kappa is not None and (int(self.kappa) != self.kappa or self.kappa < 0):
            raise ModelError(f"kappa must be a nonnegative integer or None, got {self.kappa!r}")
        if self.paths < 1:
            raise ModelError(f"paths must be >= 1, got {self.paths!r}")
        if not (0.0 < self.sor_omega < 2.0):
            raise ModelError(f"sor_omega must lie in (0, 2), got {self.sor_omega!r}")
        if self.tol_fixed_point <= 0 or self.tol_sor <= 0:
            raise ModelError("tolerances must be positive")
        if self.max_iters < 1:
            raise ModelError(f"max_iters must be >= 1, got {self.max_iters!r}")


@dataclass(frozen=True)
class SystemModel:
    """Plant matrices plus noise intensities; immutable once validated."""

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
        for name in _MATRIX_FIELDS:
            object.__setattr__(self, name, _as_matrix(name, getattr(self, name)))
        n, m, p, r = self.n, self.m, self.p, self.r
        expected = {
            "A": (n, n),
            "B": (n, m),
            "C": (p, n),
            "D": (p, m),
            "sigma": (n, r),
            "sigma_x": (n, n),
            "sigma_bar_x": (n, n),
            "sigma_u": (n, m),
            "sigma_bar_u": (n, m),
        }
        for name, shape in expected.items():
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

    @classmethod
    def from_dict(cls, data: dict) -> "SystemModel":
        """Build a model from a plain dict of nested lists (row major)."""
        if "A" not in data or "B" not in data:
            raise ModelError("model data must contain at least A and B")
        A = _as_matrix("A", data["A"])
        B = _as_matrix("B", data["B"])
        n, m = A.shape[0], B.shape[1]
        C = _as_matrix("C", data["C"]) if "C" in data else np.zeros((1, n))
        D = _as_matrix("D", data["D"]) if "D" in data else np.zeros((C.shape[0], m))
        p = C.shape[0]

        def matrix_or_zero(name, shape):
            if name in data and data[name] is not None:
                return _as_matrix(name, data[name])
            return np.zeros(shape)

        sigma = matrix_or_zero("sigma", (n, 1))
        sigma_x = matrix_or_zero("sigma_x", (n, n))
        sigma_bar_x = matrix_or_zero("sigma_bar_x", (n, n))
        sigma_u = matrix_or_zero("sigma_u", (n, m))
        sigma_bar_u = matrix_or_zero("sigma_bar_u", (n, m))

        criterion = None
        if data.get("criterion") is not None:
            criterion = _criterion_from_dict(data["criterion"])

        return cls(A, B, C, D, sigma, sigma_x, sigma_bar_x, sigma_u, sigma_bar_u, criterion)

    def to_dict(self) -> dict:
        out = {name: getattr(self, name).tolist() for name in _MATRIX_FIELDS}
        if self.criterion is not None:
            cfg = self.criterion
            out["criterion"] = {
                "alpha": cfg.alpha,
                "kappa": cfg.kappa,
                "paths": cfg.paths,
                "seed": cfg.seed,
                "omega": cfg.sor_omega,
                "tolerances": {"fixed_point": cfg.tol_fixed_point, "sor": cfg.tol_sor},
                "max_iters": cfg.max_iters,
            }
        return out


def _criterion_from_dict(data: dict) -> CriterionConfig:
    if not isinstance(data, dict):
        raise ModelError(f"criterion must be an object, got {type(data).__name__}")
    known = {"alpha", "kappa", "paths", "seed", "omega", "tolerances", "max_iters"}
    unknown = set(data) - known
    if unknown:
        raise ModelError(f"unknown criterion keys: {sorted(unknown)}")
    kwargs = {}
    if "alpha" in data:
        kwargs["alpha"] = float(data["alpha"])
    if "kappa" in data:
        kwargs["kappa"] = None if data["kappa"] is None else int(data["kappa"])
    if "paths" in data:
        kwargs["paths"] = int(data["paths"])
    if "seed" in data:
        kwargs["seed"] = int(data["seed"])
    if "omega" in data:
        kwargs["sor_omega"] = float(data["omega"])
    if "max_iters" in data:
        kwargs["max_iters"] = int(data["max_iters"])
    tol = data.get("tolerances") or {}
    if "fixed_point" in tol:
        kwargs["tol_fixed_point"] = float(tol["fixed_point"])
    if "sor" in tol:
        kwargs["tol_sor"] = float(tol["sor"])
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
    if not isinstance(data, dict):
        raise ModelError(f"model file {path} must contain a JSON object")
    return SystemModel.from_dict(data)
