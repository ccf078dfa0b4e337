"""Estimators for the piecewise-linear value slope.

The optimal value function carries, next to the quadratic term, a term linear
in |x| whose slope vector is only defined through a forward-looking series in
the closed loop.  Nothing here is exact for a generic state; the module
offers a conservative magnitude bound, a frozen-sign closed form that is
accurate deep inside an orthant, and a Monte Carlo rollout of the series
itself.  The bound and the closed form share one resolvent, the solution's
cached ``slope_map``, which keeps the discount inside the series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SeriesDivergent, check_count, check_state
from .operators import spectral_radius
from .riccati import RiccatiSolution
from . import simulator


@dataclass(frozen=True)
class MuEstimate:
    value: np.ndarray
    kind: str
    bound: np.ndarray | None = None
    stderr: np.ndarray | None = None
    depth: int | None = None
    paths: int | None = None


def _require_contracting(alpha: float, radius: float, what: str):
    if alpha * radius >= 1.0 - 1e-12:
        raise SeriesDivergent(
            f"{what} needs alpha * closed-loop radius < 1, got {alpha * radius:.6f}"
        )


def mu_bound(sol: RiccatiSolution) -> np.ndarray:
    """Componentwise magnitude cap on the stationary slope vector.

    Conservative by construction: it majorizes the series with its worst-case
    resolvent amplification, so any admissible slope estimate should stay
    inside it on well-conditioned problems.
    """
    alpha = sol.alpha
    _require_contracting(alpha, sol.closed_loop_radius, "the slope bound")
    amplification = spectral_radius(sol.slope_map) / alpha
    return alpha * amplification * (np.abs(sol.forms.Wxd) + np.abs(sol.G.T) @ np.abs(sol.forms.Wud))


def frozen_sign_slopes(sol: RiccatiSolution, sign_X, sign_U) -> np.ndarray:
    """Row-wise frozen-sign slopes for (rows, n) state and (rows, m) control sign patterns.

    The slope ``slope_map @ (Wxd o s_x + G' (Wud o s_u))`` is linear in the
    two sign patterns, so a batch of rows costs two matrix products with the
    solution's cached ``slope_gains``, and no solve.
    """
    _require_contracting(sol.alpha, sol.closed_loop_radius, "the frozen-sign slope")
    gain_x, gain_u = sol.slope_gains
    return sign_X @ gain_x.T + sign_U @ gain_u.T


def mu_asymptotic(sol: RiccatiSolution, sign_x, sign_u) -> np.ndarray:
    """Frozen-sign slope: exact in the limit where state and control signs stop flipping.

    One row of :func:`frozen_sign_slopes`, for sign patterns of lengths n and m.
    """
    sign_x = np.asarray(sign_x, dtype=float).reshape(-1)
    sign_u = np.asarray(sign_u, dtype=float).reshape(-1)
    n, m = sol.model.n, sol.model.m
    if sign_x.shape != (n,) or sign_u.shape != (m,):
        raise ValueError(f"expected sign patterns of lengths {n} and {m}")
    return frozen_sign_slopes(sol, sign_x[None], sign_u[None])[0]


def mu_rollout(
    sol: RiccatiSolution,
    x,
    policy: simulator.Policy | None = None,
    depth: int | None = None,
    paths: int = 256,
    seed: int = 0,
    noise_kind: str = "gaussian",
    tail_tol: float = 1e-6,
) -> MuEstimate:
    """Monte Carlo truncation of the forward series defining the slope at ``x``.

    ``policy`` is a :class:`~csviu.simulator.Policy` and defaults to the
    linear gain ``Policy.linear(sol.G)``.  The truncation depth is chosen so
    the geometric tail falls below ``tail_tol``, which must lie in (0, 1),
    unless given explicitly; terms 0..depth are summed over ``depth``
    transitions.
    """
    model = sol.model
    alpha = sol.alpha
    x = check_state("x", x, model.n)
    paths = check_count("paths", paths, 1)
    if depth is not None:
        depth = check_count("depth", depth, 0)
    simulator._check_tail_tol(tail_tol)
    rho = sol.closed_loop_radius
    if depth is None:
        _require_contracting(alpha, rho, "the rollout slope")
        base = alpha * rho
        if base <= 0.0:
            depth = 1
        else:
            depth = min(int(math.ceil(math.log(tail_tol) / math.log(base))), 100000)
            depth = max(depth, 1)
    if policy is None:
        policy = simulator.Policy.linear(sol.G)

    n = model.n
    totals = np.zeros((paths, n))
    M = alpha * np.eye(n)
    Wxd, Wud = sol.forms.Wxd, sol.forms.Wud
    batches = simulator._rollout(model, policy, np.tile(x, (paths, 1)), depth + 1, seed, noise_kind)
    for X, U in batches:
        drive = np.sign(X) * Wxd + (np.sign(U) * Wud) @ sol.G
        totals += drive @ M.T
        M = alpha * (sol.Acl.T @ M)
    value = totals.mean(axis=0)
    return MuEstimate(
        value=value,
        kind="rollout",
        bound=mu_bound(sol),
        stderr=simulator.mean_stderr(totals),
        depth=depth,
        paths=paths,
    )
