"""Maps of where the optimal control acts, stays positive, or switches off.

The l1 term in the stage cost carves the state space into cells per control
channel: a positive-action cell, a negative-action cell, and a deadzone whose
boundary is a pair of parallel hyperplanes when the value slope is frozen.
This module scans slices of the state space and labels each cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import _inaction_margins, optimal_control, optimal_control_batch
from .errors import ArgumentError, CsviuError, check_count, check_real, check_state
from .riccati import RiccatiSolution

# |u| at or below this labels a channel inactive; |margin| at or below it marks the boundary band
_LABEL_TOL = 1e-9
_BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class RegionMap:
    """Scan results over a one- or two-axis slice.

    Arrays are indexed [i, j, channel] for a 2-D scan over grid_x[i],
    grid_y[j], and [i, channel] for a 1-D scan (grid_y is None then).
    Labels: -1 push down, 0 inactive, +1 push up.  A cell whose stage solve
    failed is flagged in ``invalid``, carries NaN in ``u_star`` and
    ``margins`` and label 0, so read ``labels`` together with ``invalid``.
    """

    axes: tuple[int, ...]
    grid_x: np.ndarray
    grid_y: np.ndarray | None
    base_point: np.ndarray
    u_star: np.ndarray
    labels: np.ndarray
    margins: np.ndarray
    boundary: np.ndarray
    inconsistent: np.ndarray
    invalid: np.ndarray
    mu_kind: str


def _grid_points(n, axes, ranges, resolution, base_point):
    grids = [np.linspace(lo, hi, resolution) for lo, hi in ranges]
    if len(axes) == 1:
        points = np.tile(base_point, (resolution, 1))
        points[:, axes[0]] = grids[0]
        return grids[0], None, points
    gx, gy = grids
    points = np.tile(base_point, (resolution * resolution, 1))
    xi, yj = np.meshgrid(gx, gy, indexing="ij")
    points[:, axes[0]] = xi.reshape(-1)
    points[:, axes[1]] = yj.reshape(-1)
    return gx, gy, points


def scan_region(
    sol: RiccatiSolution,
    axes=(0, 1),
    ranges=((-2.0, 2.0), (-2.0, 2.0)),
    resolution: int = 41,
    base_point=None,
    mu_kind: str = "asymptotic",
    omega: float = 1.0,
    tol: float = 1e-10,
) -> RegionMap:
    """Solve the stage problem over a grid slice and label each channel.

    The labels are cross-checked against the inaction margins computed from
    the same slope estimates; a disagreement away from the boundary band is
    flagged in ``inconsistent`` (and means a bug, not a feature of the model).
    """
    n, m = sol.model.n, sol.model.m
    axes = tuple(check_count("axes", a, 0) for a in (axes if np.iterable(axes) else (axes,)))
    if len(axes) not in (1, 2) or len(set(axes)) != len(axes):
        raise ArgumentError(f"axes must be one or two distinct indices, got {axes}")
    if any(a < 0 or a >= n for a in axes):
        raise ArgumentError(f"axes {axes} out of range for state dimension {n}")
    ranges = tuple(tuple(check_real("ranges", v) for v in rg) for rg in np.atleast_2d(ranges))
    if len(ranges) == 1 and len(axes) == 2:
        ranges = (ranges[0], ranges[0])
    if len(ranges) != len(axes):
        raise ArgumentError(f"need {len(axes)} ranges, got {len(ranges)}")
    resolution = check_count("resolution", resolution, 2)
    base_point = np.zeros(n) if base_point is None else check_state("base_point", base_point, n)

    gx, gy, points = _grid_points(n, axes, ranges, resolution, base_point)
    cells = points.shape[0]
    invalid = np.zeros(cells, dtype=bool)
    try:
        U, Mu = optimal_control_batch(sol, points, mu_kind=mu_kind, omega=omega, tol=tol)
    except CsviuError:
        # fall back to cell-by-cell so one pathological cell cannot sink the scan
        U = np.zeros((cells, m))
        Mu = np.zeros((cells, n))
        for idx in range(cells):
            try:
                res = optimal_control(sol, points[idx], mu_kind=mu_kind, omega=omega, tol=tol)
                U[idx] = res.u_star
                Mu[idx] = res.mu
            except CsviuError:
                invalid[idx] = True
                U[idx] = np.nan
                Mu[idx] = np.nan

    margins = _inaction_margins(sol, points, Mu)
    # comparisons leave the NaN rows of failed cells at label 0 without a cast warning
    labels = (U > _LABEL_TOL).astype(np.int8) - (U < -_LABEL_TOL).astype(np.int8)
    boundary = np.abs(margins) <= _BOUNDARY_TOL
    inconsistent = ~invalid[:, None] & ~boundary & (
        ((margins > 0) & (labels != 0)) | ((margins < 0) & (labels == 0))
    )

    if gy is None:
        shape2, shape3 = (resolution,), (resolution, m)
    else:
        shape2, shape3 = (resolution, resolution), (resolution, resolution, m)
    return RegionMap(
        axes=axes,
        grid_x=gx,
        grid_y=gy,
        base_point=base_point,
        u_star=U.reshape(shape3),
        labels=labels.reshape(shape3),
        margins=margins.reshape(shape3),
        boundary=boundary.reshape(shape3),
        inconsistent=inconsistent.reshape(shape3),
        invalid=invalid.reshape(shape2),
        mu_kind=mu_kind,
    )

