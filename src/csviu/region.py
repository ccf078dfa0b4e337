"""Maps of where the optimal control acts, stays positive, or switches off.

The l1 term in the stage cost carves the state space into cells per control
channel: a positive-action cell, a negative-action cell, and a deadzone whose
boundary is a pair of parallel hyperplanes when the value slope is frozen.
This module scans slices of the state space and labels each cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import _MAX_SWEEPS, _feedback, _margins, _slopes
from .errors import ArgumentError, check_count, check_real, check_state
from .riccati import RiccatiSolution

# |u| at or below this labels a channel inactive; |margin| at or below it marks the boundary band
_LABEL_TOL = 1e-9
_BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class RegionMap:
    """Scan results over a one- or two-axis slice.

    Arrays are indexed [i, j, channel] for a 2-D scan over grid_x[i],
    grid_y[j], and [i, channel] for a 1-D scan (grid_y is None then).
    Labels: -1 push down, 0 inactive, +1 push up.  ``margins`` are the
    inaction margins ``c_i - |b_i + 2 sum_{j != i} Lambda_ij u_j|`` at each
    cell's control (see :func:`scan_region`).  A cell whose row of the
    batch solve missed ``tol`` is flagged in ``invalid``, carries NaN in
    ``u_star`` and ``margins`` and label 0, so read ``labels`` with it.
    ``ranges`` holds the checked (lo, hi) of each scanned axis.
    """

    axes: tuple[int, ...]
    ranges: tuple[tuple[float, float], ...]
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
    ranges=((-2.0, 2.0),),
    resolution: int = 41,
    base_point=None,
    mu_kind: str = "asymptotic",
    tol: float = 1e-10,
) -> RegionMap:
    """Solve the stage problem over a grid slice and label each channel.

    ``ranges`` holds one (lo, hi) pair of finite reals with a finite span
    ``hi - lo`` per scanned axis, or one pair for every axis; anything else
    raises :class:`ArgumentError`.

    ``margins`` are the inaction margins of
    :class:`~csviu.control.ControlResult` at the cell's control,
    ``c_i - |b_i + 2 sum_{j != i} Lambda_ij u_j|`` with
    ``b = 2 Sigma x + B' mu`` under the cell's slope, positive exactly when
    channel i is inactive, and ``boundary`` marks those within 1e-9 of zero.
    A label that disagrees with its margin outside that band is flagged in
    ``inconsistent``, and means a solver bug, not a feature of the model.
    Every cell is a row of one batch solve (the driver of
    :func:`~csviu.control.optimal_control_batch`); a row that misses ``tol``
    is flagged in ``invalid``, and an error that is not per row is raised.
    """
    n, m = sol.model.n, sol.model.m
    axes = tuple(check_count("axes", a, 0) for a in (axes if np.iterable(axes) else (axes,)))
    if len(axes) not in (1, 2) or len(set(axes)) != len(axes):
        raise ArgumentError(f"axes must be one or two distinct indices, got {axes}")
    if any(a < 0 or a >= n for a in axes):
        raise ArgumentError(f"axes {axes} out of range for state dimension {n}")
    pairs = np.atleast_2d(np.array(ranges, dtype=object))  # a ragged list holds its rows whole
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ArgumentError(f"ranges must be (lo, hi) pairs, got {ranges!r}")
    ranges = tuple(tuple(check_real("ranges", v) for v in rg) for rg in pairs)
    if not all(np.isfinite(hi - lo) for lo, hi in ranges):  # np.linspace steps by hi - lo
        raise ArgumentError(f"ranges must span a finite hi - lo, got {ranges!r}")
    if len(ranges) == 1:
        ranges *= len(axes)
    if len(ranges) != len(axes):
        raise ArgumentError(f"need {len(axes)} ranges, got {len(ranges)}")
    resolution = check_count("resolution", resolution, 2)
    base_point = np.zeros(n) if base_point is None else check_state("base_point", base_point, n)

    gx, gy, points = _grid_points(n, axes, ranges, resolution, base_point)
    U, Mu, _ = _feedback(sol, points, _slopes(sol, points, None, mu_kind), tol, _MAX_SWEEPS)
    invalid = np.isnan(U).any(axis=1)  # rows that missed tol
    margins = _margins(sol, Mu @ sol.model.B + 2.0 * points @ sol.Sigma.T, U)
    # the NaN rows of failed cells compare False: label 0 without a cast warning, and consistent
    labels = (U > _LABEL_TOL).astype(np.int8) - (U < -_LABEL_TOL).astype(np.int8)
    boundary = np.abs(margins) <= _BOUNDARY_TOL
    inconsistent = ~boundary & (((margins > 0) & (labels != 0)) | ((margins < 0) & (labels == 0)))

    if gy is None:
        shape2, shape3 = (resolution,), (resolution, m)
    else:
        shape2, shape3 = (resolution, resolution), (resolution, resolution, m)
    return RegionMap(
        axes=axes,
        ranges=ranges,
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

