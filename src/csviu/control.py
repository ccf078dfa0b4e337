"""The nonsmooth per-stage control problem and its successive-relaxation solver.

At each state the optimal control minimizes a strictly convex quadratic plus
a weighted l1 term,

    J(u) = u' Lambda u + <b, u> + <c, |u|>,      c >= 0,

whose stationarity condition is a generalized normal equation coupling the
control to a clipped auxiliary vector.  A Gauss-Seidel style relaxation sweep
solves that equation.  The relaxation acts on the auxiliary vector before it
is clipped, and a relaxation factor in (0, 2) does not make every instance
converge: some instances settle into a cycle at large factors (a two-channel
instance converges at 0.5, 1 and 1.5 and cycles at 1.9).  A sweep that does
not reach its tolerance raises :class:`MaxIterations` with its sweep count and
last residual; a smaller relaxation factor is the first remedy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import copysign
from operator import mul

import numpy as np

from .errors import CsviuError, MaxIterations, SingularLambda, check_state
from .mu import frozen_sign_slopes, mu_rollout
from .riccati import RiccatiSolution, stage_data

_MU_SWEEPS = 3  # frozen-sign slope sweeps per state before its last pattern is kept


@dataclass(frozen=True)
class ControlSubproblem:
    """Data of one per-stage minimization; W is half the inverse curvature."""

    W: np.ndarray
    b: np.ndarray
    c: np.ndarray
    Lambda: np.ndarray
    x: np.ndarray | None = None
    mu: np.ndarray | None = None

    @classmethod
    def from_parts(cls, Lambda, b, c) -> "ControlSubproblem":
        """Build a bare instance from the quadratic/linear/l1 coefficients."""
        Lambda = np.atleast_2d(np.asarray(Lambda, dtype=float))
        b = np.asarray(b, dtype=float).reshape(-1)
        c = np.asarray(c, dtype=float).reshape(-1)
        m = b.size
        if Lambda.shape != (m, m) or c.shape != (m,):
            raise ValueError(
                f"inconsistent sizes: Lambda {Lambda.shape}, b {b.shape}, c {c.shape}"
            )
        W, c = stage_data(Lambda, c)
        return cls(W=W, b=b, c=c, Lambda=Lambda)


@dataclass(frozen=True)
class SorState:
    """Converged relaxation sweep: the control is ``nu``; ``theta`` are the
    per-channel saturation ratios appearing in the equivalent diagonal form."""

    z: np.ndarray
    gamma: np.ndarray
    nu: np.ndarray
    theta: np.ndarray
    iterations: int
    residual: float


def cost_Ju(sub: ControlSubproblem, u) -> float:
    """Objective value of the stage problem at ``u``."""
    u = np.asarray(u, dtype=float).reshape(-1)
    return float(u @ sub.Lambda @ u + sub.b @ u + sub.c @ np.abs(u))


def _sor_sweeps(W, B, C, omega, Z0, tol, max_iters):
    """Relaxation sweeps over a batch of instances sharing W and C.

    B and Z0 are (paths, m); returns (Z, Gamma, Nu, iterations, residual).
    Each sweep updates the coordinates in order,
    ``z_i = (1 - omega) z_i - omega/W_ii sum_{j != i} W_ij s_j - omega b_i``,
    clips ``gamma_i = clip(z_i, -c_i, c_i)`` and carries ``s = gamma + b``;
    each row stops at the first sweep that brings its own normal-equation
    residual within ``tol``.  ``iterations`` and ``residual`` are the largest
    sweep count and final residual of any row.  A relaxation factor outside
    (0, 2) raises ``ValueError`` and a nonpositive diagonal of W
    :class:`SingularLambda`, both before any sweep; a row still outside
    ``tol`` after ``max_iters`` sweeps (a NaN residual included) raises one
    :class:`MaxIterations` with ``iterations=max_iters`` and that residual.
    A single row runs on Python floats (:func:`_sweeps_one`), since array
    calls cost more than the arithmetic at these sizes; a batch runs on
    columns (:func:`_sweeps_batch`) and hands its last unconverged row to the
    single-row kernel.  The two kernels take the same steps and agree to
    rounding, so every row of a batch matches its own single-row solve.
    """
    if not (0.0 < omega < 2.0):
        raise ValueError(f"omega must lie in (0, 2), got {omega}")
    Wd = W.diagonal()
    if any(d <= 0.0 for d in Wd.tolist()):
        raise SingularLambda("the relaxation matrix must have positive diagonal")
    kernel = _sweeps_one if B.shape[0] == 1 else _sweeps_batch
    Z, Gamma, Nu, sweeps, residual = kernel(W, Wd, B, C, omega, Z0, tol, max_iters)
    if not residual <= tol:
        raise MaxIterations(
            f"relaxation did not reach tol={tol:.1e} in {max_iters} sweeps "
            f"(residual {residual:.3e}); the sweep does not converge on every "
            f"instance at every omega in (0, 2), so retry with a smaller omega",
            iterations=max_iters,
            residual=residual,
        )
    return Z, Gamma, Nu, sweeps, residual


def _sweeps_batch(W, Wd, B, C, omega, Z0, tol, max_iters):
    """The sweeps of :func:`_sor_sweeps` on a (paths, m) batch.

    The work arrays are held transposed, (m, rows), so each coordinate
    updates in place on one contiguous row and ``S`` carries the running
    ``Gamma + B``.  After each sweep every row within ``tol`` writes its
    result and leaves the batch, so a row stops at its own convergence
    sweep; the last row left finishes on :func:`_sweeps_one` with the
    remaining budget.  Returns the largest sweep count and final residual of
    any row, or, once the budget runs out, the largest residual of the rows
    still sweeping.
    """
    m, paths = W.shape[0], B.shape[0]
    B = np.ascontiguousarray(B.T)
    omega_B = omega * B
    step = omega / Wd
    keep = 1.0 - omega
    Z = np.array(Z0.T, dtype=float, order="C")
    Cc, Wdc = C[:, None], Wd[:, None]
    Gamma = np.minimum(np.maximum(Z, -Cc), Cc)
    S = Gamma + B
    offdiag = W.copy()
    np.fill_diagonal(offdiag, 0.0)
    out = live = None  # (Z, Gamma, Nu) of the whole batch and its rows still sweeping
    residual = 0.0
    for sweep in range(1, max_iters + 1):
        for i in range(m):
            coupling = offdiag[i] @ S
            coupling *= step[i]
            z = Z[i]
            z *= keep
            z -= coupling
            z -= omega_B[i]
            g = Gamma[i]
            np.maximum(z, -C[i], out=g)
            np.minimum(g, C[i], out=g)
            np.add(g, B[i], out=S[i])
        Nu = np.sign(Z) * np.maximum(0.0, Wdc * (np.abs(Z) - Cc))
        R = np.abs(Nu + W @ S)
        top = float(R.max(initial=0.0))
        if top <= tol:
            if out is None:
                return Z.T, Gamma.T, Nu.T, sweep, top
            for dst, src in zip(out, (Z, Gamma, Nu)):
                dst[:, live] = src
            return out[0].T, out[1].T, out[2].T, sweep, max(residual, top)
        if sweep == max_iters:
            break
        r = R.max(axis=0)
        done = r <= tol
        if not done.any():
            continue
        if out is None:
            out, live = np.empty((3, m, paths)), np.arange(paths)
        for dst, src in zip(out, (Z, Gamma, Nu)):
            dst[:, live[done]] = src.compress(done, axis=1)
        residual = max(residual, float(r[done].max()))
        stay = ~done
        live = live[stay]
        Z, Gamma, S, B, omega_B = (a.compress(stay, axis=1) for a in (Z, Gamma, S, B, omega_B))
        if live.size == 1:
            z, g, nu, more, last = _sweeps_one(W, Wd, B.T, C, omega, Z.T, tol, max_iters - sweep)
            if z is None:
                return None, None, None, max_iters, last
            for dst, src in zip(out, (z, g, nu)):
                dst[:, live[0]] = src[0]
            return out[0].T, out[1].T, out[2].T, sweep + more, max(residual, last)
    return None, None, None, max_iters, top


def _sweeps_one(W, Wd, B, C, omega, Z0, tol, max_iters):
    """The sweeps of :func:`_sor_sweeps` on one (1, m) row, over Python floats.

    Same update order, clip and residual as :func:`_sweeps_batch`; only the
    sums of products are formed in a different order.  A NaN residual sticks,
    so corrupted inputs end in :class:`MaxIterations` as in the batch kernel.
    """
    w = W.tolist()
    b = B[0].tolist()
    c = C.tolist()
    z = Z0[0].tolist()
    keep = 1.0 - omega
    g = [min(max(zi, -ci), ci) for zi, ci in zip(z, c)]
    s = [gi + bi for gi, bi in zip(g, b)]
    coords = [
        (i, row[:i] + [0.0] + row[i + 1:], omega / row[i], omega * bi, ci, bi)
        for i, (row, bi, ci) in enumerate(zip(w, b, c))
    ]
    rows = list(zip(w, Wd.tolist(), c))
    residual = math.inf
    for sweep in range(1, max_iters + 1):
        for i, offdiag, step, omega_b, ci, bi in coords:
            zi = keep * z[i] - step * sum(map(mul, offdiag, s)) - omega_b
            z[i] = zi
            gi = -ci if zi < -ci else ci if zi > ci else zi
            g[i] = gi
            s[i] = gi + bi
        nu = []
        residual = 0.0
        for zi, (row, wd, ci) in zip(z, rows):
            nui = copysign(max(wd * (abs(zi) - ci), 0.0), zi)
            nu.append(nui)
            r = abs(nui + sum(map(mul, row, s)))
            if r > residual or r != r:
                residual = r
        if residual <= tol:
            return np.array([z]), np.array([g]), np.array([nu]), sweep, residual
    return None, None, None, max_iters, residual


def sor_solve(
    sub: ControlSubproblem,
    omega: float = 1.0,
    z0=None,
    tol: float = 1e-10,
    max_iters: int = 10000,
) -> SorState:
    """Solve the generalized normal equation of one stage problem.

    The instance runs on the single-row kernel of :func:`_sor_sweeps`; its
    result agrees with the batch kernel (:func:`sor_solve_batch`) to
    rounding, with the same sweep count.
    """
    m = sub.b.size
    Z0 = np.zeros((1, m)) if z0 is None else np.asarray(z0, dtype=float).reshape(1, m)
    Z, Gamma, Nu, iterations, residual = _sor_sweeps(
        sub.W, sub.b[None], sub.c, omega, Z0, tol, max_iters
    )
    nu = Nu[0]
    # theta_i = |nu_i| / c_i = W_ii max(0, |z_i| - c_i) / c_i on weighted channels
    theta = np.divide(np.abs(nu), sub.c, out=np.zeros(m), where=sub.c > 0)
    return SorState(z=Z[0], gamma=Gamma[0], nu=nu, theta=theta, iterations=iterations,
                    residual=residual)


def sor_solve_batch(sub_W, B, c, omega=1.0, tol=1e-10, max_iters=10000):
    """Batch form of :func:`sor_solve` for many right-hand sides at once.

    ``B`` is (paths, m); returns the (paths, m) control batch, empty when
    ``B`` has no rows.  Used by the simulation and region-scan paths where
    thousands of stage problems share the same curvature.  Each row stops at
    its own convergence sweep, and the last row still sweeping finishes on
    the single-row kernel of :func:`_sor_sweeps`, as a one-row ``B`` and
    :func:`sor_solve` do; so each row matches :func:`sor_solve` on that row
    alone to rounding, whatever the other rows are.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Z0 = np.zeros_like(B)
    _, _, Nu, _, _ = _sor_sweeps(sub_W, B, c, omega, Z0, tol, max_iters)
    return Nu


def _slopes(sol: RiccatiSolution, X, Mu, mu_kind):
    """The (rows, n) slopes of a state batch: an explicit ``Mu``, zeros, or one
    default :func:`~csviu.mu.mu_rollout` per row; None for "asymptotic", whose
    slopes :func:`_feedback` resolves with the stage solves."""
    rows, n = X.shape
    if n != sol.model.n:
        raise ValueError(f"states have length {n}, expected {sol.model.n}")
    if Mu is not None:
        Mu = np.asarray(Mu, dtype=float)
        Mu = Mu.reshape(1, -1) if rows == 1 else np.atleast_2d(Mu)
        if Mu.shape != X.shape:
            raise ValueError(f"slopes of shape {Mu.shape} do not match {rows} states of length {n}")
        return Mu
    if mu_kind == "zero":
        return np.zeros(X.shape)
    if mu_kind == "rollout":
        return np.array([mu_rollout(sol, x).value for x in X]).reshape(X.shape)
    if mu_kind == "asymptotic":
        return None
    raise ValueError(f"unknown mu_kind {mu_kind!r}; expected 'zero', 'asymptotic' or 'rollout'")


def _feedback(sol: RiccatiSolution, X, Mu, solve):
    """Controls and slopes ``(U, Mu)`` for a (rows, n) state batch.

    ``solve(B)`` returns the controls of the stage problems with the (k, m)
    right-hand sides ``B``.  A given ``Mu`` takes one solve.  ``Mu=None``
    resolves the frozen-sign slope row by row: each row re-solves until its
    control sign pattern repeats, for at most ``_MU_SWEEPS`` sweeps, and only
    the rows whose signs moved take part in the next sweep.  A settled row's
    last solve already used its returned slope; only rows still moving after
    the last sweep are solved once more.
    """
    B = sol.model.B
    R = 2.0 * X @ sol.Sigma.T
    if Mu is not None:
        return solve(Mu @ B + R), Mu
    Sx = np.sign(X)
    Mu = frozen_sign_slopes(sol, Sx, np.zeros((X.shape[0], sol.model.m)))
    U = np.empty((X.shape[0], sol.model.m))
    # rows whose signs still move, with their states' data
    live = np.arange(X.shape[0])
    Sx_l, Su_l, Mu_l, R_l = Sx, 0.0, Mu, R
    for _ in range(_MU_SWEEPS):
        U_l = solve(Mu_l @ B + R_l)
        U[live] = U_l
        Su_next = np.sign(U_l)
        moved = np.flatnonzero(np.any(Su_next != Su_l, axis=1))
        if not moved.size:
            return U, Mu
        live, Sx_l, R_l, Su_l = (a.take(moved, axis=0) for a in (live, Sx_l, R_l, Su_next))
        Mu_l = frozen_sign_slopes(sol, Sx_l, Su_l)
        Mu[live] = Mu_l
    U[live] = solve(Mu_l @ B + R_l)
    return U, Mu


def _inaction_margins(sol: RiccatiSolution, X, Mu):
    """Inaction margins ``Wud - |2 X Sigma' + Mu B|`` of a (rows, n) batch."""
    return _margins(sol, Mu @ sol.model.B + 2.0 * X @ sol.Sigma.T)


def _margins(sol: RiccatiSolution, linear):
    return sol.forms.Wud - np.abs(linear)


def _solve_state(sol: RiccatiSolution, x, mu, omega, tol, max_iters):
    """One state and its :func:`_slopes` row through :func:`_feedback`: its
    final subproblem and SorState."""
    law = sol.law
    b = state = None

    def solve(B):
        nonlocal b, state
        b = B[0]
        sub = ControlSubproblem(W=law.W, b=b, c=law.c, Lambda=sol.Lambda)
        state = sor_solve(sub, omega=omega, tol=tol, max_iters=max_iters)
        return state.nu[None]

    _, Mu = _feedback(sol, x[None], mu, solve)
    return ControlSubproblem(W=law.W, b=b, c=law.c, Lambda=sol.Lambda, x=x, mu=Mu[0]), state


def resolve_mu(
    sol: RiccatiSolution,
    x,
    mu=None,
    mu_kind: str = "zero",
    omega: float = 1.0,
    tol: float = 1e-10,
    max_iters: int = 10000,
):
    """Produce the slope vector used by the stage problem at ``x``.

    Every feedback entry point takes the same slope inputs: an explicit
    ``mu``, or ``mu_kind`` "zero" (no slope), "asymptotic" or "rollout".
    "asymptotic" freezes signs at the current state and re-solves the stage
    problem (with ``omega``/``tol``/``max_iters``) until the control sign
    pattern repeats, for at most 3 sweeps; a state on a sign cycle returns
    the slope of its last pattern.  "rollout" is :func:`~csviu.mu.mu_rollout`
    with its defaults (256 paths, seed 0); for other settings pass
    ``mu=mu_rollout(sol, x, ...).value``.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    Mu = _slopes(sol, x[None], mu, mu_kind)
    return Mu[0] if Mu is not None else _solve_state(sol, x, None, omega, tol, max_iters)[0].mu


@dataclass(frozen=True)
class ControlResult:
    u_star: np.ndarray
    gamma: np.ndarray
    mu: np.ndarray
    margins: np.ndarray
    sub: ControlSubproblem
    sor: SorState


def optimal_control(
    sol: RiccatiSolution,
    x,
    mu=None,
    mu_kind: str = "zero",
    omega: float = 1.0,
    tol: float = 1e-10,
    max_iters: int = 10000,
) -> ControlResult:
    """Optimal stage control at ``x``: solve, then cross-check the closed form.

    The slope is resolved as in :func:`resolve_mu`; with
    ``mu_kind="asymptotic"`` the sweep's last solve is the returned control.
    The converged clipped vector reconstructs the control through the inverse
    curvature; a mismatch there would mean the sweep settled on a wrong point,
    so it is treated as an internal error.  ``margins`` are those of
    :func:`inaction_test`, read off the final stage problem's linear term.
    A state of the wrong length or with a non-finite entry raises
    ``ValueError`` before any sweep.
    """
    x = check_state("x", x, sol.model.n)
    sub, state = _solve_state(
        sol, x, _slopes(sol, x[None], mu, mu_kind), omega, tol, max_iters
    )
    mu_val = sub.mu
    u_star = state.nu
    reconstructed = -np.linalg.solve(
        sub.Lambda,
        sol.Sigma @ sub.x + 0.5 * (sol.model.B.T @ mu_val + state.gamma),
    )
    gap = float(np.abs(reconstructed - u_star).max())
    if gap > max(1e-9, 100.0 * tol) * max(1.0, float(np.abs(u_star).max())):
        raise CsviuError(
            f"converged control fails its closed-form reconstruction by {gap:.3e}"
        )
    margins = _margins(sol, sub.b)
    return ControlResult(
        u_star=u_star, gamma=state.gamma, mu=mu_val, margins=margins, sub=sub, sor=state
    )


def inaction_test(sol: RiccatiSolution, x, mu, channel: int | None = None):
    """Whether each control channel stays switched off at ``x`` with slope ``mu``.

    A channel is strictly inactive when the linear pull ``2 Sigma x + B' mu``
    on it is smaller than its deadzone weight; the margin (weight less pull
    magnitude, as in ``ControlResult.margins`` and ``scan_region``) is
    positive inside the inaction region, negative outside.
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    mu = np.asarray(mu, dtype=float).reshape(1, -1)
    margins = _inaction_margins(sol, x, mu)[0]
    inactive = margins > 0
    if channel is not None:
        return bool(inactive[channel]), float(margins[channel])
    return inactive, margins


def stage_value(sol: RiccatiSolution, x, u, mu) -> float:
    """:func:`stage_value_batch` at one state, control and slope."""
    return float(stage_value_batch(sol, x, u, mu)[0])


def stage_value_batch(sol: RiccatiSolution, X, U, Mu):
    """Telescoping-exact stage residuals over (paths, n)/(paths, m) batches.

    Each row is alpha times (deviation - completion/4): the curvature-weighted
    distance of ``u`` from the sign-frozen minimizer ``u0``, less the
    completion term of the slope and deadzone pull ``h``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    Mu = np.atleast_2d(np.asarray(Mu, dtype=float))
    H = Mu @ sol.model.B + np.sign(U) * sol.forms.Wud
    rhs = X @ sol.Sigma.T + 0.5 * H
    U0 = -np.linalg.solve(sol.Lambda, rhs.T).T
    dev = np.einsum("pi,ij,pj->p", U - U0, sol.Lambda, U - U0)
    completion = np.einsum("pi,ij,pj->p", H, np.linalg.inv(sol.Lambda), H)
    return sol.alpha * (dev - completion / 4.0)


def optimal_control_batch(
    sol: RiccatiSolution,
    X,
    Mu=None,
    mu_kind: str = "zero",
    omega: float = 1.0,
    tol: float = 1e-10,
    max_iters: int = 10000,
):
    """Optimal controls for a whole (paths, n) state batch at once.

    Returns ``(U, Mu)`` with shapes (paths, m) and (paths, n), empty when
    ``X`` has no rows.  The slope inputs are those of :func:`resolve_mu`
    ("rollout" runs one :func:`~csviu.mu.mu_rollout` per row).  Row for row
    this matches :func:`optimal_control` to rounding, since each stage solve
    stops every row at its own convergence sweep (:func:`sor_solve_batch`): with
    ``mu_kind="asymptotic"`` every row follows the single-state slope-sweep
    rule on its own, so a row on a sign cycle leaves the other rows' results
    unchanged.  The curvature data come from the solution's cached ``law``.
    A row with a non-finite entry raises ``ValueError`` before any sweep.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not np.isfinite(X).all():
        row = int(np.argmin(np.isfinite(X).all(axis=1)))
        raise ValueError(f"X must be finite, got {X[row]} in row {row}")
    Mu = _slopes(sol, X, Mu, mu_kind)
    law = sol.law

    def solve(B):
        return sor_solve_batch(law.W, B, law.c, omega=omega, tol=tol, max_iters=max_iters)

    return _feedback(sol, X, Mu, solve)
