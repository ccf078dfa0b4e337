"""Stability and detectability certificates for the noisy plant.

All tests reduce to properties of one second-moment map,
L(U) = alpha*(F'UF + Diag(diag(Sx'USx)) + G'Diag(diag(Su'USu))G), with
Sx = ``sigma_bar_x``, Su = ``sigma_bar_u``, written once as
:meth:`OperatorSet.second_moment_map`: the plant's map (F = A, no control
term), the injected loop's (F = A + HC) and the closed loop's (F = A + BG
with its gain G).  Strict inequalities are checked with a margin: values
inside the band around the threshold give a ``None`` (indeterminate) answer
instead of a coin flip.

Radii come from :meth:`OperatorSet.map_radius`, on n x n matrices: up to
n = 20 inverse iteration on the resolvent (sI - L)^{-1}, which is the solve
of the map at discount alpha/s, with every shift s tested against rho(L) by
an M-matrix test on that solve's capacitance matrix (the map at alpha/s is
stable exactly when s > rho(L)) and the radius returned from a tested
bracket of relative width 1e-13; above that power iteration, which can raise
:class:`~csviu.errors.MaxIterations` when several eigenvalues share the
spectral circle.  The solves of (I - L)U = Q
and the exact resolvent radius come from :meth:`OperatorSet.lyapunov_solve`,
which uses that the noise term has rank n: one batched Stein solve plus an
n x n capacitance system.  The detectability search reads no radius: any P > 0 with
P > L*(P) = alpha*(FPF' + Sx Diag(diag P) Sx'), the adjoint, proves rho(L) < 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, check_count, check_real
from .model import SystemModel, _as_matrix
from .operators import OperatorSet, _eig_radius, spectral_radius, symmetrize

MARGIN = 1e-10
_DUAL_STEPS = 1000  # step budget of detectability_search


def _strict_below(value, threshold, margin=MARGIN):
    """True/False when clearly on one side of the threshold, None inside the band."""
    if not np.isfinite(value):
        return False
    if value < threshold - margin:
        return True
    if value > threshold + margin:
        return False
    return None


def _min_eig_normalized(U):
    eigs = np.linalg.eigvalsh(symmetrize(U))
    scale = max(1.0, float(np.abs(eigs).max()))
    return float(eigs.min()) / scale


@dataclass
class StabilityReport:
    """Outcome of the five equivalent second-moment stability conditions.

    ``radius`` (condition ii/iv) and ``max_abs_eig`` are always computed.
    When the mean dynamics are stable at this discount (``eig_ok`` True),
    conditions (i) ``inverse_positive`` and (iii) ``lyapunov_ok`` come from
    solving (I - L)X = Q for Q = I and ``probes`` random PSD inputs, the
    Q = I solution is ``lyapunov_witness``, and ``resolvent_radius`` is the
    exact radius of (I - alpha*K_A)^{-1} K_Z.  When ``eig_ok`` is False,
    rho(L) >= alpha*rho(A)^2 > 1, so no PSD solution exists: (i), (iii) and
    the resolvent test are deduced False without a solve, the witness is
    None and ``resolvent_radius`` is NaN.  When ``eig_ok`` is None (inside
    the margin band) they are left None and so is the witness.
    """

    alpha: float
    radius: float
    inverse_positive: bool | None
    d_stable: bool | None
    lyapunov_ok: bool | None
    lyapunov_witness: np.ndarray | None
    eig_ok: bool | None
    max_abs_eig: float
    resolvent_ok: bool | None
    resolvent_radius: float
    counter_discount_eig_ok: bool | None
    verdict: str

    @property
    def conditions(self):
        """The five condition outcomes in their conventional order."""
        cond_v = _combine(self.eig_ok, self.resolvent_ok)
        return (self.inverse_positive, self.d_stable, self.lyapunov_ok, self.d_stable, cond_v)


def _combine(a, b):
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def _sign_ok(value):
    return None if abs(value) <= MARGIN else (value > 0)


def check_alpha_stability(model: SystemModel, alpha: float, probes: int = 10, seed: int = 0) -> StabilityReport:
    """Run all five stability conditions for the given discount and report each.

    The verdict is "stable" / "unstable" only when the applicable equivalence
    holds cleanly; borderline numerics or a failed precondition (for
    alpha >= 1, the eigenvalues of alpha*A must lie in the open unit disk for
    the five conditions to be conclusive) give "indeterminate".  ``radius``
    is :meth:`OperatorSet.map_radius` of the plant's map: for n <= 20 the
    resolvent iteration, whose shifts are tested against the radius and
    which returns it from a tested bracket of relative width 1e-13 (for an
    A far from normal, only as accurate as its Stein sums; see
    :meth:`OperatorSet.map_radius`); above that power iteration.  Raises :class:`MaxIterations` when the
    radius iteration or the Stein doubling does not settle: the resolvent
    iteration when its fixed budget runs out (the message gives the bracket
    it tested), power iteration (n > 20) when several eigenvalues share the
    spectral circle.
    """
    ops = OperatorSet(model, alpha)
    probes = check_count("probes", probes, 0)
    seed = check_count("seed", seed, 0)
    n = model.n
    rho_A = _eig_radius(model.A)  # read by the radius, the solve and the eigenvalue tests
    radius = ops._map_radius(model.A, None, rho_A)
    d_stable = _strict_below(radius, 1.0)

    # (v): split into the mean-dynamics eigenvalue test and the resolvent test
    max_abs_eig = rho_A * np.sqrt(alpha)
    eig_ok = _strict_below(max_abs_eig, 1.0)

    inverse_positive = lyapunov_ok = resolvent_ok = witness = None
    resolvent_radius = np.nan
    if eig_ok:
        # right-hand sides: the identity and the random semidefinite probes
        # of condition (i)
        rng = np.random.default_rng(seed)
        roots = [rng.standard_normal((n, n)) for _ in range(probes)]
        solved = ops._lyapunov_solve(np.stack([np.eye(n)] + [root @ root.T for root in roots]),
                                     model.A, None, rho_A)
        resolvent_radius = solved.resolvent_radius
        resolvent_ok = _strict_below(resolvent_radius, 1.0 / alpha)
        if solved.U is None:
            # a singular map also rules out a spectral radius strictly below one
            if d_stable is None:
                d_stable = False
        else:
            X = solved.U
            # (iii): positive definite witness of the one-step contraction
            witness = symmetrize(X[0])
            shrink = witness - ops.second_moment_map(witness)
            lyapunov_ok = _combine(_sign_ok(_min_eig_normalized(witness)),
                                   _sign_ok(_min_eig_normalized(shrink)))
            # (i): inverse positivity probed on the identity and the random inputs
            worst = min(_min_eig_normalized(x) for x in X)
            inverse_positive = not worst < -MARGIN
    elif eig_ok is False:
        inverse_positive = lyapunov_ok = resolvent_ok = False

    counter_discount_eig_ok = None
    if alpha >= 1.0:
        counter_discount_eig_ok = _strict_below(alpha * rho_A, 1.0)

    conds = (inverse_positive, d_stable, lyapunov_ok, d_stable, _combine(eig_ok, resolvent_ok))
    if any(c is None for c in conds):
        verdict = "indeterminate"
    elif all(conds):
        # concluding stability at alpha >= 1 additionally needs the mean
        # dynamics inside the shrunken disk; a failed precondition leaves
        # the equivalence inconclusive rather than certifying anything
        if alpha >= 1.0 and counter_discount_eig_ok is not True:
            verdict = "indeterminate"
        else:
            verdict = "stable"
    else:
        verdict = "unstable"

    return StabilityReport(
        alpha=alpha,
        radius=radius,
        inverse_positive=inverse_positive,
        d_stable=d_stable,
        lyapunov_ok=lyapunov_ok,
        lyapunov_witness=witness,
        eig_ok=eig_ok,
        max_abs_eig=max_abs_eig,
        resolvent_ok=resolvent_ok,
        resolvent_radius=float(resolvent_radius),
        counter_discount_eig_ok=counter_discount_eig_ok,
        verdict=verdict,
    )


@dataclass(frozen=True)
class DetectabilityCheck:
    ok: bool
    radius: float


def _finite_matrix(name, M, shape):
    """``M`` as a float array of ``shape`` with finite entries; :class:`ModelError` otherwise."""
    M = _as_matrix(name, M)
    if M.shape != shape:
        raise ModelError(f"{name} has shape {M.shape}, expected {shape}")
    return M


def check_detectability(model: SystemModel, alpha: float, H) -> DetectabilityCheck:
    """Test whether the output injection H makes the noisy loop shrink in second moment.

    ``H`` must be a finite n x p matrix; otherwise :class:`ModelError` is raised.
    """
    H = _finite_matrix("H", H, (model.n, model.p))
    # the injected loop's map is the second-moment map with F = A + HC
    radius = OperatorSet(model, alpha).map_radius(model.A + H @ model.C)
    return DetectabilityCheck(ok=bool(radius < 1.0), radius=radius)


def detectability_search(model: SystemModel, alpha: float):
    """Look for an output injection certifying detectability; None when the search fails.

    The filtering dual of the Riccati recursion: P <- I + L*(P) from P = I with
    the H = -AP C'(CP C')^+ that minimizes FPF', returning H at the first P with
    P - L*(P) > 0.  None means P grew past 1e6 (or to NaN) or _DUAL_STEPS ran out.
    """
    alpha = check_real("alpha", alpha, 0.0)
    A, C, Sx, P = model.A, model.C, model.sigma_bar_x, np.eye(model.n)
    for _ in range(_DUAL_STEPS):
        H = -A @ P @ C.T @ np.linalg.pinv(C @ P @ C.T, hermitian=True)
        F = A + H @ C
        adj = alpha * (F @ P @ F.T + (Sx * np.diag(P)) @ Sx.T)  # L*(P)
        if _sign_ok(_min_eig_normalized(P - adj)):
            return H
        P = np.eye(model.n) + adj
        if not np.abs(P).max() <= 1e6:
            return None
    return None


@dataclass(frozen=True)
class ClosedLoopCheck:
    ok: bool
    radius: float
    gain_radius: float
    gain_radius_ok: bool | None


def closed_loop_check(model: SystemModel, alpha: float, G) -> ClosedLoopCheck:
    """Second-moment contraction test for the loop closed with gain G.

    For alpha > 1 the mean closed-loop matrix additionally needs its spectral
    radius below 1/alpha for the infinite-horizon quantities to exist.  ``G``
    must be a finite m x n gain; otherwise :class:`ModelError` is raised.
    """
    ops = OperatorSet(model, alpha)
    G = _finite_matrix("G", G, (model.m, model.n))
    Acl = model.A + model.B @ G
    gain_radius = spectral_radius(Acl)
    radius = ops._map_radius(Acl, G, gain_radius)
    gain_radius_ok = None
    if alpha > 1.0:
        gain_radius_ok = bool(gain_radius < 1.0 / alpha)
    ok = bool(radius < 1.0) and (gain_radius_ok is not False)
    return ClosedLoopCheck(ok=ok, radius=radius, gain_radius=gain_radius, gain_radius_ok=gain_radius_ok)
