"""Fixed point of the perturbed value recursion and the associated gain.

Value iteration from zero is monotone for this family of maps, so the
iteration either climbs to the minimal positive semidefinite fixed point or
blows up; both outcomes are detected and reported.

Near a marginal plant that climb is slow, so the stationary solver tries a
Newton finish (policy iteration: Hewer, IEEE TAC 1971; Damm & Hinrichsen,
LAA 332-334, 2001) after value-iteration steps 64, 128, 256 and so on.  A try
starts from the gain of the current value iterate P and is refused at once
unless that gain makes the second-moment map stable.  Each Newton step
evaluates the current gain exactly, by one
:meth:`~csviu.operators.OperatorSet.lyapunov_solve`, and moves to the gain
that minimizes over the evaluated cost.  The finish is accepted only when its
fixed-point residual is within ``tol_fixed_point``, it is positive
semidefinite and it lies above P, as every PSD fixed point lies above every
value iterate; otherwise value iteration goes on.  From a stabilizing gain
Newton converges to the stabilizing fixed point, and when the plant is
detectable that is the only PSD one, so the result is still the minimal PSD
fixed point.  On a plant with an unobserved, unstable mode the value iterates
leave that mode alone, their gains never stabilize it, every try is refused
and the result is that of value iteration alone.  Solves that converge before
step 64 never reach a try.

When no PSD fixed point exists, the stationary solver says so early, with a
certificate from the recession map of the value map, the same map with the C
and D terms dropped:

    R_inf(P) = alpha [A'PA + Diag(diag(Sx'P Sx)) - Sh' Lh^{-1} Sh],
    Sh = B'PA,  Lh = B'PB + Diag(diag(Su'P Su)).

The value map is R(P) = min_G [(C + DG)'(C + DG) + alpha(...)] >= R_inf(P),
both maps are monotone and R_inf is positively homogeneous.  So if a value
iterate P_k > 0 has lambda = lambda_min(P_k^{-1/2} R_inf(P_k) P_k^{-1/2}) > 1,
then P_{k+j} >= lambda^j P_k for every j; the iterates grow without bound,
while they stay below every PSD fixed point, so there is none.  This is the
Collatz-Wielandt bound for monotone, homogeneous cone maps (Lemmens &
Nussbaum, Nonlinear Perron-Frobenius Theory, 2012).  The test fires when the
smallest eigenvalue of R_inf(P_k) - P_k, which is positive exactly when
lambda > 1, exceeds a rounding margin, and raises
:class:`~csviu.errors.NoPSDSolution` with the step (``iterations``) and
lambda (``ratio``).  It runs only in the stationary solve, at step 1 and
then whenever max|P| has doubled since the last test, and skips a step whose
P_k or Lh is not positive definite.  It only reads P, so a solve it does not
stop ends exactly as without it.

With B = 0 and Su = 0, Lh vanishes and the value map is affine,
R(P) = L_A(P) + Q0 with L_A = :meth:`~csviu.operators.OperatorSet.second_moment_map`
and Q0 = C'(I - D(D'D)^{-1}D')C = P_1.  A PSD fixed point P* would satisfy
P* >= Q0, so with Q0 > 0, Q0 >= c P* for c = lambda_min(Q0)/lambda_max(P*)
and L_A(P*) = P* - Q0 <= (1 - c) P*, which gives rho(L_A) < 1.  So at step
1 a positive definite P_1 (its smallest eigenvalue above the rounding margin
of its largest) and rho(L_A) >= 1 raise :class:`~csviu.errors.NoPSDSolution`
with ``ratio`` rho(L_A).  Iterates that grow 1e6-fold without a
certificate, for example with B = 0, Su = 0 and a singular Q0, still raise
:class:`~csviu.errors.MaxIterations` from the growth test.  That test, too,
belongs to the stationary solve: every finite-horizon iterate exists, so
the backward recursion stops only at an iterate that is no longer finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AssumptionViolated,
    CsviuError,
    MaxIterations,
    MonotonicityViolation,
    NoPSDSolution,
    SeriesDivergent,
    SingularLambda,
    check_count,
)
from .model import CriterionConfig, SystemModel
from .operators import NoiseForms, OperatorSet, spectral_radius, symmetrize

MONOTONE_TOL = 1e-10
DIVERGENCE_FACTOR = 1e6
_NEWTON_FIRST_TRY = 64  # value-iteration step of the first Newton try; each later try doubles it
_NEWTON_STEPS = 50      # Newton steps one try may take before it is refused
_CERTIFY_MARGIN = 1e-8  # rounding margin on lambda_min(R_inf(P) - P), relative to its terms
_CURVATURE_COND = 1e6   # a certificate needs cond(Lh) below this, so Lh^{-1} adds little rounding
_INVERSE_TOL = 1e-9     # largest row sum of |2 W Lambda - I| a feedback law may carry


@dataclass(frozen=True)
class RiccatiSolution:
    """Stationary cost matrix with the quantities downstream modules reuse.

    ``L`` is the minimal positive semidefinite fixed point reached from zero,
    ``G`` the induced feedback gain and ``Acl = A + B G`` the mean closed
    loop.  ``Sigma``/``Lambda``/``forms`` are the operator evaluations at
    ``L`` so callers do not recompute them.  ``iterations`` counts the
    value-iteration steps plus the ``newton_steps`` of an accepted Newton
    finish; ``newton_steps`` is 0 when value iteration finished alone.
    Detectability is not recorded here;
    :func:`~csviu.stability.detectability_search` answers it.

    Derived quantities are built on first use and cached on the instance:
    ``law``, the checked stage-problem data every feedback solve shares
    (with its own cached relaxation constants, see :class:`FeedbackLaw`),
    ``coupling``, the off-diagonal curvature the inaction margins read,
    ``slope_map``, the resolvent of the frozen-sign value slope, and its
    ``slope_gains``, built once the slope series is checked to converge.
    None is a field, so they take no part in comparisons, and
    ``dataclasses.replace`` starts a fresh cache.
    """

    model: SystemModel
    alpha: float
    L: np.ndarray
    G: np.ndarray
    Acl: np.ndarray
    Sigma: np.ndarray
    Lambda: np.ndarray
    forms: NoiseForms
    iterations: int
    newton_steps: int
    residual: float
    closed_loop_radius: float
    alpha_condition_ok: bool | None

    @cached_property
    def law(self) -> "FeedbackLaw":
        """The feedback law's state-independent data, checked once.

        Raises :class:`SingularLambda` when ``Lambda`` is not positive
        definite and :class:`AssumptionViolated` when a deadzone weight is
        negative.  ``W`` must invert the curvature, since every control
        ``-W (gamma + b)`` stands for the closed form
        ``-Lambda^{-1} (gamma + b) / 2``: a largest row sum of
        ``|2 W Lambda - I|`` above ``_INVERSE_TOL`` raises
        :class:`CsviuError`, an internal error.  A failed build is not
        cached, so every later call raises again.
        """
        c = self.forms.Wud
        if np.any(c < -1e-12 * max(1.0, float(np.abs(c).max()))):
            raise AssumptionViolated(
                "the control deadzone weights came out negative; the noise data "
                "violates the positivity assumption on the mixed control terms"
            )
        W, c = stage_data(self.Lambda, np.maximum(c, 0.0))
        defect = float(np.abs(2.0 * W @ self.Lambda - np.eye(len(W))).sum(axis=1).max(initial=0.0))
        if not defect <= _INVERSE_TOL:
            raise CsviuError(f"the stage matrix fails to invert the control curvature: "
                             f"|2 W Lambda - I| = {defect:.3e}")
        return FeedbackLaw(W=_frozen(W), c=_frozen(c))

    @cached_property
    def coupling(self) -> np.ndarray:
        """``2 (Lambda - Diag Lambda)'``, read-only: ``U @ coupling`` is the pull
        ``2 sum_{j != i} Lambda_ij u_j`` of the other channels on each channel i."""
        coupling = 2.0 * self.Lambda.T
        np.fill_diagonal(coupling, 0.0)
        return _frozen(coupling)

    @cached_property
    def slope_map(self) -> np.ndarray:
        """``alpha (I - alpha Acl')^{-1}``: maps a frozen-sign drive to its slope.

        Meaningful only while ``alpha * closed_loop_radius < 1``; the slope
        estimators check that before they use it.
        """
        n = self.model.n
        return _frozen(self.alpha * np.linalg.inv(np.eye(n) - self.alpha * self.Acl.T))

    @cached_property
    def slope_gains(self) -> tuple[np.ndarray, np.ndarray]:
        """Frozen-sign slope gains on the state and control sign patterns.

        Built only while ``alpha * closed_loop_radius < 1``, where the slope
        series converges; otherwise :class:`SeriesDivergent` is raised, and
        again on every later call, since a failed build is not cached.  Both
        are stored column-major: the slopes are ``signs @ gain.T``, and BLAS
        multiplies a tall batch by a small row-major right operand several
        times faster than by a transposed view.
        """
        _require_contracting(self.alpha, self.closed_loop_radius, "the frozen-sign slope")
        M = self.slope_map
        gains = M * self.forms.Wxd, M @ (self.G.T * self.forms.Wud)
        return tuple(_frozen(np.asfortranarray(g)) for g in gains)


class _constant(cached_property):
    """:class:`functools.cached_property` without the lock that Python up to
    3.11 takes on each first access, about 1 us: a law built per call, as
    :func:`~csviu.control.sor_solve_batch` builds one, reads several
    constants once each.  Two threads may both build a value, and they
    build the same one; a failed build is not cached."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


@dataclass(frozen=True)
class FeedbackLaw:
    """Stage-problem data that depends on the solution and not on the state.

    ``W`` is half the inverse control curvature, symmetrized: the matrix the
    relaxation sweep runs on.  ``c`` holds the deadzone weights clipped at
    zero.  The law a solution caches holds read-only arrays, because every
    solve shares them.  The relaxation constants are built on first use and
    cached on the instance, so a law pays for them once, not per solve:
    ``diagonal``, the diagonal of W, checked positive; ``offdiag``, W with its
    diagonal set to zero; the per-channel floats ``steps`` (``1 / W_ii``,
    ``-c_i``, ``c_i``) and ``columns`` (``-c``, ``c`` and the diagonal as
    (m, 1) columns) of the batch kernel; the nested lists ``lists`` (W and c)
    of the single-row kernel; and ``theta_divisor``, c with its zeros set to
    infinity.  They are shared by every solve and must not be modified.
    """

    W: np.ndarray
    c: np.ndarray

    @_constant
    def diagonal(self) -> np.ndarray:
        """The diagonal of W; :class:`SingularLambda` unless every entry is positive."""
        Wd = self.W.diagonal()
        if any(d <= 0.0 for d in Wd.tolist()):
            raise SingularLambda("the relaxation matrix must have positive diagonal")
        return Wd

    @_constant
    def offdiag(self) -> np.ndarray:
        """W with its diagonal set to zero, read-only."""
        offdiag = np.array(self.W, dtype=float)
        np.fill_diagonal(offdiag, 0.0)
        return _frozen(offdiag)

    @_constant
    def steps(self) -> tuple[list, list, list]:
        """``(1 / W_ii, -c_i, c_i)`` as lists of floats, one entry per channel."""
        return (1.0 / self.diagonal).tolist(), (-self.c).tolist(), self.c.tolist()

    @_constant
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(-c, c, diagonal)`` as (m, 1) columns."""
        return -self.c[:, None], self.c[:, None], self.diagonal[:, None]

    @_constant
    def lists(self) -> tuple[list, list]:
        """``(W, c)`` as nested lists of floats."""
        return self.W.tolist(), self.c.tolist()

    @_constant
    def theta_divisor(self) -> np.ndarray:
        """c with its zero entries set to infinity: ``|nu| / theta_divisor`` is theta."""
        return np.where(self.c > 0, self.c, np.inf)


def check_deadzone(c: np.ndarray) -> np.ndarray:
    """``c``; :class:`AssumptionViolated` unless every deadzone weight is nonnegative."""
    if np.any(c < 0):
        raise AssumptionViolated("the l1 deadzone weights c must be nonnegative")
    return c


def stage_data(Lambda: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Checked stage-problem data ``(W, c)`` with ``W = Lambda^{-1}/2`` symmetrized."""
    check_deadzone(c)
    if np.linalg.eigvalsh(0.5 * (Lambda + Lambda.T)).min() <= 0:
        raise SingularLambda("the control curvature Lambda must be positive definite")
    W = 0.5 * np.linalg.inv(Lambda)
    return 0.5 * (W + W.T), c


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _require_contracting(alpha: float, radius: float, what: str):
    if alpha * radius >= 1.0 - 1e-12:
        raise SeriesDivergent(
            f"{what} needs alpha * closed-loop radius < 1, got {alpha * radius:.6f}"
        )


def _require_pd_curvature(model: SystemModel):
    dtd = model.D.T @ model.D
    if model.m and np.linalg.eigvalsh(dtd).min() <= 0:
        raise SingularLambda(
            "D'D is not positive definite; every control channel needs direct output weight"
        )


def _iterate(ops: OperatorSet, steps: int, tol: float | None, collect: bool = False):
    """Shared monotone iteration core; returns (P, iterations, newton_steps, history).

    With a tolerance, the infeasibility certificate (:func:`_no_psd_ratio`)
    runs at step 1 and whenever max|P| has doubled since its last run, the
    1e6 growth test stops iterates that keep growing, and a Newton finish
    (:func:`_newton_finish`) is tried after steps 64, 128, 256, ...; Newton
    steps count against ``steps`` too.  Without one (the finite-horizon
    recursion) every iterate is returned however large it grows, and only an
    iterate that is no longer finite raises :class:`MaxIterations`.

    A step whose smallest eigenvalue of P_next - P lies below
    -``MONOTONE_TOL`` * max(1, max|P_next|) raises
    :class:`MonotonicityViolation`.  One Cholesky factorization of the
    difference shifted up by that floor clears almost every step, and the
    eigenvalues are computed only when it fails, so they alone decide a raise.
    """
    n = ops.model.n
    P = np.zeros((n, n))
    eye = np.eye(n)
    history = [P.copy()] if collect else None
    scale_ref = None
    delta = np.inf
    next_try = _NEWTON_FIRST_TRY
    next_certificate = 0.0  # max|P| at which the certificate runs next
    for k in range(steps):
        P_next = symmetrize(ops.riccati_step(P))
        norm = float(np.abs(P_next).max())
        if not math.isfinite(norm):
            raise MaxIterations(
                f"value iteration overflowed: iterate {k + 1} is not finite",
                iterations=k + 1,
                residual=norm,
            )
        diff = P_next - P  # exactly symmetric
        delta = float(np.abs(diff).max())
        floor = MONOTONE_TOL * max(1.0, norm)
        try:
            np.linalg.cholesky(diff + floor * eye)
        except np.linalg.LinAlgError:
            if np.linalg.eigvalsh(diff).min() < -floor:
                raise MonotonicityViolation(
                    f"value iteration lost monotonicity at step {k + 1}"
                ) from None
        if scale_ref is None and norm > 0:
            scale_ref = norm
        if tol is not None and scale_ref is not None and norm > DIVERGENCE_FACTOR * max(1.0, scale_ref):
            raise MaxIterations(
                "no positive semidefinite solution detected: iterates grew by a factor "
                f"{norm / max(scale_ref, 1e-300):.2e} after {k + 1} steps",
                iterations=k + 1,
                residual=delta,
            )
        P = P_next
        if collect:
            history.append(P.copy())
        if tol is None:
            continue
        if delta <= tol:
            return P, k + 1, 0, history
        if k == 0 and not ops.model.B.any() and not ops.model.sigma_bar_u.any():
            radius = _affine_no_psd_radius(ops, P)
            if radius is not None:
                raise NoPSDSolution(
                    "no positive semidefinite solution: certified at step 1, where with B = 0 "
                    "and Su = 0 the value map is P -> L(P) + P_1, P_1 is positive definite and "
                    f"the linear part L has spectral radius {radius:.6f} >= 1",
                    iterations=1,
                    ratio=radius,
                    residual=delta,
                )
        if norm >= next_certificate:
            next_certificate = 2.0 * norm
            ratio = _no_psd_ratio(ops, P)
            if ratio is not None:
                raise NoPSDSolution(
                    f"no positive semidefinite solution: certified at step {k + 1}, where "
                    f"the recession map grows the value iterate by a factor {ratio:.6f} > 1",
                    iterations=k + 1,
                    ratio=ratio,
                    residual=delta,
                )
        if k + 1 == next_try:
            next_try *= 2
            finish = _newton_finish(ops, P, tol, min(_NEWTON_STEPS, steps - k - 1))
            if finish is not None:
                L, newton_steps = finish
                return L, k + 1 + newton_steps, newton_steps, history
    if tol is not None:
        raise MaxIterations(
            f"value iteration did not converge in {steps} steps (last step size {delta:.3e})",
            iterations=steps,
            residual=delta,
        )
    return P, steps, 0, history


def _no_psd_ratio(ops: OperatorSet, P: np.ndarray) -> float | None:
    """Certified growth factor lambda > 1 of the recession map at ``P``, or None.

    lambda = lambda_min(P^{-1/2} R_inf(P) P^{-1/2}) (see the module
    docstring).  None when P or Lh is not positive definite, when
    cond(Lh) >= ``_CURVATURE_COND``, or when lambda_min(R_inf(P) - P) does
    not exceed the rounding margin.
    """
    n = ops.model.n
    try:
        chol = np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        return None
    Q = ops._blocks(P)
    w, V = np.linalg.eigh(Q[n:, n:])  # Lh
    if w.size and w[0] * _CURVATURE_COND <= w[-1]:
        return None
    X = (V.T @ Q[n:, :n]) / np.sqrt(w)[:, None]  # X'X = Sh' Lh^{-1} Sh
    grown = ops.alpha * Q[:n, :n]  # alpha (A'PA + Diag(diag(Sx'P Sx)))
    gap = symmetrize(grown - ops.alpha * (X.T @ X) - P)
    margin = _CERTIFY_MARGIN * (float(np.abs(grown).max()) + float(np.abs(P).max()))
    if np.linalg.eigvalsh(gap)[0] <= margin:
        return None
    inv_chol = np.linalg.inv(chol)
    return 1.0 + float(np.linalg.eigvalsh(inv_chol @ gap @ inv_chol.T)[0])


def _affine_no_psd_radius(ops: OperatorSet, P: np.ndarray) -> float | None:
    """rho(L_A) >= 1 of the affine value map at B = 0, Su = 0, or None.

    ``P`` is the first value iterate Q0 (see the module docstring).  None
    when lambda_min(P) does not exceed ``_CERTIFY_MARGIN`` times
    lambda_max(P), when L_A(P) is not finite (the next iterate overflows,
    which the iteration reports), when the radius is below one, or when
    :meth:`~csviu.operators.OperatorSet.map_radius` raises
    :class:`MaxIterations`.
    """
    w = np.linalg.eigvalsh(P)
    if not w[0] > _CERTIFY_MARGIN * w[-1]:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(ops.second_moment_map(P)).all():
            return None
    try:
        radius = ops.map_radius()
    except MaxIterations:
        return None
    return radius if radius >= 1.0 else None


def _newton_finish(ops: OperatorSet, P: np.ndarray, tol: float, budget: int):
    """Policy iteration from the gain of the value iterate ``P``.

    Returns ``(L, steps)`` for a fixed point within ``tol`` that is positive
    semidefinite and lies above ``P``, found in at most ``budget`` steps;
    None when a gain does not make the second-moment map stable or any of
    those conditions fails.
    """
    md = ops.model
    U = P
    gain_term = ops._step(U)[3]
    for step in range(1, budget + 1):
        G = -gain_term
        Ccl = md.C + md.D @ G
        try:
            evaluated = ops.lyapunov_solve(Ccl.T @ Ccl, md.A + md.B @ G, G)
        except MaxIterations:
            return None
        if not evaluated.stable:
            return None
        U = symmetrize(evaluated.U)
        value, _, _, gain_term = ops._step(U)
        if float(np.abs(value - U).max()) <= tol:
            floor = -MONOTONE_TOL * max(1.0, float(np.abs(U).max()))
            if min(np.linalg.eigvalsh(U).min(), np.linalg.eigvalsh(U - P).min()) < floor:
                return None
            return U, step
    return None


def solve_riccati(
    model: SystemModel,
    alpha: float | None = None,
    config: CriterionConfig | None = None,
) -> RiccatiSolution:
    """Iterate the value map from zero until it settles and package the result.

    ``alpha`` falls back to the model's criterion config and then to 1.
    After value-iteration steps 64, 128, 256, ... a Newton finish is tried
    from the current gain; it is refused when that gain does not make the
    second-moment map stable, and its result is accepted only as a positive
    semidefinite fixed point within ``tol_fixed_point`` that lies above the
    value iterate it started from, so ``L`` is still the minimal PSD fixed
    point (see the module docstring).  ``max_iters`` bounds value-iteration
    plus Newton steps; :class:`MaxIterations` is raised when the iterates
    diverge or the budget runs out.

    A plant with no PSD fixed point is recognized early: at step 1 and then
    whenever max|P| has doubled, the recession map of the value map is
    tested at the value iterate P, and when it grows P by a factor
    lambda > 1 in the semidefinite order, :class:`~csviu.errors.NoPSDSolution`
    (a :class:`MaxIterations`) is raised with ``iterations`` the step and
    ``ratio`` lambda.  A step whose P or control curvature Lh = B'PB +
    Diag(diag(Su'P Su)) is not positive definite is skipped.  Where Lh
    vanishes (B = 0 and Su = 0), a positive definite first iterate and a
    second-moment map of radius at least one raise
    :class:`~csviu.errors.NoPSDSolution` at step 1 with ``ratio`` that
    radius.  Iterates that grow 1e6-fold without a certificate raise
    :class:`MaxIterations` from the growth test.
    The test only reads P, so every solve that finds a fixed point returns
    what it would without it.
    """
    if config is None:
        config = model.criterion or CriterionConfig()
    if alpha is None:
        alpha = config.alpha
    _require_pd_curvature(model)
    ops = OperatorSet(model, alpha)

    L, iterations, newton_steps, _ = _iterate(ops, config.max_iters, config.tol_fixed_point)
    L = symmetrize(L)
    value, Sigma, Lambda, gain_term = ops._step(L)
    residual = float(np.abs(value - L).max())
    G = -gain_term
    Acl = model.A + model.B @ G
    closed_loop_radius = spectral_radius(Acl)
    alpha_condition_ok = None if ops.alpha < 1.0 else bool(closed_loop_radius < 1.0 / ops.alpha)

    return RiccatiSolution(
        model=model,
        alpha=ops.alpha,
        L=L,
        G=G,
        Acl=Acl,
        Sigma=Sigma,
        Lambda=Lambda,
        forms=ops.noise_quadratic_forms(L),
        iterations=iterations,
        newton_steps=newton_steps,
        residual=residual,
        closed_loop_radius=closed_loop_radius,
        alpha_condition_ok=alpha_condition_ok,
    )


def finite_horizon_riccati(model: SystemModel, alpha: float, kappa: int) -> list[np.ndarray]:
    """Backward cost matrices over a horizon of kappa steps.

    Returns ``[P_0, ..., P_kappa]`` with the terminal matrix zero; shares the
    iteration core with the stationary solver, so ``P_0`` equals the
    kappa-th value iterate exactly.  The matrices may grow without bound
    when the plant has no stationary solution; :class:`MaxIterations` is
    raised only if one of them is no longer finite.
    """
    kappa = check_count("kappa", kappa, 0)
    _require_pd_curvature(model)
    ops = OperatorSet(model, alpha)
    _, _, _, history = _iterate(ops, kappa, tol=None, collect=True)
    return list(reversed(history))
