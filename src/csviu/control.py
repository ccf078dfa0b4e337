"""The nonsmooth per-stage control problem and its successive-relaxation solver.

At each state the optimal control minimizes a strictly convex quadratic plus
a weighted l1 term,

    J(u) = u' Lambda u + <b, u> + <c, |u|>,      c >= 0,

whose stationarity condition is a generalized normal equation coupling the
control to a clipped auxiliary vector.  That vector solves the box-constrained
dual ``min (gamma + b)' W (gamma + b) / 2`` over ``|gamma| <= c``, and a
projected successive over-relaxation sweep (Cryer, SIAM J. Control 9(3),
1971) solves it: the relaxation acts on the clipped vector itself, so the
dual objective never rises and every relaxation factor in (0, 2) converges.
A batch solve flags each row that misses its tolerance within its sweep
budget with NaN and keeps the others; the entry points that need every row
raise one :class:`MaxIterations` naming how many missed; errors not per row
raise.
"""

from __future__ import annotations

import math
import numbers
import textwrap
from dataclasses import dataclass
from functools import cached_property
from math import copysign

import numpy as np

from .errors import ArgumentError, MaxIterations, as_floats, check_count, check_matrix, check_real, check_state
from .riccati import FeedbackLaw, RiccatiSolution, _frozen, check_deadzone, stage_data

_MU_SWEEPS = 3  # frozen-sign slope sweeps per state before its last pattern is kept
_MU_KINDS = ("zero", "asymptotic")
_MAX_SWEEPS = 10000  # default sweep budget of every stage solve


@dataclass(frozen=True)
class ControlSubproblem:
    """Data of one per-stage minimization; W is half the inverse curvature.

    ``law``, the :class:`~csviu.riccati.FeedbackLaw` of ``W`` and ``c`` that
    :func:`sor_solve` runs on, is built on first use and cached, so repeated
    solves of one instance share its relaxation constants.  ``W``, ``b`` and
    ``c`` must not change after that; :meth:`from_parts` makes its own
    read-only copies.
    """

    W: np.ndarray
    b: np.ndarray
    c: np.ndarray
    Lambda: np.ndarray

    @classmethod
    def from_parts(cls, Lambda, b, c) -> "ControlSubproblem":
        """Build a bare instance from the quadratic/linear/l1 coefficients."""
        Lambda = np.atleast_2d(as_floats("Lambda", Lambda))
        b = as_floats("b", b).reshape(-1).copy()
        c = as_floats("c", c).reshape(-1).copy()
        m = b.size
        if Lambda.shape != (m, m) or c.shape != (m,):
            raise ArgumentError(
                f"inconsistent sizes: Lambda {Lambda.shape}, b {b.shape}, c {c.shape}"
            )
        W, c = stage_data(Lambda, c)
        return cls(W=_frozen(W), b=_frozen(b), c=_frozen(c), Lambda=Lambda)

    @cached_property
    def law(self) -> FeedbackLaw:
        """The stage-problem data of ``W`` and ``c`` that every solve of this instance shares."""
        return FeedbackLaw(W=self.W, c=self.c)


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
    """Objective value of the stage problem at ``u``; a ``u`` of the wrong
    length or with a non-finite entry raises :class:`ArgumentError`."""
    u = check_state("u", u, sub.b.size)
    return float(u @ sub.Lambda @ u + sub.b @ u + sub.c @ np.abs(u))


def check_tol(tol) -> None:
    """:class:`ArgumentError` unless ``tol`` is a finite number >= 0, not a bool."""
    # a float passes before the isinstance test of an ABC, which costs about 0.4 us
    if not ((type(tol) is float or (not isinstance(tol, bool) and isinstance(tol, numbers.Real)))
            and 0.0 <= tol < math.inf):
        raise ArgumentError(f"tol must be a finite number >= 0, got {tol!r}")


def check_mu_kind(mu_kind) -> None:
    """:class:`ArgumentError` unless ``mu_kind`` is "zero" or "asymptotic"."""
    if mu_kind not in _MU_KINDS:
        raise ArgumentError(f"unknown mu_kind {mu_kind!r}; expected 'zero' or 'asymptotic', "
                            "or pass an explicit slope such as mu_rollout(sol, x).value")


def _check_sweeps(law: FeedbackLaw, tol, max_iters) -> int:
    """The checks of a stage solve; returns ``max_iters`` as an int.

    A ``tol`` that is not a finite number >= 0 and a ``max_iters`` that is
    not an integer >= 0 raise :class:`ArgumentError`, and a nonpositive
    diagonal of W :class:`SingularLambda`.
    """
    check_tol(tol)
    max_iters = check_count("max_iters", max_iters, 0)
    law.diagonal  # built and checked on first use, then cached on the law
    return max_iters


def _sweeps(law: FeedbackLaw, B, tol, max_iters):
    """Projected Gauss-Seidel sweeps, from z0 = 0, over a (paths, m) batch
    sharing the law's W and c, on settings checked by :func:`_check_sweeps`.

    Returns (Z, Gamma, Nu, iterations, residual).  Each sweep updates the
    coordinates in order: the Gauss-Seidel point
    ``z_i = 0 z_i - (sum_{j != i} W_ij s_j) / W_ii - b_i`` minimizes the dual
    along coordinate i, ``gamma_i = clip(z_i, -c_i, c_i)`` never raises it,
    and ``s = gamma + b`` is carried; the ``0 z_i`` term only fixes the sign
    of a zero point and carries a non-finite one.  The control is
    ``nu_i = W_ii (z_i - gamma_i)``, and each row stops at the first sweep
    that brings its residual ``|nu + W s|`` within ``tol``.  ``iterations``
    and ``residual`` are the largest of any row.  A row still outside
    ``tol`` after ``max_iters`` sweeps (a NaN residual included) comes back
    NaN, leaves the other rows as they are, and makes ``residual`` miss
    ``tol`` (:func:`_raise_unconverged`).  A single row runs on the
    Python-float kernel of :func:`_sweeps_one`, whose floats come back as
    (1, m) arrays, a batch on columns (:func:`_sweeps_batch`); both take the
    same steps, read the law's cached constants and agree to rounding.  A
    batch with one channel and a nonzero budget takes the first sweep of
    :func:`_sweeps_batch` alone (:func:`_one_channel`), which is its whole
    result, bit for bit.
    """
    rows, m = B.shape
    if rows == 1:
        z, gamma, nu, sweeps, residual = _sweeps_one(law, B[0].tolist(), 1.0, None, tol, max_iters)
        return np.array([z]), np.array([gamma]), np.array([nu]), sweeps, residual
    if m == 1 and rows and max_iters:
        return _one_channel(law, B, tol, max_iters)
    return _sweeps_batch(law, B, tol, max_iters)


def _one_channel(law, B, tol, max_iters):
    """The sweeps of :func:`_sweeps` on a (paths, 1) batch, in one pass.

    With one channel nothing couples: the Gauss-Seidel point is
    ``z = 0.0 - b`` on every row with a finite ``s``, so the first sweep of
    :func:`_sweeps_batch` is its solution, and this pass takes exactly that
    sweep's steps: ``gamma = min(max(z, -c), c)``, ``s = gamma + b`` and the
    control of :func:`_control`.  Since ``s = -(z - gamma)`` exactly, the
    residual ``|nu + W s|`` is 0 on every row whose ``W (z - gamma)`` is
    finite; a row whose product overflows has a NaN residual on every
    sweep, so it comes back NaN after the whole budget, as from
    :func:`_sweeps_batch`.  Returns (Z, Gamma, Nu, sweeps, residual) as it does.
    """
    _, (lower,), (upper,) = law.steps
    Wdc = law.columns[2]
    b = B.T
    Z = np.subtract(0.0, b)
    Gamma = np.maximum(Z, lower)
    np.minimum(Gamma, upper, out=Gamma)
    S = np.add(Gamma, b)
    Nu = np.empty_like(Z)
    _control(Wdc, Z, Gamma, Nu)
    R = np.multiply(Wdc, S, out=S)  # W s
    r = np.abs(np.add(Nu, R, out=R), out=R)[0]
    residual = float(r.max(initial=0.0))
    if residual <= tol:
        return Z.T, Gamma.T, Nu.T, 1, residual
    missed = ~(r <= tol)
    Z[0, missed] = Gamma[0, missed] = Nu[0, missed] = np.nan
    return Z.T, Gamma.T, Nu.T, max_iters, residual


def _raise_unconverged(U, residual, tol, max_iters):
    """Raise :class:`MaxIterations` naming how many rows of ``U`` (its NaN rows, an
    array or a list of one row's list) a stage solve left outside ``tol``; its
    ``residual`` misses ``tol`` exactly then."""
    if residual <= tol:
        return
    failed = int(np.isnan(U).any(axis=1).sum())
    raise MaxIterations(
        f"relaxation did not reach tol={tol:.1e} in {max_iters} sweeps on {failed} of "
        f"{len(U)} rows (residual {residual:.3e}); retry with a larger max_iters",
        iterations=max_iters,
        residual=residual,
    )


def _sweeps_batch(law, B, tol, max_iters):
    """The sweeps of :func:`_sweeps` on a (paths, m) batch.

    The rows still sweeping are one stacked (4, m, rows) state of ``[Z,
    Gamma, S, B]``, transposed, so each coordinate updates in place on one
    contiguous row and ``S`` carries ``Gamma + B``; no update reads another
    coordinate's z, so Z takes its ``0 z_i`` once per sweep.  The coupling,
    control and residual of a sweep go into two buffers of the call.  After
    each sweep the rows within ``tol`` store their Z and Gamma and leave the
    state, so a row stops at its own convergence sweep; the last row left
    finishes on :func:`_sweeps_one` with the remaining budget, resuming from
    its point z; rows still sweeping when it runs out stay NaN.  Returns the
    largest sweep count and final residual of any row.
    """
    W, offdiag = law.W, law.offdiag
    step, lower, upper = law.steps
    Cl, Cc, Wdc = law.columns
    m, paths = W.shape[0], B.shape[0]
    state = np.zeros((4, m, paths))
    state[3] = B.T
    np.minimum(np.maximum(state[0], Cl), Cc, out=state[1])
    np.add(state[1], state[3], out=state[2])
    nu_buffer, r_buffer = np.empty(m * paths), np.empty(m * paths)
    out, live = np.empty((3, m, paths)), np.arange(paths)  # (Z, Gamma, Nu) of the batch; rows sweeping
    residual, top, rows = 0.0, math.inf, None
    for sweep in range(1, max_iters + 1):
        if state.shape[2] != rows:  # the first sweep, or rows left: views of the new state
            Z, Gamma, S, B = state
            rows, size = Z.shape[1], Z.size
            coupling = nu_buffer[:rows]
            Nu, R = nu_buffer[:size].reshape(Z.shape), r_buffer[:size].reshape(Z.shape)
            coordinates = list(zip(offdiag, step, lower, upper, Z, Gamma, S, B))
        Z *= 0.0
        for w, h, lo, hi, z, g, s, b in coordinates:
            np.matmul(w, S, out=coupling)
            coupling *= h
            z -= coupling
            z -= b
            np.maximum(z, lo, out=g)
            np.minimum(g, hi, out=g)
            np.add(g, b, out=s)
        _control(Wdc, Z, Gamma, Nu)
        np.matmul(W, S, out=R)
        np.add(Nu, R, out=R)
        r = np.abs(R, out=R).max(axis=0, initial=0.0)
        top = float(r.max(initial=0.0))
        if top <= tol:
            if rows == paths:  # no row left before: the state is the result
                return Z.T, Gamma.T, Nu.T, sweep, top
            out[:2, :, live] = state[:2]
            sweeps, residual = sweep, max(residual, top)
            break
        done = r <= tol
        if not done.any():
            continue
        out[:2, :, live[done]] = state[:2].compress(done, axis=2)
        residual = max(residual, float(r[done].max()))
        stay = ~done
        live = live[stay]
        state = state.compress(stay, axis=2)
        if live.size == 1 and sweep < max_iters:
            # resume from Z, which clips to the clipped vector and keeps the zero signs
            # the next sweep's 0 z_i term carries
            z, g, _, more, last = _sweeps_one(law, state[3, :, 0].tolist(), 1.0, state[0, :, 0].tolist(),
                                              tol, max_iters - sweep)
            out[:2, :, live[0]] = z, g
            # a failed straggler's residual (outside tol, or NaN) is the batch's
            sweeps, residual = sweep + more, max(residual, last) if last <= tol else last
            break
    else:  # rows still sweeping when the budget ran out
        out[:2, :, live] = np.nan
        sweeps, residual = max_iters, top
    _control(Wdc, *out)
    return out[0].T, out[1].T, out[2].T, sweeps, residual


def _control(Wdc, Z, Gamma, Nu):
    """``Nu = copysign(Wd (Z - Gamma), Z)``: ``z - clip(z)`` is exactly ``sign(z) (|z| - c)``
    outside the box and +0 inside, so this is :func:`_sweeps_one`'s ``sign(z) max(0, Wd (|z| - c))``."""
    np.copysign(np.multiply(Wdc, np.subtract(Z, Gamma, out=Nu), out=Nu), Z, out=Nu)


def _sweeps_one(law, b, omega, z0, tol, max_iters):
    """The sweeps of :func:`_sweeps` on one right-hand side ``b``, a list of
    m floats, over Python floats, from ``gamma = clip(z0, -c, c)``
    (``z0=None`` is z0 = 0).  Returns (z, gamma, nu, sweeps, residual) with
    z, gamma and nu as lists of floats, NaN when the row missed ``tol``.

    At omega = 1 it takes the steps of :func:`_sweeps_batch`, summing in
    another order.  Another omega, which only :func:`sor_solve` passes, is
    projected SOR: ``gamma_i = clip((1 - omega) gamma_i + omega z_i)`` never
    raises the dual, so every omega in (0, 2) converges to the same answer.
    A NaN residual sticks, so a corrupted input comes back NaN.

    The sweeps run on a kernel generated for this m (:func:`_kernel_source`),
    because a loop over the channels pays for list indexing, an iterator per
    coupling sum and three list stores on every coordinate; unrolled, z_i,
    gamma_i, s_i and the entries of W (``Wd`` among them) are local
    variables, which makes a sweep about four times faster.  Only channel
    indices are formatted into its source; every value arrives as an
    argument.  Each m compiles once per process, on first use, into
    ``_KERNELS``, once for omega = 1 and once for the relaxed steps of every
    other omega: about 0.5 ms at m = 1, 3 ms at m = 6, 15 ms at m = 20,
    0.1 s at m = 50 and 1.5 s at m = 200.  Importing the package compiles
    none.

    The kernel keeps the plain loop's arithmetic: coordinates in order,
    ``z_i = 0.0 z_i - step_i (0 + sum_j w_ij s_j) - b_i`` with
    ``step_i = 1.0 / w_ii`` and the diagonal term kept as ``0.0 * s_i``, the
    clip of ``z_i`` or, for omega != 1, of
    ``(1 - omega) gamma_i + omega z_i`` to ``[-c_i, c_i]`` (``step_i`` and
    ``-c_i`` formed once per call), ``s_i = gamma_i + b_i``, and the
    residual ``|nu_i + (0 + sum_j w_ij s_j)|``.  Every sum starts from 0.0
    and adds its terms left to right in plain float adds, so the results do
    not depend on how the running Python's ``sum()`` rounds
    (``sum([1e16, 1.0, -1e16])`` is 0.0 up to 3.11 and 1.0 from 3.12, which
    made it compensated).  Before the last allowed sweep the residual pass
    stops at the first coordinate outside ``tol``; the residual is only read
    on convergence and when the budget runs out, so that moves no result.
    """
    (w, c), relaxed = law.lists, omega != 1.0
    m = len(c)
    kernel = _KERNELS.get((m, relaxed)) or _compile_kernel(m, relaxed)
    return kernel(w, b, c, [0.0] * m if z0 is None else z0, omega, tol, max_iters)


_KERNELS = {}  # (channel count m, omega != 1) -> its compiled single-row sweep kernel

# The single-row sweep kernel; {placeholders} take per-channel lines.
_KERNEL_TEMPLATE = """\
def kernel(w, b, c, z, omega, tol, max_iters):
    [{w}] = w
    [{b}] = b
    [{c}] = c
    [{z}] = z
    keep = 1.0 - omega
{start}
    for sweep in range(1, max_iters):
{sweep}
{residual_to_first_miss}
        return {solved}, sweep, max((0.0, {r}))
    if max_iters < 1:
        return {unsolved}, max_iters, inf
{last_sweep}
    residual = 0.0
{full_residual}
    if residual <= tol:
        return {solved}, max_iters, residual
    return {unsolved}, max_iters, residual
"""


def _compile_kernel(m, relaxed):
    namespace = {"copysign": copysign, "inf": math.inf, "nan": math.nan}
    name = f"<csviu sweep kernel, m={m}{', relaxed' if relaxed else ''}>"
    exec(compile(_kernel_source(m, relaxed), name, "exec"), namespace)
    kernel = _KERNELS[m, relaxed] = namespace["kernel"]
    return kernel


def _kernel_source(m, relaxed):
    """Python source of the single-row sweep kernel of :func:`_sweeps_one`
    for ``m`` channels, with the relaxed step when ``relaxed`` (omega != 1);
    ``kernel(w, b, c, z, omega, tol, max_iters)`` takes W as nested lists and
    b, c and z0 as lists, and returns z, gamma and nu as lists."""
    idx = range(m)

    def names(fmt):
        return ", ".join(fmt.format(i=i) for i in idx)

    def coupling(i, diagonal):
        terms = (f"w{i}_{j} * s{j}" if diagonal or j != i else f"0.0 * s{j}" for j in idx)
        return "(0.0 + " + " + ".join(terms) + ")"

    def update(i):
        v = "y" if relaxed else f"z{i}"  # the point the clip takes
        relax = f"y = keep * g{i} + omega * z{i}\n" if relaxed else ""
        return (f"z{i} = 0.0 * z{i} - step{i} * {coupling(i, False)} - b{i}\n{relax}"
                f"g{i} = nc{i} if {v} < nc{i} else c{i} if {v} > c{i} else {v}\n"
                f"s{i} = g{i} + b{i}")

    def residual(i):
        return (f"t = w{i}_{i} * (abs(z{i}) - c{i})\n"
                f"nu{i} = copysign(0.0 if 0.0 > t else t, z{i})\n"  # max(t, 0.0), inlined
                f"r{i} = abs(nu{i} + {coupling(i, True)})")

    def block(lines, indent):
        return textwrap.indent("\n".join(lines), " " * indent)

    return _KERNEL_TEMPLATE.format(
        w=", ".join("[" + ", ".join(f"w{i}_{j}" for j in idx) + "]" for i in idx),
        b=names("b{i}"), c=names("c{i}"), z=names("z{i}"), r=names("r{i}"),
        start=block((f"step{i} = 1.0 / w{i}_{i}; nc{i} = -c{i}\n"
                     f"g{i} = min(max(z{i}, nc{i}), c{i}); s{i} = g{i} + b{i}" for i in idx), 4),
        sweep=block(map(update, idx), 8),
        residual_to_first_miss=block(
            (f"{residual(i)}\nif not r{i} <= tol:\n    continue" for i in idx), 8),
        solved=", ".join(f"[{names(v + '{i}')}]" for v in ("z", "g", "nu")),
        unsolved=", ".join([f"[{names('nan')}]"] * 3),
        last_sweep=block(map(update, idx), 4),
        full_residual=block(
            (f"{residual(i)}\nif r{i} > residual or r{i} != r{i}:\n    residual = r{i}" for i in idx), 4),
    )


def sor_solve(
    sub: ControlSubproblem,
    omega: float = 1.0,
    tol: float = 1e-10,
    max_iters: int = _MAX_SWEEPS,
) -> SorState:
    """Solve the generalized normal equation of one stage problem.

    The instance runs on the single-row kernel of :func:`_sweeps_one`; at
    omega = 1 it agrees with :func:`sor_solve_batch` to rounding, with the
    same sweep count.  ``omega`` (a real in (0, 2), bools excluded) and the
    settings of :func:`_check_sweeps` are checked before any sweep.
    """
    law = sub.law
    check_real("omega", omega, 0.0, 2.0)
    max_iters = _check_sweeps(law, tol, max_iters)
    z, gamma, nu, iterations, residual = _sweeps_one(law, sub.b.tolist(), omega, None, tol, max_iters)
    _raise_unconverged([nu], residual, tol, max_iters)
    return _sor_state(law, z, gamma, nu, iterations, residual)


def _sor_state(law, z, gamma, nu, iterations, residual):
    """The :class:`SorState` of one converged row of a solve under ``law``,
    from the lists of :func:`_sweeps_one`."""
    nu = np.array(nu)
    # theta_i = |nu_i| / c_i = W_ii max(0, |z_i| - c_i) / c_i on weighted channels
    return SorState(z=np.array(z), gamma=np.array(gamma), nu=nu, theta=np.abs(nu) / law.theta_divisor,
                    iterations=iterations, residual=residual)


def sor_solve_batch(sub_W, B, c, tol=1e-10, max_iters=_MAX_SWEEPS):
    """Batch form of :func:`sor_solve` at omega = 1 for many right-hand sides at once.

    ``B`` is (paths, m); returns the (paths, m) control batch, empty when
    ``B`` has no rows; for stage problems that share one curvature (the
    feedback entry points run the same sweeps, :func:`_sweeps`, from
    :func:`_feedback`).  Each row stops at its own convergence sweep, so it
    matches :func:`sor_solve` on that row alone to rounding, whatever the
    other rows are.  Rows that miss ``tol`` raise one :class:`MaxIterations`
    naming how many did.  Before any sweep, a non-square ``sub_W``, a ``c``
    or ``B`` that does not match it and a non-finite entry raise
    :class:`ArgumentError` naming the argument, and a negative ``c``
    :class:`AssumptionViolated`.
    """
    W = as_floats("sub_W", sub_W)
    m = W.shape[0] if W.ndim else 1
    W = check_matrix("sub_W", W, (m, m))
    law = FeedbackLaw(W=W, c=check_deadzone(check_matrix("c", c, (m,))))
    B = np.atleast_2d(as_floats("B", B))
    B = check_matrix("B", B, (len(B), m))
    max_iters = _check_sweeps(law, tol, max_iters)
    _, _, Nu, _, residual = _sweeps(law, B, tol, max_iters)
    _raise_unconverged(Nu, residual, tol, max_iters)
    return Nu


def _slopes(sol: RiccatiSolution, X, Mu, mu_kind, name="Mu"):
    """The (rows, n) slopes of a state batch: an explicit, finite ``Mu`` (argument ``name``)
    or zeros; None for "asymptotic", whose slopes :func:`_feedback` resolves."""
    rows, n = X.shape
    if n != sol.model.n:
        raise ArgumentError(f"states have length {n}, expected {sol.model.n}")
    if Mu is not None:
        Mu = as_floats(name, Mu)
        # every batch gets its own copy of the slopes, since the results hand them out
        Mu = np.array(Mu.reshape(1, -1) if rows == 1 else np.atleast_2d(Mu))
        if Mu.shape != X.shape:
            raise ArgumentError(f"slopes of shape {Mu.shape} do not match {rows} states of length {n}")
        finite = np.isfinite(Mu).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ArgumentError(f"slopes must be finite, got {Mu[row]} in row {row}")
        return Mu
    check_mu_kind(mu_kind)
    return np.zeros(X.shape) if mu_kind == "zero" else None


def _feedback(sol: RiccatiSolution, X, Mu, tol, max_iters):
    """Stage solutions of a (rows, n) state batch under its :func:`_slopes`.

    Every stage solve sweeps at omega = 1, plain projected Gauss-Seidel,
    which took the fewest sweeps on every plant measured; another omega
    would move only the sweep count, never the answer.

    Returns ``(U, Mu, residual)``: every row's control from its last stage
    solve (a cold-start :func:`_sweeps` call on the solution's cached
    ``law``, whose settings are checked once per call, before any sweep),
    the slope that solve used, and the last solve's residual; a batch of
    one runs :func:`_feedback_one`.  A given ``Mu`` takes one solve.  A row
    that fails a solve is NaN in ``U`` and takes no further solve, and
    ``residual`` then stays that of the last solve that failed a row
    (:func:`_raise_unconverged`).

    ``Mu=None`` resolves the frozen-sign slope row by row.  The slope is
    ``sign(x) gain_x' + sign(u) gain_u'`` with the solution's cached
    ``slope_gains``, which exist only once the slope series is checked to
    converge, so that check runs once per solution.  The state-sign part is
    formed once per call and is the slope of the first solve, whose control
    sign pattern counts as 0; each re-solve adds the control-sign part of
    its rows.  Each row re-solves until its control sign pattern repeats,
    for at most ``_MU_SWEEPS`` sweeps, and only the rows whose signs moved
    take part in the next sweep; a row's control and slope are stored when
    it settles or the sweeps end, and a sweep that re-solves every row still
    moving copies none.  A settled row's last solve already used its
    returned slope; only rows still moving after the last sweep are solved
    once more.
    """
    if len(X) == 1:
        _, _, u, Mu, _, _, residual = _feedback_one(sol, X, Mu, tol, max_iters)
        return np.array([u]), Mu, residual
    law, B = sol.law, sol.model.B
    max_iters = _check_sweeps(law, tol, max_iters)
    R = 2.0 * X @ sol.Sigma.T
    sweeping = Mu is None
    if sweeping:
        gain_x, gain_u = sol.slope_gains
        Mu = np.sign(X) @ gain_x.T
    _, _, U, _, residual = _sweeps(law, Mu @ B + R, tol, max_iters)
    if not sweeping:
        return U, Mu, residual
    # rows whose signs still move, with their state-sign slopes, data, and the controls and
    # slopes of their last solve; the first solve's sign pattern is 0, so its moved rows are
    # those with a nonzero (or NaN) control.  The live rows' results are stored only when
    # some settle, after the takes, since Mx_l is Mu itself until a take copies it
    live, Mx_l, R_l, U_l, Mu_l, last = np.arange(len(U)), Mu, R, U, Mu, residual
    changed = (U != 0.0).any(axis=1)
    for _ in range(_MU_SWEEPS):
        if not last <= tol:  # NaN rows failed the last solve: no more solves
            changed &= ~np.isnan(U_l[:, 0])
        moved = changed.nonzero()[0]
        if moved.size < live.size:
            settled = live, U_l, Mu_l
            if moved.size:
                live, Mx_l, R_l, U_l = (a.take(moved, axis=0) for a in (live, Mx_l, R_l, U_l))
            U, Mu = _store(U, Mu, *settled)
        if not moved.size:
            break
        Su_l = np.sign(U_l)
        Mu_l = Mx_l + Su_l @ gain_u.T
        _, _, U_l, _, last = _sweeps(law, Mu_l @ B + R_l, tol, max_iters)
        if residual <= tol or not last <= tol:  # a failed solve's residual stays
            residual = last
        changed = (np.sign(U_l) != Su_l).any(axis=1)
    else:
        U, Mu = _store(U, Mu, live, U_l, Mu_l)
    return U, Mu, residual


def _feedback_one(sol, X, Mu, tol, max_iters):
    """:func:`_feedback` on a batch of one row, settings checks included.

    Returns ``(z, gamma, u, Mu, Bu, sweeps, residual)`` of the row's last
    solve, with z, gamma and u as lists and ``Bu = Mu B + 2 X Sigma'``, so
    that :func:`optimal_control` can describe that solve.

    It takes the slope rule's steps on the row: the products ``2 X Sigma'``,
    ``sign(X) gain_x'``, ``Mu B`` and ``sign(u) gain_u'`` are the batch's
    numpy products on (1, n) and (1, m) arrays, so they keep its bits, and
    each solve runs on the kernel of :func:`_sweeps_one`.  The control sign
    patterns and the stop test are Python floats: the first solve's pattern
    is 0, each re-solve follows a pattern that moved, up to ``_MU_SWEEPS``,
    and a solve that misses ``tol`` ends the rounds with its NaN control,
    sweep count and residual.  Every returned array is the call's own, given
    a ``Mu`` of :func:`_slopes`, which copies an explicit slope.
    """
    law, B = sol.law, sol.model.B
    max_iters = _check_sweeps(law, tol, max_iters)
    R = 2.0 * X @ sol.Sigma.T
    rounds = 0  # re-solves left: a given slope takes one solve
    if Mu is None:
        gain_x, gain_u = sol.slope_gains
        Mx = Mu = np.sign(X) @ gain_x.T
        rounds, signs = _MU_SWEEPS, [0.0] * B.shape[1]  # the pattern the first solve counts as
    while True:
        Bu = Mu @ B + R
        z, gamma, u, sweeps, residual = _sweeps_one(law, Bu[0].tolist(), 1.0, None, tol, max_iters)
        if not rounds or not residual <= tol:
            break
        pattern = [float((v > 0.0) - (v < 0.0)) for v in u]  # np.sign of a solved control
        if pattern == signs:
            break
        rounds, signs = rounds - 1, pattern
        Mu = Mx + np.array([signs]) @ gain_u.T
    return z, gamma, u, Mu, Bu, sweeps, residual


def _store(U, Mu, live, U_l, Mu_l):
    """``U`` and ``Mu`` with rows ``live`` set to ``U_l`` and ``Mu_l``.

    When ``live`` holds every row these are the result, made row-major, so
    the first store returns a ``U`` and ``Mu`` that later stores can write;
    otherwise each C-contiguous row is one item of a void view, so one fancy
    store copies whole rows, not numpy's element by element scatter of a
    2-D index.
    """
    if live.size == len(U):
        return np.ascontiguousarray(U_l), np.ascontiguousarray(Mu_l)
    for a, a_l in ((U, U_l), (Mu, Mu_l)):
        row = np.dtype((np.void, a.itemsize * a.shape[1]))
        a.view(row)[:, 0][live] = np.ascontiguousarray(a_l).view(row)[:, 0]
    return U, Mu


def _margins(sol: RiccatiSolution, linear, U):
    """The inaction margins (:class:`ControlResult`) of the stage problems with linear
    terms ``linear`` at their controls ``U``; a NaN control gives NaN margins."""
    return sol.law.c - np.abs(linear + U @ sol.coupling)


def resolve_mu(
    sol: RiccatiSolution,
    x,
    mu=None,
    mu_kind: str = "zero",
    tol: float = 1e-10,
    max_iters: int = _MAX_SWEEPS,
):
    """Produce the slope vector used by the stage problem at ``x``.

    Every feedback entry point takes the same slope inputs: an explicit
    ``mu``, or ``mu_kind`` "zero" (no slope) or "asymptotic".  "asymptotic"
    freezes signs at the current state and re-solves the stage problem
    (with ``tol``/``max_iters``) until the control sign pattern repeats, for
    at most 3 sweeps; a state on a sign cycle returns the slope of its last
    pattern.  A Monte Carlo slope is an explicit one:
    ``mu=mu_rollout(sol, x, ...).value`` (:func:`~csviu.mu.mu_rollout`).
    The state runs through :func:`optimal_control_batch` as a batch of one,
    with the same slope, and a wrong-length or non-finite ``x`` or ``mu``
    raises :class:`ArgumentError`.
    """
    x = check_state("x", x, sol.model.n)
    Mu = _slopes(sol, x[None], mu, mu_kind, "mu")
    if Mu is None:
        Mu = optimal_control_batch(sol, x[None], None, mu_kind, tol, max_iters)[1]
    return Mu[0]


@dataclass(frozen=True)
class ControlResult:
    """The stage solution at one state.

    ``margins`` are the inaction margins of the optimality condition
    ``0 in 2 Lambda u + b + c |.|'(u)`` at the solved control,
    ``c_i - |b_i + 2 sum_{j != i} Lambda_ij u_j|``: positive exactly when
    channel i stays off, ``-2 Lambda_ii |u_i|`` when it acts.
    """

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
    tol: float = 1e-10,
    max_iters: int = _MAX_SWEEPS,
) -> ControlResult:
    """Optimal stage control at ``x``.

    The single state is a batch of one through the single-row path of
    :func:`optimal_control_batch` (:func:`_feedback_one`): ``u_star`` and
    ``mu`` are identical to that batch's row, and ``sub`` and ``sor``
    describe its last stage solve.
    The slope is resolved as in :func:`resolve_mu`.  The control agrees with
    its closed form ``-Lambda^{-1} (Sigma x + (B' mu + gamma) / 2)``: every
    sweep certifies ``|u + W (gamma + b)| <= tol`` on its row, and the
    solution's ``law`` is built only once its ``W`` inverts the curvature,
    ``e = |2 W Lambda - I| <= 1e-9`` (max row sums), so the gap is at most
    ``(tol + e |u|) / (1 - e)`` with no solve per call; an inconsistent law
    raises :class:`CsviuError`.  ``margins`` are the inaction margins of
    :class:`ControlResult` at the final stage problem's linear term and
    control.  A state of the wrong length or with a non-finite entry raises
    :class:`ArgumentError` before any sweep.
    """
    x = check_state("x", x, sol.model.n)[None]
    z, gamma, u, Mu, Bu, iterations, residual = _feedback_one(
        sol, x, _slopes(sol, x, mu, mu_kind, "mu"), tol, max_iters
    )
    _raise_unconverged([u], residual, tol, max_iters)
    law, b = sol.law, Bu[0]
    sor = _sor_state(law, z, gamma, u, iterations, residual)
    return ControlResult(
        u_star=sor.nu, gamma=sor.gamma, mu=Mu[0], margins=_margins(sol, b, sor.nu),
        sub=ControlSubproblem(W=law.W, b=b, c=law.c, Lambda=sol.Lambda), sor=sor,
    )


def inaction_test(sol: RiccatiSolution, x, mu, channel: int | None = None):
    """Whether each control channel stays switched off at ``x`` with slope ``mu``.

    Solves the stage problem, ``optimal_control(sol, x, mu=mu)``, so it can
    raise :class:`MaxIterations`, and returns its margins
    (``ControlResult.margins``, ``c_i - |b_i + 2 sum_{j != i} Lambda_ij u_j|``
    at the solved control): positive inside the inaction region, negative
    outside.  An ``x`` or ``mu`` of the wrong length or with a non-finite
    entry, and a ``channel`` that is not an integer in [0, m), raise
    :class:`ArgumentError` before the solve.
    """
    n, m = sol.model.n, sol.model.m
    x = check_state("x", x, n)
    mu = check_state("mu", mu, n)
    if channel is not None and check_count("channel", channel, 0) >= m:
        raise ArgumentError(f"channel must be below the control count {m}, got {channel!r}")
    margins = optimal_control(sol, x, mu=mu).margins
    inactive = margins > 0
    if channel is not None:
        return bool(inactive[channel]), float(margins[channel])
    return inactive, margins


def optimal_control_batch(
    sol: RiccatiSolution,
    X,
    Mu=None,
    mu_kind: str = "zero",
    tol: float = 1e-10,
    max_iters: int = _MAX_SWEEPS,
):
    """Optimal controls for a whole (paths, n) state batch at once.

    Returns ``(U, Mu)`` with shapes (paths, m) and (paths, n), empty when
    ``X`` has no rows; both are the call's own arrays, a given ``Mu`` copied.
    The slope inputs are those of :func:`resolve_mu` (Monte Carlo slopes
    are a ``Mu`` of :func:`~csviu.mu.mu_rollout` values).  A single
    state is a batch of one: :func:`optimal_control` and :func:`resolve_mu`
    run it on one row, with identical results, and a batch of one
    row runs on the single-row kernel end to end (:func:`_feedback_one`).  Each stage solve
    stops every row at its own convergence sweep and, with
    ``mu_kind="asymptotic"``, every row follows the slope-sweep rule on its
    own, so a row on a sign cycle leaves the other rows' results unchanged
    (they agree with their batches of one to rounding, since the column
    kernel sums in another order).  The curvature data come from the
    solution's cached ``law``.
    A row of ``X`` or ``Mu`` with a non-finite entry raises :class:`ArgumentError`
    before any sweep.  Rows that miss ``tol`` raise one :class:`MaxIterations` naming
    how many did; :func:`~csviu.region.scan_region` flags them instead.
    """
    X = np.atleast_2d(as_floats("X", X))
    if not np.isfinite(X).all():
        row = int(np.argmin(np.isfinite(X).all(axis=1)))
        raise ArgumentError(f"X must be finite, got {X[row]} in row {row}")
    U, Mu, residual = _feedback(sol, X, _slopes(sol, X, Mu, mu_kind), tol, max_iters)
    _raise_unconverged(U, residual, tol, max_iters)
    return U, Mu
