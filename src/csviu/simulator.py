"""Path simulation and Monte Carlo estimation of the cost criteria.

Randomness is counter based: every path owns a Philox stream keyed by
(seed, path index), and within a path each stage consumes the disturbance,
state-noise and control-noise draws in that order.  A run of kappa
transitions consumes kappa noise rows per path, and the transition out of
stage k uses row k.  Adding paths or lengthening the horizon therefore never
reshuffles draws that an earlier, smaller run already consumed.

Every multi-stage rollout (:func:`simulate`, :func:`optimal_norms`,
:func:`overtaking_compare` and :func:`~csviu.mu.mu_rollout`) runs through
one stage loop, ``_rollout``, which steps one or more policies side by side
on one noise stream.  It keeps every path's stream open and draws the noise a
chunk of stages at a time (``_noise_chunks``, at most ``_CHUNK_BYTES``), so
the noise a rollout holds is bounded by the chunk, not the horizon.  The
streams are counter based, so the chunked draws equal one long draw per path,
which :func:`draw_noise_block` returns whole.

A transition (:func:`step_batch`) is two BLAS products, not seven: the state
term ``X A'`` and one product of the stacked operand ``[U, noise, |X| o Ex,
|U| o Eu]``, held transposed, with the model's cached ``transition`` matrix.
The stacked product rounds differently from the seven-term sum, in the last
digits; a noise-free step is still exactly the mean map.

The fixed costs per path are kept small.  A stream is opened with its key
alone (``_streams``), where numpy's ``key=`` argument would first build an
entropy-seeded ``SeedSequence`` and throw it away.  The seed is checked once
per rollout, before any stream opens.  A chunk is drawn into one path-major
(paths, k, r+n+m) buffer, each path's block in place with one call, and read
stage by stage through its transposed view, so no per-path array is
allocated or copied.

Only :func:`simulate` keeps the states, controls and outputs of every stage.
The energy, power and overtaking estimators read nothing but |y_k|^2 of
every path and stage, which ``_output_squares`` records as the rollout runs.
Each product and reduction takes the same operands as on the ensemble, so
the estimates equal those computed from :func:`simulate`'s arrays bit for
bit.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ArgumentError, SeriesDivergent, check_count, check_matrix, check_real, check_state
from .model import NOISE_KINDS, SystemModel
from .operators import OperatorSet

_SQRT3 = math.sqrt(3.0)


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """Independent stream for one path; stable under changes of path count.

    ``seed`` and ``path_index`` must be integers, not bools, in [0, 2**64).
    The stream is numpy's Philox generator with key ``(seed << 64) | path_index``.
    """
    return _streams(_check_key("seed", seed))(_check_key("path_index", path_index))


def _check_key(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not 0 <= value < 2**64:
        raise ArgumentError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return int(value)


def _streams(seed: int):
    """The path_index -> stream constructor of a checked ``seed``.

    ``Philox(key=...)`` first builds an entropy-seeded ``SeedSequence`` and
    then overrides it.  Philox seeded with a :func:`_key_sequence` reads the
    same two key words, low word first, with no entropy drawn: the same
    stream, opened in about a quarter of the time (5.5 against 23 us on a
    2-vCPU x86-64 machine, numpy 2.4).  Philox copies the words when it is
    built, so one key object, set to each path index in turn, serves every
    stream of the seed, and no path keeps one.  ``numpy.random`` is imported
    here, on first use, so that ``import csviu`` does not load it.
    """
    from numpy.random import Generator, Philox

    key = _key_sequence()(seed)

    def stream(path_index):
        key.path_index = path_index
        return Generator(Philox(key))

    return stream


@functools.cache
def _key_sequence():
    """The seed-sequence type whose state is the key words (path_index, seed)."""
    from numpy.random.bit_generator import ISeedSequence

    class KeySequence(ISeedSequence):
        __slots__ = ("path_index", "seed")

        def __init__(self, seed):
            self.seed = seed

        def generate_state(self, n_words, dtype=np.uint32):
            # Philox asks for its key, two uint64 words, and reads them as ints
            return [self.path_index, self.seed]

    return KeySequence


def _check_discount(alpha) -> float:
    return check_real("alpha", alpha, 0.0)


def _check_tail_tol(tail_tol) -> float:
    return check_real("tail_tol", tail_tol, 0.0, 1.0)


def _gaussian(rng, out):
    rng.standard_normal(out=out)


def _rademacher(rng, out):
    # int64 draws: a narrower dtype buffers bits between calls, and a stream
    # continued chunk by chunk would then differ from one long draw
    out[...] = rng.integers(0, 2, size=out.shape).astype(float) * 2.0 - 1.0


def _uniform_scaled(rng, out):
    out[...] = rng.uniform(-_SQRT3, _SQRT3, size=out.shape)


_FILLS = {"gaussian": _gaussian, "rademacher": _rademacher, "uniform-scaled": _uniform_scaled}

# noise a rollout holds at once: 65 stages of a 2000-path, d = 4 run.  Every
# chunk costs one in-place draw call per path, a few microseconds each, so
# much smaller chunks make the draws slower.
_CHUNK_BYTES = 4 << 20


def _fill(kind: str):
    """The (rng, out) function that fills ``out`` with the next draws of a noise kind."""
    try:
        return _FILLS[kind]
    except KeyError:
        raise ArgumentError(f"unknown noise kind {kind!r}; expected one of {NOISE_KINDS}") from None


def _noise_chunks(model: SystemModel, stages: int, paths: int, seed: int, kind: str):
    """The draws of a run, stage-major, as (k, paths, r+n+m) chunks of at most ``_CHUNK_BYTES``.

    The kind and seed are checked and the per-path streams opened on the
    call; each chunk is drawn when the returned iterator reaches it, by
    continuing every path's stream.  Philox streams are counter based, so the
    chunks concatenate to the draws of one long call per path.  Every chunk
    is drawn into one path-major (paths, k, r+n+m) buffer, each path's block
    in place, and handed out as its (k, paths, r+n+m) transposed view, so a
    caller reads a chunk before the next.
    """
    fill = _fill(kind)
    stream = _streams(_check_key("seed", seed))
    rngs = [stream(p) for p in range(paths)]
    d = model.r + model.n + model.m
    per_chunk = max(1, _CHUNK_BYTES // max(1, paths * d * 8))
    buffer = np.empty((paths, min(per_chunk, stages), d))

    def chunks():
        for start in range(0, stages, per_chunk):
            block = buffer[:, : min(per_chunk, stages - start)]
            for rng, path_block in zip(rngs, block):
                fill(rng, path_block)
            yield block.transpose(1, 0, 2)

    return chunks()


def draw_noise_block(model: SystemModel, stages: int, paths: int, seed: int, kind: str = "gaussian"):
    """All draws for a run, shaped (paths, stages, r+n+m): the rollout's stream, path-major.

    ``stages`` and ``paths`` must be integers (not bools) of at least 0, and
    ``seed`` an integer in [0, 2**64); otherwise :class:`ArgumentError` names
    the argument.
    """
    stages = check_count("stages", stages, 0)
    paths = check_count("paths", paths, 0)
    block = np.empty((paths, stages, model.r + model.n + model.m))
    start = 0
    for chunk in _noise_chunks(model, stages, paths, seed, kind):
        block[:, start : start + len(chunk)] = chunk.transpose(1, 0, 2)
        start += len(chunk)
    return block


def mean_stderr(samples):
    """Standard error of the mean across the rows of ``samples``; zero from one row."""
    rows = samples.shape[0]
    if rows < 2:
        return np.zeros(samples.shape[1:])
    return samples.std(axis=0, ddof=1) / math.sqrt(rows)


def step(model: SystemModel, x, u, noise):
    """One transition from the stacked per-stage noise vector: a batch of one."""
    x, u, noise = (np.asarray(a, dtype=float).reshape(1, -1) for a in (x, u, noise))
    return step_batch(model, x, u, noise)[0]


def step_batch(model: SystemModel, X, U, noise):
    """One transition of every row of a (paths, ...) state, control and noise batch.

    The seven-term sum ``X A' + U B' + W sigma' + Ex sigma_x' + (|X| o Ex)
    sigma_bar_x' + Eu sigma_u' + (|U| o Eu) sigma_bar_u'`` is formed as two
    products with the model's cached ``transition`` matrix: the state term
    ``X A'``, plus one product of the stacked (paths, n+2m + r+n+m) operand
    ``[U, noise, |X| o Ex, |U| o Eu]`` with the rows of ``transition`` below
    A'.  The stacked product sums its six terms of each entry in one pass, so
    the step rounds differently from the seven-term sum, in the last digits;
    a noise-free step is still exactly ``X A' + U B'``.  The operand is held
    transposed, one contiguous row per column, so every block is one copy
    and every product one BLAS call.
    """
    n, q = model.n, model.n + model.m
    d = noise.shape[-1]
    operand = np.empty((2 * q + d, X.shape[0]))  # [X, U, noise, |X| o Ex, |U| o Eu], transposed
    operand[:n] = X.T
    operand[n:q] = U.T
    operand[q : q + d] = noise.T
    magnitudes = operand[q + d :]
    np.abs(operand[:q], out=magnitudes)
    magnitudes *= operand[q + model.r : q + d]
    T = model.transition
    out = operand[:n].T @ T[:n]
    out += operand[n:].T @ T[n:]
    return out


@dataclass(frozen=True)
class Policy:
    """State feedback applied batch-wise: fn maps (paths, n) to (paths, m)."""

    kind: str
    fn: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def zero(m: int) -> "Policy":
        return Policy("zero", lambda X: np.zeros((X.shape[0], m)))

    @staticmethod
    def linear(G) -> "Policy":
        G = np.atleast_2d(np.asarray(G, dtype=float))
        return Policy("linear", lambda X: X @ G.T)

    @staticmethod
    def optimal(sol, mu_kind: str = "zero", omega: float = 1.0, tol: float = 1e-10) -> "Policy":
        """One :func:`~csviu.control.optimal_control_batch` call per state batch.

        ``mu_kind``, ``omega`` and ``tol`` are checked when the policy is
        built, so a bad one raises :class:`ArgumentError` before a rollout
        draws any noise.
        """
        from .control import check_mu_kind, check_relaxation, optimal_control_batch

        check_mu_kind(mu_kind)
        check_relaxation(omega, tol)

        def fn(X):
            return optimal_control_batch(sol, X, mu_kind=mu_kind, omega=omega, tol=tol)[0]

        return Policy(f"optimal[{mu_kind}]", fn)


def _rollout(model: SystemModel, policies, X, stages: int, seed: int, noise_kind: str):
    """Yield each of ``stages`` stages as the list of every policy's (X, U) batch, stepping between them.

    Every policy starts from the (paths, n) stage-0 batch ``X``, and all of
    them read one noise stream, so they run under common random numbers.  The
    run draws ``stages - 1`` noise rows per path, and the transition out of
    stage k uses row k; the rows come from :func:`_noise_chunks`, so the run
    holds one chunk of noise at a time whatever its horizon.  A policy must
    map the batch to (paths, m) controls; any other shape raises
    :class:`ArgumentError` naming the policy kind.
    """
    paths = X.shape[0]
    chunks = _noise_chunks(model, max(stages - 1, 0), paths, seed, noise_kind)
    rows = (row for chunk in chunks for row in chunk)
    states = [X] * len(policies)
    for k in range(stages):
        batches = []
        for policy, X in zip(policies, states):
            U = np.asarray(policy.fn(X), dtype=float)
            if U.shape != (paths, model.m):
                raise ArgumentError(
                    f"policy {policy.kind!r} returned controls of shape {U.shape}, "
                    f"expected {(paths, model.m)}"
                )
            batches.append((X, U))
        yield batches
        if k + 1 < stages:
            noise = next(rows)
            states = [step_batch(model, X, U, noise) for X, U in batches]


def _start(model: SystemModel, x0, paths: int) -> np.ndarray:
    """The (paths, n) stage-0 batch of a rollout from ``x0``; ``paths`` and ``x0`` checked."""
    paths = check_count("paths", paths, 1)
    return np.tile(check_state("x0", x0, model.n), (paths, 1))


def _squares(A) -> np.ndarray:
    """|a|^2 of every row of a (paths, q) batch."""
    return np.einsum("pq,pq->p", A, A)


def _y_squares(model: SystemModel, X, U) -> np.ndarray:
    """|y|^2 of every path of a stage's (X, U) batch."""
    return _squares(X @ model.C.T + U @ model.D.T)


def _output_squares(
    model: SystemModel, policy: Policy, x0, stages: int, paths: int, seed: int,
    noise_kind: str = "gaussian", means: bool = False,
):
    """|y_k|^2 of every path and stage of a rollout from ``x0``: a (paths, stages) matrix.

    The run holds this matrix and one chunk of noise, not the ensemble.  With
    ``means`` it also returns the (stages, 3) path means of |y|^2, |x|^2 and
    |u|^2 at each stage, each taken over a contiguous vector of paths as
    from a stage row of the ensemble; otherwise None.
    """
    X = _start(model, x0, paths)
    sq = np.empty((X.shape[0], stages))
    table = np.empty((stages, 3)) if means else None
    for k, [(X, U)] in enumerate(_rollout(model, [policy], X, stages, seed, noise_kind)):
        y2 = _y_squares(model, X, U)
        sq[:, k] = y2
        if means:
            table[k] = y2.mean(), _squares(X).mean(), _squares(np.ascontiguousarray(U)).mean()
    return sq, table


def _discounted(sq, alpha) -> np.ndarray:
    """Per-path discounted sums over the stages (columns) of ``sq``; alpha finite and > 0."""
    alpha = _check_discount(alpha)
    return sq @ alpha ** np.arange(sq.shape[1])


def _energy_estimate(sq, alpha) -> "EnergyEstimate":
    """Mean and standard error across paths of the discounted (paths, kappa+1) |y_k|^2 matrix."""
    totals = _discounted(sq, alpha)
    return EnergyEstimate(
        mean=float(totals.mean()), stderr=float(mean_stderr(totals)), kappa=sq.shape[1] - 1,
        paths=sq.shape[0],
    )


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated trajectories; arrays indexed (path, stage, coordinate).

    Controls and outputs are stored for the closing stage too, so energy
    sums over stages 0..kappa inclusive read straight off the arrays.
    """

    states: np.ndarray
    controls: np.ndarray
    outputs: np.ndarray
    seed: int
    noise_kind: str

    @property
    def paths(self) -> int:
        return self.states.shape[0]

    @property
    def kappa(self) -> int:
        return self.states.shape[1] - 1

    def _stage_squares(self) -> np.ndarray:
        """|y_k|^2 of every path and stage: the (paths, kappa+1) matrix the estimators keep."""
        return np.einsum("pkq,pkq->pk", self.outputs, self.outputs)

    def output_energy(self, alpha: float) -> np.ndarray:
        """Per-path discounted output energy over stages 0..kappa; alpha finite and > 0."""
        return _discounted(self._stage_squares(), alpha)

    def energy_estimate(self, alpha: float) -> "EnergyEstimate":
        """Mean and standard error across paths of :meth:`output_energy`."""
        return _energy_estimate(self._stage_squares(), alpha)


def simulate(
    model: SystemModel,
    policy: Policy,
    x0,
    kappa: int,
    paths: int,
    seed: int = 0,
    noise_kind: str = "gaussian",
) -> PathEnsemble:
    """Roll out ``paths`` trajectories of ``kappa`` transitions from ``x0``.

    ``kappa`` and ``paths`` must be integers (not bools) of at least 0 and 1,
    and ``x0`` a finite state of length n; otherwise :class:`ArgumentError`
    names the argument.
    """
    kappa = check_count("kappa", kappa, 0)
    X = _start(model, x0, paths)
    paths = X.shape[0]
    states = np.empty((paths, kappa + 1, model.n))
    controls = np.empty((paths, kappa + 1, model.m))
    outputs = np.empty((paths, kappa + 1, model.p))
    batches = _rollout(model, [policy], X, kappa + 1, seed, noise_kind)
    for k, [(X, U)] in enumerate(batches):
        states[:, k] = X
        controls[:, k] = U
        outputs[:, k] = X @ model.C.T + U @ model.D.T
    return PathEnsemble(states=states, controls=controls, outputs=outputs, seed=seed, noise_kind=noise_kind)


@dataclass(frozen=True)
class EnergyEstimate:
    mean: float
    stderr: float
    kappa: int
    paths: int


def estimate_energy(
    model: SystemModel,
    policy: Policy,
    alpha: float,
    kappa: int,
    x0,
    paths: int,
    seed: int = 0,
    noise_kind: str = "gaussian",
) -> EnergyEstimate:
    """Discounted output energy over stages 0..kappa, averaged across paths.

    Equals ``simulate(...).energy_estimate(alpha)`` bit for bit, but holds
    only the (paths, kappa+1) matrix of |y_k|^2.  ``alpha`` must be finite
    and positive, checked with the counts and ``x0`` before any draw.
    """
    _check_discount(alpha)
    kappa = check_count("kappa", kappa, 0)
    sq, _ = _output_squares(model, policy, x0, kappa + 1, paths, seed, noise_kind)
    return _energy_estimate(sq, alpha)


@dataclass(frozen=True)
class PowerEstimate:
    mean: float
    stderr: float
    growth_flag: bool
    kappa: int
    paths: int


def estimate_power(
    model: SystemModel,
    policy: Policy,
    kappa: int,
    x0,
    paths: int,
    seed: int = 0,
    noise_kind: str = "gaussian",
    burn_in: int = 0,
) -> PowerEstimate:
    """Long-run average output power: per-path time averages over k < kappa.

    The growth flag trips when the tail quarter of the mean power series runs
    hot against the preceding quarter, which indicates the time average is
    still climbing instead of settling.  ``kappa`` and ``burn_in`` are
    integers with ``0 <= burn_in < kappa``.  The run holds only the
    (paths, kappa) matrix of |y_k|^2.
    """
    kappa = check_count("kappa", kappa, 1)
    burn_in = check_count("burn_in", burn_in, 0)
    if burn_in >= kappa:
        raise ArgumentError(f"burn_in must lie in [0, kappa), got {burn_in}")
    sq, _ = _output_squares(model, policy, x0, kappa, paths, seed, noise_kind)
    averages = sq[:, burn_in:].mean(axis=1)
    stderr = float(mean_stderr(averages))
    series = sq.mean(axis=0)
    q3 = series[kappa // 2 : 3 * kappa // 4]
    q4 = series[3 * kappa // 4 :]
    growth = bool(q3.size and q4.size and q4.mean() > 1.5 * max(q3.mean(), 1e-300))
    return PowerEstimate(
        mean=float(averages.mean()), stderr=stderr, growth_flag=growth, kappa=kappa, paths=paths
    )


@dataclass(frozen=True)
class OneStepCheck:
    lhs: float
    lhs_stderr: float
    rhs: float
    rhs_stderr: float
    gap: float
    combined_stderr: float
    paths: int


def one_step_variation_oracle(
    model: SystemModel,
    alpha: float,
    P,
    P_next,
    x,
    u,
    r=None,
    r_next=None,
    g: float = 0.0,
    g_next: float = 0.0,
    paths: int = 100000,
    seed: int = 0,
    noise_kind: str = "gaussian",
) -> OneStepCheck:
    """Monte Carlo check of the one-step cost variation identity.

    Left side: sampled expectation of the discounted change of the candidate
    value function plus the stage output cost.  Right side: its closed form
    in the propagation operators.  The slope coupling term on the right needs
    E[r_next o S(x_next)], which is estimated from an independent substream;
    its uncertainty is folded into the reported stderr.  Exact only when the
    next-stage slope is zero, the noise is off, or signs are frozen; with a
    nonzero next-stage slope under live noise the identity holds only up to
    the sign-flip bias, which is the caller's responsibility to keep small.
    """
    paths = check_count("paths", paths, 1)
    n, m = model.n, model.m
    x = check_state("x", x, n)
    u = check_state("u", u, m)
    fill = _fill(noise_kind)
    P = check_matrix("P", P, (n, n))
    P_next = check_matrix("P_next", P_next, (n, n))
    r = np.zeros(n) if r is None else check_state("r", r, n)
    r_next = np.zeros(n) if r_next is None else check_state("r_next", r_next, n)

    ops = OperatorSet(model, alpha)
    forms = ops.noise_quadratic_forms(P_next)
    Sigma, Lambda = ops.sigma_lambda(P_next)
    y = model.C @ x + model.D @ u
    mean_next = model.A @ x + model.B @ u

    # sampled left side
    d = model.r + n + m
    draws = np.empty((paths, d))
    fill(path_rng(seed, 0), draws)
    X_next = step_batch(model, np.tile(x, (paths, 1)), np.tile(u, (paths, 1)), draws)
    v_next = (
        np.einsum("pi,ij,pj->p", X_next, P_next, X_next)
        + np.abs(X_next) @ r_next
        + g_next
    )
    v_now = float(x @ P @ x + r @ np.abs(x) + g)
    lhs_samples = alpha * v_next - v_now + float(y @ y)
    lhs = float(lhs_samples.mean())
    lhs_stderr = float(mean_stderr(lhs_samples))

    # closed-form right side; the slope coupling uses an independent substream
    rhs_det = (
        float(x @ (ops.second_moment_map(P_next) + model.C.T @ model.C - P) @ x)
        + alpha * float(u @ Lambda @ u)
        + float((alpha * forms.Wxd * np.sign(x) - r * np.sign(x)) @ x)
        + alpha * float((forms.Wud * np.sign(u) + 2.0 * Sigma @ x) @ u)
        + alpha * g_next
        + alpha * forms.varpi1
        - g
    )
    if np.any(r_next != 0.0):
        sub_draws = np.empty((paths, d))
        fill(path_rng(seed, 1), sub_draws)
        X_sub = step_batch(model, np.tile(x, (paths, 1)), np.tile(u, (paths, 1)), sub_draws)
        coupling_samples = alpha * ((np.sign(X_sub) * r_next) @ mean_next)
        rhs_mu = float(coupling_samples.mean())
        rhs_stderr = float(mean_stderr(coupling_samples))
    else:
        rhs_mu = 0.0
        rhs_stderr = 0.0
    rhs = rhs_det + rhs_mu
    combined = math.hypot(lhs_stderr, rhs_stderr)
    return OneStepCheck(
        lhs=lhs,
        lhs_stderr=lhs_stderr,
        rhs=rhs,
        rhs_stderr=rhs_stderr,
        gap=lhs - rhs,
        combined_stderr=combined,
        paths=paths,
    )


@dataclass(frozen=True)
class NormEstimates:
    alpha: float
    energy: float | None
    energy_stderr: float | None
    power: float | None
    power_stderr: float | None
    details: dict


def optimal_norms(
    sol,
    paths: int = 1000,
    seed: int = 0,
    mu_kind: str = "asymptotic",
    noise_kind: str = "gaussian",
    kappa: int | None = None,
    tail_tol: float = 1e-6,
    omega: float = 1.0,
    sor_tol: float = 1e-10,
) -> NormEstimates:
    """Formula-based cost criteria under the optimal policy.

    For a discount below one this evaluates the series form of the energy
    criterion: the closed noise-floor term plus the discounted sum of
    simulated stage residuals from the origin.  At discount one it estimates
    the long-run average power as the noise floor plus the settled mean stage
    residual.  Horizons are truncated where the geometric tail falls below
    ``tail_tol``, with the stage residual capped through the slope bound
    :func:`~csviu.mu.mu_bound`; when that horizon is impractical the tail is
    closed with the settled residual mean, and the reported stderr carries
    that term.  A discount above one raises :class:`SeriesDivergent`, and
    a ``paths`` or ``kappa`` that is not an integer (bools included),
    ``paths < 1``, ``kappa < 0`` or, at discount one, ``kappa < 1`` raise
    :class:`ArgumentError`, all before any simulation.

    The stage residual is accounted through the exact one-step moment
    identity of the cost matrix: the curvature-weighted excess of the applied
    control over the slope-free gain, plus the signed growth/baseline cross
    terms in |x| and |u|.  That identity holds for any measurable feedback,
    so the estimate is unbiased for the achieved cost of the policy; the
    piecewise-linear value slope only shapes the policy itself.
    """
    from .mu import mu_bound

    alpha = sol.alpha
    model = sol.model
    varpi = sol.forms.varpi1
    rho_cl = sol.closed_loop_radius
    if alpha > 1.0:
        raise SeriesDivergent(
            "infinite-horizon criteria are undefined for a discount above one; "
            "use overtaking_compare for finite-horizon comparisons"
        )
    paths = check_count("paths", paths, 1)
    _check_tail_tol(tail_tol)
    if kappa is not None:
        kappa = check_count("kappa", kappa, 1 if alpha == 1.0 else 0)
    if alpha * rho_cl * rho_cl >= 1.0 - 1e-9:
        raise SeriesDivergent(
            "the closed loop does not contract in second moment at this discount"
        )
    policy = Policy.optimal(sol, mu_kind=mu_kind, omega=omega, tol=sor_tol)

    def residual_sums(bounds, weights):
        """Per-path sums of weights[k] * rho_k over the stage spans [bounds[i], bounds[i + 1]).

        Returns a (len(bounds) - 1, paths) array, adding one stage at a time in
        stage order; stages before bounds[0] are rolled out and not summed.
        """
        sums = np.zeros((len(bounds) - 1, paths))
        batches = _rollout(model, [policy], np.zeros((paths, model.n)), bounds[-1], seed, noise_kind)
        stages = itertools.islice(batches, bounds[0], None)
        for row, span in enumerate(zip(bounds, bounds[1:])):
            # range first: zip stops at the span's end without drawing the next stage
            for k, [(X, U)] in zip(range(*span), stages):
                dev = U - X @ sol.G.T
                rho = alpha * (
                    np.einsum("pi,ij,pj->p", dev, sol.Lambda, dev)
                    + np.abs(X) @ sol.forms.Wxd
                    + np.abs(U) @ sol.forms.Wud
                )
                sums[row] += weights[k] * rho
        return sums

    details: dict = {"mu_kind": mu_kind, "paths": paths, "seed": seed}

    if alpha < 1.0:
        # cap on |stage residual| from the slope bound, for tail truncation
        h_cap = np.abs(model.B.T) @ mu_bound(sol) + np.abs(sol.forms.Wud)
        rho_cap = abs(float(alpha / 4.0 * h_cap @ np.linalg.solve(sol.Lambda, h_cap))) + 1e-12
        full_horizon = int(
            math.ceil(math.log(tail_tol * (1.0 - alpha) / rho_cap) / math.log(alpha))
        )
        full_horizon = max(full_horizon, 4)
        cap = max(500, int(math.ceil(20.0 / max(1.0 - rho_cl, 1e-3))))
        if kappa is not None:
            stages = kappa
            split = False
        elif full_horizon <= cap:
            stages = full_horizon
            split = False
        else:
            stages = cap
            split = True
        weights = alpha ** np.arange(stages)
        if not split:
            [per_path] = residual_sums([0, stages], weights)
            details.update(kappa=stages, mode="direct")
        else:
            # the discounted head, then the two halves of the unweighted settling window
            head = stages - stages // 4
            weights[head:] = 1.0
            per_path, first, second = residual_sums([0, head, (head + stages) // 2, stages], weights)
            _check_settled(first, second, stages - head, details)
            settled = (first + second) / (stages - head)
            per_path += settled * (alpha**head / (1.0 - alpha))
            details.update(kappa=stages, mode="split", head=head)
        energy = alpha / (1.0 - alpha) * varpi + float(per_path.mean())
        stderr = float(mean_stderr(per_path))
        details["varpi_term"] = alpha / (1.0 - alpha) * varpi
        return NormEstimates(
            alpha=alpha, energy=energy, energy_stderr=stderr, power=None, power_stderr=None,
            details=details,
        )

    stages = kappa if kappa is not None else max(1000, int(math.ceil(40.0 / max(1.0 - rho_cl, 1e-3))))
    # only the two halves of the settling window are summed
    start = stages // 2
    first, second = residual_sums([start, (start + stages) // 2, stages], np.ones(stages))
    _check_settled(first, second, stages - start, details)
    averages = (first + second) / (stages - start)
    power = varpi + float(averages.mean())
    stderr = float(mean_stderr(averages))
    details.update(kappa=stages, mode="stationary", varpi_term=varpi)
    return NormEstimates(
        alpha=alpha, energy=None, energy_stderr=None, power=power, power_stderr=stderr,
        details=details,
    )


def _check_settled(first, second, window, details):
    """Drift test on a settling window of ``window`` stages; raises when the residuals still move.

    ``first`` and ``second`` are the per-path residual sums over its first
    ``window // 2`` stages and over the rest.  A single path has no spread to
    weigh the drift against and is not tested.
    """
    half = window // 2
    if half < 2 or first.shape[0] < 2:
        return
    first = first / half
    second = second / (window - half)
    drift = float(second.mean() - first.mean())
    scale = np.hypot(mean_stderr(first), mean_stderr(second))
    details["settle_drift"] = drift
    details["settle_scale"] = float(scale)
    if abs(drift) > 6.0 * scale + 1e-9 * max(1.0, abs(second.mean())):
        raise SeriesDivergent(
            f"stage residuals keep drifting ({drift:.3e} against scale {scale:.3e}); "
            "the series estimate is unreliable"
        )


@dataclass(frozen=True)
class OvertakingRow:
    kappa: int
    diff: float
    stderr: float
    diff_scaled: float
    stderr_scaled: float


def overtaking_compare(
    model: SystemModel,
    alpha: float,
    policy_a: Policy,
    policy_b: Policy,
    x0,
    kappa_grid,
    paths: int = 1000,
    seed: int = 0,
    noise_kind: str = "gaussian",
) -> list[OvertakingRow]:
    """Finite-horizon cost differences under common random numbers.

    Both policies read one set of noise streams, so the difference column is
    a paired estimate; the scaled columns divide by alpha**kappa to stay finite
    when the discount exceeds one and the horizon grows.  The two rollouts
    run stage by stage side by side, so the comparison holds two stages of
    |y|^2 and one chunk of noise whatever the horizon.  ``alpha`` must be a
    finite real above zero, checked with the grid, the count and ``x0``
    before any draw.
    """
    alpha = _check_discount(alpha)
    grid = list(kappa_grid)
    if not grid or not all(
        isinstance(k, numbers.Real) and not isinstance(k, bool) and float(k).is_integer() and k >= 0
        for k in grid
    ):
        raise ArgumentError(f"kappa_grid must contain nonnegative integers, got {grid}")
    kappa_grid = sorted(int(k) for k in grid)
    k_max = kappa_grid[-1]
    X = _start(model, x0, paths)
    rows = []
    T = np.zeros(X.shape[0])
    grid = set(kappa_grid)
    stages = _rollout(model, [policy_a, policy_b], X, k_max + 1, seed, noise_kind)
    for k, ((X_a, U_a), (X_b, U_b)) in enumerate(stages):
        # scaled accumulator: T_k = sum_{j<=k} alpha^(j-k) (sq_a - sq_b)
        T = T / alpha + (_y_squares(model, X_a, U_a) - _y_squares(model, X_b, U_b))
        if k in grid:
            scale = alpha**k
            mean_scaled = float(T.mean())
            se_scaled = float(mean_stderr(T))
            rows.append(
                OvertakingRow(
                    kappa=k,
                    diff=mean_scaled * scale,
                    stderr=se_scaled * scale,
                    diff_scaled=mean_scaled,
                    stderr_scaled=se_scaled,
                )
            )
    return rows
