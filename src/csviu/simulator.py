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
chunk of stages at a time (``_noise_chunks``), so the noise a rollout holds
is bounded by ``_CHUNK_BYTES``, not the horizon.  The streams are counter
based, so the chunked draws equal one long draw per path, which
:func:`draw_noise_block` returns whole.

A run of one chunk is drawn in-process.  A longer run, on Linux in a process
with one OS thread and at least two usable CPUs, is drawn one chunk ahead:
the caller draws the first chunk, then forks a helper process that continues
every path's stream into one of two half-chunk slots of shared memory while
the caller steps through the other (``_drawn_ahead``).  The helper only
draws, so the caller's stage solves stay in the caller; the two slots hold
no more than the one in-process chunk, and every draw keeps its bits.

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
stage by stage through its transposed view, or, drawn ahead, copied into a
stage-major slot by the helper, so no per-path array is allocated or copied.

Only :func:`simulate` keeps the states, controls and outputs of every stage.
Every estimator keeps per-path running sums, added one stage at a time in
stage order, and at most a few floats per stage: its memory is bounded by
the paths, not paths x stages.  :meth:`PathEnsemble.output_energy` runs the
energy's running sum over the stored stages, so the estimates equal those
computed from :func:`simulate`'s arrays bit for bit.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import numbers
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .control import check_mu_kind, check_tol, optimal_control_batch
from .errors import (ArgumentError, MaxIterations, SeriesDivergent, as_floats, check_count, check_matrix,
                     check_real, check_state)
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

# noise a rollout holds at once (at least one stage): a chunk of 65 stages of
# a 2000-path, d = 4 run drawn in-process, or two slots of 32 stages when a
# helper draws ahead.  Every chunk costs one in-place draw call per path, a
# few microseconds each, so much smaller chunks make the draws slower.
_CHUNK_BYTES = 4 << 20


def _fill(kind: str):
    """The (rng, out) function that fills ``out`` with the next draws of a noise kind."""
    try:
        return _FILLS[kind]
    except KeyError:
        raise ArgumentError(f"unknown noise kind {kind!r}; expected one of {NOISE_KINDS}") from None


def _noise_chunks(model: SystemModel, stages: int, paths: int, seed: int, kind: str):
    """The draws of a run, stage-major, as (k, paths, r+n+m) chunks, at most ``_CHUNK_BYTES`` held.

    The kind and seed are checked and the per-path streams opened on the
    call; each chunk is drawn by continuing every path's stream, each path's
    block in place, into a path-major (paths, k, r+n+m) buffer, and a caller
    reads a chunk before it asks for the next.  Philox streams are counter
    based, so the chunks concatenate to the draws of one long call per path.

    A run of one ``_CHUNK_BYTES`` chunk, or a process that may not fork a
    helper (:func:`_helper_can_run`), draws in-process: one buffer, each
    chunk drawn when the iterator reaches it and handed out as its transposed
    view.  A longer run in a process that may fork is drawn one chunk ahead
    by :func:`_drawn_ahead`, in two stage-major slots of half a chunk each:
    the caller draws the first, a forked helper the rest.
    Both call one path-by-path draw, so the draws are the same either way.
    """
    fill = _fill(kind)
    stream = _streams(_check_key("seed", seed))
    rngs = [stream(p) for p in range(paths)]
    d = model.r + model.n + model.m
    per_chunk = max(1, _CHUNK_BYTES // max(1, paths * d * 8))

    def draw(block):
        for rng, path_block in zip(rngs, block):
            fill(rng, path_block)

    # a run with no paths has nothing to draw ahead
    if paths and stages > per_chunk and _helper_can_run():
        return _drawn_ahead(draw, stages, max(1, per_chunk // 2), paths, d)
    buffer = np.empty((paths, min(per_chunk, stages), d))

    def chunks():
        for start in range(0, stages, per_chunk):
            block = buffer[:, : min(per_chunk, stages - start)]
            draw(block)
            yield block.transpose(1, 0, 2)

    return chunks()


def _helper_can_run() -> bool:
    """Whether this process may fork a draw helper: Linux, one OS thread, two usable CPUs.

    Forking a process with other threads can deadlock the child on a lock
    one of them held (Python 3.12 and later warn about it), and on one CPU
    the helper would only take turns with the caller.
    """
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except FileNotFoundError:
        return False


def _drawn_ahead(draw, stages: int, size: int, paths: int, d: int):
    """The chunks of ``size`` stages of a run, every one after the first drawn by a forked helper.

    The chunks take turns in two stage-major (size, paths, d) slots of one
    anonymous shared mapping, so each stage is one contiguous block; a chunk
    is drawn path-major by ``draw`` into a scratch buffer, then copied into
    its slot.  The caller stages chunk 0 in slot 1, viewed path-major, and
    forks; the helper inherits the streams past chunk 0, allocates its own
    scratch and fills chunks 1, 2, ... into their slots, sending a byte on
    the ready pipe when a chunk is in place and reading one from the free
    pipe before it refills the slot of a chunk the caller may still read.
    It only draws and leaves through ``os._exit``, so it runs no ``atexit``
    handler and flushes no buffer it inherited.

    If the fork fails, or the helper dies (the ready pipe ends), the caller
    re-draws from its own streams the chunks it already received, to catch
    up, and draws the rest itself, staging each in the slot it has passed:
    the draws are the same either way.  The helper is killed and reaped when
    the iterator ends, is closed or is unwound by an exception, so no process
    outlives the rollout.  ``mmap`` and ``signal`` are imported on first use,
    so ``import csviu`` does not load them.
    """
    import mmap
    import signal

    count = -(-stages // size)
    slots = np.ndarray((2, size, paths, d), buffer=mmap.mmap(-1, 2 * size * paths * d * 8))

    def block(j):
        return slots[j % 2, : min(size, stages - j * size)]

    def stage(j, scratch):  # chunk j, drawn into a (paths, size, d) scratch and copied into its slot
        chunk = block(j)
        draw(scratch[:, : len(chunk)])
        chunk[...] = scratch[:, : len(chunk)].transpose(1, 0, 2)

    stage(0, slots[1].reshape(paths, size, d))
    ready_r, ready_w = os.pipe()
    free_r, free_w = os.pipe()
    try:
        helper = os.fork()
    except OSError:
        helper = None
    if helper == 0:
        try:
            os.close(ready_r)
            os.close(free_w)
            scratch = np.empty((paths, size, d))
            for j in range(1, count):
                # chunk j refills the slot of chunk j - 2; the caller frees it by moving past
                if j >= 2 and not os.read(free_r, 1):
                    break
                stage(j, scratch)
                os.write(ready_w, b"\0")
        finally:
            os._exit(0)
    live = helper is not None
    drawn = 1  # chunks the caller's own streams have passed
    try:
        os.close(ready_w)
        os.close(free_r)
        yield block(0)
        for j in range(1, count):
            if live:
                if j + 1 < count:
                    # the caller is past chunk j - 1; a dead helper leaves the pipe broken
                    with contextlib.suppress(BrokenPipeError):
                        os.write(free_w, b"\0")
                live = os.read(ready_r, 1) != b""
            if not live:
                scratch = slots[(j + 1) % 2].reshape(paths, size, d)  # chunk j - 1's, passed
                for _ in range(drawn, j):
                    draw(scratch)
                stage(j, scratch)
                drawn = j + 1
            yield block(j)
    finally:
        os.close(ready_r)
        os.close(free_w)
        if helper is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(helper, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(helper, 0)


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
    """One transition from the stacked per-stage noise vector: a batch of one.

    ``x``, ``u`` and ``noise`` need lengths n, m and r+n+m and finite
    entries; otherwise :class:`ArgumentError` names the argument.
    """
    x = check_state("x", x, model.n)
    u = check_state("u", u, model.m)
    noise = check_state("noise", noise, model.r + model.n + model.m)
    return step_batch(model, x[None], u[None], noise[None])[0]


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
        G = np.atleast_2d(as_floats("G", G))
        return Policy("linear", lambda X: X @ G.T)

    @staticmethod
    def optimal(sol, mu_kind: str = "zero", tol: float = 1e-10) -> "Policy":
        """One :func:`~csviu.control.optimal_control_batch` call per state batch.

        ``mu_kind`` and ``tol`` are checked when the policy is built, so a
        bad one raises :class:`ArgumentError` before a rollout draws any
        noise.
        """
        check_mu_kind(mu_kind)
        check_tol(tol)

        def fn(X):
            return optimal_control_batch(sol, X, mu_kind=mu_kind, tol=tol)[0]

        return Policy(f"optimal[{mu_kind}]", fn)


def _rollout(model: SystemModel, policies, X, stages: int, seed: int, noise_kind: str):
    """Yield each of ``stages`` stages as the list of every policy's (X, U) batch, stepping between them.

    Every policy starts from the (paths, n) stage-0 batch ``X``, and all of
    them read one noise stream, so they run under common random numbers.  The
    run draws ``stages - 1`` noise rows per path, and the transition out of
    stage k uses row k; the rows come from :func:`_noise_chunks`, so the run
    holds at most ``_CHUNK_BYTES`` of noise whatever its horizon, and closes
    the chunk iterator when it ends, is closed or raises.  A policy must
    map the batch to (paths, m) controls; any other shape raises
    :class:`ArgumentError` naming the policy kind.  A policy whose stage
    solve misses its tolerance raises a :class:`MaxIterations` that names
    the stage and the policy kind and keeps ``iterations`` and ``residual``.
    """
    paths = X.shape[0]
    chunks = _noise_chunks(model, max(stages - 1, 0), paths, seed, noise_kind)
    rows = (row for chunk in chunks for row in chunk)
    states = [X] * len(policies)
    try:
        for k in range(stages):
            batches = []
            for policy, X in zip(policies, states):
                try:
                    U = np.asarray(policy.fn(X), dtype=float)
                except MaxIterations as exc:
                    raise MaxIterations(f"stage {k} of a rollout under policy {policy.kind!r}: {exc}",
                                        iterations=exc.iterations, residual=exc.residual) from exc
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
    finally:
        # a traceback keeps this frame's locals alive; a draw helper must not outlive the rollout
        chunks.close()


def _start(model: SystemModel, x0, paths: int) -> np.ndarray:
    """The (paths, n) stage-0 batch of a rollout from ``x0``; ``paths`` and ``x0`` checked."""
    paths = check_count("paths", paths, 1)
    return np.tile(check_state("x0", x0, model.n), (paths, 1))


def _squares(A) -> np.ndarray:
    """|a|^2 of every row of a (paths, q) batch."""
    return np.einsum("pq,pq->p", A, A)


def _quadratic_forms(X, P) -> np.ndarray:
    """x' P x of every row x of a (paths, q) batch: one product X @ P, then a two-operand reduction.

    At q = 1 the product is the broadcast X * P[0], the same numbers without
    the overhead of a matmul call on a single column.
    """
    XP = X * P[0] if P.shape == (1, 1) else X @ P
    return np.einsum("pq,pq->p", XP, X)


def _y_squares(model: SystemModel, X, U) -> np.ndarray:
    """|y|^2 of every path of a stage's (X, U) batch."""
    return _squares(X @ model.C.T + U @ model.D.T)


def _stage_squares(model: SystemModel, policy: Policy, x0, stages: int, paths: int, seed: int,
                   noise_kind: str = "gaussian", table=None):
    """Yield |y_k|^2 of every path, a (paths,) vector, at each of ``stages`` stages of a rollout from ``x0``.

    With a (stages, 3) ``table`` it also fills row k with the path means of
    |y_k|^2, |x_k|^2 and |u_k|^2, each taken over a contiguous vector of
    paths as from a stage row of the ensemble.
    """
    X = _start(model, x0, paths)
    for k, [(X, U)] in enumerate(_rollout(model, [policy], X, stages, seed, noise_kind)):
        y2 = _y_squares(model, X, U)
        if table is not None:
            table[k] = y2.mean(), _squares(X).mean(), _squares(np.ascontiguousarray(U)).mean()
        yield y2


def _discounted(squares, alpha: float) -> np.ndarray:
    """Per-path running sums of alpha^k |y_k|^2 over the (paths,) vectors of ``squares``, in stage order."""
    return sum(alpha**k * y2 for k, y2 in enumerate(squares))


def _energy_estimate(totals, kappa: int) -> "EnergyEstimate":
    """Mean and standard error across paths of the discounted per-path totals over stages 0..kappa."""
    return EnergyEstimate(
        mean=float(totals.mean()), stderr=float(mean_stderr(totals)), kappa=kappa, paths=totals.shape[0]
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

    def output_energy(self, alpha: float) -> np.ndarray:
        """Per-path discounted output energy over stages 0..kappa; alpha finite and > 0.

        The stored stages run through the estimators' running sum, so
        :func:`estimate_energy` equals this bit for bit.
        """
        alpha = _check_discount(alpha)
        return _discounted((_squares(self.outputs[:, k]) for k in range(self.kappa + 1)), alpha)

    def energy_estimate(self, alpha: float) -> "EnergyEstimate":
        """Mean and standard error across paths of :meth:`output_energy`."""
        return _energy_estimate(self.output_energy(alpha), self.kappa)


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
    only the per-path running sums.  ``alpha`` must be finite and positive,
    checked with the counts and ``x0`` before any draw.
    """
    alpha = _check_discount(alpha)
    kappa = check_count("kappa", kappa, 0)
    squares = _stage_squares(model, policy, x0, kappa + 1, paths, seed, noise_kind)
    return _energy_estimate(_discounted(squares, alpha), kappa)


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
    per-path sums over the window k >= burn_in and the mean power series.
    """
    kappa = check_count("kappa", kappa, 1)
    burn_in = check_count("burn_in", burn_in, 0)
    if burn_in >= kappa:
        raise ArgumentError(f"burn_in must lie in [0, kappa), got {burn_in}")
    series = np.empty(kappa)
    window = 0.0
    for k, y2 in enumerate(_stage_squares(model, policy, x0, kappa, paths, seed, noise_kind)):
        series[k] = y2.mean()
        if k >= burn_in:
            window = window + y2
    averages = window / (kappa - burn_in)
    stderr = float(mean_stderr(averages))
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
        _quadratic_forms(X_next, P_next)
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
    policy = Policy.optimal(sol, mu_kind=mu_kind, tol=sor_tol)

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
                    _quadratic_forms(dev, sol.Lambda)
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
