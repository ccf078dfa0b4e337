"""Timing of operations on a machine whose speed drifts.

On a 2-vCPU machine shared with other tenants, the speed of a single-threaded
process alternates, for tens of seconds to minutes at a time, between a fast
state and one roughly 40% slower.  Run-level medians of raw seconds then
spread 10-40% across runs.  A fixed reference kernel, timed every
``REF_EVERY`` seconds between operations, follows those spells; each
operation is reported as a multiple of the reference time measured around it
(unit "ref").  Interleaved this way, the ratios of fixed operations spread
3-7% over 20-second windows where their raw times spread 18-22%.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

REF_EVERY = 0.5  # seconds of work between two reference measurements


class ReferenceKernel:
    """Fixed numpy work that never touches the package.

    A dense eigensolve, a memory-bound matrix-vector sweep and a loop of
    small-array operations: the three kinds of work the workloads do.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.dense = rng.standard_normal((200, 200))
        self.big = rng.standard_normal((1600, 1600))
        self.small = 0.1 * rng.standard_normal((6, 6))

    def seconds(self) -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            np.linalg.eigvals(self.dense)
            v = np.ones(self.big.shape[0])
            for _ in range(10):
                v = self.big @ v
                v /= np.linalg.norm(v)
            x = np.ones((64, 6))
            for _ in range(3000):
                x = np.clip(x @ self.small, -1.0, 1.0)
            times.append(time.perf_counter() - start)
        return statistics.median(times)


class Pass:
    """Per-operation times, counts, failures and output fingerprints of one pass."""

    def __init__(self, tracer=None, kernel: ReferenceKernel | None = None):
        self.tracer = tracer
        self.kernel = kernel
        self.ops: dict[str, tuple[str, float, int]] = {}   # name -> (group, seconds, ref index)
        self.refs: list[float] = []
        self.units = defaultdict(float)
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: list[str] = []
        self.fingerprints: list[tuple[str, bytes]] = []
        self._next_ref = 0.0

    @property
    def groups(self) -> dict:
        out = defaultdict(float)
        for group, seconds, _ in self.ops.values():
            out[group] += seconds
        return out

    @property
    def wall(self) -> float:
        return sum(seconds for _, seconds, _ in self.ops.values())

    def _reference(self, force=False):
        if self.kernel is not None and (force or time.perf_counter() >= self._next_ref):
            self.refs.append(self.kernel.seconds())
            self._next_ref = time.perf_counter() + REF_EVERY

    def op(self, group, name, call, check, expect=()):
        """Run ``call`` timed, then ``check`` its result (or its expected error).

        ``check`` returns ``(problem, fingerprint)``: a reason string or None,
        and the numbers that must repeat bit for bit on every pass.
        """
        self._reference()
        self.attempted += 1
        problem, fingerprint = None, ()
        start = time.perf_counter()
        try:
            out = call()
        except expect as exc:
            out = exc
        except Exception as exc:  # any other error is a failed operation
            out = None
            problem = f"{type(exc).__name__}: {exc}"
        self.ops[name] = (group, time.perf_counter() - start, len(self.refs) - 1)
        if problem is None:
            try:
                problem, fingerprint = check(out)
            except Exception as exc:  # a malformed result fails its check
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            self.failures.append(f"{name}: {problem}")
        else:
            self.fingerprints.append((name, _digest(fingerprint)))
        if self.tracer is not None:
            self.tracer.end_job(problem is None)
        return out

    def close(self):
        """Take the closing reference measurement of the pass."""
        self._reference(force=True)

    def in_ref(self, name) -> float:
        """An operation's time over the mean reference time around it."""
        _, seconds, i = self.ops[name]
        return seconds / statistics.fmean(self.refs[i:i + 2])


def median_pass(passes: list[Pass], in_ref: bool = False) -> Pass:
    """A pass whose every operation takes its median time over ``passes``.

    Taking the median per operation, not per pass, keeps a burst of load
    from other processes that hits one operation out of the figures.  With
    ``in_ref`` each time is first expressed in reference-kernel units.
    """
    rec = Pass()
    rec.units = passes[0].units
    for name, (group, _, _) in passes[0].ops.items():
        times = [p.in_ref(name) if in_ref else p.ops[name][1] for p in passes if name in p.ops]
        rec.ops[name] = (group, statistics.median(times), 0)
    return rec


def _digest(values) -> bytes:
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in values)
