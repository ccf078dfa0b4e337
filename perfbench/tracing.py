"""Spans around the package's public functions, installed from outside.

The tracer wraps each function listed in ``TARGETS`` and records one span
per call: name, start, end and the enclosing span.  A function is patched
everywhere its callers look it up: every ``csviu`` module attribute bound to
the original object is replaced (``spectral_radius`` is bound by name in
``riccati``, ``stability``, ``mu`` and ``simulator``; ``optimal_control`` in
``region`` and ``cli``), and methods are patched on their class.  Spans stay
in memory; ``layer_metrics`` turns them into per-layer figures at the end.

Counters come from the arguments and returned objects only.  Time the
wrapper spends deriving them is charged to no span, so a caller's self time
stays free of it; it does show in the traced pass's wall time, which is how
the tracing overhead is reported.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = ("model", "operators", "riccati", "stability", "mu", "control",
           "region", "simulator", "cli")

# (module, attribute path) of every wrapped public function
TARGETS = (
    ("model", "load_model"),
    ("operators", "spectral_radius"),
    ("operators", "OperatorSet.riccati_step"),
    ("operators", "OperatorSet.operator_matrix"),
    ("riccati", "solve_riccati"),
    ("stability", "check_alpha_stability"),
    ("stability", "detectability_search"),
    ("stability", "closed_loop_check"),
    ("mu", "mu_asymptotic"),
    ("control", "sor_solve"),
    ("control", "sor_solve_batch"),
    ("control", "optimal_control"),
    ("control", "optimal_control_batch"),
    ("simulator", "draw_noise_block"),
    ("simulator", "step_batch"),
    ("simulator", "simulate"),
    ("simulator", "optimal_norms"),
    ("region", "scan_region"),
    ("cli", "main"),
)

POWER_SWITCH = 400  # spectral_radius uses power iteration above this dimension


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "error")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.error = None
        self.start = self.end = 0.0

    @property
    def module(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    """Records spans and counters while installed; restores everything on uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = defaultdict(float)
        self.errors = defaultdict(int)
        self._stack: list[Span] = []
        self._patches: list[tuple] = []
        self._job_start = 0

    # -- installation -------------------------------------------------------
    def install(self):
        mods = {name: importlib.import_module(f"csviu.{name}") for name in MODULES}
        bound = [m for name, m in sys.modules.items() if name == "csviu" or name.startswith("csviu.")]
        for module, path in TARGETS:
            owner = mods[module]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{module}.{attr}", original)
            if cls_path:
                self._patch(owner, attr, wrapper)
                continue
            for mod in bound:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, original):
        count = COUNTERS.get(name)
        signature = inspect.signature(original) if count else None
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            result = exc = None
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as err:
                exc = span.error = err
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                tracer.spans.append(span)
                if count is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(tracer.counts, bound.arguments, result, exc)
                # the counter's own cost belongs to no span
                if span.parent is not None:
                    span.parent.child_s += time.perf_counter() - span.end

        wrapper.__wrapped__ = original
        return wrapper

    def write_spans(self, path: str) -> None:
        """Write the spans as JSON lines; a parent's id follows its children's."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": span.name, "start": span.start, "end": span.end,
                    "parent": index[id(span.parent)] if span.parent is not None else None,
                    "error": type(span.error).__name__ if span.error is not None else None,
                }) + "\n")

    # -- jobs ---------------------------------------------------------------
    def end_job(self, ok: bool):
        """Attribute each error raised inside the job that just ended.

        An error is counted once, at the innermost span it left.  It is
        expected when the job still succeeded (the library handled it, or it
        was the job's declared outcome) and unexpected otherwise.
        """
        seen = set()
        for span in self.spans[self._job_start:]:
            if span.error is not None and id(span.error) not in seen:
                seen.add(id(span.error))
                kind = "expected" if ok else "unexpected"
                self.errors[f"{span.module}.errors.{kind}"] += 1
        self._job_start = len(self.spans)


def sign_cycle_rows(sol, X, U, Mu):
    """Rows whose slope was not built from the sign pattern of their control.

    The frozen-sign slope at state x for control signs s_u is
    alpha (I - alpha Acl')^{-1} (Wxd o sign(x) + G' (Wud o s_u)); a row whose
    returned slope differs from the one rebuilt from sign(u) ended on a sign
    cycle.
    """
    X, U, Mu = np.atleast_2d(X), np.atleast_2d(U), np.atleast_2d(Mu)
    n = X.shape[1]
    drive = np.sign(X) * sol.forms.Wxd + (np.sign(U) * sol.forms.Wud) @ sol.G
    rebuilt = sol.alpha * np.linalg.solve(np.eye(n) - sol.alpha * sol.Acl.T, drive.T).T
    scale = 1.0 + np.abs(Mu).max(axis=1)
    return int((np.abs(rebuilt - Mu).max(axis=1) > 1e-9 * scale).sum())


def _count_riccati(c, a, result, exc):
    source = result if exc is None else exc
    c["riccati.solve_riccati.iterations"] += getattr(source, "iterations", None) or 0


def _count_radius(c, a, result, exc):
    d = np.shape(a["M"])[0]
    if a["method"] == "power" or (a["method"] == "auto" and d > POWER_SWITCH):
        c["operators.spectral_radius.power_calls"] += 1


def _count_operator_matrix(c, a, result, exc):
    if result is not None:
        c["operators.operator_matrix.bytes_computed"] += result.nbytes


def _count_sor(c, a, result, exc):
    if result is not None:
        c["control.sor_solve.sweeps"] += result.iterations


def _count_control(c, a, result, exc):
    if result is not None and a["mu"] is None and a["mu_kind"] == "asymptotic":
        c["mu.sign_cycle_rows"] += sign_cycle_rows(a["sol"], a["x"], result.u_star, result.mu)


def _count_control_batch(c, a, result, exc):
    X = np.atleast_2d(a["X"])
    c["control.optimal_control_batch.rows"] += X.shape[0]
    if result is not None and a["Mu"] is None and a["mu_kind"] == "asymptotic":
        U, Mu = result
        c["mu.sign_cycle_rows"] += sign_cycle_rows(a["sol"], X, U, Mu)


def _count_sor_batch(c, a, result, exc):
    c["control.sor_solve_batch.rows"] += np.atleast_2d(a["B"]).shape[0]


def _count_noise(c, a, result, exc):
    if result is not None:
        c["simulator.draw_noise_block.bytes_computed"] += result.nbytes


def _count_region(c, a, result, exc):
    if result is not None:
        c["region.scan_region.cells"] += result.invalid.size


def _count_cli(c, a, result, exc):
    argv = list(a["argv"] or [])
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        if out.is_dir():
            c["cli.main.bytes_written"] += sum(f.stat().st_size for f in out.iterdir())


COUNTERS = {
    "riccati.solve_riccati": _count_riccati,
    "operators.spectral_radius": _count_radius,
    "operators.operator_matrix": _count_operator_matrix,
    "control.sor_solve": _count_sor,
    "control.optimal_control": _count_control,
    "control.optimal_control_batch": _count_control_batch,
    "control.sor_solve_batch": _count_sor_batch,
    "simulator.draw_noise_block": _count_noise,
    "region.scan_region": _count_region,
    "cli.main": _count_cli,
}

# per-function figures reported from the spans: name -> fields
SPAN_FIELDS = {
    "riccati.solve_riccati": ("calls", "self_s"),
    "operators.riccati_step": ("calls", "busy_s"),
    "operators.spectral_radius": ("calls", "busy_s"),
    "operators.operator_matrix": ("calls", "busy_s"),
    "stability.check_alpha_stability": ("calls", "self_s"),
    "stability.detectability_search": ("calls", "self_s"),
    "stability.closed_loop_check": ("calls", "self_s"),
    "control.sor_solve": ("calls", "busy_s"),
    "control.optimal_control": ("calls", "self_s"),
    "control.optimal_control_batch": ("calls", "self_s"),
    "control.sor_solve_batch": ("calls", "busy_s"),
    "mu.mu_asymptotic": ("calls", "busy_s"),
    "simulator.draw_noise_block": ("busy_s",),
    "simulator.step_batch": ("calls", "busy_s"),
    "simulator.optimal_norms": ("self_s",),
    "simulator.simulate": ("self_s",),
    "region.scan_region": ("self_s",),
    "cli.main": ("self_s",),
    "model.load_model": ("calls", "busy_s"),
}

COUNT_NAMES = (
    "riccati.solve_riccati.iterations",
    "operators.spectral_radius.power_calls",
    "operators.operator_matrix.bytes_computed",
    "control.sor_solve.sweeps",
    "control.optimal_control_batch.rows",
    "control.sor_solve_batch.rows",
    "mu.sign_cycle_rows",
    "simulator.draw_noise_block.bytes_computed",
    "region.scan_region.cells",
    "cli.main.bytes_written",
)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced pass."""
    calls = defaultdict(int)
    busy = defaultdict(float)
    own = defaultdict(float)
    module_self = defaultdict(float)
    fallback = nonconverged = 0
    for span in tracer.spans:
        calls[span.name] += 1
        busy[span.name] += span.duration
        own[span.name] += span.self_s
        module_self[span.module] += span.self_s
        if span.name == "control.optimal_control" and span.parent is not None \
                and span.parent.name == "region.scan_region":
            fallback += 1
        if span.name == "control.sor_solve" and span.error is not None:
            nonconverged += 1
    out = {}
    for name, fields in SPAN_FIELDS.items():
        for field in fields:
            value = {"calls": calls[name], "busy_s": busy[name], "self_s": own[name]}[field]
            out[f"{name}.{field}"] = value
    for name in COUNT_NAMES:
        out[name] = tracer.counts[name]
    iters = tracer.counts["riccati.solve_riccati.iterations"]
    sweeps = tracer.counts["control.sor_solve.sweeps"]
    out["riccati.solve_riccati.us_per_iteration"] = (
        1e6 * busy["riccati.solve_riccati"] / iters if iters else 0.0)
    out["control.sor_solve.us_per_sweep"] = 1e6 * busy["control.sor_solve"] / sweeps if sweeps else 0.0
    out["region.scan_region.fallback_cells"] = fallback
    out["control.sor_solve.nonconverged"] = nonconverged
    for module in MODULES:
        out[f"{module}.self_s"] = module_self[module]
        for kind in ("expected", "unexpected"):
            key = f"{module}.errors.{kind}"
            out[key] = tracer.errors[key]
    return out
