"""Command line front end.

Subcommands cover the solver pipeline end to end: riccati, stability,
detect, control, simulate, norms, overtake, region.  Results are written as
JSON (plus CSV tables where tabular), with a run manifest next to every
output directory so a run can be reproduced bit-exactly from its recorded
arguments.

Exit codes: 0 success, 1 validation problem (bad flags, bad model file,
violated model assumptions), 2 solver nonconvergence or divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import re
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .control import optimal_control
from .errors import (
    ArgumentError,
    AssumptionViolated,
    MaxIterations,
    ModelError,
    MonotonicityViolation,
    SeriesDivergent,
    SingularLambda,
)
from .model import CriterionConfig, load_model
from .mu import mu_bound
from .region import scan_region
from .riccati import solve_riccati
from .simulator import (
    Policy,
    _discounted,
    _energy_estimate,
    _stage_squares,
    optimal_norms,
    overtaking_compare,
)
from .stability import check_alpha_stability, check_detectability, detectability_search

SCHEMA = "csviu/1"

_VALIDATION_ERRORS = (ModelError, AssumptionViolated, SingularLambda, ArgumentError)
_SOLVER_ERRORS = (MaxIterations, MonotonicityViolation, SeriesDivergent)

# rows per write: a block's cell strings and text stay small whatever the table's length
_BLOCK_ROWS = 4096

# let bare negative tokens like -2,2 pass through as values of --range / --x
_NEGATIVE_TOKEN = re.compile(r"^-\d")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: a flag a subcommand lacks (overtake --kappa) is an
        # error, not an abbreviation of another (--kappa-grid)
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = _NEGATIVE_TOKEN

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise ModelError(f"cannot parse {text!r} as a comma-separated float list") from exc


def _ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise ModelError(f"cannot parse {text!r} as a comma-separated integer list") from exc


def _matrix(text: str) -> np.ndarray:
    rows = [_floats(row) for row in text.split(";")]
    if len({len(row) for row in rows}) > 1:
        raise ModelError(f"--injection rows have unequal lengths {[len(row) for row in rows]}")
    return np.array(rows)


# the settings each subcommand reads besides the discount, one flag each, in the order
# the manifest records them; all but "mu" are CriterionConfig fields
_SETTINGS = {"riccati": (), "stability": ("seed",), "detect": (), "control": ("mu",),
             "simulate": ("seed", "paths", "kappa", "mu"), "norms": ("seed", "paths", "kappa", "mu"),
             "overtake": ("seed", "paths", "mu"), "region": ("mu",)}
_SETTING_FLAGS = {"seed": {"type": int}, "paths": {"type": int}, "kappa": {"type": int},
                  "mu": {"choices": ["zero", "asymptotic"],
                         "help": "slope estimator for the stage problems"}}


def build_parser() -> _Parser:
    parser = _Parser(prog="csviu", description=__doc__)
    parser.add_argument("--version", action="version", version=f"csviu {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(command, help):
        p = sub.add_parser(command, help=help)
        p.add_argument("--model", required=True, help="path to the model JSON file")
        p.add_argument("--alpha", type=float, default=None, help="discount override")
        p.add_argument("--out", default=None, help="output directory (default: print JSON)")
        for name in _SETTINGS[command]:
            p.add_argument(f"--{name}", **_SETTING_FLAGS[name])
        return p

    p = common("riccati", "stationary cost matrix and gain")
    p.set_defaults(handler=_cmd_riccati)

    p = common("stability", "second-moment stability report")
    p.set_defaults(handler=_cmd_stability)

    p = common("detect", "detectability search or check")
    p.add_argument("--injection", default=None,
                   help="output injection matrix to check, rows ; separated: 'a,b;c,d'")
    p.set_defaults(handler=_cmd_detect)

    p = common("control", "optimal control at one state")
    p.add_argument("--x", required=True, help="state, comma separated")
    p.set_defaults(handler=_cmd_control)

    p = common("simulate", "roll out trajectories under a policy")
    p.add_argument("--x0", default=None, help="initial state, comma separated (default 0)")
    p.add_argument("--policy", default="optimal", choices=["zero", "gain", "optimal"])
    p.set_defaults(handler=_cmd_simulate)

    p = common("norms", "energy / power criteria under the optimal policy")
    p.set_defaults(handler=_cmd_norms)

    p = common("overtake", "finite-horizon cost comparison of two policies")
    p.add_argument("--kappa-grid", required=True, help="horizons, comma separated")
    p.add_argument("--policy-a", default="optimal", choices=["zero", "gain", "optimal"])
    p.add_argument("--policy-b", default="zero", choices=["zero", "gain", "optimal"])
    p.add_argument("--x0", default=None)
    p.set_defaults(handler=_cmd_overtake)

    p = common("region", "map the control action regions over a state slice")
    p.add_argument("--axes", default="0,1", help="one or two state indices, e.g. 0,1")
    p.add_argument("--range", dest="ranges", action="append", default=None,
                   help="lo,hi for the scanned axes (repeat for distinct per-axis ranges)")
    p.add_argument("--res", type=int, default=41)
    p.set_defaults(handler=_cmd_region)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser every :func:`main` call shares: built on first use, since
    parsing leaves it unchanged (``--range`` appends to a fresh list)."""
    return build_parser()


@dataclasses.dataclass
class _Run:
    model: object
    config: CriterionConfig
    mu_kind: str


def _resolve(args) -> _Run:
    model = load_model(args.model)
    flags = {name: getattr(args, name) for name in ("alpha", *_SETTINGS[args.command])}
    mu_kind = flags.pop("mu", None)
    overrides = {name: value for name, value in flags.items() if value is not None}
    config = dataclasses.replace(model.criterion or CriterionConfig(), **overrides)
    return _Run(model=model, config=config, mu_kind="zero" if mu_kind is None else mu_kind)


def _solution(run: _Run):
    return solve_riccati(run.model, config=run.config)


def _policy(name: str, run: _Run, sol):
    if name == "zero":
        return Policy.zero(run.model.m)
    if name == "gain":
        return Policy.linear(sol.G)
    return Policy.optimal(sol, mu_kind=run.mu_kind, tol=run.config.tol_sor)


def _solution_payload(sol) -> dict:
    return {
        "alpha": sol.alpha,
        "L": _jsonable(sol.L),
        "G": _jsonable(sol.G),
        "Acl": _jsonable(sol.Acl),
        "iterations": sol.iterations,
        "newton_steps": sol.newton_steps,
        "residual": sol.residual,
        "closed_loop_radius": sol.closed_loop_radius,
        "alpha_condition_ok": sol.alpha_condition_ok,
        "deadzone_weights": _jsonable(sol.forms.Wud),
        "slope_drive": _jsonable(sol.forms.Wxd),
        "noise_floor": sol.forms.varpi1,
    }


def _cmd_riccati(args, run: _Run):
    sol = _solution(run)
    payload = _solution_payload(sol)
    try:
        payload["slope_bound"] = _jsonable(mu_bound(sol))
    except SeriesDivergent:
        payload["slope_bound"] = None
    return payload, []


def _cmd_stability(args, run: _Run):
    report = check_alpha_stability(run.model, run.config.alpha, seed=run.config.seed)
    payload = _jsonable(report)
    payload["conditions"] = _jsonable(report.conditions)
    return payload, []


def _cmd_detect(args, run: _Run):
    if args.injection is not None:
        H = _matrix(args.injection)
        check = check_detectability(run.model, run.config.alpha, H)
        return {"mode": "check", "ok": check.ok, "radius": check.radius,
                "injection": _jsonable(H)}, []
    H = detectability_search(run.model, run.config.alpha)
    payload = {"mode": "search", "found": H is not None}
    if H is not None:
        check = check_detectability(run.model, run.config.alpha, H)
        payload.update(injection=_jsonable(H), radius=check.radius)
    return payload, []


def _cmd_control(args, run: _Run):
    sol = _solution(run)
    x = np.array(_floats(args.x))
    result = optimal_control(sol, x, mu_kind=run.mu_kind, tol=run.config.tol_sor)
    return {
        "x": _jsonable(x),
        "mu_kind": run.mu_kind,
        "mu": _jsonable(result.mu),
        "u_star": _jsonable(result.u_star),
        "gamma": _jsonable(result.gamma),
        "inactive": _jsonable(result.margins > 0),
        "margins": _jsonable(result.margins),
        "theta": _jsonable(result.sor.theta),
        "sor_iterations": result.sor.iterations,
        "sor_residual": result.sor.residual,
    }, []


def _cmd_simulate(args, run: _Run):
    sol = None if args.policy == "zero" else _solution(run)
    policy = _policy(args.policy, run, sol)
    x0 = np.zeros(run.model.n) if args.x0 is None else np.array(_floats(args.x0))
    kappa = run.config.kappa if run.config.kappa is not None else 100
    # one rollout that keeps the per-path discounted sums of |y_k|^2 and the
    # per-stage means of |y|^2, |x|^2 and |u|^2, not the whole ensemble
    table = np.empty((kappa + 1, 3))
    squares = _stage_squares(run.model, policy, x0, kappa + 1, run.config.paths, run.config.seed,
                             table=table)
    energy = _energy_estimate(_discounted(squares, run.config.alpha), kappa)
    payload = {
        "policy": policy.kind,
        "x0": _jsonable(x0),
        "kappa": kappa,
        "paths": run.config.paths,
        "energy_mean": energy.mean,
        "energy_stderr": energy.stderr,
        "final_mean_state_sq": float(table[-1, 1]),
    }
    header = ["k", "mean_output_sq", "mean_state_sq", "mean_control_sq"]
    return payload, [("stages", header, [np.arange(kappa + 1), *table.T])]


def _cmd_norms(args, run: _Run):
    sol = _solution(run)
    cfg = run.config
    est = optimal_norms(sol, paths=cfg.paths, seed=cfg.seed, mu_kind=run.mu_kind,
                        kappa=cfg.kappa, sor_tol=cfg.tol_sor)
    return _jsonable(est), []


def _cmd_overtake(args, run: _Run):
    sol = _solution(run)
    grid = _ints(args.kappa_grid)
    pol_a = _policy(args.policy_a, run, sol)
    pol_b = _policy(args.policy_b, run, sol)
    x0 = np.zeros(run.model.n) if args.x0 is None else np.array(_floats(args.x0))
    rows = overtaking_compare(run.model, run.config.alpha, pol_a, pol_b, x0, grid,
                              paths=run.config.paths, seed=run.config.seed)
    payload = {
        "policy_a": pol_a.kind,
        "policy_b": pol_b.kind,
        "x0": _jsonable(x0),
        "closed_loop_radius": sol.closed_loop_radius,
        "alpha_condition_ok": sol.alpha_condition_ok,
        "rows": [_jsonable(r) for r in rows],
    }
    header = ["kappa", "diff", "stderr", "diff_scaled", "stderr_scaled"]
    columns = [np.array([getattr(r, name) for r in rows]) for name in header]
    return payload, [("overtake", header, columns)]


def _cmd_region(args, run: _Run):
    sol = _solution(run)
    axes = tuple(_ints(args.axes))
    ranges = {} if args.ranges is None else {"ranges": [_floats(text) for text in args.ranges]}
    rmap = scan_region(sol, axes=axes, resolution=args.res, mu_kind=run.mu_kind,
                       tol=run.config.tol_sor, **ranges)
    m = run.model.m
    # each grid value is formatted once and its string repeated over its cells
    gx = [str(v) for v in rmap.grid_x.tolist()]
    if rmap.grid_y is None:
        columns = [gx]
    else:
        gy = [str(v) for v in rmap.grid_y.tolist()]
        columns = [[s for s in gx for _ in gy], gy * len(gx)]
    header = [f"x{k + 1}" for k in range(len(columns))]
    for prefix, values in (("u", rmap.u_star), ("label", rmap.labels), ("margin", rmap.margins)):
        header += [f"{prefix}_{i + 1}" for i in range(m)]
        columns += list(values.reshape(-1, m).T)
    payload = {
        "axes": list(axes),
        "resolution": args.res,
        "ranges": [list(rg) for rg in rmap.ranges],
        "mu_kind": rmap.mu_kind,
        "cells": rmap.invalid.size,
        "inactive_cells": int(((rmap.labels == 0).all(axis=-1) & ~rmap.invalid).sum()),
        "boundary_cells": int(rmap.boundary.any(axis=-1).sum()),
        "invalid_cells": int(rmap.invalid.sum()),
        "inconsistent_cells": int(rmap.inconsistent.any(axis=-1).sum()),
    }
    return payload, [("region", header, columns)]


def _write_table(fh, header, columns) -> None:
    """Write ``header`` and the equal-length ``columns`` as CSV rows ended by ``\\r\\n``.

    A column is a list of cell strings or an array whose cells are ``str`` of
    its ``tolist()`` items, ``repr`` for floats: the bytes ``csv.writer``
    writes for these cells, none of which needs quoting.  Rows are formatted
    and written ``_BLOCK_ROWS`` at a time.
    """
    fh.write(",".join(header) + "\r\n")
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = [column[start:start + _BLOCK_ROWS] for column in columns]
        cells = [map(str, b.tolist()) if isinstance(b, np.ndarray) else b for b in block]
        fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _model_sha256(model) -> str:
    canonical = json.dumps(model.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_outputs(args, run: _Run, payload: dict, tables, argv, elapsed: float) -> None:
    payload = {"schema": SCHEMA, "command": args.command, **payload}
    text = json.dumps(payload, indent=2, sort_keys=False)
    if args.out is None:
        print(text)
        return
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(text + "\n")
    for name, header, columns in tables:
        meta = {"schema": SCHEMA, "command": args.command, "table": name}
        with (out / f"{name}.csv").open("w", newline="") as fh:
            fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
            _write_table(fh, header, columns)
    manifest = {
        "schema": SCHEMA,
        "command": args.command,
        "version": __version__,
        "argv": list(argv),
        "model_path": str(Path(args.model).resolve()),
        "model_sha256": _model_sha256(run.model),
        "settings": {
            name: run.mu_kind if name == "mu" else getattr(run.config, name)
            for name in ("alpha", *_SETTINGS[args.command])
        },
        "elapsed_s": elapsed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        run = _resolve(args)
        payload, tables = args.handler(args, run)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    _write_outputs(args, run, payload, tables, argv, elapsed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
