"""The three workloads: what each pass calls, and how each result is checked.

A workload is a ``prepare`` step, which turns the seed into inputs, and a
``run`` step, which makes one pass over those inputs.  Every call into the
library is one operation: it is timed on its own, then its result is checked
outside the timed region (see ``timing.Pass``).  Operations fall into
groups; the end-to-end figures are built from the group times.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import inputs
from timing import Pass

OMEGAS = (0.5, 1.0, 1.5, 1.9)
# Across 4000 instances at tol 1e-12 a converging solve needs at most 306
# sweeps.  About 2 in 1000 never converge at omega = 1.9; this budget keeps
# each of those to the cost of a few converging solves.
SOR_MAX_SWEEPS = 1000
REGION_CALLS = 2  # the CSV write is noisy call to call, so time it twice a pass


@dataclass
class Context:
    lib: object          # the csviu package
    cli: object          # csviu.cli
    tmp: Path            # scratch directory for model files and CLI output
    size: inputs.Size
    seed: int

    def write_model(self, name: str, data: dict) -> str:
        path = self.tmp / f"{name}.json"
        path.write_text(json.dumps(data))
        return str(path)

    def out_dir(self, name: str) -> str:
        path = self.tmp / name
        shutil.rmtree(path, ignore_errors=True)
        return str(path)


def _first(*problems):
    return next((p for p in problems if p is not None), None)


def _read_result(out: str) -> dict:
    return json.loads((Path(out) / "result.json").read_text())


def _csv_rows(path: Path) -> int:
    with path.open() as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return sum(1 for _ in csv.DictReader(lines))


# -- synthesis ----------------------------------------------------------------

def synthesis_prepare(ctx: Context) -> dict:
    cases = inputs.synthesis_cases(ctx.seed, ctx.size)
    models = [(case, ctx.lib.SystemModel.from_dict(case.data)) for case in cases]
    cli_case = [case for case in cases if case.group == "small"][-1]
    return {"models": models, "cli_model": ctx.write_model("synthesis", cli_case.data),
            "cli_data": models[cases.index(cli_case)][1]}


def _certify(lib, md, case):
    sol = lib.solve_riccati(md, case.alpha)
    report = H = None
    if case.certify:
        report = lib.check_alpha_stability(md, case.alpha)
        H = lib.detectability_search(md, case.alpha)
    loop = lib.closed_loop_check(md, case.alpha, sol.G)
    return sol, report, H, loop


def _check_certify(md, case):
    exact = md.n <= inputs.SMALL_N

    def check(out):
        sol, report, H, loop = out
        problem = _first(
            checks.check_riccati(md, case.alpha, sol.L),
            checks.check_stability(md, case.alpha, report, exact) if case.certify else None,
            checks.check_detectability(md, case.alpha, H, exact) if case.certify else None,
            checks.check_closed_loop(md, case.alpha, sol.G, loop, exact),
        )
        radius = report.radius if report is not None else 0.0
        return problem, (sol.L, sol.iterations, radius, loop.radius)

    return check


def _check_infeasible(lib):
    def check(out):
        if not isinstance(out, lib.MaxIterations):
            return f"expected MaxIterations, got {type(out).__name__}", ()
        if not out.iterations:
            return "MaxIterations carries no iteration count", ()
        return None, (out.iterations,)

    return check


def synthesis_run(ctx: Context, data: dict, rec: Pass):
    lib = ctx.lib
    for case, md in data["models"]:
        if case.group == "infeasible":
            rec.op("infeasible", case.name, lambda: lib.solve_riccati(md, case.alpha),
                   _check_infeasible(lib), expect=lib.MaxIterations)
            continue
        rec.op(case.group, case.name, lambda: _certify(lib, md, case), _check_certify(md, case))
        rec.units[case.group] += 1

    model, md = data["cli_model"], data["cli_data"]
    stab_out, ric_out = ctx.out_dir("stability"), ctx.out_dir("riccati")

    def call():
        return (ctx.cli.main(["stability", "--model", model, "--alpha", "0.95", "--out", stab_out]),
                ctx.cli.main(["riccati", "--model", model, "--alpha", "0.95", "--out", ric_out]))

    def check(codes):
        if codes != (0, 0):
            return f"exit codes {codes}", ()
        stab, ric = _read_result(stab_out), _read_result(ric_out)
        L = np.array(ric["L"])
        problem = _first(
            None if stab["verdict"] == "stable" else f"CLI verdict {stab['verdict']}",
            checks.check_riccati(md, 0.95, L),
        )
        return problem, (stab["radius"], L)

    rec.op("cli", "cli-stability-riccati", call, check)


# -- montecarlo ---------------------------------------------------------------

def montecarlo_prepare(ctx: Context) -> dict:
    readme = inputs.readme_plant()
    return {
        "readme": ctx.lib.SystemModel.from_dict(readme),
        "n6": ctx.lib.SystemModel.from_dict(inputs.n6_plant()),
        "seeds": inputs.mc_seeds(ctx.seed, 7),
        "cli_model": ctx.write_model("montecarlo", readme),
    }


def _energy_horizon(alpha: float) -> int:
    """Horizon past which the discounted tail of the energy is below 1e-6."""
    return int(math.ceil(math.log(1e-6 * (1.0 - alpha)) / math.log(alpha))) + 1


def _norms(lib, md, alpha, paths, seed):
    sol = lib.solve_riccati(md, alpha)
    return sol, lib.optimal_norms(sol, paths=paths, seed=seed, mu_kind="asymptotic")


def _check_norms(field):
    def check(out):
        _, est = out
        value, stderr = getattr(est, field), getattr(est, f"{field}_stderr")
        problem = _first(checks.check_finite_positive(field, value),
                         checks.check_finite_positive(f"{field} stderr", stderr))
        return problem, (value, stderr)

    return check


def montecarlo_run(ctx: Context, data: dict, rec: Pass):
    lib, size = ctx.lib, ctx.size
    readme, n6, seeds = data["readme"], data["n6"], data["seeds"]
    x0 = np.zeros(readme.n)

    out = rec.op("norms", "norms-readme-0.95",
                 lambda: _norms(lib, readme, 0.95, size.mc_paths, seeds[0]), _check_norms("energy"))
    if out is None:
        return
    sol95, formula = out
    rec.units["norms"] += size.mc_paths * formula.details["kappa"]

    out = rec.op("norms", "norms-readme-1.0",
                 lambda: _norms(lib, readme, 1.0, size.mc_paths, seeds[1]), _check_norms("power"))
    if out is None:
        return
    sol1, power = out
    rec.units["norms"] += size.mc_paths * power.details["kappa"]

    out = rec.op("norms", "norms-n6-0.95",
                 lambda: _norms(lib, n6, 0.95, size.mc_paths_n6, seeds[2]), _check_norms("energy"))
    if out is not None:
        rec.units["norms"] += size.mc_paths_n6 * out[1].details["kappa"]

    kappa = _energy_horizon(0.95)
    optimal = lib.Policy.optimal(sol95, mu_kind="asymptotic")
    gain = lib.Policy.linear(sol95.G)

    def check_energy(direct):
        problem = checks.check_energy(formula.energy, formula.energy_stderr,
                                      direct.mean, direct.stderr)
        return problem, (direct.mean, direct.stderr)

    direct = rec.op("energy", "energy-optimal",
                    lambda: lib.estimate_energy(readme, optimal, 0.95, kappa, x0,
                                                size.energy_paths, seeds[3]), check_energy)
    rec.units["energy"] += size.energy_paths * kappa

    def check_gain(linear):
        return checks.check_finite_positive("gain policy energy", linear.mean), (linear.mean, linear.stderr)

    rec.op("gain", "energy-gain",
           lambda: lib.estimate_energy(readme, gain, 0.95, kappa, x0, size.energy_paths, seeds[3]),
           check_gain)

    grid = size.overtake_grid

    def check_rows(rows):
        if [row.kappa for row in rows] != sorted(grid):
            return "overtaking rows do not match the horizon grid", ()
        values = [(row.diff, row.stderr) for row in rows]
        if not np.all(np.isfinite(values)):
            return "overtaking rows hold non-finite values", ()
        return None, values

    rec.op("overtake", "overtake-optimal-gain",
           lambda: lib.overtaking_compare(readme, 1.0, lib.Policy.optimal(sol1, mu_kind="asymptotic"),
                                          lib.Policy.linear(sol1.G), x0, grid,
                                          paths=size.overtake_paths, seed=seeds[4]),
           check_rows)
    rec.units["overtake"] += size.overtake_paths * max(grid)

    out_dir = ctx.out_dir("simulate")
    argv = ["simulate", "--model", data["cli_model"], "--alpha", "0.95", "--policy", "optimal",
            "--mu", "asymptotic", "--kappa", str(size.cli_sim_kappa),
            "--paths", str(size.cli_sim_paths), "--seed", str(seeds[5]), "--out", out_dir]

    def check_cli(code):
        if code != 0:
            return f"exit code {code}", ()
        result = _read_result(out_dir)
        rows = _csv_rows(Path(out_dir) / "stages.csv")
        problem = _first(
            checks.check_finite_positive("energy_mean", result["energy_mean"]),
            None if rows == size.cli_sim_kappa + 1 else f"stages.csv has {rows} rows",
        )
        return problem, (result["energy_mean"], result["energy_stderr"])

    rec.op("cli", "cli-simulate", lambda: ctx.cli.main(argv), check_cli)


# -- feedback -----------------------------------------------------------------

def feedback_prepare(ctx: Context) -> dict:
    readme = inputs.readme_plant()
    plants = {"readme": ctx.lib.SystemModel.from_dict(readme),
              "n6": ctx.lib.SystemModel.from_dict(inputs.n6_plant())}
    return {
        "plants": plants,
        "states": {name: inputs.states(ctx.seed, ctx.size.control_states, md.n)
                   for name, md in plants.items()},
        "sor": inputs.sor_instances(ctx.seed, ctx.size.sor_instances),
        "cli_model": ctx.write_model("feedback", readme),
    }


def _check_control(result):
    sub, sor = result.sub, result.sor
    problem = checks.check_stage(sub.W, sub.b, sub.c, sor.nu, sor.gamma, result.u_star)
    return problem, (result.u_star, result.mu)


def _sor_all(lib, parts):
    """Solve one instance at every relaxation factor; keep a typed non-convergence."""
    sub = lib.ControlSubproblem.from_parts(*parts)
    states = []
    for omega in OMEGAS:
        try:
            states.append(lib.sor_solve(sub, omega=omega, tol=1e-12, max_iters=SOR_MAX_SWEEPS))
        except lib.MaxIterations as exc:
            states.append(exc)
    return sub, states


def _check_sor(rec, name):
    def check(out):
        sub, results = out
        states = [s for s in results if not isinstance(s, Exception)]
        for omega, s in zip(OMEGAS, results):
            if isinstance(s, Exception):
                rec.notes.append(f"{name}: sor_solve did not converge at omega={omega} "
                                 f"(residual {s.residual:.3e})")
        problem = _first(*(checks.check_stage(sub.W, sub.b, sub.c, s.nu, s.gamma) for s in states),
                         checks.check_spread([s.nu for s in states]) if states else None)
        return problem, [s.nu for s in states]

    return check


def feedback_run(ctx: Context, data: dict, rec: Pass):
    lib = ctx.lib

    def solve_all():
        return {name: lib.solve_riccati(md, 0.95) for name, md in data["plants"].items()}

    def check_sols(out):
        problem = _first(*(checks.check_riccati(data["plants"][k], 0.95, s.L) for k, s in out.items()))
        return problem, [s.L for s in out.values()]

    sols = rec.op("riccati", "riccati-feedback-plants", solve_all, check_sols)
    if sols is None:
        return
    for name, sol in sols.items():
        for i, x in enumerate(data["states"][name]):
            rec.op("control", f"control-{name}-{i}",
                   lambda: lib.optimal_control(sol, x, mu_kind="asymptotic"), _check_control)
            rec.units["control"] += 1

    for i, parts in enumerate(data["sor"]):
        rec.op("sor", f"sor-{i}", lambda: _sor_all(lib, parts), _check_sor(rec, f"sor-{i}"))
        rec.units["sor"] += len(OMEGAS)

    res = ctx.size.region_res
    out_dir = ctx.out_dir("region")
    argv = ["region", "--model", data["cli_model"], "--alpha", "0.95", "--mu", "asymptotic",
            "--res", str(res), "--out", out_dir]

    def check_cli(code):
        if code != 0:
            return f"exit code {code}", ()
        result = _read_result(out_dir)
        rows = _csv_rows(Path(out_dir) / "region.csv")
        problem = _first(
            None if result["cells"] == res * res == rows else f"{rows} rows for {res}x{res} cells",
            None if result["invalid_cells"] == 0 else f"{result['invalid_cells']} invalid cells",
        )
        return problem, (result["inactive_cells"], result["boundary_cells"],
                         result["inconsistent_cells"])

    for i in range(REGION_CALLS):
        ctx.out_dir("region")
        rec.op("cli", f"cli-region-{i}", lambda: ctx.cli.main(argv), check_cli)
        rec.units["cli"] += res * res


# -- figures ------------------------------------------------------------------

def _per_unit(rec: Pass, groups) -> float:
    units = sum(rec.units[g] for g in groups)
    return sum(rec.groups[g] for g in groups) / units if units else math.nan


# name -> (prepare, run, groups whose mean time per unit is unit_cost_ref)
WORKLOADS = {
    "synthesis": (synthesis_prepare, synthesis_run, ("small",)),
    "montecarlo": (montecarlo_prepare, montecarlo_run, ("norms", "energy", "overtake")),
    "feedback": (feedback_prepare, feedback_run, ("control", "sor")),
}


def summarize(workload: str, rec: Pass) -> dict:
    """End-to-end figures of the median pass, in reference-kernel units."""
    return {
        "wall_ref": rec.wall,
        "unit_cost_ref": _per_unit(rec, WORKLOADS[workload][2]),
        "cli_ref": rec.groups["cli"],
    }


def job_figures(workload: str, rec: Pass) -> dict:
    """The job-group figures of the pass, zero where the workload has no such job."""
    g, u = rec.groups, rec.units
    figures = dict.fromkeys(JOB_FIGURES, 0.0)
    if workload == "synthesis":
        figures["job.certify_small_ms"] = 1e3 * g["small"] / u["small"] if u["small"] else 0.0
        figures["job.certify_large_s"] = g["large"]
        figures["job.riccati_slow_s"] = g["slow"]
    elif workload == "montecarlo":
        moved = u["norms"] + u["energy"] + u["overtake"]
        figures["job.path_stages_per_s"] = moved / (g["norms"] + g["energy"] + g["overtake"])
        figures["job.cli_simulate_s"] = g["cli"]
    else:
        figures["job.stage_solves_per_s"] = (u["control"] + u["sor"]) / (g["control"] + g["sor"])
        figures["job.region_cells_per_s"] = u["cli"] / g["cli"] if g["cli"] else 0.0
    return figures


JOB_FIGURES = (
    "job.certify_small_ms", "job.certify_large_s", "job.riccati_slow_s",
    "job.path_stages_per_s", "job.cli_simulate_s",
    "job.stage_solves_per_s", "job.region_cells_per_s",
)
