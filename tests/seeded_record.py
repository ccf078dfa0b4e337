"""The seeded-number record: results that fixed inputs and seeds pin, in full.

    PYTHONPATH=src python tests/seeded_record.py           # rewrite seeded_record.txt
    PYTHONPATH=src python tests/seeded_record.py --check   # report each entry's deviation

The record holds the full float ``repr`` of the Riccati solutions of three
plants, their certificate radii (the map radius and resolvent radius of
``check_alpha_stability`` and the closed-loop radius at the Riccati gain)
and those of two plants of the benchmark's synthesis family at n = 12 and
n = 20 (``support.spectral_gap_model``), the convergence paths (L, value
and Newton steps) of the n = 20 one and of a near-marginal scalar plant
that value iteration hands to Newton steps,
stage controls and slopes at fixed states (one state at a time and as
batches of 200), single stage solves at four relaxation factors, one-channel
batch solves whose right-hand sides hold signed zeros, the inaction margins
of two 11 x 11 region scans (the README plant, m = 1, and the coupled cycling
plant, m = 2) and the Monte Carlo estimators at a few hundred paths, plus one
2000-path run whose noise spans several chunks.  A change that moves
any of them in the last digits shows in the diff of ``seeded_record.txt``.

The check accepts ``|got - want| <= RTOL * max(1, |want|)`` on every value and
reports the largest such relative deviation, and whether every value matched
exactly.  Exact equality is not required, because BLAS kernels of different
machines sum products in different orders.  ``--check`` prints the largest
deviation of every entry and exits 1 when any entry is missing, extra, of
another length or outside the tolerance.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from csviu import (
    ControlSubproblem,
    Policy,
    SystemModel,
    check_alpha_stability,
    closed_loop_check,
    estimate_energy,
    estimate_power,
    optimal_control,
    optimal_control_batch,
    optimal_norms,
    overtaking_compare,
    scan_region,
    solve_riccati,
    sor_solve,
)
from csviu.control import sor_solve_batch

import support

RECORD = Path(__file__).with_name("seeded_record.txt")
RTOL = 1e-9
ALPHA = 0.95


def plants() -> dict[str, SystemModel]:
    """The README plant, a dense n = 6, m = 3 plant and a scalar plant with every noise channel."""
    return {
        "readme": SystemModel.from_dict(support.README_DATA),
        "n6": support.random_model(np.random.default_rng(6), n=6, m=3),
        "scalar": SystemModel.from_dict({
            "A": 0.9, "B": 1.0, "C": [[1.0], [0.0]], "D": [[0.0], [0.5]], "sigma": 0.1,
            "sigma_x": 0.05, "sigma_bar_x": 0.1, "sigma_u": 0.1, "sigma_bar_u": 0.2,
        }),
    }


def sor_subproblems() -> list[ControlSubproblem]:
    """Coupled stage problems of m = 2, 3, 4 and 6; the m = 4 one has a zero deadzone weight."""
    rng = np.random.default_rng(27)
    subs = []
    for m in (2, 3, 4, 6):
        root = rng.standard_normal((m, m))
        c = rng.uniform(0.0, 2.0, m)
        if m == 4:
            c[1] = 0.0
        curvature = root @ root.T + 0.5 * np.eye(m)
        subs.append(ControlSubproblem.from_parts(curvature, 3.0 * rng.standard_normal(m), c))
    return subs


def compute() -> dict[str, list[float]]:
    """Every entry of the record, name -> flat list of values, from the current code."""
    out: dict[str, list[float]] = {}

    def put(name, values):
        out[name] = [float(v) for v in np.ravel(np.asarray(values, dtype=float))]

    models = plants()
    sols = {name: solve_riccati(model, ALPHA) for name, model in models.items()}
    for name, sol in sols.items():
        put(f"riccati.{name}.L", sol.L)
        put(f"riccati.{name}.G", sol.G)
        put(f"riccati.{name}.iterations", sol.iterations)
        n = sol.model.n
        states = np.vstack([np.zeros(n), 1.5 * np.random.default_rng(n).standard_normal((4, n))])
        for kind in ("zero", "asymptotic"):
            results = [optimal_control(sol, x, mu_kind=kind) for x in states]
            put(f"control.{name}.{kind}.u_star", [r.u_star for r in results])
            put(f"control.{name}.{kind}.mu", [r.mu for r in results])

    for name, sol in sols.items():
        report = check_alpha_stability(models[name], ALPHA)
        put(f"certificate.{name}.stability", [report.radius, report.resolvent_radius])
        put(f"certificate.{name}.closed_loop", closed_loop_check(models[name], ALPHA, sol.G).radius)
    for n in (12, 20):  # synthesis sizes, where the radii come from the resolvent iteration
        model = support.spectral_gap_model(np.random.default_rng(n), n, n // 4)
        report = check_alpha_stability(model, ALPHA)
        put(f"certificate.gap{n}.stability", [report.radius, report.resolvent_radius])
        G = solve_riccati(model, ALPHA).G
        put(f"certificate.gap{n}.closed_loop", closed_loop_check(model, ALPHA, G).radius)
    # convergence paths: a change of the value step shows in the step counts
    marginal = SystemModel.from_dict({"A": 1.0, "B": 0.002, "C": [[1.0], [0.0]], "D": [[0.0], [1.0]],
                                      "sigma": 0.1, "sigma_bar_x": 0.05})
    gap20 = support.spectral_gap_model(np.random.default_rng(20), 20, 5)
    for name, model, alpha in (("marginal", marginal, 1.0), ("gap20", gap20, ALPHA)):
        sol = solve_riccati(model, alpha)
        put(f"riccati.{name}.L", sol.L)
        put(f"riccati.{name}.iterations", sol.iterations)
        put(f"riccati.{name}.newton_steps", sol.newton_steps)

    for name in ("readme", "n6"):
        X = 1.5 * np.random.default_rng(5).standard_normal((200, models[name].n))
        U, Mu = optimal_control_batch(sols[name], X, mu_kind="asymptotic")
        put(f"control_batch.{name}.asymptotic.u", U)
        put(f"control_batch.{name}.asymptotic.mu", Mu)
    for k, sub in enumerate(sor_subproblems()):
        for omega in (0.5, 1.0, 1.5, 1.9):
            st = sor_solve(sub, omega=omega)
            put(f"sor_solve.{k}.omega{omega}",
                [*st.z, *st.gamma, *st.nu, *st.theta, st.iterations, st.residual])

    # one channel, with and without a deadzone: the signs of zero controls and of clipped ones
    B = np.array([0.0, -0.0, 0.3, -0.3, 0.5, -0.5, 1e-300, -1e-300, 5e-324, -5e-324, 2.0, -2.0])
    for c in (0.0, 0.5):
        put(f"sor_solve_batch.m1.c{c}", sor_solve_batch([[0.7]], B[:, None], [c]))

    readme, n6 = models["readme"], models["n6"]
    sol = sols["readme"]
    put("region.readme.margins", scan_region(sol, resolution=11).margins)
    cycling = solve_riccati(SystemModel.from_dict(support.CYCLING_PLANT_DATA), ALPHA)
    put("region.cycling.zero.margins", scan_region(cycling, resolution=11, mu_kind="zero").margins)

    for name, paths, seed in (("readme", 200, 1), ("n6", 100, 2)):
        est = optimal_norms(sols[name], paths=paths, seed=seed)
        put(f"optimal_norms.{name}.energy", [est.energy, est.energy_stderr, est.details["kappa"]])
    est = optimal_norms(solve_riccati(readme, 1.0), paths=200, seed=3, kappa=300)
    put("optimal_norms.readme.power", [est.power, est.power_stderr])

    optimal, gain = Policy.optimal(sol, mu_kind="asymptotic"), Policy.linear(sol.G)
    x0 = [1.0, -1.0]
    for policy_name, policy in (("optimal", optimal), ("gain", gain)):
        est = estimate_energy(readme, policy, ALPHA, kappa=60, x0=x0, paths=200, seed=4)
        put(f"estimate_energy.readme.{policy_name}", [est.mean, est.stderr])
    # 2000 paths of 200 stages span four noise chunks, drawn ahead by the forked helper
    # wherever the process may fork (BLAS on one thread), in-process elsewhere
    est = estimate_energy(readme, gain, ALPHA, kappa=200, x0=x0, paths=2000, seed=9)
    put("estimate_energy.readme.gain.chunked", [est.mean, est.stderr])
    est = estimate_energy(n6, Policy.optimal(sols["n6"], mu_kind="asymptotic"), ALPHA, kappa=40,
                          x0=np.ones(n6.n), paths=100, seed=5, noise_kind="rademacher")
    put("estimate_energy.n6.optimal.rademacher", [est.mean, est.stderr])
    est = estimate_power(readme, optimal, kappa=100, x0=x0, paths=200, seed=6, burn_in=20)
    put("estimate_power.readme.optimal", [est.mean, est.stderr, est.growth_flag])
    rows = overtaking_compare(readme, ALPHA, optimal, gain, x0, [5, 10, 20], paths=200, seed=7)
    put("overtaking_compare.readme", [[r.diff, r.stderr, r.diff_scaled, r.stderr_scaled] for r in rows])
    return out


def write(entries: dict[str, list[float]], path: Path = RECORD) -> None:
    lines = ["# seeded-number record of csviu, written by tests/seeded_record.py",
             "# one entry a line: name, then the full repr of each value"]
    lines += [" ".join([name, *map(repr, values)]) for name, values in entries.items()]
    path.write_text("\n".join(lines) + "\n")


def load(path: Path = RECORD) -> dict[str, list[float]]:
    entries = {}
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            name, *values = line.split()
            entries[name] = [float(v) for v in values]
    return entries


@dataclass(frozen=True)
class Comparison:
    deviations: dict   # entry -> largest |got - want| / max(1, |want|), None if the lengths differ
    missing: list      # entries of the record the code no longer produces
    extra: list        # entries the code produces that the record lacks
    exact: bool        # every value of every entry equal

    @property
    def largest(self) -> float:
        return max((d for d in self.deviations.values() if d is not None), default=0.0)

    @property
    def ok(self) -> bool:
        return (not self.missing and not self.extra
                and all(d is not None and d <= RTOL for d in self.deviations.values()))

    def summary(self) -> str:
        text = (f"largest relative deviation {self.largest:.3e} (tolerance {RTOL:g}), "
                f"{'exact' if self.exact else 'not exact'}")
        bad = [name for name, d in self.deviations.items() if d is None or d > RTOL]
        for label, names in (("outside tolerance", bad), ("missing", self.missing), ("extra", self.extra)):
            if names:
                text += f"; {label}: {', '.join(names)}"
        return text


def compare(got: dict, want: dict) -> Comparison:
    deviations, exact = {}, True
    for name in want.keys() & got.keys():
        g, w = np.asarray(got[name]), np.asarray(want[name])
        if g.shape != w.shape:
            deviations[name], exact = None, False
            continue
        deviations[name] = float((np.abs(g - w) / np.maximum(1.0, np.abs(w))).max(initial=0.0))
        exact = exact and g.tobytes() == w.tobytes()
    missing = sorted(want.keys() - got.keys())
    extra = sorted(got.keys() - want.keys())
    return Comparison(deviations=dict(sorted(deviations.items())), missing=missing, extra=extra,
                      exact=exact and not missing and not extra)


def main(argv) -> int:
    if argv[1:] == []:
        write(compute())
        return 0
    if argv[1:] != ["--check"]:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    result = compare(compute(), load())
    for name, deviation in result.deviations.items():
        print(f"{name:45s} {'length differs' if deviation is None else f'{deviation:.3e}'}")
    print(result.summary())
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
