import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import csviu.region
import csviu.simulator
from csviu import (
    Policy,
    estimate_energy,
    optimal_control,
    overtaking_compare,
    scan_region,
    simulate,
    solve_riccati,
)
from csviu.cli import main
from csviu.model import load_model

import support


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(support.SCALAR_DATA))
    return str(path)


@pytest.fixture
def configured_model_file(tmp_path):
    data = dict(support.SCALAR_DATA, criterion={"alpha": 0.9, "paths": 25, "seed": 4})
    path = tmp_path / "configured.json"
    path.write_text(json.dumps(data))
    return str(path)


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def _read_table(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    header_meta = json.loads(lines[0][2:])
    rows = list(csv.DictReader(lines[1:]))
    return header_meta, rows


def _table_bytes(command, name, header, rows):
    """A table file as the stdlib ``csv.writer`` renders it, under the CLI's metadata line."""
    meta = {"schema": "csviu/1", "command": command, "table": name}
    text = io.StringIO()
    text.write("# " + json.dumps(meta, sort_keys=True) + "\n")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode()


_THREE_STATE = support.random_model(np.random.default_rng(7), n=3, m=2).to_dict()


class TestStdoutMode:
    def test_riccati_payload_matches_library(self, capsys, model_file):
        payload = _run_json(capsys, ["riccati", "--model", model_file, "--alpha", "0.9"])
        assert payload["schema"] == "csviu/1"
        assert payload["command"] == "riccati"
        sol = solve_riccati(load_model(model_file), alpha=0.9)
        np.testing.assert_allclose(payload["L"], sol.L, atol=1e-12)
        np.testing.assert_allclose(payload["G"], sol.G, atol=1e-12)
        assert payload["alpha"] == 0.9
        assert payload["slope_bound"] is not None

    def test_riccati_payload_reports_newton_steps(self, capsys, model_file, tmp_path):
        payload = _run_json(capsys, ["riccati", "--model", model_file, "--alpha", "0.9"])
        assert payload["newton_steps"] == 0
        path = tmp_path / "marginal.json"
        path.write_text(json.dumps(support.MARGINAL_DATA["marginal-b"]))
        payload = _run_json(capsys, ["riccati", "--model", str(path), "--alpha", "1.0"])
        sol = solve_riccati(load_model(str(path)), alpha=1.0)
        assert payload["newton_steps"] == sol.newton_steps > 0
        assert payload["iterations"] == sol.iterations

    def test_control_at_a_state(self, capsys, model_file):
        payload = _run_json(
            capsys,
            ["control", "--model", model_file, "--alpha", "0.9", "--x", "0.5",
             "--mu", "asymptotic"],
        )
        sol = solve_riccati(load_model(model_file), alpha=0.9)
        expected = optimal_control(sol, [0.5], mu_kind="asymptotic")
        np.testing.assert_allclose(payload["u_star"], expected.u_star, atol=1e-9)
        np.testing.assert_allclose(payload["mu"], expected.mu, atol=1e-9)
        assert payload["mu_kind"] == "asymptotic"
        assert isinstance(payload["inactive"], list)

    def test_stability_verdict(self, capsys, model_file):
        payload = _run_json(capsys, ["stability", "--model", model_file, "--alpha", "0.9"])
        assert payload["verdict"] == "stable"
        assert len(payload["conditions"]) == 5

    def test_detect_search_finds_injection(self, capsys, model_file):
        payload = _run_json(capsys, ["detect", "--model", model_file, "--alpha", "0.9"])
        assert "attempts" not in payload
        assert payload["mode"] == "search"
        assert payload["found"] is True
        assert payload["radius"] < 1.0

    def test_detect_checks_given_injection(self, capsys, model_file):
        payload = _run_json(
            capsys,
            ["detect", "--model", model_file, "--alpha", "1.0", "--injection", "-0.4"],
        )
        assert payload["mode"] == "check"
        assert payload["ok"] is True

    def test_model_criterion_supplies_defaults(self, capsys, configured_model_file):
        payload = _run_json(capsys, ["riccati", "--model", configured_model_file])
        assert payload["alpha"] == 0.9

    def test_manifest_settings_merge_file_criterion_and_flags(self, tmp_path):
        criterion = {"alpha": 0.9, "kappa": 7, "paths": 25, "seed": 4,
                     "tolerances": {"fixed_point": 1e-9, "sor": 1e-8}, "max_iters": 5000}
        path = tmp_path / "full.json"
        path.write_text(json.dumps(dict(support.SCALAR_DATA, criterion=criterion)))
        out = tmp_path / "run"
        argv = ["simulate", "--model", str(path), "--seed", "9", "--mu", "asymptotic", "--out", str(out)]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["settings"].items()) == [
            ("alpha", 0.9), ("seed", 9), ("paths", 25), ("kappa", 7), ("mu", "asymptotic"),
        ]
        # the hash reads the canonical model dict with sorted keys
        assert manifest["model_sha256"] == "3a9a797e309178cf5e032cbd1efeba252f7dc1c90d531ece115513edd111a3bd"
        # a command records only the settings it reads
        assert main(["riccati", "--model", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["settings"] == {"alpha": 0.9}

    def test_negative_tokens_accepted_in_ranges(self, capsys, model_file):
        payload = _run_json(
            capsys,
            ["region", "--model", model_file, "--alpha", "0.9", "--axes", "0",
             "--range", "-1,1", "--res", "5", "--mu", "zero"],
        )
        assert payload["cells"] == 5
        assert payload["ranges"] == [[-1.0, 1.0]]
        assert payload["inconsistent_cells"] == 0

    def test_norms_payload(self, capsys, model_file):
        payload = _run_json(
            capsys,
            ["norms", "--model", model_file, "--alpha", "0.9", "--paths", "20",
             "--mu", "asymptotic"],
        )
        assert payload["alpha"] == 0.9
        assert payload["energy"] is not None
        assert payload["power"] is None


class TestOutputDirectory:
    def test_region_writes_result_csv_and_manifest(self, tmp_path, model_file):
        out = tmp_path / "scan"
        argv = [
            "region", "--model", model_file, "--alpha", "0.9", "--res", "4",
            "--axes", "0", "--range", "-1,1", "--out", str(out), "--mu", "zero",
        ]
        assert main(argv) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["command"] == "region"
        assert result["cells"] == 4
        meta, rows = _read_table(out / "region.csv")
        assert meta["table"] == "region"
        assert len(rows) == 4
        assert set(rows[0]) == {"x1", "u_1", "label_1", "margin_1"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["argv"] == argv
        assert len(manifest["model_sha256"]) == 64
        assert manifest["settings"]["alpha"] == 0.9

    def test_two_axis_region_row_count(self, tmp_path, model_file, capsys):
        # a single state axis cannot host a 2-D scan; exercised on a 2-state model
        data = {
            "A": [[0.5, 0.1], [0.0, 0.4]], "B": [[1.0], [0.5]],
            "C": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], "D": [[0.0], [0.0], [1.0]],
            "sigma": [[0.1], [0.1]], "sigma_bar_u": [[0.05], [0.02]],
            "sigma_u": [[0.1], [0.04]],
        }
        path = tmp_path / "planar.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "planar-scan"
        code = main(
            ["region", "--model", str(path), "--alpha", "0.9", "--res", "6",
             "--axes", "0,1", "--out", str(out)]
        )
        assert code == 0
        _, rows = _read_table(out / "region.csv")
        assert len(rows) == 36
        assert {"x1", "x2"} <= set(rows[0])

    @pytest.mark.parametrize("axes", [(1,), (0, 2)])
    def test_region_table_reads_back_the_scan(self, tmp_path, axes):
        path = tmp_path / "three-state.json"
        path.write_text(json.dumps(support.random_model(np.random.default_rng(7), n=3, m=2).to_dict()))
        out = tmp_path / "scan"
        argv = ["region", "--model", str(path), "--alpha", "0.9", "--res", "7", "--mu", "asymptotic",
                "--axes", ",".join(map(str, axes)), "--out", str(out)]
        assert main(argv) == 0
        sol = solve_riccati(load_model(str(path)), alpha=0.9)
        rmap = scan_region(sol, axes=axes, ranges=[(-2.0, 2.0)] * len(axes), resolution=7,
                           mu_kind="asymptotic")
        lines = (out / "region.csv").read_text().splitlines()
        table = list(csv.reader(lines[1:]))
        grid_names = ["x1", "x2"][: len(axes)]
        assert table[0] == grid_names + ["u_1", "u_2", "label_1", "label_2", "margin_1", "margin_2"]
        grids = [rmap.grid_x] if len(axes) == 1 else np.meshgrid(rmap.grid_x, rmap.grid_y, indexing="ij")
        cells = len(table) - 1
        assert cells == 7 ** len(axes)
        expected = np.column_stack(
            [g.reshape(-1) for g in grids]
            + [a.reshape(cells, 2) for a in (rmap.u_star, rmap.labels, rmap.margins)]
        )
        k = len(axes)
        for row, want in zip(table[1:], expected):
            assert [float(v) for v in row[: k + 2]] == want[: k + 2].tolist()
            assert [int(v) for v in row[k + 2 : k + 4]] == want[k + 2 : k + 4].tolist()
            assert [float(v) for v in row[k + 4 :]] == want[k + 4 :].tolist()

    @pytest.mark.parametrize("data, axes, ranges, res, budget, invalid", [
        (support.README_DATA, (0, 1), ((-2.0, 2.0), (-1.0, 3.0)), 6, 10000, 0),
        (_THREE_STATE, (1,), ((-2.0, 2.0),), 7, 10000, 0),
        # 4900 rows, more than one block of the writer
        (_THREE_STATE, (0, 2), ((-2.0, 2.0), (-2.0, 2.0)), 70, 10000, 0),
        # cells whose stage solve ran out of sweeps carry NaN: three first solves need 3 or 4
        (support.CYCLING_PLANT_DATA, (0, 1), ((-1.0, 0.0), (-2.0, 0.0)), 9, 2, 3),
    ], ids=["m1-2d", "m2-1d", "m2-2d-blocks", "nan-cells"])
    def test_region_table_bytes_are_those_of_csv_writer(self, tmp_path, monkeypatch, data, axes, ranges,
                                                         res, budget, invalid):
        monkeypatch.setattr(csviu.region, "_MAX_SWEEPS", budget)
        path = tmp_path / "plant.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "scan"
        argv = ["region", "--model", str(path), "--alpha", "0.95", "--mu", "asymptotic",
                "--res", str(res), "--axes", ",".join(map(str, axes)),
                *[f"--range={lo},{hi}" for lo, hi in ranges], "--out", str(out)]
        assert main(argv) == 0
        sol = solve_riccati(load_model(str(path)), alpha=0.95)
        rmap = scan_region(sol, axes=axes, ranges=ranges, resolution=res, mu_kind="asymptotic")
        assert rmap.invalid.sum() == invalid
        m = sol.model.m
        grids = [rmap.grid_x] if len(axes) == 1 else np.meshgrid(rmap.grid_x, rmap.grid_y, indexing="ij")
        header = [f"x{k + 1}" for k in range(len(axes))]
        columns = [g.ravel().tolist() for g in grids]
        for prefix, values in (("u", rmap.u_star), ("label", rmap.labels), ("margin", rmap.margins)):
            header += [f"{prefix}_{i + 1}" for i in range(m)]
            columns += values.reshape(-1, m).T.tolist()
        want = _table_bytes("region", "region", header, zip(*columns))
        assert (out / "region.csv").read_bytes() == want

    def test_simulate_energy_comes_from_its_one_simulation(self, tmp_path, model_file, monkeypatch):
        # the energy and the stage table both come from one rollout, which keeps
        # per-path running sums and the stage means instead of a whole ensemble
        calls = []
        original = csviu.simulator._rollout

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(csviu.simulator, "_rollout", counted)
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--model", model_file, "--alpha", "0.9", "--kappa", "6", "--paths", "8",
             "--policy", "optimal", "--mu", "asymptotic", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        assert len(calls) == 1
        result = json.loads((out / "result.json").read_text())
        model = load_model(model_file)
        policy = Policy.optimal(solve_riccati(model, alpha=0.9), mu_kind="asymptotic", tol=1e-10)
        energy = estimate_energy(model, policy, 0.9, 6, np.zeros(1), 8, 3)
        assert result["energy_mean"] == energy.mean
        assert result["energy_stderr"] == energy.stderr

    def test_simulate_writes_stage_table(self, tmp_path, model_file):
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--model", model_file, "--alpha", "0.9", "--kappa", "6",
             "--paths", "8", "--policy", "zero", "--out", str(out)]
        )
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["policy"] == "zero"
        assert result["kappa"] == 6
        _, rows = _read_table(out / "stages.csv")
        assert len(rows) == 7
        assert float(rows[0]["mean_state_sq"]) == pytest.approx(0.0)  # x0 defaults to 0

    @pytest.mark.parametrize("policy", ["optimal", "gain", "zero"])
    def test_simulate_stage_table_equals_the_ensemble_means(self, tmp_path, policy):
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(support.README_DATA))
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--model", str(path), "--alpha", "0.95", "--kappa", "9", "--paths", "7",
             "--policy", policy, "--mu", "asymptotic", "--seed", "2", "--x0", "0.3,-0.2",
             "--out", str(out)]
        )
        assert code == 0
        model = load_model(str(path))
        sol = solve_riccati(model, alpha=0.95)
        policies = {"optimal": Policy.optimal(sol, mu_kind="asymptotic"),
                    "gain": Policy.linear(sol.G), "zero": Policy.zero(model.m)}
        ens = simulate(model, policies[policy], [0.3, -0.2], 9, 7, 2)
        _, rows = _read_table(out / "stages.csv")
        columns = {"mean_output_sq": ens.outputs, "mean_state_sq": ens.states,
                   "mean_control_sq": ens.controls}
        means = []
        for name, a in columns.items():
            # each stage's mean over its contiguous row of paths
            want = np.ascontiguousarray(np.einsum("pkq,pkq->pk", a, a).T).mean(axis=1)
            got = np.array([float(row[name]) for row in rows])
            assert got.tobytes() == want.tobytes(), name
            means.append(want.tolist())
        want = _table_bytes("simulate", "stages", ["k", *columns], zip(range(10), *means))
        assert (out / "stages.csv").read_bytes() == want
        result = json.loads((out / "result.json").read_text())
        energy = ens.energy_estimate(0.95)
        assert (result["energy_mean"], result["energy_stderr"]) == (energy.mean, energy.stderr)

    def test_overtake_writes_comparison_table(self, tmp_path, model_file):
        out = tmp_path / "cmp"
        code = main(
            ["overtake", "--model", model_file, "--alpha", "0.9", "--paths", "12",
             "--kappa-grid", "0,4", "--policy-a", "zero", "--policy-b", "gain",
             "--x0", "1.0", "--out", str(out)]
        )
        assert code == 0
        _, rows = _read_table(out / "overtake.csv")
        assert [int(r["kappa"]) for r in rows] == [0, 4]
        model = load_model(model_file)
        gain = Policy.linear(solve_riccati(model, alpha=0.9).G)
        compared = overtaking_compare(model, 0.9, Policy.zero(1), gain, [1.0], [0, 4], paths=12, seed=0)
        header = ["kappa", "diff", "stderr", "diff_scaled", "stderr_scaled"]
        want = _table_bytes("overtake", "overtake", header,
                            [[getattr(r, name) for name in header] for r in compared])
        assert (out / "overtake.csv").read_bytes() == want

    @pytest.mark.parametrize("b, ok", [(0.02, False), (0.04, True)])
    def test_overtake_flags_the_overtaking_condition(self, tmp_path, b, ok):
        # rho(A + BG) < 1/alpha fails at b = 0.02 (rho = 0.9576 > 1/1.05) and holds at b = 0.04
        path = tmp_path / "plant.json"
        path.write_text(json.dumps(support.stacked_output_data(0.99, b, 0.05, 0.1)))
        out = tmp_path / "cmp"
        code = main(
            ["overtake", "--model", str(path), "--alpha", "1.05", "--paths", "10",
             "--kappa-grid", "10", "--policy-b", "zero", "--x0", "1.0", "--out", str(out)]
        )
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        sol = solve_riccati(load_model(path), alpha=1.05)
        assert result["alpha_condition_ok"] is ok is sol.alpha_condition_ok
        assert result["closed_loop_radius"] == sol.closed_loop_radius
        assert (result["closed_loop_radius"] < 1 / 1.05) is ok

    def test_reruns_write_identical_results(self, tmp_path, model_file):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            code = main(
                ["simulate", "--model", model_file, "--alpha", "0.9", "--kappa", "5",
                 "--paths", "10", "--policy", "optimal", "--seed", "3",
                 "--out", str(out)]
            )
            assert code == 0
        assert (outs[0] / "result.json").read_bytes() == (outs[1] / "result.json").read_bytes()
        assert (outs[0] / "stages.csv").read_bytes() == (outs[1] / "stages.csv").read_bytes()


class TestExitCodes:
    def test_missing_model_file(self, tmp_path, capsys):
        code = main(["riccati", "--model", str(tmp_path / "absent.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag(self, model_file, capsys):
        # a subcommand takes only the flags it reads; the relaxation factor is a
        # setting of sor_solve alone, and --kappa no abbreviation of --kappa-grid
        for command, *flags in (["riccati", "--sideways"], ["riccati", "--paths", "5"],
                                ["region", "--axes", "0", "--res", "5", "--omega", "1.5"],
                                ["overtake", "--kappa-grid", "2", "--paths", "4", "--kappa", "3"]):
            assert main([command, "--model", model_file, *flags]) == 1, flags
            assert "error: unrecognized arguments: " in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_divergent_model_reports_solver_failure(self, tmp_path, capsys):
        data = {"A": 2.0, "B": 0.0, "C": [[1.0], [0.0]], "D": [[0.0], [1.0]]}
        path = tmp_path / "divergent.json"
        path.write_text(json.dumps(data))
        code = main(["riccati", "--model", str(path), "--alpha", "1.0"])
        assert code == 2
        assert "solver failure" in capsys.readouterr().err

    def test_mean_dynamics_beyond_the_float_range_are_unstable(self, tmp_path, capsys):
        # rho(A)^2 = 1e400 overflows: the radius is infinite, not a traceback
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"A": 1e200, "B": 0.0, "C": [[1.0], [0.0]], "D": [[0.0], [1.0]]}))
        report = _run_json(capsys, ["stability", "--model", str(path), "--alpha", "1.0"])
        assert report["radius"] == float("inf") and report["verdict"] == "unstable"

    def test_certified_infeasible_model_exits_with_its_ratio(self, tmp_path, capsys):
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(support.INFEASIBLE_DATA))
        assert main(["riccati", "--model", str(path), "--alpha", "1.0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("solver failure: no positive semidefinite solution")
        assert "certified at step 1" in err and "1.009900" in err

    def test_expanding_discount_norms_fail_as_solver_error(self, model_file, capsys):
        code = main(["norms", "--model", model_file, "--alpha", "1.05", "--paths", "5"])
        assert code == 2

    def test_power_over_an_empty_horizon_is_a_validation_error(self, tmp_path, model_file, capsys):
        out = tmp_path / "empty"
        code = main(["norms", "--model", model_file, "--alpha", "1", "--kappa", "0",
                     "--paths", "5", "--out", str(out)])
        assert code == 1
        assert "kappa" in capsys.readouterr().err
        assert not (out / "result.json").exists()

    def test_bad_state_vector(self, model_file, capsys):
        code = main(["control", "--model", model_file, "--x", "banana"])
        assert code == 1

    def test_bad_injection_matrix(self, model_file, capsys):
        code = main(["detect", "--model", model_file, "--injection", "1,oops"])
        assert code == 1

    def test_ragged_injection_names_the_flag(self, model_file, capsys):
        assert main(["detect", "--model", model_file, "--injection", "1,2;3"]) == 1
        assert capsys.readouterr().err == "error: --injection rows have unequal lengths [2, 1]\n"

    @pytest.mark.parametrize("command", ["control", "simulate", "norms", "region"])
    def test_rollout_slope_is_not_a_choice(self, model_file, capsys, command):
        # a rollout slope is an explicit one of the library (mu=mu_rollout(...).value)
        argv = [command, "--model", model_file, "--mu", "rollout"] + (["--x", "0.5"] if command == "control" else [])
        assert main(argv) == 1
        assert "argument --mu: invalid choice: 'rollout'" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        ("1,2,3", "error: ranges must be (lo, hi) pairs"),
        ("1", "error: ranges must be (lo, hi) pairs"),
        # finite ends whose span overflows used to write a table of invalid cells
        ("-1e308,1e308", "error: ranges must span a finite hi - lo"),
    ], ids=["1,2,3", "1", "-1e308,1e308"])
    def test_a_range_that_is_not_lo_hi_is_a_validation_error(self, tmp_path, model_file, capsys, spec,
                                                              message):
        out = tmp_path / "region"
        code = main(["region", "--model", model_file, "--axes", "0", "--res", "5", f"--range={spec}",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_wrong_shape_injection_is_a_validation_error(self, model_file, capsys):
        code = main(["detect", "--model", model_file, "--injection", "1,2,3"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: H has shape (1, 3)")

    @pytest.mark.parametrize("extra, message", [
        ({"sigma_baru": 0.4}, "error: unknown model keys: ['sigma_baru']\n"),
        ({"criterion": {"kappa": 2.5}}, "error: kappa must be an integer >= 0, got 2.5\n"),
        # the relaxation factor is a setting of sor_solve only, not a model key
        ({"criterion": {"omega": 1.2}}, "error: unknown criterion keys: ['omega']\n"),
    ], ids=["misspelled-key", "fractional-kappa", "omega-key"])
    def test_model_file_typos_are_validation_errors(self, tmp_path, capsys, extra, message):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(dict(support.SCALAR_DATA, **extra)))
        assert main(["riccati", "--model", str(path)]) == 1
        assert capsys.readouterr().err == message

    def test_ragged_matrix_in_a_model_file_is_a_validation_error(self, tmp_path, capsys):
        # it used to end in numpy's traceback
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(dict(support.SCALAR_DATA, A=[[1.0, 0.0], [0.0]])))
        assert main(["riccati", "--model", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: A must be an array of real numbers: ")

    def test_infinite_tolerance_in_a_model_file_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(support.SCALAR_DATA)[:-1]
                        + ', "criterion": {"tolerances": {"fixed_point": 1e999}}}')
        assert main(["riccati", "--model", str(path), "--alpha", "0.95"]) == 1
        assert capsys.readouterr().err == "error: tol_fixed_point must be a finite positive real, got inf\n"

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("csviu ")


class TestParserReuse:
    """Every ``main`` call in a process parses with one shared parser."""

    def test_repeated_calls_match_fresh_processes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap alike in both
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(support.README_DATA))
        model = ["--model", str(path), "--alpha", "0.9"]
        calls = [
            ["region", *model, "--res", "3", "--range=-1,1", "--range", "-2,0"],
            ["control", *model, "--x", "0.5,-0.3", "--mu", "asymptotic"],
            # one --range for both axes: a range left over from the call before would make three
            ["region", *model, "--res", "3", "--range=-1,1"],
            ["riccati", *model, "--alpah", "0.9"],
            ["riccati", *model],
        ]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        fresh = [subprocess.run([sys.executable, "-m", "csviu.cli", *argv], capture_output=True, env=env)
                 for argv in calls]
        assert [run.returncode for run in fresh] == [0, 0, 0, 1, 0]
        for argv, want in zip(calls + calls, fresh + fresh):
            code = main(argv)
            got = capsys.readouterr()
            assert (code, got.out.encode(), got.err.encode()) == (want.returncode, want.stdout, want.stderr), argv
