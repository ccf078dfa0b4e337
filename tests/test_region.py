import itertools
import json
import warnings

import numpy as np
import pytest

import csviu.region
from csviu import (
    ArgumentError,
    CsviuError,
    SystemModel,
    mu_asymptotic,
    optimal_control,
    scan_region,
    solve_riccati,
)
from csviu.cli import main

import support


def _band_sol():
    # inaction band |x| < 0.25 for pull 4x against deadzone weight 1
    return support.synthetic_solution(
        A=0.5, B=1.0, G=-0.5, alpha=1.0, Wud=[1.0], Sigma=[[2.0]], Lambda=[[1.0]]
    )


class TestScan1D:
    def test_quarter_band_labels(self):
        sol = _band_sol()
        out = scan_region(sol, axes=(0,), ranges=((-1.0, 1.0),), resolution=81, mu_kind="zero")
        assert out.grid_y is None
        assert out.labels.shape == (81, 1)
        for i, x in enumerate(out.grid_x):
            if out.boundary[i, 0]:
                continue
            expected = 0 if abs(x) < 0.25 else -int(np.sign(x))
            assert out.labels[i, 0] == expected, x
        assert not out.inconsistent.any()
        assert not out.invalid.any()

    def test_origin_cell_is_inactive(self):
        sol = _band_sol()
        out = scan_region(sol, axes=(0,), ranges=((-1.0, 1.0),), resolution=41, mu_kind="zero")
        mid = 20  # odd grid, symmetric range: exact zero
        assert out.grid_x[mid] == 0.0
        assert out.labels[mid, 0] == 0
        assert out.margins[mid, 0] == pytest.approx(1.0, abs=1e-12)

    def test_boundary_flags_near_band_edges(self):
        sol = _band_sol()
        # resolution chosen so +-0.25 land exactly on grid nodes
        out = scan_region(
            sol, axes=(0,), ranges=((-1.0, 1.0),), resolution=9, mu_kind="zero"
        )
        edge_nodes = [i for i, x in enumerate(out.grid_x) if abs(abs(x) - 0.25) < 1e-12]
        assert edge_nodes
        for i in edge_nodes:
            assert out.boundary[i, 0]

    def test_point_symmetry_with_zero_slope(self, rng):
        model = support.random_model(rng, n=2, m=2)
        sol = solve_riccati(model, alpha=0.9)
        out = scan_region(
            sol, axes=(0,), ranges=((-2.0, 2.0),), resolution=21, mu_kind="zero"
        )
        np.testing.assert_allclose(out.u_star, -out.u_star[::-1], atol=1e-8)
        np.testing.assert_array_equal(out.labels, -out.labels[::-1])


class TestScan2D:
    def test_shapes_and_grid_layout(self, rng):
        model = support.random_model(rng, n=3, m=1)
        sol = solve_riccati(model, alpha=0.9)
        out = scan_region(
            sol, axes=(0, 2), ranges=((-1.0, 1.0), (0.0, 2.0)), resolution=7
        )
        assert out.u_star.shape == (7, 7, 1)
        assert out.invalid.shape == (7, 7)
        assert out.grid_x[0] == -1.0 and out.grid_y[-1] == 2.0

    def test_cells_match_pointwise_solves(self, rng):
        model = support.random_model(rng, n=2, m=1)
        sol = solve_riccati(model, alpha=0.9)
        out = scan_region(sol, axes=(0, 1), ranges=((-1.0, 1.0),), resolution=5)
        for i in range(5):
            for j in range(5):
                x = np.array([out.grid_x[i], out.grid_y[j]])
                res = optimal_control(sol, x, mu_kind="asymptotic")
                np.testing.assert_allclose(out.u_star[i, j], res.u_star, atol=1e-7)

    def test_no_inconsistent_cells_on_solved_models(self, rng):
        for n, m in ((2, 1), (2, 2)):
            model = support.random_model(rng, n=n, m=m)
            sol = solve_riccati(model, alpha=0.9)
            out = scan_region(sol, axes=(0, 1), resolution=15)
            assert not out.inconsistent.any(), (n, m)
            assert not out.invalid.any()

    def test_deadzone_grows_with_the_growth_weights(self, rng):
        # scaling the control growth channel up scales Wud up, so the set of
        # inactive cells can only widen
        rng0 = np.random.default_rng(99)
        base = support.random_model(rng0, n=2, m=1)
        inactive_sets = []
        for t in (1.0, 1.5, 2.0):
            model = type(base)(
                base.A, base.B, base.C, base.D, base.sigma,
                base.sigma_x, base.sigma_bar_x, base.sigma_u, t * base.sigma_bar_u,
            )
            sol = solve_riccati(model, alpha=0.9)
            out = scan_region(sol, axes=(0, 1), resolution=21, mu_kind="zero")
            inactive_sets.append((out.labels[..., 0] == 0) & ~out.boundary[..., 0])
        assert inactive_sets[0].sum() <= inactive_sets[1].sum() <= inactive_sets[2].sum()
        # strict inclusion up to boundary cells
        assert np.all(~inactive_sets[0] | inactive_sets[1] | out.boundary[..., 0])

    def test_axis_validation(self, rng):
        model = support.random_model(rng, n=2, m=1)
        sol = solve_riccati(model, alpha=0.9)
        with pytest.raises(ValueError, match="resolution"):
            scan_region(sol, axes=(0,), ranges=((-1, 1),), resolution=1)
        with pytest.raises(ValueError, match="base_point"):
            scan_region(sol, axes=(0,), ranges=((-1, 1),), base_point=[1.0])
        with pytest.raises(ArgumentError, match="base_point must be finite"):
            scan_region(sol, axes=(0,), ranges=((-1, 1),), base_point=[0.0, np.nan])

    @pytest.mark.parametrize("resolution", [2.5, True, "9"], ids=["fraction", "bool", "string"])
    def test_resolution_must_be_an_integer(self, rng, resolution):
        # 2.5 used to fail inside numpy with a TypeError that named no argument
        sol = solve_riccati(support.random_model(rng, n=2, m=1), alpha=0.9)
        with pytest.raises(ValueError, match="resolution"):
            scan_region(sol, axes=(0,), ranges=((-1, 1),), resolution=resolution)

    @pytest.mark.parametrize("axes, ranges, match", [
        ((0, 0), ((-1, 1),), "axes must be one or two distinct"),
        ((0, 5), ((-1, 1),), r"axes \(0, 5\) out of range"),
        ((0,), ((-1, 1), (-1, 1)), "need 1 ranges, got 2"),
        # a NaN or infinite end used to be reported as a bad state X
        ((0,), ((-1, np.nan),), "ranges must be a finite real"),
        ((0, 1), ((-1, 1), (-np.inf, 1)), "ranges must be a finite real"),
    ], ids=["repeated-axis", "axis-out-of-range", "range-count", "nan-end", "infinite-end"])
    def test_bad_axes_and_ranges_are_argument_errors(self, rng, axes, ranges, match):
        sol = solve_riccati(support.random_model(rng, n=2, m=1), alpha=0.9)
        with pytest.raises(ArgumentError, match=match):
            scan_region(sol, axes=axes, ranges=ranges, resolution=3)

    @pytest.mark.parametrize("axes", [(0.5,), (True,), (0, 1.0)], ids=["fraction", "bool", "float"])
    def test_axes_must_be_integers(self, rng, axes):
        # 0.5 used to be truncated to axis 0 and scanned without a word
        sol = solve_riccati(support.random_model(rng, n=2, m=1), alpha=0.9)
        with pytest.raises(ArgumentError, match="axes"):
            scan_region(sol, axes=axes, ranges=((-1, 1),), resolution=3)


class TestGainTable:
    """The law's affine form, u = G x + offset for each frozen sign pattern.

    Deep inside an orthant neither the state nor the control signs flip, the
    slope is mu = mu_asymptotic(sign x, sign u), and the stage solve returns
    G x - Lambda^{-1} (B' mu + Wud o sign u) / 2: the perturbed affine
    Riccati form and the generalized normal equation give one control.
    """

    @staticmethod
    def _assert_affine(sol, x):
        res = optimal_control(sol, x, mu_kind="asymptotic")
        s_u = np.sign(res.u_star)
        assert np.all(s_u != 0), "every channel acts deep inside an orthant"
        mu = mu_asymptotic(sol, np.sign(x), s_u)
        np.testing.assert_allclose(res.mu, mu, rtol=1e-12, atol=1e-14)
        offset = -0.5 * np.linalg.solve(sol.Lambda, sol.model.B.T @ mu + sol.forms.Wud * s_u)
        np.testing.assert_allclose(res.u_star, sol.G @ x + offset, rtol=1e-10, atol=1e-10)

    def test_affine_law_matches_control_deep_in_an_orthant(self):
        A = np.array([[0.5, 0.1], [0.0, 0.4]])
        model = SystemModel.from_dict({
            "A": A.tolist(), "B": np.eye(2).tolist(),
            "C": np.vstack([np.eye(2), np.zeros((2, 2))]).tolist(),
            "D": np.vstack([np.zeros((2, 2)), np.eye(2)]).tolist(),
            "sigma": [[0.01], [0.01]],
            "sigma_x": (0.01 * np.eye(2)).tolist(),
            "sigma_bar_x": (0.05 * np.eye(2)).tolist(),
            "sigma_u": (0.01 * np.eye(2)).tolist(),
            "sigma_bar_u": (0.05 * np.eye(2)).tolist(),
        })
        sol = solve_riccati(model, alpha=0.9)
        for signs in itertools.product((1.0, -1.0), repeat=2):
            self._assert_affine(sol, np.array(signs) * [40.0, 30.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_affine_law_on_random_plants(self, seed):
        rng = np.random.default_rng(seed)
        sol = solve_riccati(support.random_model(rng, n=3, m=2), alpha=0.9)
        for signs in itertools.product((1.0, -1.0), repeat=3):
            self._assert_affine(sol, 40.0 * np.array(signs) * (1.0 + rng.random(3)))


def _fail_at_origin(monkeypatch):
    # the batch solve fails, and so does the per-cell solve at x = 0
    single = csviu.region.optimal_control

    def batch(*args, **kwargs):
        raise CsviuError("batch solve failed")

    def one(sol, x, **kwargs):
        if not np.any(x):
            raise CsviuError("cell solve failed")
        return single(sol, x, **kwargs)

    monkeypatch.setattr(csviu.region, "optimal_control_batch", batch)
    monkeypatch.setattr(csviu.region, "optimal_control", one)


class TestFailedCells:
    def test_failed_cell_is_invalid_with_label_zero(self, monkeypatch):
        sol = solve_riccati(SystemModel.from_dict(support.README_DATA), alpha=0.95)
        _fail_at_origin(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = scan_region(sol, resolution=5)
        assert out.invalid.sum() == 1 and out.invalid[2, 2]
        assert np.isnan(out.u_star[2, 2]).all()
        assert (out.labels[2, 2] == 0).all()

    def test_cli_counts_only_valid_cells_as_inactive(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(support.README_DATA))
        argv = ["region", "--model", str(path), "--alpha", "0.95", "--res", "5", "--mu", "asymptotic"]

        def run():
            assert main(argv) == 0
            return json.loads(capsys.readouterr().out)

        clean = run()
        sol = solve_riccati(SystemModel.from_dict(support.README_DATA), alpha=0.95)
        assert (scan_region(sol, resolution=5).labels[2, 2] == 0).all()  # the origin is inactive
        _fail_at_origin(monkeypatch)
        failed = run()
        assert failed["invalid_cells"] == 1
        assert failed["inactive_cells"] == clean["inactive_cells"] - 1
