import contextlib
import itertools
import json
import warnings

import numpy as np
import pytest

import csviu.control
import csviu.region
from csviu import (
    ArgumentError,
    AssumptionViolated,
    ControlSubproblem,
    MaxIterations,
    SeriesDivergent,
    SystemModel,
    mu_asymptotic,
    optimal_control,
    optimal_control_batch,
    scan_region,
    solve_riccati,
    sor_solve,
)
from csviu.cli import main
from csviu.control import sor_solve_batch

import oracles
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

    def test_coupled_channels_are_consistent(self):
        # the per-channel margin Wud - |b| had the wrong sign on 26 channel-cells of the
        # cycling plant's zero-slope scan; the reported margin is exact
        sol = solve_riccati(SystemModel.from_dict(support.CYCLING_PLANT_DATA), alpha=0.95)
        for mu_kind in ("zero", "asymptotic"):
            out = scan_region(sol, resolution=41, mu_kind=mu_kind)
            assert not out.invalid.any()
            wrong = ~out.boundary & (((out.margins > 0) & (out.labels != 0))
                                     | ((out.margins < 0) & (out.labels == 0)))
            assert wrong.sum() == 0 and not out.inconsistent.any(), mu_kind

    def test_exact_margins_follow_the_optimality_condition(self):
        sol = solve_riccati(SystemModel.from_dict(support.CYCLING_PLANT_DATA), alpha=0.95)
        out = scan_region(sol, resolution=21, mu_kind="zero", tol=1e-12)
        U = out.u_star
        active = U != 0.0
        assert active.any() and (~active).any()
        # an active channel's margin is -2 Lambda_ii |u_i|, an inactive one's is >= 0
        np.testing.assert_allclose(out.margins[active], (-2.0 * np.diag(sol.Lambda) * np.abs(U))[active],
                                   rtol=0.0, atol=1e-9)
        assert (out.margins[~active] >= -1e-9).all()

    def test_a_wrong_control_is_flagged(self, monkeypatch):
        sol = solve_riccati(SystemModel.from_dict(support.CYCLING_PLANT_DATA), alpha=0.95)
        feedback = csviu.control._feedback

        def zeroed(*args):
            U, *rest = feedback(*args)
            return (np.zeros_like(U), *rest)

        monkeypatch.setattr(csviu.region, "_feedback", zeroed)
        out = scan_region(sol, resolution=9, mu_kind="zero")
        assert out.inconsistent.any()
        assert not out.inconsistent[out.margins > 0].any()  # inactive cells stay consistent

    @pytest.mark.parametrize("mu_kind", ["zero", "asymptotic"])
    def test_one_channel_exact_margins_are_the_inaction_margins(self, mu_kind):
        # with m = 1 the exact margin is the per-channel one, Wud - |b|, to the bit
        sol = solve_riccati(SystemModel.from_dict(support.README_DATA), alpha=0.95)
        out = scan_region(sol, resolution=41, mu_kind=mu_kind)
        xi, yj = np.meshgrid(out.grid_x, out.grid_y, indexing="ij")
        X = np.stack([xi.reshape(-1), yj.reshape(-1)], axis=1)
        U, Mu = optimal_control_batch(sol, X, mu_kind=mu_kind)
        assert U.tobytes() == out.u_star.tobytes()
        per_channel = sol.law.c - np.abs(Mu @ sol.model.B + 2.0 * X @ sol.Sigma.T)
        assert per_channel.tobytes() == out.margins.tobytes()
        assert not out.inconsistent.any()

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
        # a range that is not (lo, hi) used to raise a bare ValueError from the unpacking
        ((0,), [(1, -1, 0)], r"ranges must be \(lo, hi\) pairs"),
        ((0, 1), [(-1, 1), (-1, 1, 0)], "^ranges must be"),
        ((0,), [[[-1, 1]]], r"ranges must be \(lo, hi\) pairs"),
        ((0,), [(1,)], r"ranges must be \(lo, hi\) pairs"),
        # finite ends whose span overflows used to scan a grid of [nan, inf, inf, inf, 1e308]
        ((0,), ((-1e308, 1e308),), r"ranges must span a finite hi - lo"),
    ], ids=["repeated-axis", "axis-out-of-range", "range-count", "nan-end", "infinite-end", "triple",
            "ragged", "nested", "single", "overflowing-span"])
    def test_bad_axes_and_ranges_are_argument_errors(self, rng, axes, ranges, match):
        sol = solve_riccati(support.random_model(rng, n=2, m=1), alpha=0.9)
        with pytest.raises(ArgumentError, match=match):
            scan_region(sol, axes=axes, ranges=ranges, resolution=3)

    @pytest.mark.parametrize("axes", [(0,), (1, 0)], ids=["one-axis", "two-axes"])
    def test_one_range_serves_every_scanned_axis(self, rng, axes):
        # scan_region(sol, axes=(0,)) used to reject its own two default ranges
        sol = solve_riccati(support.random_model(rng, n=2, m=1), alpha=0.9)
        default = scan_region(sol, axes=axes, resolution=3, mu_kind="zero")
        assert default.ranges == ((-2.0, 2.0),) * len(axes)
        given = scan_region(sol, axes=axes, ranges=(-1, 0.5), resolution=3, mu_kind="zero")
        assert given.ranges == ((-1.0, 0.5),) * len(axes)
        for grid in (given.grid_x, given.grid_y)[:len(axes)]:
            assert grid.tolist() == [-1.0, -0.25, 0.5]

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


# the cycling plant and coupled random plants with m = 2, 3 and 4 channels, whose noise
# is large enough for every channel to be off near the origin, at alpha = 0.95
_REGION_PLANTS = {
    "cycling": lambda: SystemModel.from_dict(support.CYCLING_PLANT_DATA),
    **{f"random-m{m}": (lambda m=m: support.random_model(np.random.default_rng(40 + m), n=4, m=m,
                                                        noise_scale=0.3, growth_scale=0.3))
       for m in (2, 3, 4)},
}


class TestExactCriticalRegions:
    """The zero-slope stage law against its sign-pattern enumeration.

    With the zero slope, b = 2 Sigma x is linear in x and the deadzone
    weights are constant, so the law is piecewise affine over at most 3^m
    regions, one per control sign pattern; ``oracles.sign_pattern_law``
    enumerates them.  States come at three scales and within about 1e-8 of
    a region boundary.
    """

    @staticmethod
    def _oracle(sol, X):
        assert (sol.forms.Wud >= 0.0).all()
        return oracles.sign_pattern_law(sol.Lambda, 2.0 * X @ sol.Sigma.T, sol.forms.Wud)

    def _near_boundaries(self, sol, X):
        """States on both sides of a region boundary: bisect, 30 times, between
        successive states of ``X`` whose sign patterns differ."""
        signs = np.sign(self._oracle(sol, X)[0])
        pairs = (signs[:-1] != signs[1:]).any(axis=1).nonzero()[0][:300]
        lo, hi, start = X[pairs], X[pairs + 1], signs[pairs]
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            same = (np.sign(self._oracle(sol, mid)[0]) == start).all(axis=1)[:, None]
            lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
        return np.vstack([lo, hi])

    @pytest.mark.parametrize("plant", sorted(_REGION_PLANTS))
    def test_batch_controls(self, plant):
        sol = solve_riccati(_REGION_PLANTS[plant](), alpha=0.95)
        rng = np.random.default_rng(1)
        X = np.vstack([scale * rng.standard_normal((1000, sol.model.n)) for scale in (0.1, 1.0, 5.0)])
        near = self._near_boundaries(sol, X)
        assert len(near) >= 400
        X = np.vstack([X, near])
        want, margins, counts = self._oracle(sol, X)
        assert (counts == 1).all()
        assert np.abs(margins[-len(near):]).min(axis=1).max() <= 1e-6
        patterns = {tuple(p) for p in np.sign(want)}
        assert (0.0,) * sol.model.m in patterns  # every channel off
        assert any(0.0 in p and any(p) for p in patterns)  # a partial deadzone
        U, _ = optimal_control_batch(sol, X, mu_kind="zero", tol=1e-12)
        scale = np.maximum(1.0, np.abs(want).max(axis=1, keepdims=True))
        assert (np.abs(U - want) <= 1e-11 * scale).all()

    @pytest.mark.parametrize("plant", sorted(_REGION_PLANTS))
    def test_scan_labels_margins_and_boundary(self, plant):
        sol = solve_riccati(_REGION_PLANTS[plant](), alpha=0.95)
        n, m = sol.model.n, sol.model.m
        # along x1 every channel is off until |2 (Sigma x)_i| reaches c_i, and channel i
        # reaches it first; the middle cell of each 1-D scan has on channel i margin 0,
        # margin 5e-9, or |u| = 1e-8 just past the edge
        pull = np.abs(2.0 * sol.Sigma[:, 0])
        i = int(np.argmin(sol.forms.Wud / pull))
        scans = [scan_region(sol, axes=(0,), ranges=((0.0, 2.0 * (sol.forms.Wud[i] - gap) / pull[i]),),
                             resolution=21, mu_kind="zero", tol=1e-12)
                 for gap in (0.0, 5e-9, -2e-8 * sol.Lambda[i, i])]
        assert scans[0].boundary[10, i] and not scans[1].boundary[10, i] and scans[2].labels[10, i] != 0
        base = np.random.default_rng(2).standard_normal(n)
        scans += [scan_region(sol, axes=(0, 1), ranges=((-r, r),), resolution=21, base_point=r * base,
                              mu_kind="zero", tol=1e-12) for r in (0.1, 1.0)]
        for out in scans:
            X = np.tile(out.base_point, (out.invalid.size, 1))
            if out.grid_y is None:
                X[:, 0] = out.grid_x
            else:
                X[:, 0], X[:, 1] = (g.reshape(-1) for g in np.meshgrid(out.grid_x, out.grid_y, indexing="ij"))
            want, margins, _ = self._oracle(sol, X)
            labels = (want > 1e-9).astype(np.int8) - (want < -1e-9).astype(np.int8)
            got = [a.reshape(-1, m) for a in (out.labels, out.margins, out.boundary)]
            away = np.abs(margins) > 1e-9
            assert away.any()
            np.testing.assert_array_equal(got[0][away], labels[away])
            np.testing.assert_array_equal(got[2][away], False)
            assert got[2][np.abs(margins) <= 0.5e-9].all()
            # the margins are differences of terms of the size of c, b and 2 Lambda u
            terms = sol.forms.Wud + np.abs(2.0 * X @ sol.Sigma.T) + 2.0 * np.abs(want) @ np.abs(sol.Lambda)
            np.testing.assert_allclose(got[1], margins, rtol=0.0, atol=1e-11 * max(1.0, terms.max()))
            assert not out.invalid.any() and not out.inconsistent.any()


# Sweeps that the cycling plant's stage solves need at alpha = 0.95 over x1, x2 with
# x3 = 0.  With the zero slope the cell (-0.125, -0.25) and its mirror (0.125, 0.25)
# need 174 and every other cell of these scans at most 2.  With the asymptotic slope,
# on the 9 x 9 scan of [-1, 0] x [-2, 0], cell 0's first solve needs 4 and every other
# first solve at most 3, and the slope re-solves of cells 0 and 10 need 3 and every
# other re-solve at most 2.
# Per slope kind, the sweep budgets (first solve, slope re-solves) that fail exactly
# those solves on the scans below.
SHORT_BUDGETS = {"zero": (100, 100), "asymptotic": (3, 2)}


@contextlib.contextmanager
def _short_budgets(monkeypatch, mu_kind):
    """Within the block, give a scan's or a feedback call's first stage solve and
    its slope re-solves the budgets of ``mu_kind`` in ``SHORT_BUDGETS``; yields
    the first, which a direct feedback call passes as ``max_iters``."""
    first, later = SHORT_BUDGETS[mu_kind]
    sweeps, solves = csviu.control._sweeps, []

    def short(law, B, tol, max_iters):
        solves.append(len(B))
        return sweeps(law, B, tol, max_iters if len(solves) == 1 else later)

    with monkeypatch.context() as patch:
        patch.setattr(csviu.region, "_MAX_SWEEPS", first)
        patch.setattr(csviu.control, "_sweeps", short)
        yield first


def _slow_scan(monkeypatch, resolution=3, ranges=((-0.125, 0.125), (-0.25, 0.0)), mu_kind="zero",
               short=True):
    """Scan of the cycling plant over x1, x2 with x3 = 0 and its grid points,
    under the short budgets when ``short``, else under the default one.

    With the short budgets the default ranges hold one failing cell,
    [0, 0] = (-0.125, -0.25), which is inactive once solved, next to the
    inactive origin, [1, 2]; with the default budget every cell converges.
    """
    sol = solve_riccati(SystemModel.from_dict(support.CYCLING_PLANT_DATA), alpha=0.95)
    with _short_budgets(monkeypatch, mu_kind) if short else contextlib.nullcontext():
        out = scan_region(sol, ranges=ranges, resolution=resolution, mu_kind=mu_kind)
    points = [[x, y, 0.0] for x in out.grid_x for y in out.grid_y]
    return sol, out, np.array(points)


class TestFailedCells:
    """A stage solve that misses tol within its sweep budget fails its own
    cell, never the scan."""

    def test_failed_cell_is_invalid_with_label_zero(self, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, out, _ = _slow_scan(monkeypatch)
        assert np.argwhere(out.invalid).tolist() == [[0, 0]]
        assert np.isnan(out.u_star[0, 0]).all() and np.isnan(out.margins[0, 0]).all()
        assert (out.labels[0, 0] == 0).all()
        assert not out.inconsistent.any()
        valid = ~out.invalid
        assert np.isfinite(out.u_star[valid]).all() and np.isfinite(out.margins[valid]).all()
        _, clean, _ = _slow_scan(monkeypatch, short=False)
        assert not clean.invalid.any()
        np.testing.assert_array_equal(clean.labels[valid], out.labels[valid])

    @pytest.mark.parametrize(
        "mu_kind, ranges, resolution, failed",
        [
            # two rows fail together, so the column kernel runs out of budget with both sweeping
            ("zero", ((-0.125, 0.125), (-0.25, 0.25)), 3, [0, 8]),
            # one row fails the first solve and one a slope re-solve
            ("asymptotic", ((-1.0, 0.0), (-2.0, 0.0)), 9, [0, 10]),
        ],
    )
    def test_converged_rows_equal_their_batches_of_one(self, mu_kind, ranges, resolution, failed,
                                                        monkeypatch):
        sol, out, points = _slow_scan(monkeypatch, resolution, ranges, mu_kind=mu_kind)
        invalid = out.invalid.reshape(-1)
        assert np.flatnonzero(invalid).tolist() == failed
        U = out.u_star.reshape(-1, sol.model.m)
        for row in np.flatnonzero(~invalid):
            alone, _ = optimal_control_batch(sol, points[row][None], mu_kind=mu_kind)
            np.testing.assert_allclose(U[row], alone[0], rtol=0.0, atol=1e-12)

    def test_failed_rows_take_no_further_slope_solve(self, monkeypatch):
        solves, sweeps = [], csviu.control._sweeps

        def recording(law, B, *args):
            result = sweeps(law, B, *args)
            solves.append((len(B), int(np.isnan(result[2]).any(axis=1).sum())))
            return result

        monkeypatch.setattr(csviu.control, "_sweeps", recording)
        _, out, _ = _slow_scan(monkeypatch, 9, ((-1.0, 0.0), (-2.0, 0.0)), mu_kind="asymptotic")
        # (rows solved, rows failed): 81 - 1 failed - 1 settled rows re-solve, then the rows
        # whose signs still moved, without the one that failed its re-solve
        assert solves == [(81, 1), (79, 1), (3, 0)]
        assert out.invalid.sum() == 2

    @pytest.mark.parametrize(
        "mu_kind, ranges, resolution, count",
        [
            ("zero", ((-0.125, 0.125), (-0.25, 0.25)), 3, "2 of 9"),
            # a slope re-solve fails one more row; the first solve's failure still counts
            ("asymptotic", ((-1.0, 0.0), (-2.0, 0.0)), 9, "2 of 81"),
        ],
    )
    def test_batch_entry_point_raises_naming_the_failed_rows(self, mu_kind, ranges, resolution, count,
                                                             monkeypatch):
        sol, _, points = _slow_scan(monkeypatch, resolution, ranges, mu_kind=mu_kind, short=False)
        with _short_budgets(monkeypatch, mu_kind) as budget, pytest.raises(
                MaxIterations, match=f"on {count} rows .*retry with a larger max_iters") as failure:
            optimal_control_batch(sol, points, mu_kind=mu_kind, max_iters=budget)
        assert failure.value.iterations == budget
        assert failure.value.residual > 1e-10

    def test_cli_counts_only_valid_cells_as_inactive(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "cycling.json"
        path.write_text(json.dumps(support.CYCLING_PLANT_DATA))
        argv = ["region", "--model", str(path), "--alpha", "0.95", "--res", "3", "--mu", "zero",
                "--range=-0.125,0.125", "--range=-0.25,0"]

        def run(budget):
            monkeypatch.setattr(csviu.region, "_MAX_SWEEPS", budget)
            assert main(argv) == 0
            return json.loads(capsys.readouterr().out)

        clean, failed = run(10000), run(SHORT_BUDGETS["zero"][0])
        assert (clean["invalid_cells"], failed["invalid_cells"]) == (0, 1)
        # the failed cell and the origin are inactive once solved; the failed cell, labelled 0,
        # is not counted
        assert (clean["inactive_cells"], failed["inactive_cells"]) == (2, 1)


class TestLargeOmega:
    """Projected relaxation converges at every omega in (0, 2)."""

    def test_cycling_plant_scan_converges_at_omega_1_9(self, monkeypatch):
        # the stage problems of the 41 x 41 zero-slope scan, one sor_solve each; the former
        # unprojected sweep left 23 of these 1681 rows cycling at omega 1.9
        sol, scan, points = _slow_scan(monkeypatch, 41, ((-2.0, 2.0), (-2.0, 2.0)), short=False)
        B = 2.0 * points @ sol.Sigma.T
        law = sol.law
        fast = np.array([sor_solve(ControlSubproblem(W=law.W, b=b, c=law.c, Lambda=sol.Lambda), omega=1.9).nu
                         for b in B])
        slow = sor_solve_batch(law.W, B, law.c)
        np.testing.assert_allclose(fast, slow, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(slow, scan.u_star.reshape(-1, 2), rtol=0.0, atol=1e-12)
        labels = (fast > 1e-9).astype(np.int8) - (fast < -1e-9).astype(np.int8)
        np.testing.assert_array_equal(labels, scan.labels.reshape(-1, 2))


class TestTypedErrors:
    """An error that is not per cell is raised once, not spread over the map."""

    def test_divergent_slope_series(self):
        sol = support.synthetic_solution(
            A=1.2, B=1.0, G=-0.1, alpha=1.0, Wud=[1.0], Sigma=[[2.0]], Lambda=[[1.0]]
        )
        with pytest.raises(SeriesDivergent):
            scan_region(sol, axes=(0,), ranges=((-2, 2),), resolution=41, mu_kind="asymptotic")

    def test_negative_deadzone_weights(self):
        sol = support.synthetic_solution(
            A=0.5, B=1.0, G=-0.5, Wud=[-1.0], Sigma=[[2.0]], Lambda=[[1.0]]
        )
        with pytest.raises(AssumptionViolated):
            scan_region(sol, axes=(0,), ranges=((-2, 2),), resolution=21, mu_kind="zero")
