import numpy as np
import pytest

from csviu import (
    CsviuError,
    ModelError,
    OperatorSet,
    SystemModel,
    check_alpha_stability,
    check_detectability,
    closed_loop_check,
    detectability_search,
    solve_riccati,
    spectral_radius,
)

import oracles
import support


_README_PLANT = support.README_DATA


def _plain(A, sigma_bar_x, n=None, C=None):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = n or A.shape[0]
    return SystemModel(
        A=A,
        B=np.zeros((n, 1)),
        C=np.eye(n) if C is None else C,
        D=np.zeros((n if C is None else np.atleast_2d(C).shape[0], 1)),
        sigma=np.zeros((n, 1)),
        sigma_x=np.zeros((n, n)),
        sigma_bar_x=np.atleast_2d(np.asarray(sigma_bar_x, dtype=float)),
        sigma_u=np.zeros((n, 1)),
        sigma_bar_u=np.zeros((n, 1)),
    )


class TestFiveConditions:
    def test_scalar_stable(self):
        # propagation factor 0.5^2 + 0.3^2 = 0.34
        report = check_alpha_stability(_plain(0.5, 0.3), alpha=1.0)
        assert report.radius == pytest.approx(0.34, abs=1e-12)
        assert report.verdict == "stable"
        assert all(c is True for c in report.conditions)
        assert report.counter_discount_eig_ok is True
        assert report.max_abs_eig == pytest.approx(0.5, abs=1e-12)

    def test_scalar_unstable(self):
        report = check_alpha_stability(_plain(1.1, 0.0), alpha=1.0)
        assert report.radius == pytest.approx(1.21, abs=1e-12)
        assert report.verdict == "unstable"
        assert report.d_stable is False
        assert report.eig_ok is False

    def test_discount_rescues_unstable_mean(self):
        # alpha * (1.1^2) = 0.5 * 1.21 < 1
        report = check_alpha_stability(_plain(1.1, 0.0), alpha=0.5)
        assert report.verdict == "stable"

    def test_growth_noise_alone_can_destabilize(self):
        report = check_alpha_stability(_plain(0.5, 0.9), alpha=1.0)
        assert report.radius == pytest.approx(0.25 + 0.81, abs=1e-12)
        assert report.verdict == "unstable"

    def test_witness_solves_shrink_equation(self, scalar_model):
        report = check_alpha_stability(scalar_model, alpha=0.9)
        assert report.verdict == "stable"
        U = report.lyapunov_witness
        ops = OperatorSet(scalar_model, 0.9)
        np.testing.assert_allclose(U - ops.second_moment_map(U), np.eye(1), atol=1e-10)

    def test_counter_discount_gate(self):
        # second moments shrink, but alpha*|eig A| = 1.05 blocks the alpha>=1 verdict
        report = check_alpha_stability(_plain(0.7, 0.1), alpha=1.5)
        assert report.d_stable is True
        assert report.counter_discount_eig_ok is False
        assert report.verdict == "indeterminate"

    def test_conditions_agree_across_regression_models(self):
        for name, model in support.regression_models():
            for alpha in (0.9, 1.0):
                report = check_alpha_stability(model, alpha)
                settled = [c for c in report.conditions if c is not None]
                assert len(set(settled)) <= 1, f"{name}@{alpha}: {report.conditions}"

    def test_random_sweep_unanimous(self, rng):
        for _ in range(25):
            model = support.random_model(rng, n=3, m=2, radius=float(rng.uniform(0.3, 1.3)))
            report = check_alpha_stability(model, alpha=float(rng.uniform(0.5, 1.0)))
            settled = [c for c in report.conditions if c is not None]
            if report.verdict == "stable":
                assert all(settled)
            elif report.verdict == "unstable":
                assert not any(settled) or len(set(settled)) == 1


    def test_unstable_mean_dynamics_rule_out_any_witness(self):
        # sqrt(alpha) * rho(A) = sqrt(0.9) * 1.1 > 1, so rho(L) >= 0.9 * 1.21 > 1
        rng = np.random.default_rng(8)
        model = support.random_model(rng, n=3, m=1, radius=1.1, growth_scale=0.2)
        report = check_alpha_stability(model, alpha=0.9)
        assert report.eig_ok is False
        assert report.lyapunov_ok is False
        assert report.inverse_positive is False
        assert report.lyapunov_witness is None
        assert report.radius > 1.0
        assert report.verdict == "unstable"

    @pytest.mark.parametrize("a", [1e100, 1e150, 1e200])
    def test_huge_mean_dynamics_give_the_radius_or_infinity(self, a):
        # rho(L) = a^2: from 1e154 on that overflows, and below it the Frobenius
        # norm of the first power step overflowed and gave 0.0
        report = check_alpha_stability(_plain(a, 0.0), alpha=1.0)
        assert report.radius == pytest.approx(a * a, rel=1e-12)
        assert report.verdict == "unstable" and report.d_stable is False and report.eig_ok is False

    def test_huge_mean_dynamics_above_the_resolvent_switch(self):
        # n = 21 runs power iteration, whose Frobenius norm overflowed the same way;
        # next to alpha*rho(A)^2 = 0.95 (0.8e100)^2 the growth noise is negligible
        model = support.spectral_gap_model(np.random.default_rng(21), 21, 5)
        huge = SystemModel.from_dict(dict(model.to_dict(), A=(1e100 * model.A).tolist()))
        report = check_alpha_stability(huge, alpha=0.95)
        assert report.radius == pytest.approx(0.95 * 0.64e200, rel=1e-9)
        assert report.verdict == "unstable"


def _assert_close(got, want, rtol):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(np.asarray(got) - want))) <= rtol * scale


class TestDenseOracle:
    """The certificates against dense n^2 x n^2 solves written in tests/oracles.py."""

    def test_random_draws_match(self):
        rng = np.random.default_rng(2718)
        verdicts = set()
        for _ in range(200):
            n = int(rng.integers(1, 6))
            alpha = float(rng.uniform(0.5, 1.2))
            model = support.random_model(
                rng, n=n, m=1, radius=float(rng.uniform(0.3, 1.3)),
                growth_scale=float(rng.uniform(0.0, 0.5)),
            )
            report = check_alpha_stability(model, alpha)
            want = oracles.stability_conditions(model.A, model.sigma_bar_x, alpha)
            assert report.verdict == want["verdict"]
            assert report.conditions == want["conditions"]
            assert report.radius == pytest.approx(want["radius"], abs=1e-12)
            if want["eig_ok"]:
                _assert_close(report.resolvent_radius, want["resolvent_radius"], 1e-10)
                _assert_close(report.lyapunov_witness, want["witness"], 1e-10)
            else:
                assert report.lyapunov_witness is None
            verdicts.add(report.verdict)
        assert {"stable", "unstable"} <= verdicts

    def test_verdicts_and_radii_match_the_shared_solve_with_a_control_term(self):
        # a zero gain adds m zero noise directions to the shared solve: the
        # capacitance system grows to n + m but the map, its resolvent
        # radius and its solutions stay those the certificate uses
        rng = np.random.default_rng(1971)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            alpha = float(rng.uniform(0.5, 1.0))
            model = support.random_model(rng, n=n, m=int(rng.integers(1, 3)),
                                         radius=float(rng.uniform(0.3, 1.3)),
                                         growth_scale=float(rng.uniform(0.0, 0.5)))
            report = check_alpha_stability(model, alpha)
            solved = OperatorSet(model, alpha).lyapunov_solve(
                np.eye(n), model.A, np.zeros((model.m, n)))
            if report.eig_ok:
                _assert_close(report.resolvent_radius, solved.resolvent_radius, 1e-13)
                _assert_close(report.lyapunov_witness, solved.U, 1e-12)
            if report.verdict != "indeterminate":
                assert (report.verdict == "stable") == solved.stable

    def test_plant_above_the_dense_switch(self):
        rng = np.random.default_rng(24)
        model = support.spectral_gap_model(rng, n=24, m=6)
        report = check_alpha_stability(model, 0.95)
        want = oracles.stability_conditions(model.A, model.sigma_bar_x, 0.95)
        assert report.verdict == want["verdict"] == "stable"
        assert report.conditions == want["conditions"]
        assert report.radius == pytest.approx(want["radius"], rel=1e-10)
        _assert_close(report.resolvent_radius, want["resolvent_radius"], 1e-10)
        _assert_close(report.lyapunov_witness, want["witness"], 1e-10)
        G = -0.1 * rng.standard_normal((6, 24))
        dense = oracles.second_moment_matrix(
            model.A + model.B @ G, model.sigma_bar_x, 0.95, G, model.sigma_bar_u
        )
        assert closed_loop_check(model, 0.95, G).radius == pytest.approx(
            float(np.abs(np.linalg.eigvals(dense)).max()), rel=1e-10
        )

    def test_n50_benchmark_family_certifies_stable(self):
        model = support.spectral_gap_model(np.random.default_rng(50), n=50, m=12)
        report = check_alpha_stability(model, 0.95)
        assert report.verdict == "stable"
        U = report.lyapunov_witness
        S = model.sigma_bar_x
        image = 0.95 * (model.A.T @ U @ model.A + np.diag(np.einsum("pi,pq,qi->i", S, U, S)))
        assert oracles.min_eig(U) > 0
        assert oracles.min_eig(U - image) > 0
        sol = solve_riccati(model, 0.95)
        assert closed_loop_check(model, 0.95, sol.G).ok


class TestDetectability:
    def test_injection_shrinks_unstable_plant(self):
        model = _plain(1.2, 0.1)
        check = check_detectability(model, alpha=1.0, H=[[-0.9]])
        # (1.2 - 0.9)^2 + 0.1^2 = 0.10
        assert check.radius == pytest.approx(0.10, abs=1e-12)
        assert check.ok

    def test_zero_injection_reduces_to_open_loop(self, scalar_model):
        check = check_detectability(scalar_model, alpha=0.9, H=[[0.0]])
        open_loop = check_alpha_stability(scalar_model, 0.9)
        assert check.radius == pytest.approx(open_loop.radius, abs=1e-12)

    def test_shape_guard(self, scalar_model):
        with pytest.raises(CsviuError, match="shape"):
            check_detectability(scalar_model, 1.0, np.zeros((2, 1)))

    def test_wrong_shape_injection_is_a_model_error(self, scalar_model):
        with pytest.raises(ModelError, match=r"H has shape \(1, 3\)"):
            check_detectability(scalar_model, 1.0, [[1.0, 2.0, 3.0]])

    def test_non_finite_injection_is_named(self, scalar_model):
        with pytest.raises(ModelError, match="H contains non-finite"):
            check_detectability(scalar_model, 1.0, [[np.inf]])

    def test_ragged_injection_is_named(self):
        model = SystemModel.from_dict(_README_PLANT)
        with pytest.raises(ModelError, match="^H must be an array of real numbers: "):
            check_detectability(model, 0.95, [[1.0, 0.0], [0.0]])

    def test_search_succeeds_with_full_observation(self):
        model = _plain([[1.3, 0.2], [0.0, 1.1]], np.zeros((2, 2)))
        H = detectability_search(model, alpha=1.0)
        assert H is not None
        assert check_detectability(model, 1.0, H).ok

    def test_search_fails_when_output_is_blind(self):
        model = _plain(1.5, 0.0, C=np.zeros((1, 1)))
        assert detectability_search(model, alpha=1.0) is None

    def test_search_is_deterministic(self, monkeypatch):
        def no_rng(*args, **kwargs):
            raise AssertionError("the search drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        model = _plain([[1.3, 0.2], [0.0, 1.1]], 0.05 * np.eye(2))
        H1 = detectability_search(model, alpha=1.0)
        H2 = detectability_search(model, alpha=1.0)
        np.testing.assert_array_equal(H1, H2)

    def test_search_finds_the_injection_that_cancels_the_hidden_mode(self):
        # the unstable x2' = 1.5 x2 reaches the output only through x1' = x2;
        # H = (-1.5, -2.25)' makes A + HC nilpotent
        model = SystemModel.from_dict({
            "A": [[0.0, 1.0], [0.0, 1.5]], "B": [[1.0], [1.0]], "C": [[1.0, 0.0], [0.0, 0.0]],
            "D": [[0.0], [1.0]], "sigma_bar_x": [[0.1, 0.0], [0.0, 0.1]],
        })
        assert check_detectability(model, 0.95, [[-1.5, 0.0], [-2.25, 0.0]]).ok
        H = detectability_search(model, 0.95)
        assert H is not None
        assert check_detectability(model, 0.95, H).ok

    @pytest.mark.parametrize("index", [1, 8, 13, 14])
    def test_search_finds_seed7_plants(self, index):
        model = _seed7_plants(index + 1)[index]
        H = detectability_search(model, 0.95)
        assert H is not None
        assert check_detectability(model, 0.95, H).ok

    def test_every_injection_found_passes_the_dense_radius_oracle(self):
        found = 0
        for model in _seed7_plants():
            H = detectability_search(model, 0.95)
            if H is None:
                continue
            found += 1
            K = oracles.second_moment_matrix(model.A + H @ model.C, model.sigma_bar_x, 0.95)
            assert spectral_radius(K) < 1.0
        # the 7 plants missed are those whose dual iterate passes 1e6
        assert found >= 293

    def test_search_takes_no_radius(self, monkeypatch):
        def no_radius(*args, **kwargs):
            raise AssertionError("the search took a map radius")

        model = support.diagonal_plant(21)  # above the dense route, where the radius is a power iteration
        with monkeypatch.context() as patch:
            patch.setattr(OperatorSet, "map_radius", no_radius)
            H = detectability_search(model, 0.95)
        assert H is not None
        assert check_detectability(model, 0.95, H).ok


def _seed7_plants(count=300):
    """n = 3 plants with one random output row over a zero control row."""
    rng = np.random.default_rng(7)
    plants = []
    for _ in range(count):
        A = 0.7 * rng.standard_normal((3, 3))
        C = np.vstack([rng.standard_normal((1, 3)), np.zeros((1, 3))])
        plants.append(SystemModel.from_dict({
            "A": A, "B": np.ones((3, 1)), "C": C, "D": [[0.0], [1.0]], "sigma_bar_x": 0.1 * np.eye(3),
        }))
    return plants


class TestClosedLoopCheck:
    def test_stable_loop(self, scalar_model):
        check = closed_loop_check(scalar_model, 0.9, G=[[-0.3]])
        # gain -0.3 puts the mean loop at 0.2
        assert check.gain_radius == pytest.approx(0.2, abs=1e-12)
        assert check.gain_radius_ok is None
        assert check.ok

    def test_expanding_discount_needs_tight_mean_loop(self):
        base = dict(support.SCALAR_DATA, A=0.9)
        model = SystemModel.from_dict(base)
        loose = closed_loop_check(model, 1.5, G=[[-0.15]])  # Acl = 0.75 > 1/1.5
        assert loose.gain_radius_ok is False
        assert not loose.ok
        tight = closed_loop_check(model, 1.5, G=[[-0.4]])  # Acl = 0.5 < 2/3
        assert tight.gain_radius_ok is True
        assert tight.ok == (tight.radius < 1.0)

    def test_radius_matches_manual_operator(self, rng):
        model = support.random_model(rng, n=2, m=2)
        G = -0.2 * rng.standard_normal((2, 2))
        check = closed_loop_check(model, 0.9, G)
        K = oracles.second_moment_matrix(
            model.A + model.B @ G, model.sigma_bar_x, 0.9, G, model.sigma_bar_u
        )
        assert check.radius == pytest.approx(spectral_radius(K), abs=1e-12)

    @pytest.mark.parametrize("G", [[[-0.3]], -0.3, np.zeros((2, 1))], ids=["1x1", "scalar", "transposed"])
    def test_wrong_shape_gain_is_a_model_error(self, G):
        # B @ G would broadcast a (1, 1) gain across the columns of A
        model = SystemModel.from_dict(_README_PLANT)
        with pytest.raises(ModelError, match=r"G has shape .*expected \(1, 2\)"):
            closed_loop_check(model, 0.95, G)

    def test_non_finite_gain_is_a_model_error(self):
        model = SystemModel.from_dict(_README_PLANT)
        with pytest.raises(ModelError, match="G contains non-finite"):
            closed_loop_check(model, 0.95, [[np.nan, -0.1]])

    def test_text_gain_is_a_model_error(self):
        model = SystemModel.from_dict(_README_PLANT)
        with pytest.raises(ModelError, match="^G must be an array of real numbers: "):
            closed_loop_check(model, 0.95, "ab")
