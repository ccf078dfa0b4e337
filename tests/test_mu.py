import numpy as np
import pytest

from csviu import (
    ArgumentError,
    Policy,
    SeriesDivergent,
    mu_asymptotic,
    mu_bound,
    mu_rollout,
    simulate,
    solve_riccati,
)

import csviu.simulator
import support


@pytest.fixture
def slope_sol():
    # Acl = 0.625 - 0.125 = 0.5; slope drive 0.24 - 0.125 * 0.32 = 0.2
    return support.synthetic_solution(
        A=0.625, B=1.0, G=-0.125, alpha=0.9, Wxd=[0.24], Wud=[0.32]
    )


class TestBound:
    def test_frozen_scalar_value(self):
        sol = support.synthetic_solution(
            A=0.625, B=1.0, G=-0.125, alpha=1.0, Wxd=[0.24], Wud=[0.32]
        )
        # resolvent amplification 1 / (1 - 0.5) = 2, drive cap 0.24 + 0.125 * 0.32
        assert mu_bound(sol)[0] == pytest.approx(0.56, abs=1e-12)

    def test_zero_growth_noise_zero_bound(self, scalar_lq_model):
        sol = solve_riccati(scalar_lq_model, alpha=0.9)
        assert np.all(mu_bound(sol) == 0.0)

    def test_divergent_loop_refused(self):
        sol = support.synthetic_solution(A=1.2, B=0.0, G=0.0, alpha=1.0, Wxd=[0.1])
        with pytest.raises(SeriesDivergent, match="closed-loop radius"):
            mu_bound(sol)

    def test_caps_frozen_sign_values_on_diagonal_loops(self, rng):
        # with a normal closed loop the resolvent radius equals its gain,
        # so the cap really does dominate every sign combination
        for _ in range(10):
            n = 2
            A = np.diag(rng.uniform(-0.8, 0.8, size=n))
            sol = support.synthetic_solution(
                A=A,
                B=np.zeros((n, 1)),
                G=np.zeros((1, n)),
                alpha=0.95,
                Wxd=rng.uniform(-0.5, 0.5, size=n),
                Wud=rng.uniform(0.0, 0.5, size=1),
            )
            cap = mu_bound(sol)
            for sx in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
                for su in ([1], [-1], [0]):
                    value = mu_asymptotic(sol, sx, su)
                    assert np.all(np.abs(value) <= cap + 1e-8)


class TestFrozenSign:
    def test_frozen_scalar_values(self, slope_sol):
        got = mu_asymptotic(slope_sol, [1.0], [1.0])
        assert got[0] == pytest.approx(0.9 * 0.2 / (1.0 - 0.45), abs=1e-12)  # 0.327272...

    def test_odd_in_the_signs(self, rng):
        model = support.random_model(rng, n=3, m=2)
        sol = solve_riccati(model, alpha=0.9)
        sx = rng.choice([-1.0, 1.0], size=3)
        su = rng.choice([-1.0, 0.0, 1.0], size=2)
        np.testing.assert_allclose(
            mu_asymptotic(sol, -sx, -su), -mu_asymptotic(sol, sx, su), atol=1e-12
        )

    def test_zero_growth_noise_zero_slope(self, scalar_lq_model):
        sol = solve_riccati(scalar_lq_model, alpha=0.9)
        assert np.all(mu_asymptotic(sol, [1.0], [-1.0]) == 0.0)

    def test_input_validation(self, slope_sol):
        with pytest.raises(ArgumentError, match="lengths"):
            mu_asymptotic(slope_sol, [1.0, 1.0], [1.0])


class TestRollout:
    def test_depth_zero_is_the_leading_term(self, rng):
        model = support.random_model(rng, n=2, m=1)
        sol = solve_riccati(model, alpha=0.9)
        x = np.array([0.7, -1.3])
        est = mu_rollout(sol, x, depth=0, paths=4, seed=11)
        u = sol.G @ x
        expected = 0.9 * (
            sol.forms.Wxd * np.sign(x) + sol.G.T @ (sol.forms.Wud * np.sign(u))
        )
        np.testing.assert_allclose(est.value, expected, atol=1e-12)
        np.testing.assert_allclose(est.stderr, 0.0, atol=1e-12)

    def test_needs_at_least_one_path(self, slope_sol):
        with pytest.raises(ValueError, match="paths"):
            mu_rollout(slope_sol, [1.0], depth=3, paths=0)

    def test_negative_depth_refused_before_any_draw(self, slope_sol, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("noise drawn before the depth was checked")

        monkeypatch.setattr(csviu.simulator, "_noise_chunks", no_draws)
        with pytest.raises(ValueError, match="depth"):
            mu_rollout(slope_sol, [1.0], depth=-1, paths=4)

    def test_frozen_orthant_matches_frozen_sign_series(self):
        # noise-free positive system with u = -0.1 x: signs never move, so the
        # rollout is exactly the truncated frozen-sign series
        A = np.array([[0.5, 0.1], [0.0, 0.4]])
        sol = support.synthetic_solution(
            A=A, B=np.eye(2), G=-0.1 * np.eye(2), alpha=0.9,
            Wxd=[0.2, 0.3], Wud=[0.1, 0.05],
        )
        est = mu_rollout(sol, [1.0, 2.0], depth=80, paths=2, seed=0)
        target = mu_asymptotic(sol, [1.0, 1.0], [-1.0, -1.0])
        np.testing.assert_allclose(est.value, target, atol=1e-10)
        np.testing.assert_allclose(est.stderr, 0.0, atol=1e-15)

    def test_noisy_deep_orthant_stays_near_frozen_sign_value(self):
        # orthant-preserving loop plus a little affine noise: sign flips only
        # happen once the trajectory has decayed to the noise floor, where the
        # series weight is already tiny
        from csviu import SystemModel

        A = [[0.5, 0.1], [0.0, 0.4]]
        model = SystemModel.from_dict({"A": A, "B": np.eye(2).tolist(), "sigma": [[5e-3], [5e-3]]})
        sol = support.synthetic_solution(
            A=A, B=np.eye(2), G=-0.1 * np.eye(2), alpha=0.9,
            Wxd=[0.2, 0.3], Wud=[0.1, 0.05], model=model,
        )
        est = mu_rollout(sol, [1.0, 2.0], paths=512, seed=4)
        target = mu_asymptotic(sol, [1.0, 1.0], [-1.0, -1.0])
        slack = 3.0 * est.stderr + 0.05 * np.abs(target).max()
        assert np.all(np.abs(est.value - target) <= slack)

    def test_policy_object_and_callable_agree(self, rng):
        model = support.random_model(rng, n=2, m=1)
        sol = solve_riccati(model, alpha=0.9)
        x = [0.5, -0.2]
        by_default = mu_rollout(sol, x, depth=12, paths=64, seed=5)
        by_policy = mu_rollout(sol, x, policy=Policy.linear(sol.G), depth=12, paths=64, seed=5)
        np.testing.assert_array_equal(by_default.value, by_policy.value)

    def test_value_matches_the_simulated_linear_paths(self, rng):
        # mu_rollout and simulate share one stage loop: the slope series rebuilt
        # from the states and controls of one simulation is the rollout value
        model = support.random_model(rng, n=2, m=1)
        sol = solve_riccati(model, alpha=0.9)
        x, depth, paths, seed = np.array([0.8, -0.4]), 9, 32, 6
        est = mu_rollout(sol, x, depth=depth, paths=paths, seed=seed)
        ens = simulate(model, Policy.linear(sol.G), x, depth, paths, seed)
        totals = np.zeros((paths, 2))
        M = 0.9 * np.eye(2)
        for k in range(depth + 1):
            drive = (np.sign(ens.states[:, k]) * sol.forms.Wxd
                     + (np.sign(ens.controls[:, k]) * sol.forms.Wud) @ sol.G)
            totals += drive @ M.T
            M = 0.9 * (sol.Acl.T @ M)
        np.testing.assert_allclose(est.value, totals.mean(axis=0), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("tail_tol", [0.0, 1.0, 5.0, float("nan")])
    def test_tail_tolerance_must_lie_in_the_unit_interval(self, slope_sol, tail_tol):
        with pytest.raises(ValueError, match="tail_tol"):
            mu_rollout(slope_sol, [1.0], paths=2, tail_tol=tail_tol)

    def test_depth_heuristic_reaches_tail_tolerance(self, rng):
        model = support.random_model(rng, n=2, m=1)
        sol = solve_riccati(model, alpha=0.9)
        est = mu_rollout(sol, [1.0, 1.0], paths=2, seed=0, tail_tol=1e-6)
        base = 0.9 * sol.closed_loop_radius
        assert base**est.depth <= 1e-6 * 1.0000001

    def test_more_paths_tightens_the_error_bars(self, rng):
        model = support.random_model(rng, n=2, m=1)
        sol = solve_riccati(model, alpha=0.9)
        small = mu_rollout(sol, [1.0, -1.0], depth=20, paths=64, seed=9)
        large = mu_rollout(sol, [1.0, -1.0], depth=20, paths=1024, seed=9)
        assert large.stderr.mean() < small.stderr.mean()

    def test_reports_carry_the_bound(self, rng):
        model = support.random_model(rng, n=2, m=1)
        sol = solve_riccati(model, alpha=0.9)
        est = mu_rollout(sol, [0.3, 0.3], depth=5, paths=8, seed=1)
        np.testing.assert_allclose(est.bound, mu_bound(sol), atol=1e-14)
        assert est.paths == 8

    def test_state_length_checked(self, rng):
        model = support.random_model(rng, n=2, m=1)
        sol = solve_riccati(model, alpha=0.9)
        with pytest.raises(ValueError, match="length"):
            mu_rollout(sol, [1.0, 2.0, 3.0], depth=1)
