from dataclasses import replace

import numpy as np
import pytest

from csviu import (
    AssumptionViolated,
    ControlSubproblem,
    MaxIterations,
    Policy,
    SingularLambda,
    cost_Ju,
    inaction_test,
    optimal_control,
    optimal_control_batch,
    optimal_norms,
    scan_region,
    solve_riccati,
    sor_solve,
    stage_value,
)
import csviu.control
import csviu.mu
from csviu.control import resolve_mu, sor_solve_batch, stage_value_batch

import oracles
import support


# converges to nu = [0.01079455, 0] at omega 0.5, 1 and 1.5; cycles at omega 1.9
CYCLING_AT_LARGE_OMEGA = (
    [[7.98889531, -5.71263999], [-5.71263999, 9.84118875]],
    [-1.4654373, 1.25143894],
    [1.29296426, 1.86936671],
)


# Half the inverse curvature and the deadzone weights of the n = 6, m = 3
# benchmark plant (perfbench/inputs.py) at alpha = 0.95, with five recorded
# stage right-hand sides; alone, at omega 1 and tol 1e-10, the rows need
# MIXED_SWEEPS sweeps.
MIXED_W = [
    [0.05861976268223159, 0.04719937452243435, 0.0079558868704316],
    [0.04719937452243435, 0.04802638132811947, 0.00954383114708809],
    [0.0079558868704316, 0.00954383114708809, 0.00636744209174849],
]
MIXED_C = [0.15593047910987357, 0.0953444026678063, 0.07077965804756972]
MIXED_B = [
    [-30.335742716713916, 18.788661150210675, 23.907985225859502],
    [1.4806221010032314, -3.9466923279771127, 11.656302058973091],
    [-6.479059650002271, 6.657201246827292, -2.011028601507416],
    [-0.2395827177786396, 0.7789496317390796, -2.5768421290553998],
    [-0.09784837618429076, -0.06844242515826782, 0.01715158268333816],
]
MIXED_SWEEPS = [2, 3, 12, 43, 77]


def _random_subproblem(rng, m):
    root = rng.standard_normal((m, m))
    Lambda = root @ root.T + m * np.eye(m)
    b = 3.0 * rng.standard_normal(m)
    c = rng.uniform(0.0, 2.0, size=m)
    return ControlSubproblem.from_parts(Lambda, b, c)


class TestSubproblemConstruction:
    def test_from_parts_half_inverse_curvature(self):
        sub = ControlSubproblem.from_parts([[2.0]], [1.0], [0.5])
        assert sub.W[0, 0] == pytest.approx(0.25, abs=1e-15)

    def test_from_parts_validations(self):
        with pytest.raises(AssumptionViolated, match="nonnegative"):
            ControlSubproblem.from_parts([[1.0]], [0.0], [-0.1])
        with pytest.raises(SingularLambda):
            ControlSubproblem.from_parts([[0.0]], [0.0], [0.0])
        with pytest.raises(ValueError, match="inconsistent"):
            ControlSubproblem.from_parts(np.eye(2), [1.0], [1.0])

    def test_build_scalar_coefficients(self):
        sol = support.synthetic_solution(
            A=0.5, B=1.0, G=-0.5, alpha=1.0, Wud=[1.0], Sigma=[[2.0]], Lambda=[[1.0]]
        )
        sub = optimal_control(sol, [1.0], mu=[0.0]).sub
        assert sub.b[0] == pytest.approx(4.0, abs=1e-15)  # B'mu + 2 Sigma x
        assert sub.c[0] == 1.0
        assert sub.W[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_negative_deadzone_weight_rejected(self):
        sol = support.synthetic_solution(A=0.5, B=1.0, G=0.0, Wud=[-0.1])
        with pytest.raises(AssumptionViolated, match="deadzone"):
            optimal_control(sol, [0.0], mu=[0.0])
        with pytest.raises(AssumptionViolated, match="deadzone"):
            optimal_control_batch(sol, np.zeros((3, 1)))

    def test_input_length_guard(self):
        sol = support.synthetic_solution(A=0.5, B=1.0, G=0.0)
        with pytest.raises(ValueError, match="length"):
            optimal_control(sol, [1.0, 2.0], mu=[0.0])


class TestCostFunction:
    def test_hand_values(self):
        sub = ControlSubproblem.from_parts([[1.0]], [3.0], [1.0])
        assert cost_Ju(sub, [0.0]) == 0.0
        assert cost_Ju(sub, [-1.0]) == pytest.approx(-1.0, abs=1e-15)  # 1 - 3 + 1

    def test_matches_expanded_formula(self, rng):
        sub = _random_subproblem(rng, 3)
        u = rng.standard_normal(3)
        manual = u @ sub.Lambda @ u + sub.b @ u + sub.c @ np.abs(u)
        assert cost_Ju(sub, u) == pytest.approx(manual, abs=1e-12)


class TestSorScalarCases:
    def test_saturated_channel(self):
        sub = ControlSubproblem.from_parts([[1.0]], [3.0], [1.0])
        state = sor_solve(sub)
        assert state.z[0] == pytest.approx(-3.0, abs=1e-12)
        assert state.gamma[0] == pytest.approx(-1.0, abs=1e-12)
        assert state.nu[0] == pytest.approx(-1.0, abs=1e-12)
        assert state.theta[0] == pytest.approx(1.0, abs=1e-12)
        assert state.residual <= 1e-10

    def test_deadzone_holds_small_pull(self):
        sub = ControlSubproblem.from_parts([[1.0]], [0.5], [1.0])
        state = sor_solve(sub)
        assert state.nu[0] == 0.0
        assert state.theta[0] == 0.0
        assert state.gamma[0] == pytest.approx(-0.5, abs=1e-12)

    def test_decoupled_channels(self):
        sub = ControlSubproblem.from_parts(np.eye(2), [3.0, 0.5], [1.0, 1.0])
        state = sor_solve(sub)
        np.testing.assert_allclose(state.nu, [-1.0, 0.0], atol=1e-12)

    def test_scalar_soft_threshold_closed_form(self, rng):
        for _ in range(30):
            lam = float(rng.uniform(0.2, 3.0))
            b = float(rng.uniform(-5.0, 5.0))
            c = float(rng.uniform(0.0, 2.0))
            sub = ControlSubproblem.from_parts([[lam]], [b], [c])
            expected = -np.sign(b) * max(abs(b) - c, 0.0) / (2.0 * lam)
            assert sor_solve(sub).nu[0] == pytest.approx(expected, abs=1e-10)

    def test_omega_range_enforced(self):
        sub = ControlSubproblem.from_parts([[1.0]], [1.0], [0.0])
        for omega in (0.0, 2.0, -0.5):
            with pytest.raises(ValueError, match="omega"):
                sor_solve(sub, omega=omega)


class TestSorGeneral:
    def test_relaxation_factor_does_not_move_the_answer(self, rng):
        for m in (2, 4):
            sub = _random_subproblem(rng, m)
            answers = [sor_solve(sub, omega=w).nu for w in (0.5, 1.0, 1.5, 1.9)]
            for nu in answers[1:]:
                np.testing.assert_allclose(nu, answers[0], atol=1e-9)

    def test_matches_proximal_gradient_oracle(self, rng):
        for m in (1, 2, 5):
            for _ in range(10):
                sub = _random_subproblem(rng, m)
                state = sor_solve(sub, tol=1e-12)
                ref = oracles.l1_quadratic_argmin(sub.Lambda, sub.b, sub.c, tol=1e-12)
                assert cost_Ju(sub, state.nu) <= cost_Ju(sub, ref) + 1e-10
                assert oracles.l1_subgradient_residual(
                    sub.Lambda, sub.b, sub.c, state.nu
                ) <= 1e-8

    def test_optimality_certificates(self, rng):
        sub = _random_subproblem(rng, 4)
        state = sor_solve(sub)
        assert np.all(np.abs(state.gamma) <= sub.c + 1e-12)
        assert np.all(state.theta >= 0.0)
        np.testing.assert_allclose(state.nu, state.theta * state.gamma, atol=1e-9)
        # converged sweep satisfies the generalized normal equation
        np.testing.assert_allclose(
            state.nu + sub.W @ (state.gamma + sub.b), 0.0, atol=1e-9
        )

    def test_warm_start_agrees_with_cold(self, rng):
        sub = _random_subproblem(rng, 3)
        cold = sor_solve(sub)
        warm = sor_solve(sub, z0=cold.z)
        np.testing.assert_allclose(warm.nu, cold.nu, atol=1e-9)
        assert warm.iterations <= cold.iterations

    def test_batch_rows_match_single_solves(self, rng):
        root = rng.standard_normal((3, 3))
        Lambda = root @ root.T + 3.0 * np.eye(3)
        c = rng.uniform(0.0, 1.5, size=3)
        B = 3.0 * rng.standard_normal((20, 3))
        W = 0.5 * np.linalg.inv(Lambda)
        W = 0.5 * (W + W.T)
        Nu = sor_solve_batch(W, B, c, tol=1e-11)
        for row in range(20):
            sub = ControlSubproblem.from_parts(Lambda, B[row], c)
            np.testing.assert_allclose(Nu[row], sor_solve(sub, tol=1e-11).nu, atol=1e-8)


    def test_large_omega_cycle_raises_a_typed_error(self):
        sub = ControlSubproblem.from_parts(*CYCLING_AT_LARGE_OMEGA)
        with pytest.raises(MaxIterations, match="retry with a smaller omega") as failure:
            sor_solve(sub, omega=1.9, tol=1e-12, max_iters=1000)
        assert failure.value.iterations == 1000
        assert failure.value.residual > 0.05
        answers = [sor_solve(sub, omega=w, tol=1e-12, max_iters=1000).nu for w in (0.5, 1.0, 1.5)]
        for nu in answers[1:]:
            np.testing.assert_allclose(nu, answers[0], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(answers[0], [0.01079455, 0.0], rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("omega", [0.0, 2.0, 2.5, -1.0])
@pytest.mark.parametrize("entry", ["sor_solve", "sor_solve_batch", "optimal_control_batch"])
def test_omega_outside_the_open_interval_raises_before_sweeping(entry, omega, monkeypatch):
    def refuse(*args):
        raise AssertionError("a relaxation sweep ran")

    monkeypatch.setattr(csviu.control, "_sweeps_one", refuse)
    monkeypatch.setattr(csviu.control, "_sweeps_batch", refuse)
    sol = solve_riccati(support.random_model(np.random.default_rng(3), n=2, m=2), alpha=0.9)
    X = np.random.default_rng(4).standard_normal((4, 2))
    law = sol.law
    calls = {
        "sor_solve": lambda: sor_solve(
            ControlSubproblem.from_parts(sol.Lambda, [1.0, -1.0], law.c), omega=omega
        ),
        "sor_solve_batch": lambda: sor_solve_batch(law.W, X @ sol.Sigma.T, law.c, omega=omega),
        "optimal_control_batch": lambda: optimal_control_batch(
            sol, X, mu_kind="asymptotic", omega=omega
        ),
    }
    with pytest.raises(ValueError, match="omega must lie in"):
        calls[entry]()


def _sweeps_or_failure(W, B, c, omega):
    try:
        return csviu.control._sor_sweeps(W, B, c, omega, np.zeros_like(B), 1e-12, 1000)
    except MaxIterations as exc:
        return exc


class TestSorKernels:
    """One-row inputs take the scalar kernel, larger batches the array kernel."""

    def test_kernels_agree_on_criterion_02_style_instances(self):
        rng = np.random.default_rng(20260418)
        instances = [ControlSubproblem.from_parts(*CYCLING_AT_LARGE_OMEGA)]
        for _ in range(200):
            m = int(rng.integers(1, 7))
            root = rng.standard_normal((m, m))
            c = rng.uniform(0.0, 2.0, size=m)
            c[rng.random(m) < 0.1] = 0.0
            instances.append(
                ControlSubproblem.from_parts(root @ root.T + m * np.eye(m), 3.0 * rng.standard_normal(m), c)
            )
        failures = 0
        for sub in instances:
            for omega in (0.5, 1.0, 1.5, 1.9):
                one = _sweeps_or_failure(sub.W, sub.b[None], sub.c, omega)
                two = _sweeps_or_failure(sub.W, np.stack([sub.b, sub.b]), sub.c, omega)
                if isinstance(one, MaxIterations):
                    assert isinstance(two, MaxIterations)
                    assert one.iterations == two.iterations
                    failures += 1
                    continue
                assert not isinstance(two, MaxIterations)
                assert one[3] == two[3]
                for single, batch in zip(one[:3], two[:3]):
                    for row in batch:
                        assert np.all(np.abs(single[0] - row) <= 1e-12 * np.maximum(1.0, np.abs(row)))
        assert failures >= 1

    def test_single_rows_never_reach_the_array_kernel(self, rng, monkeypatch):
        def refuse(*args):
            raise AssertionError("array kernel called for one row")

        monkeypatch.setattr(csviu.control, "_sweeps_batch", refuse)
        sub = _random_subproblem(rng, 3)
        nu = sor_solve(sub).nu
        np.testing.assert_array_equal(sor_solve_batch(sub.W, sub.b[None], sub.c)[0], nu)
        sol = solve_riccati(support.random_model(rng, n=3, m=2), alpha=0.9)
        optimal_control(sol, rng.standard_normal(3), mu_kind="asymptotic")


def _mixed_rows():
    W = np.array(MIXED_W)
    c = np.array(MIXED_C)
    return W, np.array(MIXED_B), c, ControlSubproblem(W=W, b=None, c=c, Lambda=0.5 * np.linalg.inv(W))


class TestBatchRowsLeaveOnConvergence:
    """Each batch row stops at its own convergence sweep; the last row left
    finishes on the scalar kernel with the remaining budget."""

    def test_rows_match_their_single_solves(self):
        W, B, c, sub = _mixed_rows()
        singles = [sor_solve(replace(sub, b=b)) for b in B]
        assert [state.iterations for state in singles] == MIXED_SWEEPS
        Z, Gamma, Nu, sweeps, residual = csviu.control._sor_sweeps(
            W, B, c, 1.0, np.zeros_like(B), 1e-10, 10000
        )
        assert sweeps == max(MIXED_SWEEPS)
        assert residual <= 1e-10
        np.testing.assert_array_equal(sor_solve_batch(W, B, c), Nu)
        for row, state in enumerate(singles):
            for batch, single in ((Z, state.z), (Gamma, state.gamma), (Nu, state.nu)):
                np.testing.assert_allclose(batch[row], single, rtol=0.0, atol=1e-12)

    def test_a_slow_row_does_not_move_the_others(self):
        W, B, c, _ = _mixed_rows()
        fast = sor_solve_batch(W, B[:3], c)
        np.testing.assert_allclose(sor_solve_batch(W, B, c)[:3], fast, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(sor_solve_batch(W, B[[4, 0, 1, 2]], c)[1:], fast, rtol=0.0, atol=1e-12)

    def test_last_row_finishes_on_the_scalar_kernel(self, monkeypatch):
        budgets = []
        scalar = csviu.control._sweeps_one

        def spy(W, Wd, B, C, omega, Z0, tol, max_iters):
            budgets.append((B.shape[0], max_iters))
            return scalar(W, Wd, B, C, omega, Z0, tol, max_iters)

        monkeypatch.setattr(csviu.control, "_sweeps_one", spy)
        W, B, c, _ = _mixed_rows()
        sor_solve_batch(W, B, c, max_iters=500)
        assert budgets == [(1, 500 - MIXED_SWEEPS[-2])]

    @pytest.mark.parametrize("max_iters", [43, 44, 60])
    def test_straggler_out_of_budget_raises_with_its_own_residual(self, max_iters):
        # at 43 sweeps the straggler is left with no budget, at 44 with one sweep
        W, B, c, sub = _mixed_rows()
        with pytest.raises(MaxIterations) as alone:
            sor_solve(replace(sub, b=B[-1]), max_iters=max_iters)
        with pytest.raises(MaxIterations, match="retry with a smaller omega") as batch:
            sor_solve_batch(W, B, c, max_iters=max_iters)
        assert batch.value.iterations == max_iters
        assert np.isfinite(batch.value.residual) and batch.value.residual > 1e-10
        assert batch.value.residual == pytest.approx(alone.value.residual, rel=1e-9)

    def test_a_nan_row_ends_in_max_iterations(self):
        W, B, c, _ = _mixed_rows()
        B[1, 0] = np.nan
        with pytest.raises(MaxIterations) as failure:
            sor_solve_batch(W, B, c, max_iters=100)
        assert failure.value.iterations == 100
        assert np.isnan(failure.value.residual)

    def test_large_omega_cycle_raises_from_a_batch(self):
        sub = ControlSubproblem.from_parts(*CYCLING_AT_LARGE_OMEGA)
        B = np.stack([np.zeros(2), sub.b, -sub.b])
        with pytest.raises(MaxIterations) as failure:
            sor_solve_batch(sub.W, B, sub.c, omega=1.9, tol=1e-12, max_iters=1000)
        assert failure.value.iterations == 1000
        assert failure.value.residual > 0.05


class TestOptimalControl:
    @pytest.mark.parametrize("mu_kind", ["zero", "asymptotic"])
    def test_non_finite_state_is_rejected_before_any_sweep(self, scalar_model, mu_kind, monkeypatch):
        # a NaN state used to run the whole sweep budget and then advise a smaller omega
        sol = solve_riccati(scalar_model, alpha=0.9)

        def no_sweeps(*args, **kwargs):
            raise AssertionError("a sweep ran on a non-finite state")

        monkeypatch.setattr(csviu.control, "_sor_sweeps", no_sweeps)
        with pytest.raises(ValueError, match="x must be finite"):
            optimal_control(sol, [np.nan], mu_kind=mu_kind)
        with pytest.raises(ValueError, match=r"X must be finite.* row 1"):
            optimal_control_batch(sol, [[0.5], [np.inf], [1.0]], mu_kind=mu_kind)
        with pytest.raises(ValueError, match="X must be finite"):
            optimal_control_batch(sol, [[np.nan]], mu_kind=mu_kind)

    def test_no_growth_noise_reduces_to_linear_gain(self, rng):
        model = support.random_model(rng, n=3, m=2, lq=True)
        sol = solve_riccati(model, alpha=0.9)
        x = rng.standard_normal(3)
        res = optimal_control(sol, x)
        np.testing.assert_allclose(res.u_star, sol.G @ x, atol=1e-9)

    def test_odd_symmetry(self, rng):
        model = support.random_model(rng, n=2, m=2)
        sol = solve_riccati(model, alpha=0.9)
        x = rng.standard_normal(2)
        mu = 0.1 * rng.standard_normal(2)
        plus = optimal_control(sol, x, mu=mu)
        minus = optimal_control(sol, -x, mu=-mu)
        np.testing.assert_allclose(minus.u_star, -plus.u_star, atol=1e-9)

    def test_reconstruction_from_clipped_vector(self, rng):
        model = support.random_model(rng, n=2, m=2)
        sol = solve_riccati(model, alpha=0.9)
        x = rng.standard_normal(2)
        res = optimal_control(sol, x, mu_kind="asymptotic")
        rebuilt = -np.linalg.solve(
            sol.Lambda, sol.Sigma @ x + 0.5 * (model.B.T @ res.mu + res.gamma)
        )
        np.testing.assert_allclose(res.u_star, rebuilt, atol=1e-9)

    def test_margins_report_the_deadzone_pull(self):
        sol = support.synthetic_solution(
            A=0.5, B=1.0, G=-0.5, alpha=1.0, Wud=[1.0], Sigma=[[2.0]], Lambda=[[1.0]]
        )
        res = optimal_control(sol, [0.1], mu=[0.0])
        assert res.u_star[0] == 0.0
        assert res.margins[0] == pytest.approx(1.0 - 0.4, abs=1e-12)
        active = optimal_control(sol, [1.0], mu=[0.0])
        assert active.u_star[0] != 0.0
        assert active.margins[0] < 0

    def test_batch_matches_single_rows(self, rng):
        model = support.random_model(rng, n=2, m=2)
        sol = solve_riccati(model, alpha=0.9)
        X = rng.standard_normal((15, 2))
        for kind in ("zero", "asymptotic"):
            U, Mu = optimal_control_batch(sol, X, mu_kind=kind, tol=1e-11)
            for row in range(15):
                single = optimal_control(sol, X[row], mu_kind=kind, tol=1e-11)
                np.testing.assert_allclose(U[row], single.u_star, atol=1e-7)
                np.testing.assert_allclose(Mu[row], single.mu, atol=1e-7)

    def test_empty_batch_returns_empty_arrays(self, rng):
        model = support.random_model(rng, n=3, m=2)
        sol = solve_riccati(model, alpha=0.9)
        for kind in ("zero", "asymptotic"):
            U, Mu = optimal_control_batch(sol, np.zeros((0, 3)), mu_kind=kind)
            assert U.shape == (0, 2) and Mu.shape == (0, 3)
        assert sor_solve_batch(sol.law.W, np.zeros((0, 2)), sol.law.c).shape == (0, 2)

    def test_single_state_sweeps_use_the_callers_solver_settings(self, rng):
        model = support.random_model(rng, n=3, m=2)
        sol = solve_riccati(model, alpha=0.9)
        X = 2.0 * rng.standard_normal((10, 3))
        U, Mu = optimal_control_batch(sol, X, mu_kind="asymptotic", omega=1.5, tol=1e-12)
        for row in range(10):
            single = optimal_control(sol, X[row], mu_kind="asymptotic", omega=1.5, tol=1e-12)
            np.testing.assert_allclose(single.u_star, U[row], atol=1e-9)
            np.testing.assert_allclose(single.mu, Mu[row], atol=1e-9)
        with pytest.raises(MaxIterations):
            resolve_mu(sol, X[0], mu_kind="asymptotic", max_iters=1)

    def test_batch_rollout_rows_match_single_states(self, rng):
        model = support.random_model(rng, n=2, m=1)
        sol = solve_riccati(model, alpha=0.9)
        X = 2.0 * rng.standard_normal((3, 2))
        U, Mu = optimal_control_batch(sol, X, mu_kind="rollout")
        for row in range(3):
            single = optimal_control(sol, X[row], mu_kind="rollout")
            np.testing.assert_allclose(U[row], single.u_star, rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(Mu[row], single.mu, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda sol, X, kind: optimal_control(sol, X[0], mu_kind=kind),
            lambda sol, X, kind: optimal_control_batch(sol, X, mu_kind=kind),
            lambda sol, X, kind: resolve_mu(sol, X[0], mu_kind=kind),
            lambda sol, X, kind: Policy.optimal(sol, mu_kind=kind).fn(X),
            lambda sol, X, kind: scan_region(sol, resolution=3, mu_kind=kind),
            lambda sol, X, kind: optimal_norms(sol, paths=2, kappa=3, mu_kind=kind),
        ],
        ids=["optimal_control", "optimal_control_batch", "resolve_mu", "Policy.optimal",
             "scan_region", "optimal_norms"],
    )
    def test_every_entry_point_rejects_an_unknown_mu_kind(self, rng, entry):
        sol = solve_riccati(support.random_model(rng, n=2, m=1), alpha=0.9)
        with pytest.raises(ValueError, match="mu_kind"):
            entry(sol, np.ones((2, 2)), "sideways")


def _count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestPerRowSlopeSweeps:
    """Dense coupled plant with one state on a sign cycle of the frozen-sign slope."""

    CYCLING = 16  # row of the batch below whose control signs never repeat

    @pytest.fixture(scope="class")
    def case(self):
        rng = np.random.default_rng(3)
        model = support.random_model(rng, n=6, m=3)
        sol = solve_riccati(model, alpha=0.95)
        X = 1.5 * rng.standard_normal((400, 6))[250:290]
        return sol, X

    @staticmethod
    def _on_cycle(sol, x, u, mu):
        rebuilt = csviu.mu.mu_asymptotic(sol, np.sign(x), np.sign(u))
        return np.abs(rebuilt - mu).max() > 1e-9 * (1.0 + np.abs(mu).max())

    def test_every_row_matches_the_single_state_rule(self, case):
        sol, X = case
        U, Mu = optimal_control_batch(sol, X, mu_kind="asymptotic")
        cycling = [row for row in range(len(X)) if self._on_cycle(sol, X[row], U[row], Mu[row])]
        assert cycling == [self.CYCLING]
        for row in range(len(X)):
            single = optimal_control(sol, X[row], mu_kind="asymptotic")
            np.testing.assert_allclose(U[row], single.u_star, atol=1e-9)
            np.testing.assert_allclose(Mu[row], single.mu, atol=1e-9)

    def test_settled_rows_ignore_the_cycling_row(self, case):
        sol, X = case
        settled = np.delete(np.arange(len(X)), self.CYCLING)
        U, Mu = optimal_control_batch(sol, X, mu_kind="asymptotic")
        U_alone, Mu_alone = optimal_control_batch(sol, X[settled], mu_kind="asymptotic")
        np.testing.assert_allclose(U_alone, U[settled], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(Mu_alone, Mu[settled], rtol=0.0, atol=1e-12)

    def test_batch_solves_each_row_as_often_as_the_single_state(self, case, monkeypatch):
        sol, X = case
        rows_solved = []
        batch_solve = csviu.control.sor_solve_batch

        def recording(sub_W, B, *args, **kwargs):
            rows_solved.append(len(B))
            return batch_solve(sub_W, B, *args, **kwargs)

        monkeypatch.setattr(csviu.control, "sor_solve_batch", recording)
        counts = {}
        _count_calls(monkeypatch, csviu.control, "sor_solve", counts)
        optimal_control_batch(sol, X, mu_kind="asymptotic")
        for x in X:
            optimal_control(sol, x, mu_kind="asymptotic")
        assert sum(rows_solved) == counts["sor_solve"]
        # only the cycling row takes the final solve after the last sweep
        assert rows_solved[-1] == 1 and rows_solved[0] == len(X)

    def test_settled_state_is_not_solved_again(self, monkeypatch):
        sol = support.synthetic_solution(
            A=0.5, B=1.0, G=-0.5, alpha=0.9, Wud=[1.0], Sigma=[[2.0]], Lambda=[[1.0]]
        )
        counts = {}
        _count_calls(monkeypatch, csviu.control, "sor_solve", counts)
        inside = optimal_control(sol, [0.1], mu_kind="asymptotic")  # deadzone: u = 0 at once
        assert inside.u_star[0] == 0.0 and counts["sor_solve"] == 1


class TestCompiledLaw:
    def test_built_once_per_solution(self, rng, monkeypatch):
        model = support.random_model(rng, n=3, m=2)
        sol = solve_riccati(model, alpha=0.9)
        X = rng.standard_normal((8, 3))
        optimal_control_batch(sol, X, mu_kind="asymptotic")
        optimal_control(sol, X[0], mu_kind="asymptotic")
        csviu.mu.mu_asymptotic(sol, [1.0, -1.0, 1.0], [1.0, 0.0])
        assert sol.law is sol.law
        counts = {}
        _count_calls(monkeypatch, csviu.mu, "spectral_radius", counts)
        for name in ("inv", "eigvalsh", "eigvals", "solve"):
            _count_calls(monkeypatch, np.linalg, name, counts)
        optimal_control_batch(sol, X, mu_kind="asymptotic")
        csviu.mu.mu_asymptotic(sol, [1.0, -1.0, 1.0], [1.0, 0.0])
        assert counts == {}
        optimal_control(sol, X[0], mu_kind="asymptotic")
        assert counts == {"solve": 1}  # the closed-form reconstruction check

    def test_shared_arrays_are_read_only(self, rng):
        sol = solve_riccati(support.random_model(rng, n=2, m=2), alpha=0.9)
        for array in (sol.law.W, sol.law.c, sol.slope_map, *sol.slope_gains):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_slope_gains_built_once_per_solution(self, rng):
        model = support.random_model(rng, n=3, m=2)
        sol = solve_riccati(model, alpha=0.9)
        X = rng.standard_normal((8, 3))
        optimal_control_batch(sol, X, mu_kind="asymptotic")
        gain_x, gain_u = sol.slope_gains
        optimal_control_batch(sol, X, mu_kind="asymptotic")
        optimal_control(sol, X[0], mu_kind="asymptotic")
        assert sol.slope_gains[0] is gain_x and sol.slope_gains[1] is gain_u
        np.testing.assert_array_equal(gain_x, sol.slope_map * sol.forms.Wxd)
        np.testing.assert_array_equal(gain_u, sol.slope_map @ (sol.G.T * sol.forms.Wud))


class TestResolveMu:
    def test_explicit_vector_passes_through(self, rng):
        model = support.random_model(rng, n=2, m=1)
        sol = solve_riccati(model, alpha=0.9)
        mu = np.array([0.3, -0.2])
        np.testing.assert_array_equal(resolve_mu(sol, [0.0, 0.0], mu=mu), mu)
        with pytest.raises(ValueError, match="length"):
            resolve_mu(sol, [0.0, 0.0], mu=[1.0])

    def test_zero_kind(self, rng):
        model = support.random_model(rng, n=2, m=1)
        sol = solve_riccati(model, alpha=0.9)
        assert not resolve_mu(sol, [1.0, 1.0], mu_kind="zero").any()

    def test_unknown_kind(self, rng):
        model = support.random_model(rng, n=2, m=1)
        sol = solve_riccati(model, alpha=0.9)
        with pytest.raises(ValueError, match="mu_kind"):
            resolve_mu(sol, [1.0, 1.0], mu_kind="sideways")

    def test_asymptotic_sweep_settles_on_consistent_signs(self, rng):
        from csviu import mu_asymptotic

        model = support.random_model(rng, n=2, m=1)
        sol = solve_riccati(model, alpha=0.9)
        x = np.array([2.0, -1.0])
        value = resolve_mu(sol, x, mu_kind="asymptotic")
        u = optimal_control(sol, x, mu=value).u_star
        np.testing.assert_allclose(
            value, mu_asymptotic(sol, np.sign(x), np.sign(u)), atol=1e-12
        )


class TestInaction:
    @pytest.fixture
    def pull_sol(self):
        return support.synthetic_solution(
            A=0.5, B=1.0, G=-0.5, alpha=1.0, Wud=[1.0], Sigma=[[2.0]], Lambda=[[1.0]]
        )

    def test_scalar_quarter_band(self, pull_sol):
        # |2 * 2 x| < 1  <=>  |x| < 0.25
        for x, expect in [(0.0, True), (0.2, True), (0.3, False), (-0.24, True), (-0.26, False)]:
            inactive, margin = inaction_test(pull_sol, [x], [0.0], channel=0)
            assert inactive == expect, x
            assert margin == pytest.approx(1.0 - 4.0 * abs(x), abs=1e-12)

    def test_origin_margin_equals_deadzone_weight(self, rng):
        model = support.random_model(rng, n=2, m=2)
        sol = solve_riccati(model, alpha=0.9)
        inactive, margins = inaction_test(sol, [0.0, 0.0], [0.0, 0.0])
        np.testing.assert_allclose(margins, sol.forms.Wud, atol=1e-14)
        assert np.all(inactive == (sol.forms.Wud > 0))

    def test_one_margin_for_control_test_and_scan(self, rng):
        model = support.random_model(rng, n=2, m=2)
        sol = solve_riccati(model, alpha=0.9)
        # the single-state margins run the same arithmetic: equal bit for bit
        for x in 2.0 * rng.standard_normal((20, 2)):
            for kind in ("zero", "asymptotic"):
                res = optimal_control(sol, x, mu_kind=kind)
                assert res.margins.tobytes() == inaction_test(sol, x, res.mu)[1].tobytes()
        # a scan forms the same sums as one matrix product over all cells,
        # which BLAS may round differently from a one-row product
        scan = scan_region(sol, resolution=9, mu_kind="zero")
        points = np.stack(np.meshgrid(scan.grid_x, scan.grid_y, indexing="ij"), axis=-1)
        for x, scanned in zip(points.reshape(-1, 2), scan.margins.reshape(-1, 2)):
            solved = optimal_control(sol, x, mu_kind="zero").margins
            np.testing.assert_allclose(scanned, solved, rtol=0.0, atol=1e-13)

    def test_agrees_with_solved_control(self, rng):
        model = support.random_model(rng, n=2, m=2)
        sol = solve_riccati(model, alpha=0.9)
        for _ in range(25):
            x = 2.0 * rng.standard_normal(2)
            res = optimal_control(sol, x)
            inactive, margins = inaction_test(sol, x, np.zeros(2))
            for i in range(2):
                if margins[i] > 1e-9:
                    assert res.u_star[i] == 0.0
                elif margins[i] < -1e-9:
                    assert res.u_star[i] != 0.0


class TestStageResiduals:
    def test_discount_multiplies_deviation_and_completion(self, rng):
        model = support.random_model(rng, n=2, m=1)
        sol = solve_riccati(model, alpha=0.9)
        x = rng.standard_normal(2)
        u = rng.standard_normal(1)
        mu = 0.1 * rng.standard_normal(2)
        h = model.B.T @ mu + sol.forms.Wud * np.sign(u)
        u0 = -np.linalg.solve(sol.Lambda, sol.Sigma @ x + 0.5 * h)
        dev = (u - u0) @ sol.Lambda @ (u - u0)
        completion = h @ np.linalg.solve(sol.Lambda, h)
        assert stage_value(sol, x, u, mu) == pytest.approx(0.9 * (dev - completion / 4.0), abs=1e-12)

    def test_ledger_identity_links_residual_to_stage_cost(self, rng):
        # stage_value / alpha - J(u) must equal the control-independent shift
        # plus the sign-coupled cross term, for any u
        model = support.random_model(rng, n=3, m=2)
        sol = solve_riccati(model, alpha=0.9)
        x = rng.standard_normal(3)
        mu = 0.1 * rng.standard_normal(3)
        sub = optimal_control(sol, x, mu=mu).sub
        lam_inv_sigma_x = np.linalg.solve(sol.Lambda, sol.Sigma @ x)
        for _ in range(20):
            u = rng.standard_normal(2)
            h = model.B.T @ mu + sol.forms.Wud * np.sign(u)
            shift = x @ sol.Sigma.T @ lam_inv_sigma_x + (sol.Sigma @ x) @ np.linalg.solve(sol.Lambda, h)
            assert stage_value(sol, x, u, mu) / 0.9 - cost_Ju(sub, u) == pytest.approx(
                shift, abs=1e-10
            )

    def test_solved_control_minimizes_the_stage_cost(self, rng):
        model = support.random_model(rng, n=2, m=2)
        sol = solve_riccati(model, alpha=0.9)
        x = rng.standard_normal(2)
        res = optimal_control(sol, x, mu_kind="asymptotic")
        sub = res.sub
        best = cost_Ju(sub, res.u_star)
        for _ in range(100):
            probe = res.u_star + rng.standard_normal(2) * rng.choice([1e-4, 1e-2, 1.0])
            assert best <= cost_Ju(sub, probe) + 1e-12

    def test_batch_matches_scalar_stage_values(self, rng):
        model = support.random_model(rng, n=2, m=2)
        sol = solve_riccati(model, alpha=0.9)
        X = rng.standard_normal((12, 2))
        U = rng.standard_normal((12, 2))
        Mu = 0.1 * rng.standard_normal((12, 2))
        batch = stage_value_batch(sol, X, U, Mu)
        for row in range(12):
            assert batch[row] == pytest.approx(
                stage_value(sol, X[row], U[row], Mu[row]), abs=1e-11
            )

    def test_zero_deadzone_residual_is_pure_deviation(self, rng):
        # without growth noise and slope the completion term vanishes and the
        # residual is the weighted distance to the linear-gain control
        model = support.random_model(rng, n=2, m=1, lq=True)
        sol = solve_riccati(model, alpha=0.9)
        x = rng.standard_normal(2)
        u = rng.standard_normal(1)
        dev = (u - sol.G @ x) @ sol.Lambda @ (u - sol.G @ x)
        assert stage_value(sol, x, u, np.zeros(2)) == pytest.approx(0.9 * dev, abs=1e-12)
        assert stage_value(sol, x, sol.G @ x, np.zeros(2)) == pytest.approx(0.0, abs=1e-12)
