import dataclasses
import math

import numpy as np
import pytest

from csviu import (
    CriterionConfig,
    MaxIterations,
    MonotonicityViolation,
    NoPSDSolution,
    OperatorSet,
    SingularLambda,
    SystemModel,
    closed_loop_check,
    detectability_search,
    finite_horizon_riccati,
    solve_riccati,
)

import csviu.riccati
import oracles
import support


def _noise_free(A, B, C, D):
    A = np.atleast_2d(np.asarray(A, float))
    B = np.atleast_2d(np.asarray(B, float))
    C = np.atleast_2d(np.asarray(C, float))
    D = np.atleast_2d(np.asarray(D, float))
    n, m = A.shape[0], B.shape[1]
    return SystemModel(
        A=A, B=B, C=C, D=D,
        sigma=np.zeros((n, 1)),
        sigma_x=np.zeros((n, n)),
        sigma_bar_x=np.zeros((n, n)),
        sigma_u=np.zeros((n, m)),
        sigma_bar_u=np.zeros((n, m)),
    )


class TestFrozenFixedPoints:
    def test_scalar_noise_free_zero_solution(self):
        # with A=0.5, B=C=D=1 the map sends 0 to 0, so L=0 and G=-1
        model = _noise_free(0.5, 1.0, 1.0, 1.0)
        sol = solve_riccati(model, alpha=1.0)
        assert abs(sol.L[0, 0]) <= 1e-12
        assert sol.G[0, 0] == pytest.approx(-1.0, abs=1e-12)
        assert sol.Acl[0, 0] == pytest.approx(-0.5, abs=1e-12)

    def test_stacked_output_quadratic_root(self, stacked_output_model):
        # fixed point of L = 0.25 L + 1 - 0.25 L^2 / (L + 1), i.e. L^2 - L/4 - 1 = 0
        sol = solve_riccati(stacked_output_model, alpha=1.0)
        root = (0.25 + math.sqrt(0.0625 + 4.0)) / 2.0
        assert sol.L[0, 0] == pytest.approx(root, abs=1e-10)
        assert sol.L[0, 0] == pytest.approx(1.1327822185373186, abs=1e-10)
        assert sol.residual <= 1e-10

    def test_free_output_gives_zero_cost(self):
        model = _noise_free(0.5, 1.0, 0.0, 1.0)
        sol = solve_riccati(model, alpha=1.0)
        assert not sol.L.any()
        assert not sol.G.any()


class TestLqAgreement:
    @pytest.mark.parametrize("alpha", [0.9, 1.0])
    def test_matches_textbook_value_iteration(self, rng, alpha):
        for _ in range(5):
            model = support.random_model(rng, n=3, m=2, lq=True)
            sol = solve_riccati(model, alpha=alpha)
            Q = model.C.T @ model.C
            R = model.D.T @ model.D
            N = model.C.T @ model.D
            P = oracles.dare_fixed_point(model.A, model.B, Q, R, N, alpha=alpha)
            np.testing.assert_allclose(sol.L, P, atol=1e-9 * max(1.0, np.abs(P).max()))
            np.testing.assert_allclose(
                sol.G, oracles.dare_gain(model.A, model.B, Q, R, N, alpha=alpha, P=P),
                atol=1e-9,
            )

    def test_matches_scipy_solver(self, rng):
        model = support.random_model(rng, n=3, m=2, lq=True)
        sol = solve_riccati(model, alpha=0.95)
        P = oracles.dare_scipy(
            model.A, model.B, model.C.T @ model.C, model.D.T @ model.D,
            model.C.T @ model.D, alpha=0.95,
        )
        np.testing.assert_allclose(sol.L, P, atol=1e-8 * max(1.0, np.abs(P).max()))


class TestSolutionInvariants:
    def test_gain_solves_normal_equation(self):
        for name, model in support.regression_models():
            sol = solve_riccati(model, alpha=0.9)
            residual = np.abs(sol.Lambda @ sol.G + sol.Sigma).max()
            assert residual <= 1e-10 * max(1.0, np.abs(sol.Sigma).max()), name

    def test_solution_is_fixed_point_and_psd(self):
        for name, model in support.regression_models():
            sol = solve_riccati(model, alpha=0.9)
            assert sol.residual <= 1e-9, name
            assert oracles.min_eig(sol.L) >= -1e-10, name

    def test_cached_forms_match_fresh_evaluation(self, scalar_model):
        sol = solve_riccati(scalar_model, alpha=0.9)
        fresh = OperatorSet(scalar_model, 0.9).noise_quadratic_forms(sol.L)
        np.testing.assert_allclose(sol.forms.Wxd, fresh.Wxd, atol=1e-14)
        np.testing.assert_allclose(sol.forms.Wud, fresh.Wud, atol=1e-14)
        assert sol.forms.varpi1 == pytest.approx(fresh.varpi1, abs=1e-14)

    def test_alpha_fallback_chain(self, scalar_model):
        # explicit argument beats config beats model default
        via_config = solve_riccati(scalar_model, config=CriterionConfig(alpha=0.9))
        assert via_config.alpha == 0.9
        modeled = SystemModel.from_dict(dict(support.SCALAR_DATA, criterion={"alpha": 0.8}))
        assert solve_riccati(modeled).alpha == 0.8
        assert solve_riccati(modeled, alpha=0.7).alpha == 0.7

    def test_expanding_discount_flag(self):
        model = support.scalar_model()
        sol = solve_riccati(model, alpha=1.05)
        assert sol.alpha_condition_ok is not None
        assert sol.alpha_condition_ok == (sol.closed_loop_radius < 1.0 / 1.05)
        assert solve_riccati(model, alpha=0.9).alpha_condition_ok is None

    def test_discount_one_flag(self):
        # at alpha = 1 the overtaking condition rho(A + BG) < 1/alpha reads rho(A + BG) < 1
        sol = solve_riccati(support.scalar_model(), alpha=1.0)
        assert sol.alpha_condition_ok is (sol.closed_loop_radius < 1.0)
        assert sol.alpha_condition_ok is True


class TestFiniteHorizon:
    def test_zero_horizon(self, scalar_model):
        mats = finite_horizon_riccati(scalar_model, 0.9, 0)
        assert len(mats) == 1
        assert not mats[0].any()

    def test_head_equals_value_iterate(self, scalar_model):
        kappa = 7
        mats = finite_horizon_riccati(scalar_model, 0.9, kappa)
        ops = OperatorSet(scalar_model, 0.9)
        P = np.zeros((1, 1))
        for _ in range(kappa):
            P = ops.riccati_step(P)
            P = (P + P.T) / 2
        np.testing.assert_array_equal(mats[0], P)

    def test_backward_sequence_is_monotone(self):
        for name, model in support.regression_models():
            mats = finite_horizon_riccati(model, 0.9, 60)
            for earlier, later in zip(mats, mats[1:]):
                scale = max(1.0, float(np.abs(earlier).max()))
                assert oracles.min_eig(earlier - later) >= -1e-10 * scale, name

    def test_converges_to_stationary_solution(self, scalar_model):
        sol = solve_riccati(scalar_model, alpha=0.9)
        mats = finite_horizon_riccati(scalar_model, 0.9, 400)
        np.testing.assert_allclose(mats[0], sol.L, atol=1e-9)

    def test_negative_horizon_rejected(self, scalar_model):
        with pytest.raises(ValueError, match="kappa"):
            finite_horizon_riccati(scalar_model, 0.9, -1)

    @pytest.mark.parametrize("kappa", [2.5, True, "3"])
    def test_non_integral_horizon_rejected(self, scalar_model, kappa):
        # 2.5 used to fail inside numpy and True to run a one-step horizon
        with pytest.raises(ValueError, match="kappa must be an integer"):
            finite_horizon_riccati(scalar_model, 0.9, kappa)

    def test_integral_horizon_types_accepted(self, scalar_model):
        mats = finite_horizon_riccati(scalar_model, 0.9, np.int64(3))
        np.testing.assert_array_equal(mats[0], finite_horizon_riccati(scalar_model, 0.9, 3)[0])

    def test_long_horizon_without_a_stationary_solution(self):
        # every iterate exists; the 1e6 growth test of the stationary solve
        # used to stop this recursion at step 934
        mats = finite_horizon_riccati(SystemModel.from_dict(support.INFEASIBLE_DATA), 1.0, 2000)
        assert len(mats) == 2001
        heads = np.array([P[0, 0] for P in mats])
        assert np.all(np.isfinite(heads)) and np.all(np.diff(heads) < 0.0)
        assert heads[0] > 1e6 * heads[-2]

    def test_an_iterate_that_is_not_finite_raises(self):
        model = _noise_free(1e200, 0.0, [[1.0], [0.0]], [[0.0], [1.0]])
        for solve in (lambda: finite_horizon_riccati(model, 1.0, 5), lambda: solve_riccati(model, 1.0)):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(MaxIterations, match="iterate 2 is not finite") as failure:
                    solve()
            assert failure.value.iterations == 2


class TestFailureModes:
    def test_divergent_plant_reports_no_solution(self):
        # uncontrollable expansion that the output weights in one state only:
        # U -> 4U + diag(1, 0); B = 0 and no control growth noise leave Lh = 0,
        # and the first iterate diag(1, 0) is singular, so neither certificate
        # applies and the growth test answers
        model = _noise_free(2.0 * np.eye(2), [[0.0], [0.0]], [[1.0, 0.0], [0.0, 0.0]], [[0.0], [1.0]])
        growth = "no positive semidefinite.*grew by a factor"
        with pytest.raises(MaxIterations, match=growth) as failure:
            solve_riccati(model, alpha=1.0)
        assert type(failure.value) is MaxIterations

    def test_singular_curvature_rejected_up_front(self):
        model = _noise_free(0.5, 1.0, 1.0, 0.0)
        with pytest.raises(SingularLambda, match="D'D"):
            solve_riccati(model, alpha=1.0)
        with pytest.raises(SingularLambda):
            finite_horizon_riccati(model, 1.0, 5)

    def test_iteration_budget_respected(self, stacked_output_model):
        tight = CriterionConfig(alpha=1.0, max_iters=2, tol_fixed_point=1e-14)
        with pytest.raises(MaxIterations, match="did not converge"):
            solve_riccati(stacked_output_model, config=tight)


_DROP_STEP = 5


def _dropping_steps(monkeypatch, n, drop):
    """Stub the value map: iterate j is diag(0, j, ..., j), except that iterate
    ``_DROP_STEP`` has -``drop`` in its first entry, so that step's difference is
    diag(-drop, 1, ..., 1), exactly.  Returns the list of iterates made and the
    list of the steps that computed eigenvalues."""
    iterates, eigen_calls = [], []
    eigvalsh = np.linalg.eigvalsh

    def step(self, U):
        j = len(iterates) + 1
        P = np.diag(np.r_[0.0, np.full(n - 1, float(j))])
        if j == _DROP_STEP:
            P[0, 0] = -drop
        iterates.append(P)
        return P

    def spy(a, *args, **kwargs):
        if iterates:  # the check of D'D comes before the first step
            eigen_calls.append(len(iterates))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(OperatorSet, "riccati_step", step)
    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return iterates, eigen_calls


class TestMonotonicity:
    """Value iteration raises MonotonicityViolation at a step whose difference has an
    eigenvalue below -MONOTONE_TOL * max(1, max|P_next|).  A Cholesky factorization
    of the difference shifted by that floor clears a step, and the eigenvalues decide
    when it fails; n = 1 and n = 12 take both routes."""

    @staticmethod
    def _model(n):
        return support.random_model(np.random.default_rng(n), n=n, m=max(1, n // 4))

    @staticmethod
    def _floor(n):
        """MONOTONE_TOL * max(1, max|P_next|) at the drop: max|P_next| is the drop itself,
        below one, at n = 1 and _DROP_STEP above it."""
        return csviu.riccati.MONOTONE_TOL * (1.0 if n == 1 else float(_DROP_STEP))

    @pytest.mark.parametrize("n", [1, 12])
    def test_a_drop_beyond_the_floor_raises_at_its_step(self, monkeypatch, n):
        drop = 2.0 * self._floor(n)
        iterates, eigen_calls = _dropping_steps(monkeypatch, n, drop)
        with pytest.raises(MonotonicityViolation) as failure:
            finite_horizon_riccati(self._model(n), 0.95, 2 * _DROP_STEP)
        assert str(failure.value) == f"value iteration lost monotonicity at step {_DROP_STEP}"
        assert type(failure.value) is MonotonicityViolation and not hasattr(failure.value, "iterations")
        assert len(iterates) == _DROP_STEP and eigen_calls == [_DROP_STEP]

    @pytest.mark.parametrize("n", [1, 12])
    @pytest.mark.parametrize("share, eigen_calls", [(0.5, []), (1.0, [_DROP_STEP])], ids=["cholesky", "eigenvalues"])
    def test_a_drop_within_the_floor_passes(self, monkeypatch, n, share, eigen_calls):
        # half the floor clears the factorization; the whole floor leaves a zero pivot,
        # and the smallest eigenvalue, -floor exactly, is not below -floor
        drop = share * self._floor(n)
        iterates, calls = _dropping_steps(monkeypatch, n, drop)
        mats = finite_horizon_riccati(self._model(n), 0.95, 2 * _DROP_STEP)
        assert len(mats) == 2 * _DROP_STEP + 1 and mats[-1 - _DROP_STEP][0, 0] == -drop
        assert calls == eigen_calls


def _tries(monkeypatch):
    """Record the outcome of every Newton try the stationary solver makes."""
    outcomes = []
    original = csviu.riccati._newton_finish

    def spy(ops, P, tol, budget):
        finish = original(ops, P, tol, budget)
        outcomes.append(None if finish is None else finish[1])
        return finish

    monkeypatch.setattr(csviu.riccati, "_newton_finish", spy)
    return outcomes


class TestNewtonFinish:
    @pytest.mark.parametrize("name", sorted(support.MARGINAL_DATA))
    def test_marginal_plants_match_tight_value_iteration(self, name, monkeypatch):
        model = SystemModel.from_dict(support.MARGINAL_DATA[name])
        tries = _tries(monkeypatch)
        sol = solve_riccati(model, alpha=1.0)
        want = oracles.noisy_riccati_fixed_point(
            model.A, model.B, model.C, model.D, model.sigma_bar_x, model.sigma_bar_u, alpha=1.0
        )
        assert abs(sol.L[0, 0] - want[0, 0]) <= 1e-9 * abs(want[0, 0])
        assert sol.newton_steps > 0
        assert sol.iterations < 1000
        # refused tries cost no budget; the accepted one ends the solve
        assert tries[-1] == sol.newton_steps and all(t is None for t in tries[:-1])
        assert sol.iterations == 64 * 2 ** (len(tries) - 1) + sol.newton_steps
        assert sol.residual <= 1e-11

    def test_noise_free_near_marginal_plant_matches_scipy(self):
        model = _noise_free([[1.0, 0.1], [0.0, 0.998]], [[0.0], [0.01]],
                            [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0], [0.0], [1.0]])
        sol = solve_riccati(model, alpha=1.0)
        P = oracles.dare_scipy(model.A, model.B, model.C.T @ model.C, model.D.T @ model.D,
                               model.C.T @ model.D, alpha=1.0)
        assert sol.newton_steps > 0
        np.testing.assert_allclose(sol.L, P, atol=1e-10 * np.abs(P).max())

    def test_non_detectable_plant_refuses_every_try(self, monkeypatch):
        # x2 is unobserved, controllable and mean-square unstable, so the
        # minimal PSD fixed point leaves it alone and no value iterate's gain
        # stabilizes it; the slow observed x1 takes value iteration past
        # several tries
        model = SystemModel(
            A=np.diag([1.0, 1.1]), B=np.array([[0.01], [1.0]]),
            C=np.array([[1.0, 0.0], [0.0, 0.0]]), D=np.array([[0.0], [1.0]]),
            sigma=0.1 * np.ones((2, 1)), sigma_x=np.zeros((2, 2)),
            sigma_bar_x=np.diag([0.02, 0.1]), sigma_u=0.1 * np.ones((2, 1)),
            sigma_bar_u=0.01 * np.ones((2, 1)),
        )
        tries = _tries(monkeypatch)
        sol = solve_riccati(model, alpha=1.0)
        assert len(tries) >= 3 and all(t is None for t in tries)
        assert sol.newton_steps == 0
        # the finite-horizon head is the value iterate itself: that core never tries Newton
        np.testing.assert_array_equal(sol.L, finite_horizon_riccati(model, 1.0, sol.iterations)[0])
        assert sol.L[1, 1] == 0.0
        assert sol.closed_loop_radius > 1.0

    def test_infeasible_plant_still_raises_with_its_step_count(self, monkeypatch):
        # the recession-map certificate answers at step 1, before any Newton try
        model = SystemModel.from_dict(support.INFEASIBLE_DATA)
        tries = _tries(monkeypatch)
        with pytest.raises(MaxIterations, match="no positive semidefinite") as failure:
            solve_riccati(model, alpha=1.0)
        assert isinstance(failure.value, NoPSDSolution)
        assert failure.value.iterations == 1
        assert failure.value.ratio > 1.0
        assert tries == []

    def test_budget_counts_newton_steps(self):
        model = SystemModel.from_dict(support.MARGINAL_DATA["marginal-b"])
        sol = solve_riccati(model, alpha=1.0)
        exact = CriterionConfig(alpha=1.0, max_iters=sol.iterations)
        assert solve_riccati(model, config=exact).iterations == sol.iterations
        # one step short: the try gets one Newton step too few and is refused,
        # and value iteration then runs out of budget
        short = CriterionConfig(alpha=1.0, max_iters=sol.iterations - 1)
        with pytest.raises(MaxIterations, match="did not converge"):
            solve_riccati(model, config=short)

    def test_fast_solves_never_try(self, monkeypatch):
        tries = _tries(monkeypatch)
        for name, model in support.regression_models():
            for alpha in (0.9, 1.0):
                sol = solve_riccati(model, alpha=alpha)
                assert sol.iterations < 64 and sol.newton_steps == 0, name
                np.testing.assert_array_equal(
                    sol.L, finite_horizon_riccati(model, alpha, sol.iterations)[0])
        assert tries == []


def _certificates(monkeypatch, enabled=True):
    """Record every certificate outcome; with ``enabled=False`` it never fires."""
    outcomes = []
    original = csviu.riccati._no_psd_ratio

    def spy(ops, P):
        ratio = original(ops, P) if enabled else None
        outcomes.append(ratio)
        return ratio

    monkeypatch.setattr(csviu.riccati, "_no_psd_ratio", spy)
    return outcomes


def _solution_bits(sol):
    return (sol.L.tobytes(), sol.G.tobytes(), sol.iterations, sol.newton_steps,
            np.float64(sol.residual).tobytes())


def _feasible_cases():
    rng = np.random.default_rng(31)
    cases = [pytest.param(model, alpha, id=f"{name}-{alpha}")
             for name, model in support.regression_models() for alpha in (0.9, 1.0)]
    cases += [pytest.param(SystemModel.from_dict(data), 1.0, id=name)
              for name, data in sorted(support.MARGINAL_DATA.items())]
    for k in range(12):
        n, m = 2 + k % 5, 1 + k % 3
        model = support.random_model(rng, n=n, m=m, p=n + m)
        cases.append(pytest.param(model, 0.95, id=f"random-{k}"))
    return cases


def _infeasible_models(monkeypatch, count=12):
    """Seeded random plants with A and Su scaled up; each comes with the step
    at which the 1e6 growth test stops the uncertified value iteration."""
    rng = np.random.default_rng(7)
    found = []
    with monkeypatch.context() as patch:
        _certificates(patch, enabled=False)
        for _ in range(4 * count):
            n, m = int(rng.integers(2, 7)), int(rng.integers(1, 3))
            model = support.random_model(rng, n=n, m=m, radius=float(rng.uniform(1.2, 2.0)))
            model = dataclasses.replace(model, sigma_bar_u=rng.standard_normal((n, m)))
            try:
                solve_riccati(model, alpha=1.0)
            except MaxIterations as exc:
                if "grew by a factor" in str(exc):
                    found.append((model, exc.iterations))
    assert len(found) >= count
    return found[:count]


class TestInfeasibilityCertificate:
    @pytest.mark.parametrize("model,alpha", _feasible_cases())
    def test_never_fires_on_feasible_plants(self, model, alpha, monkeypatch):
        ratios = _certificates(monkeypatch)
        sol = solve_riccati(model, alpha=alpha)
        assert all(r is None for r in ratios)
        if sol.iterations > 1:  # a solve settled at step 1 (P_1 = 0 on the scalar plants) skips it
            assert ratios
        # the uncertified solve ends bit for bit where the certified one does
        _certificates(monkeypatch, enabled=False)
        assert _solution_bits(solve_riccati(model, alpha=alpha)) == _solution_bits(sol)
        if np.linalg.eigvalsh(sol.L)[0] > 0:
            # at the fixed point R_inf(L) <= R(L) = L, so the ratio stays at most one
            assert oracles.recession_ratio(model.A, model.B, model.sigma_bar_x,
                                           model.sigma_bar_u, sol.L, alpha) <= 1.0

    def test_fires_no_later_than_the_growth_test(self, monkeypatch):
        for model, growth_step in _infeasible_models(monkeypatch):
            with pytest.raises(NoPSDSolution, match="no positive semidefinite") as failure:
                solve_riccati(model, alpha=1.0)
            step, ratio = failure.value.iterations, failure.value.ratio
            assert 1 <= step <= growth_step
            # the certified iterate is the finite-horizon head at that step
            P = finite_horizon_riccati(model, 1.0, step)[0]
            want = oracles.recession_ratio(model.A, model.B, model.sigma_bar_x,
                                           model.sigma_bar_u, P)
            assert ratio > 1.0 and ratio == pytest.approx(want, rel=1e-9)

    def test_scalar_ratio_matches_closed_form(self):
        # P_1 = C'C = 1 and R_inf(p) = p (a^2 + sx^2 - a^2 b^2 / (b^2 + su^2))
        model = SystemModel.from_dict(support.INFEASIBLE_DATA)
        with pytest.raises(NoPSDSolution) as failure:
            solve_riccati(model, alpha=1.0)
        a, b, sx, su = 1.0, 0.005, 0.1, 0.5
        assert failure.value.ratio == pytest.approx(
            a * a + sx * sx - a * a * b * b / (b * b + su * su), rel=1e-12)
        assert "1.009900" in str(failure.value)

    @pytest.mark.parametrize("a", [1.0, 2.0])
    def test_affine_value_map_is_certified_at_step_one(self, a):
        # B = 0 and Su = 0: P -> a^2 P + 1 has no fixed point for |a| >= 1.  At a = 1
        # the iterates climb by one a step and no recession certificate exists (Lh = 0),
        # so the solve used to spend its whole budget, 200000 steps, before it raised
        model = SystemModel.from_dict(support.stacked_output_data(a, 0.0))
        with pytest.raises(NoPSDSolution, match="certified at step 1.*radius") as failure:
            solve_riccati(model, alpha=1.0)
        assert failure.value.iterations == 1
        assert failure.value.ratio == pytest.approx(a * a, rel=1e-13)

    def test_affine_value_map_certificate_matches_the_dense_radius(self):
        # n = 3, B = 0, C = I: the affine map P -> L(P) + I has a PSD fixed point
        # exactly when rho(L) < 1; the growth noise is scaled to either side of one
        rng = np.random.default_rng(38)
        base = support.random_model(rng, n=3, m=1, radius=0.8)
        for scale, stable in ((3.0, True), (5.0, False)):  # radius 0.875 and 1.45
            model = dataclasses.replace(base, B=np.zeros((3, 1)), C=np.vstack([np.eye(3), np.zeros((1, 3))]),
                                        D=np.vstack([np.zeros((3, 1)), [[1.0]]]),
                                        sigma_bar_x=scale * base.sigma_bar_x, sigma_bar_u=np.zeros((3, 1)))
            dense = np.abs(np.linalg.eigvals(
                oracles.second_moment_matrix(model.A, model.sigma_bar_x, 0.95))).max()
            assert (dense < 1.0) == stable
            if stable:
                sol = solve_riccati(model, alpha=0.95)
                want = oracles.noisy_riccati_fixed_point(model.A, model.B, model.C, model.D,
                                                         model.sigma_bar_x, model.sigma_bar_u, 0.95)
                np.testing.assert_allclose(sol.L, want, rtol=1e-9)
            else:
                with pytest.raises(NoPSDSolution, match="certified at step 1") as failure:
                    solve_riccati(model, alpha=0.95)
                assert failure.value.ratio == pytest.approx(dense, rel=1e-10)

    def test_runs_when_the_iterate_has_doubled(self, monkeypatch):
        model = SystemModel.from_dict(support.MARGINAL_DATA["marginal-a"])
        ratios = _certificates(monkeypatch)
        sol = solve_riccati(model, alpha=1.0)
        # P_1 = 1 climbs to L ~ 900: step 1 plus one run per doubling
        assert len(ratios) <= 2 + math.log2(float(sol.L.max()))
        assert sol.iterations > 10 * len(ratios)

    def test_finite_horizon_is_not_certified(self, monkeypatch):
        ratios = _certificates(monkeypatch)
        mats = finite_horizon_riccati(SystemModel.from_dict(support.INFEASIBLE_DATA), 1.0, 50)
        assert len(mats) == 51 and ratios == []
        assert mats[0][0, 0] > mats[1][0, 0] > 0.0


def test_detectable_solution_closes_the_loop(scalar_model):
    """When detection succeeds and the fixed point exists, the optimal gain contracts."""
    sol = solve_riccati(scalar_model, alpha=0.9)
    assert detectability_search(scalar_model, 0.9) is not None
    check = closed_loop_check(scalar_model, 0.9, sol.G)
    assert check.ok
    assert check.radius < 1.0
