import contextlib
import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from csviu import (
    ArgumentError,
    AssumptionViolated,
    ControlSubproblem,
    CsviuError,
    MaxIterations,
    Policy,
    SingularLambda,
    SystemModel,
    cost_Ju,
    estimate_energy,
    inaction_test,
    optimal_control,
    optimal_control_batch,
    optimal_norms,
    scan_region,
    solve_riccati,
    sor_solve,
)
import csviu.control
import csviu.mu
import csviu.simulator
from csviu import mu_rollout
from csviu.control import resolve_mu, sor_solve_batch
from csviu.riccati import FeedbackLaw

import oracles
import support


# converges to nu = [0.01079455, 0] at every omega; the former unprojected
# sweep (which relaxed z before the clip) cycled on it at omega 1.9
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

    def test_from_parts_keeps_read_only_copies(self):
        Lambda, b, c = np.array([[2.0]]), np.array([1.0]), np.array([0.5])
        sub = ControlSubproblem.from_parts(Lambda, b, c)
        # the caller's arrays stay writable, and changing them leaves the instance as built
        b[0] = c[0] = 9.0
        assert (sub.b[0], sub.c[0]) == (1.0, 0.5)
        for name in ("W", "b", "c"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(sub, name)[0] = 0.0

    def test_repeated_solves_share_one_law(self, monkeypatch):
        built = []

        class CountedLaw(FeedbackLaw):
            def __init__(self, **fields):
                built.append(fields)
                super().__init__(**fields)

        monkeypatch.setattr(csviu.control, "FeedbackLaw", CountedLaw)
        sub = ControlSubproblem.from_parts(*CYCLING_AT_LARGE_OMEGA)
        omegas = (0.5, 1.0, 1.5, 1.9)
        states = [sor_solve(sub, omega=omega) for omega in omegas]
        assert len(built) == 1 and sub.law.W is sub.W and sub.law.c is sub.c
        # a copy starts without the cached law and solves to the same bits
        for omega, state in zip(omegas, states):
            again = sor_solve(replace(sub), omega=omega)
            assert _bits(_sor_fields(state)) == _bits(_sor_fields(again))
        assert len(built) == 1 + len(omegas)

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


    def test_large_omega_converges_where_the_unprojected_sweep_cycled(self):
        sub = ControlSubproblem.from_parts(*CYCLING_AT_LARGE_OMEGA)
        states = [sor_solve(sub, omega=w, tol=1e-12, max_iters=1000) for w in (0.5, 1.0, 1.5, 1.9)]
        assert states[-1].iterations < 1000 and states[-1].residual <= 1e-12
        for state in states[1:]:
            np.testing.assert_allclose(state.nu, states[0].nu, rtol=0.0, atol=1e-11)
        np.testing.assert_allclose(states[0].nu, [0.01079455, 0.0], rtol=0.0, atol=1e-8)

    def test_short_budget_raises_a_typed_error(self):
        sub = ControlSubproblem.from_parts(*CYCLING_AT_LARGE_OMEGA)
        with pytest.raises(MaxIterations, match="in 100 sweeps .*retry with a larger max_iters") as failure:
            sor_solve(sub, omega=1.9, tol=1e-12, max_iters=100)
        assert failure.value.iterations == 100
        assert 1e-12 < failure.value.residual < 1.0


@pytest.mark.parametrize("omega", [0.0, 2.0, 2.5, -1.0, True, "1", None])
@pytest.mark.parametrize("entry", ["sor_solve", "sor_solve_batch"])
def test_omega_outside_the_open_interval_raises_before_sweeping(entry, omega, monkeypatch):
    # omega=True used to run omega = 1, and "1" or None raised a bare TypeError; the batch
    # solver sweeps at omega = 1 only and takes no omega at all
    if entry == "sor_solve":
        error, match = ArgumentError, r"^omega must be a finite real in \(0, 2\)"
    else:
        error, match = TypeError, "unexpected keyword argument 'omega'"
    with pytest.raises(error, match=match):
        _solve_without_sweeps(entry, monkeypatch, omega=omega)


def _solve_without_sweeps(entry, monkeypatch, **settings):
    """Call a stage-solve entry point with ``settings`` while any sweep fails."""
    def refuse(*args):
        raise AssertionError("a relaxation sweep ran")

    monkeypatch.setattr(csviu.control, "_sweeps_one", refuse)
    monkeypatch.setattr(csviu.control, "_sweeps_batch", refuse)
    sol = solve_riccati(support.random_model(np.random.default_rng(3), n=2, m=2), alpha=0.9)
    X = np.random.default_rng(4).standard_normal((4, 2))
    law = sol.law
    calls = {
        "sor_solve": lambda: sor_solve(
            ControlSubproblem.from_parts(sol.Lambda, [1.0, -1.0], law.c), **settings
        ),
        "sor_solve_batch": lambda: sor_solve_batch(law.W, X @ sol.Sigma.T, law.c, **settings),
        "optimal_control_batch": lambda: optimal_control_batch(
            sol, X, mu_kind="asymptotic", **settings
        ),
    }
    return calls[entry]()


@pytest.mark.parametrize("entry", ["sor_solve", "sor_solve_batch", "optimal_control_batch"])
@pytest.mark.parametrize(
    "setting, value",
    [("tol", np.nan), ("tol", -1.0), ("tol", np.inf), ("tol", "1e-10"), ("tol", True),
     ("max_iters", 2.5), ("max_iters", True), ("max_iters", -1), ("max_iters", "9")],
    ids=["tol-nan", "tol-negative", "tol-inf", "tol-str", "tol-bool", "max_iters-float",
         "max_iters-bool", "max_iters-negative", "max_iters-str"],
)
def test_tolerance_and_budget_are_checked_before_sweeping(entry, setting, value, monkeypatch):
    # tol nan or -1 used to run the whole budget, max_iters=2.5 raised a bare
    # TypeError, and max_iters=True and tol=True ran one sweep
    with pytest.raises(ValueError, match=f"^{setting} must be"):
        _solve_without_sweeps(entry, monkeypatch, **{setting: value})


@pytest.mark.parametrize("rows", [1, 3])
def test_an_empty_budget_raises_max_iterations(rows):
    # a batch with max_iters=0 used to fail with UnboundLocalError
    W, B, c, _ = _mixed_rows()
    with pytest.raises(MaxIterations, match="in 0 sweeps") as failure:
        sor_solve_batch(W, B[:rows], c, max_iters=0)
    assert failure.value.iterations == 0
    assert failure.value.residual == np.inf


@pytest.mark.parametrize(
    "W, B, c, error, match",
    [
        ([[1.0, 0.2], [0.2, 1.0]], np.ones((4, 3)), [0.5, 0.5], ArgumentError, r"^B has shape \(4, 3\)"),
        ([[1.0, 0.2], [0.2, 1.0]], np.ones((4, 1)), [0.5, 0.5], ArgumentError, r"^B has shape \(4, 1\)"),
        ([[1.0, 0.2], [0.2, 1.0]], np.ones((4, 2)), [0.5], ArgumentError, r"^c has shape \(1,\)"),
        ([[1.0, 0.2]], np.ones((4, 2)), [0.5, 0.5], ArgumentError, r"^sub_W has shape \(1, 2\)"),
        ([[1.0, np.nan], [0.2, 1.0]], np.ones((4, 2)), [0.5, 0.5], ArgumentError, "^sub_W must be finite"),
        ([[1.0, 0.2], [0.2, 1.0]], np.ones((4, 2)), [0.5, np.inf], ArgumentError, "^c must be finite"),
        ([[1.0, 0.2], [0.2, 1.0]], [[1.0, 1.0], [np.nan, 0.0]], [0.5, 0.5], ArgumentError, "^B must be finite"),
        ([[1.0, 0.2], [0.2, 1.0]], np.ones((4, 2)), [0.5, -0.5], AssumptionViolated, "nonnegative"),
        ([[0.0, 0.2], [0.2, 1.0]], np.ones((4, 2)), [0.5, 0.5], SingularLambda, "positive diagonal"),
    ],
    ids=["B-wide", "B-narrow", "c-short", "W-not-square", "W-nan", "c-inf", "B-nan-row", "c-negative",
         "W-zero-diagonal"],
)
def test_batch_solver_arguments_are_checked_before_sweeping(W, B, c, error, match, monkeypatch):
    # a 3-column B raised a bare ValueError, a 1-column B or a short c an IndexError, and a
    # negative c or a NaN row of B ran the whole sweep budget into a MaxIterations
    def refuse(*args):
        raise AssertionError("a relaxation sweep ran")

    monkeypatch.setattr(csviu.control, "_sweeps_one", refuse)
    monkeypatch.setattr(csviu.control, "_sweeps_batch", refuse)
    with pytest.raises(error, match=match):
        sor_solve_batch(W, B, c)


def test_batch_solver_takes_nested_lists():
    # a list W used to fail with an AttributeError
    W, B, c = [[1.0, 0.2], [0.2, 1.0]], [[1.0, -2.0], [0.3, 0.1], [-3.0, 0.5]], [0.5, 0.5]
    Nu = sor_solve_batch(W, B, c)
    np.testing.assert_array_equal(Nu, sor_solve_batch(np.array(W), np.array(B), np.array(c)))
    assert Nu.shape == (3, 2)


def _sweeps_or_failure(W, B, c, max_iters=1000):
    """``_sweeps`` on ``B``, or the MaxIterations its flagged rows raise."""
    result = csviu.control._sweeps(FeedbackLaw(W=W, c=c), B, 1e-12, max_iters)
    try:
        csviu.control._raise_unconverged(result[2], result[4], 1e-12, max_iters)
    except MaxIterations as exc:
        return exc
    return result


def _criterion_02_instances(count=200, sizes=(1, 7), seed=20260418):
    """The formerly cycling instance and ``count`` random ones with m drawn from ``sizes``."""
    rng = np.random.default_rng(seed)
    instances = [ControlSubproblem.from_parts(*CYCLING_AT_LARGE_OMEGA)]
    for _ in range(count):
        m = int(rng.integers(*sizes))
        root = rng.standard_normal((m, m))
        c = rng.uniform(0.0, 2.0, size=m)
        c[rng.random(m) < 0.1] = 0.0
        instances.append(
            ControlSubproblem.from_parts(root @ root.T + m * np.eye(m), 3.0 * rng.standard_normal(m), c)
        )
    return instances


class TestSorKernels:
    """One-row inputs take the scalar kernel, larger batches the array kernel."""

    def test_kernels_agree_on_criterion_02_style_instances(self):
        # every instance converges within 1000 sweeps (at most 22); 10 are too few for 17
        failures = 0
        for sub, budget in itertools.product(_criterion_02_instances(), (1000, 10)):
            one = _sweeps_or_failure(sub.W, sub.b[None], sub.c, budget)
            two = _sweeps_or_failure(sub.W, np.stack([sub.b, sub.b]), sub.c, budget)
            if isinstance(one, MaxIterations):
                assert isinstance(two, MaxIterations)
                assert one.iterations == two.iterations == budget == 10
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

    @pytest.mark.parametrize("c", [0.0, 5e-324, 0.5, 1.0, 2.0])
    def test_batch_control_is_the_copysign_form(self, c):
        # the batch sweep's control copysign(Wd (z - clip(z)), z) is sign(z) max(0, Wd (|z| - c)):
        # z - clip(z) is exactly sign(z) (|z| - c) outside the box and +0 inside it
        z = np.array([0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0,
                      5e-324, -5e-324, np.inf, -np.inf, np.nan, -np.nan])[None]
        Wd = np.array([[1.7]])
        gamma = np.minimum(np.maximum(z, -c), c)  # the sweep's clip
        nu = np.empty_like(z)
        csviu.control._control(Wd, z, gamma, nu)
        assert nu.tobytes() == np.copysign(Wd * (z - np.clip(z, -c, c)), z).tobytes()
        signed = np.sign(z) * np.maximum(0.0, Wd * (np.abs(z) - c))
        nan = np.isnan(signed)
        assert np.array_equal(np.isnan(nu), nan)
        # signbits included, except at z = -0, where np.sign(-0.0) is +0.0 and copysign keeps -0
        minus_zero = (z == 0.0) & np.signbit(z)
        keep = ~nan & ~minus_zero
        assert nu[keep].tobytes() == signed[keep].tobytes()
        assert np.signbit(nu[minus_zero]).all() and not np.signbit(signed[minus_zero]).any()
        # bit for bit the single-row kernel's control, copysign(max(t, 0), z), NaNs and -0 included
        kernel = [math.copysign(0.0 if 0.0 > t else t, x) for x in z[0].tolist() for t in [1.7 * (abs(x) - c)]]
        assert nu.tobytes() == np.array([kernel]).tobytes()


def _nan_bits(value):
    """Bytes of ``value`` with NaN compared as NaN: its NaN mask, then every other entry."""
    a = np.asarray(value, dtype=float)
    nan = np.isnan(a)
    return a.shape, nan.tobytes(), np.where(nan, 0.0, a).tobytes()


# one-channel right-hand sides: signed zeros, both sides of c = 0.3 and entries near the
# smallest and largest floats
ONE_CHANNEL_B = [0.0, -0.0, 0.3, -0.3, 0.2, -0.2, 0.7, -0.7, 1e-300, -1e-300, 5e-324, -5e-324,
                 2.0, -2.0, 1e300, -1e300]


class TestOneChannelPass:
    """A batch with one channel takes the first sweep of the column kernel alone,
    which ``_sweeps_batch`` (still the path for m >= 2) confirms bit for bit."""

    # (right-hand sides, tol, max_iters); at W = 2 the rows -1e308 and 1e308 overflow
    # W (z - gamma) to infinity, so their residual is NaN on every sweep
    CASES = {
        "signed-zeros": (ONE_CHANNEL_B, 1e-10, 10000),
        "tol-zero": (ONE_CHANNEL_B, 0.0, 10000),
        "one-sweep": (ONE_CHANNEL_B, 1e-10, 1),
        "no-sweep": (ONE_CHANNEL_B, 1e-10, 0),
        "no-rows": ([], 1e-10, 10000),
        "one-overflow": (ONE_CHANNEL_B + [-1e308], 1e-10, 5),
        "one-overflow-one-sweep": (ONE_CHANNEL_B + [-1e308], 1e-10, 1),
        "two-overflows": (ONE_CHANNEL_B + [-1e308, 1e308], 1e-10, 5),
    }

    @staticmethod
    def _law_and_rows(c, w, case):
        values, tol, max_iters = TestOneChannelPass.CASES[case]
        law = FeedbackLaw(W=np.array([[w]]), c=np.array([c]))
        return law, np.array(values, dtype=float).reshape(-1, 1), tol, max_iters

    @staticmethod
    def _overflows(w, case):
        """``pytest.warns`` where W (z - gamma) overflows, else a context that lets no warning pass."""
        return pytest.warns(RuntimeWarning) if w == 2.0 and "overflow" in case else contextlib.nullcontext()

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("w", [1e-3, 0.5, 2.0])
    @pytest.mark.parametrize("c", [0.0, 1e-300, 0.3])
    def test_is_the_first_sweep_of_the_column_kernel(self, c, w, case, monkeypatch):
        law, B, tol, max_iters = self._law_and_rows(c, w, case)
        with self._overflows(w, case):
            want = csviu.control._sweeps_batch(law, B, tol, max_iters)
        if len(B) > 1 and max_iters >= 1:  # the one-pass solve, not the column kernel
            def refuse(*args):
                raise AssertionError("the column kernel ran on one channel")

            monkeypatch.setattr(csviu.control, "_sweeps_batch", refuse)
        with self._overflows(w, case):
            got = csviu.control._sweeps(law, B, tol, max_iters)
        for name, a, b in zip(("Z", "Gamma", "Nu"), got[:3], want[:3]):
            assert _nan_bits(a) == _nan_bits(b), name
        assert got[3] == want[3]
        assert _nan_bits(got[4]) == _nan_bits(want[4])
        if w == 2.0 and "overflow" in case:
            assert np.isnan(got[2][-1]).all() and math.isnan(got[4]) and got[3] == max_iters

    @pytest.mark.parametrize("case", ["no-sweep", "one-overflow", "one-overflow-one-sweep", "two-overflows"])
    def test_failed_rows_raise_the_column_kernel_text(self, case, monkeypatch):
        law, B, tol, max_iters = self._law_and_rows(0.3, 2.0, case)

        def failure():
            with pytest.raises(MaxIterations) as caught, self._overflows(2.0, case):
                sor_solve_batch(law.W, B, law.c, tol=tol, max_iters=max_iters)
            return str(caught.value), caught.value.iterations, _nan_bits(caught.value.residual)

        got = failure()
        monkeypatch.setattr(csviu.control, "_sweeps", csviu.control._sweeps_batch)
        assert got == failure()


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
        Z, Gamma, Nu, sweeps, residual = csviu.control._sweeps(FeedbackLaw(W=W, c=c), B, 1e-10, 10000)
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

        def spy(law, b, omega, z0, tol, max_iters):
            budgets.append((b, z0 is None, max_iters))
            return scalar(law, b, omega, z0, tol, max_iters)

        monkeypatch.setattr(csviu.control, "_sweeps_one", spy)
        W, B, c, _ = _mixed_rows()
        sor_solve_batch(W, B, c, max_iters=500)
        assert budgets == [(B[-1].tolist(), False, 500 - MIXED_SWEEPS[-2])]

    @pytest.mark.parametrize("max_iters", [43, 44, 60])
    def test_straggler_out_of_budget_raises_with_its_own_residual(self, max_iters):
        # at 43 sweeps the straggler is left with no budget, at 44 with one sweep
        W, B, c, sub = _mixed_rows()
        with pytest.raises(MaxIterations) as alone:
            sor_solve(replace(sub, b=B[-1]), max_iters=max_iters)
        with pytest.raises(MaxIterations, match="retry with a larger max_iters") as batch:
            sor_solve_batch(W, B, c, max_iters=max_iters)
        assert batch.value.iterations == max_iters
        assert np.isfinite(batch.value.residual) and batch.value.residual > 1e-10
        assert batch.value.residual == pytest.approx(alone.value.residual, rel=1e-9)

    def test_a_nan_row_ends_in_max_iterations(self):
        # sor_solve_batch rejects a NaN row before sweeping; in the kernel, as on a feedback
        # path, the row comes back NaN with a NaN residual and the others converge
        W, B, c, _ = _mixed_rows()
        B[1, 0] = np.nan
        Z, Gamma, Nu, sweeps, residual = csviu.control._sweeps(FeedbackLaw(W=W, c=c), B, 1e-10, 100)
        assert sweeps == 100 and np.isnan(residual)
        assert np.isnan(Nu[1]).all() and np.isfinite(np.delete(Nu, 1, axis=0)).all()
        with pytest.raises(MaxIterations) as failure:
            csviu.control._raise_unconverged(Nu, residual, 1e-10, 100)
        assert failure.value.iterations == 100
        assert np.isnan(failure.value.residual)

    def test_short_budget_raises_from_a_batch(self):
        # alone, the rows need 1, 4 and 4 sweeps
        sub = ControlSubproblem.from_parts(*CYCLING_AT_LARGE_OMEGA)
        B = np.stack([np.zeros(2), sub.b, -sub.b])
        with pytest.raises(MaxIterations, match="on 2 of 3 rows .*retry with a larger max_iters") as failure:
            sor_solve_batch(sub.W, B, sub.c, tol=1e-12, max_iters=3)
        assert failure.value.iterations == 3
        assert 1e-12 < failure.value.residual < 1.0


def _kernel_or_failure(sub, omega, z0=None, tol=1e-12, max_iters=1000):
    """The single-row kernel ``_sweeps_one`` as (z, gamma, nu, sweeps, residual),
    the arrays None when the row missed ``tol`` (and came back NaN)."""
    z0 = np.zeros(sub.b.size) if z0 is None else np.asarray(z0, dtype=float)
    z, gamma, nu, sweeps, residual = csviu.control._sweeps_one(
        FeedbackLaw(W=sub.W, c=sub.c), sub.b.tolist(), omega, z0.tolist(), tol, max_iters
    )
    assert all(type(a) is list and len(a) == sub.b.size for a in (z, gamma, nu))
    if not residual <= tol:
        assert np.isnan([z, gamma, nu]).all()
        return None, None, None, sweeps, residual
    return z, gamma, nu, sweeps, residual


def _sor_fields(state):
    return state.z, state.gamma, state.nu, state.iterations, state.residual


def _bits(result):
    arrays = tuple(None if a is None else np.asarray(a, dtype=float).tobytes() for a in result[:3])
    return arrays + (result[3], np.float64(result[4]).tobytes())


def _assert_kernel_matches_reference(sub, omega, z0=None, tol=1e-12, max_iters=1000):
    got = _kernel_or_failure(sub, omega, z0, tol, max_iters)
    start = np.zeros(sub.b.size) if z0 is None else z0
    want = oracles.sor_sweeps_reference(sub.W, sub.b, sub.c, omega, start, tol, max_iters)
    assert _bits(got) == _bits(want), (omega, got, want)
    return got


def _assert_sor_solve_matches_reference(sub, omega, max_iters=1000):
    """The kernel and the public ``sor_solve`` from a cold start, its MaxIterations included."""
    want = _assert_kernel_matches_reference(sub, omega, max_iters=max_iters)
    try:
        got = _sor_fields(sor_solve(sub, omega=omega, tol=1e-12, max_iters=max_iters))
    except MaxIterations as exc:
        got = (None, None, None, exc.iterations, exc.residual)
    assert _bits(got) == _bits(want), (omega, got, want)
    return want


class TestGeneratedKernel:
    """The single-row kernel generated per channel count equals the plain
    loop of ``oracles.sor_sweeps_reference`` bit for bit: z, gamma and nu,
    signed zeros included, the sweep count and the residual, also the
    residual a MaxIterations reports."""

    OMEGAS = (0.5, 1.0, 1.5, 1.9)

    def test_criterion_02_style_instances(self):
        # 30 sweeps are too few for many instances at omega != 1
        failures = 0
        for sub, omega, budget in itertools.product(_criterion_02_instances(), self.OMEGAS, (1000, 30)):
            failures += _assert_sor_solve_matches_reference(sub, omega, max_iters=budget)[0] is None
        assert failures >= 1

    @pytest.mark.parametrize("m", range(7, 13))
    def test_wider_instances(self, m):
        for sub in _criterion_02_instances(count=3, sizes=(m, m + 1), seed=m):
            for omega in self.OMEGAS:
                _assert_sor_solve_matches_reference(sub, omega)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_right_hand_side(self, value):
        sub = _criterion_02_instances(count=1, sizes=(3, 4))[1]
        b = sub.b.copy()
        b[1] = value
        for omega in self.OMEGAS:
            got = _assert_kernel_matches_reference(replace(sub, b=b), omega, max_iters=50)
            assert got[0] is None and np.isnan(got[4])

    def test_overflowing_carry(self):
        # s_0 = gamma_0 + b_0 overflows to inf at the start, so only the kept
        # diagonal term 0.0 * s_0 turns the first update into NaN
        sub = ControlSubproblem.from_parts(*CYCLING_AT_LARGE_OMEGA)
        huge = replace(sub, b=np.array([1e308, sub.b[1]]), c=np.array([1e308, sub.c[1]]))
        for omega in self.OMEGAS:
            _assert_kernel_matches_reference(huge, omega, z0=np.array([1e308, 0.0]), max_iters=20)

    def test_zero_deadzone_weights(self):
        for sub in _criterion_02_instances(count=20, sizes=(1, 5), seed=7)[1:]:
            for omega in self.OMEGAS:
                _assert_kernel_matches_reference(replace(sub, c=np.zeros(sub.b.size)), omega)

    def test_signed_zero_right_hand_sides(self):
        # W with positive and with negative couplings, b of +0.0 and -0.0 entries,
        # cold and warm starts of either sign: the results carry signed zeros
        signed = 0
        for W in ([[0.5]], MIXED_W, [[0.3, -0.1], [-0.1, 0.2]]):
            m = len(W)
            for b in itertools.product((0.0, -0.0), repeat=m):
                for c in (np.zeros(m), np.full(m, 0.5)):
                    sub = ControlSubproblem(W=np.array(W), b=np.array(b), c=c, Lambda=None)
                    for z0 in (None, np.ones(m), -np.ones(m), np.full(m, -0.0)):
                        for omega in self.OMEGAS:
                            got = _assert_kernel_matches_reference(sub, omega, z0=z0)
                            signed += sum(np.signbit(a).sum() for a in got[:3])
        assert signed > 0

    def test_warm_starts_as_in_the_batch_hand_off(self):
        W, B, c, sub = _mixed_rows()
        rng = np.random.default_rng(5)
        for b in B:
            for omega in self.OMEGAS:
                z0 = rng.standard_normal(3)
                _assert_kernel_matches_reference(replace(sub, b=b), omega, z0=z0)

    @pytest.mark.parametrize("max_iters", [0, 1, 2])
    def test_small_budgets(self, max_iters):
        for sub in _criterion_02_instances(count=30)[1:]:
            for omega in self.OMEGAS:
                for tol in (1e-12, 10.0):
                    _assert_kernel_matches_reference(sub, omega, tol=tol, max_iters=max_iters)

    def test_each_channel_count_compiles_once(self, monkeypatch):
        # once for omega = 1 and once for the relaxed steps of every other omega
        built = []
        source = csviu.control._kernel_source

        def counted(m, relaxed):
            built.append((m, relaxed))
            return source(m, relaxed)

        monkeypatch.setattr(csviu.control, "_KERNELS", {})
        monkeypatch.setattr(csviu.control, "_kernel_source", counted)
        for sub in _criterion_02_instances(count=40, sizes=(1, 9)):
            for omega in self.OMEGAS:
                _kernel_or_failure(sub, omega)
        kernels = [(m, relaxed) for m in range(1, 9) for relaxed in (False, True)]
        assert sorted(built) == kernels
        assert sorted(csviu.control._KERNELS) == kernels

    def test_import_compiles_no_kernel(self):
        probe = "import csviu, csviu.control; print(len(csviu.control._KERNELS))"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.strip() == "0"


# every entry point that takes mu_kind, called as entry(sol, X, kind)
MU_KIND_ENTRIES = {
    "optimal_control": lambda sol, X, kind: optimal_control(sol, X[0], mu_kind=kind),
    "optimal_control_batch": lambda sol, X, kind: optimal_control_batch(sol, X, mu_kind=kind),
    "resolve_mu": lambda sol, X, kind: resolve_mu(sol, X[0], mu_kind=kind),
    "Policy.optimal": lambda sol, X, kind: Policy.optimal(sol, mu_kind=kind).fn(X),
    "scan_region": lambda sol, X, kind: scan_region(sol, resolution=3, mu_kind=kind),
    "optimal_norms": lambda sol, X, kind: optimal_norms(sol, paths=2, kappa=3, mu_kind=kind),
}


class TestOptimalControl:
    @pytest.mark.parametrize("mu_kind", ["zero", "asymptotic"])
    def test_non_finite_state_is_rejected_before_any_sweep(self, scalar_model, mu_kind, monkeypatch):
        # a NaN state used to run the whole sweep budget and then advise a smaller omega
        sol = solve_riccati(scalar_model, alpha=0.9)

        def no_sweeps(*args, **kwargs):
            raise AssertionError("a sweep ran on a non-finite state")

        monkeypatch.setattr(csviu.control, "_sweeps", no_sweeps)
        monkeypatch.setattr(csviu.control, "_sweeps_one", no_sweeps)
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

    @pytest.mark.parametrize("rows", [1, 3])
    def test_an_explicit_batch_slope_is_copied(self, rows):
        sol = solve_riccati(SystemModel.from_dict(support.README_DATA), alpha=0.95)
        S = np.random.default_rng(4).standard_normal((rows, 2))
        kept = S.copy()
        _, Mu = optimal_control_batch(sol, np.ones((rows, 2)), Mu=S)
        assert not np.shares_memory(Mu, S)
        assert Mu.tobytes() == kept.tobytes()
        Mu[...] = 7.0
        assert S.tobytes() == kept.tobytes()

    def test_single_state_sweeps_use_the_callers_solver_settings(self, rng):
        model = support.random_model(rng, n=3, m=2)
        sol = solve_riccati(model, alpha=0.9)
        X = 2.0 * rng.standard_normal((10, 3))
        U, Mu = optimal_control_batch(sol, X, mu_kind="asymptotic", tol=1e-12)
        for row in range(10):
            single = optimal_control(sol, X[row], mu_kind="asymptotic", tol=1e-12)
            np.testing.assert_allclose(single.u_star, U[row], atol=1e-9)
            np.testing.assert_allclose(single.mu, Mu[row], atol=1e-9)
        with pytest.raises(MaxIterations):
            resolve_mu(sol, X[0], mu_kind="asymptotic", max_iters=1)

    def test_batch_rollout_rows_match_single_states(self, rng):
        # a Monte Carlo slope enters as an explicit one, a batch of mu_rollout values
        model = support.random_model(rng, n=2, m=1)
        sol = solve_riccati(model, alpha=0.9)
        X = 2.0 * rng.standard_normal((3, 2))
        slopes = np.array([mu_rollout(sol, x).value for x in X])
        U, Mu = optimal_control_batch(sol, X, Mu=slopes)
        np.testing.assert_array_equal(Mu, slopes)
        for row in range(3):
            single = optimal_control(sol, X[row], mu=slopes[row])
            np.testing.assert_allclose(U[row], single.u_star, rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(Mu[row], single.mu, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("entry", MU_KIND_ENTRIES.values(), ids=MU_KIND_ENTRIES.keys())
    def test_every_entry_point_rejects_an_unknown_mu_kind(self, rng, entry):
        sol = solve_riccati(support.random_model(rng, n=2, m=1), alpha=0.9)
        with pytest.raises(ValueError, match="mu_kind"):
            entry(sol, np.ones((2, 2)), "sideways")

    @pytest.mark.parametrize("entry", MU_KIND_ENTRIES.values(), ids=MU_KIND_ENTRIES.keys())
    def test_every_entry_point_rejects_the_rollout_kind_before_any_sweep_or_draw(self, rng, entry,
                                                                                monkeypatch):
        # "rollout" ran one 256-path mu_rollout per row; it is now an explicit slope
        sol = solve_riccati(support.random_model(rng, n=2, m=1), alpha=0.9)
        _refuse_sweeps_and_draws(monkeypatch)
        with pytest.raises(ArgumentError, match="unknown mu_kind 'rollout'.*mu_rollout"):
            entry(sol, np.ones((2, 2)), "rollout")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", ["optimal_control", "resolve_mu", "optimal_control_batch"])
    def test_non_finite_explicit_slope_is_rejected_before_any_sweep(self, rng, entry, value, monkeypatch):
        # a NaN slope used to run the whole sweep budget into a MaxIterations advising a
        # larger max_iters
        sol = solve_riccati(support.random_model(rng, n=2, m=1), alpha=0.9)
        _refuse_sweeps_and_draws(monkeypatch)
        X, Mu = np.ones((3, 2)), np.zeros((3, 2))
        Mu[1, 0] = value
        call = {
            "optimal_control": lambda: optimal_control(sol, X[1], mu=Mu[1]),
            "resolve_mu": lambda: resolve_mu(sol, X[1], mu=Mu[1]),
            "optimal_control_batch": lambda: optimal_control_batch(sol, X, Mu=Mu),
        }[entry]
        row = 0 if entry != "optimal_control_batch" else 1
        with pytest.raises(ArgumentError, match=rf"^slopes must be finite, got .* in row {row}"):
            call()


def _refuse_sweeps_and_draws(monkeypatch):
    """Make every stage-solve sweep and every noise draw fail."""
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep or a draw ran")

    monkeypatch.setattr(csviu.control, "_sweeps", refuse)
    monkeypatch.setattr(csviu.control, "_sweeps_one", refuse)
    monkeypatch.setattr(csviu.simulator, "_noise_chunks", refuse)


def _count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestPerRowSlopeSweeps:
    """Dense coupled plant with one state on a sign cycle of the frozen-sign slope."""

    CYCLING = 16  # row of the batch below whose control signs never repeat
    # rows of the whole draw whose last stage solve takes fewer sweeps than an earlier one
    LAST_SOLVE_SHORTER = [189, 344]

    @pytest.fixture(scope="class")
    def draw(self):
        rng = np.random.default_rng(3)
        model = support.random_model(rng, n=6, m=3)
        sol = solve_riccati(model, alpha=0.95)
        return sol, 1.5 * rng.standard_normal((400, 6))

    @pytest.fixture(scope="class")
    def case(self, draw):
        sol, X = draw
        return sol, X[250:290]

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

    def test_single_state_is_the_batch_of_one_bit_for_bit(self, draw):
        sol, X = draw
        # and a one-channel plant, whose batches solve in one pass
        one_channel = solve_riccati(support.diagonal_plant(21), alpha=0.95)
        cases = [(sol, X[[*range(250, 290), *self.LAST_SOLVE_SHORTER]]),
                 (one_channel, np.linspace(-1.0, 1.0, 3 * 21).reshape(3, 21))]
        for sol, X in cases:
            mus = 0.3 * np.random.default_rng(7).standard_normal(X.shape)
            for row, x in enumerate(X):
                for slope in ({"mu_kind": "zero"}, {"mu_kind": "asymptotic"}, {"mu": mus[row]}):
                    batch = {"Mu": slope["mu"][None]} if "mu" in slope else slope
                    U, Mu = optimal_control_batch(sol, x[None], **batch)
                    single = optimal_control(sol, x, **slope)
                    assert single.u_star.tobytes() == U[0].tobytes(), (row, slope)
                    assert single.mu.tobytes() == Mu[0].tobytes(), (row, slope)
                    assert resolve_mu(sol, x, **slope).tobytes() == Mu[0].tobytes()
                    # sub and sor describe the last stage solve, not the largest of the sweeps
                    again = sor_solve(single.sub)
                    for field in ("z", "gamma", "nu", "theta"):
                        assert getattr(again, field).tobytes() == getattr(single.sor, field).tobytes()
                    assert (again.iterations, again.residual) == (single.sor.iterations, single.sor.residual)

    @staticmethod
    def _record_rows(monkeypatch, rows_solved):
        """Record the rows of every batch stage solve (``_sweeps``) and, as 1, every
        single-row solve of the single-state path (``_sweeps_one`` outside ``_sweeps``)."""
        sweeps, one, inside = csviu.control._sweeps, csviu.control._sweeps_one, []

        def recording(W, B, *args):
            rows_solved.append(len(B))
            inside.append(True)
            try:
                return sweeps(W, B, *args)
            finally:
                inside.pop()

        def recording_one(law, b, *args):
            if not inside:
                rows_solved.append(1)
            return one(law, b, *args)

        monkeypatch.setattr(csviu.control, "_sweeps", recording)
        monkeypatch.setattr(csviu.control, "_sweeps_one", recording_one)

    def test_batch_solves_each_row_as_often_as_the_single_state(self, case, monkeypatch):
        sol, X = case
        rows_solved, batches = [], []
        self._record_rows(monkeypatch, rows_solved)
        optimal_control_batch(sol, X, mu_kind="asymptotic")
        batch_rows = rows_solved.copy()
        sweeps = csviu.control._sweeps
        monkeypatch.setattr(csviu.control, "_sweeps", lambda *args: batches.append(args) or sweeps(*args))
        for x in X:
            optimal_control(sol, x, mu_kind="asymptotic")
        single_rows = rows_solved[len(batch_rows):]
        assert set(single_rows) == {1} and batches == []  # single states never run the batch solve
        assert sum(batch_rows) == len(single_rows)
        # only the cycling row takes the final solve after the last sweep
        assert batch_rows[-1] == 1 and batch_rows[0] == len(X)

    def test_settings_are_checked_once_per_call(self, case, monkeypatch):
        sol, X = case
        checks, rows_solved, check = [], [], csviu.control._check_sweeps

        def counting(*args):
            checks.append(args[1:])
            return check(*args)

        monkeypatch.setattr(csviu.control, "_check_sweeps", counting)
        self._record_rows(monkeypatch, rows_solved)
        optimal_control_batch(sol, X, mu_kind="asymptotic")
        optimal_control(sol, X[0], mu_kind="asymptotic")
        assert len(rows_solved) > 2 and checks == [(1e-10, 10000)] * 2

    def test_settled_state_is_not_solved_again(self, monkeypatch):
        sol = support.synthetic_solution(
            A=0.5, B=1.0, G=-0.5, alpha=0.9, Wud=[1.0], Sigma=[[2.0]], Lambda=[[1.0]]
        )
        rows_solved = []
        self._record_rows(monkeypatch, rows_solved)
        inside = optimal_control(sol, [0.1], mu_kind="asymptotic")  # deadzone: u = 0 at once
        assert inside.u_star[0] == 0.0 and rows_solved == [1]


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
        assert counts == {}  # the law's inverse was checked when it was built

    def test_a_law_that_misses_the_curvature_inverse_raises(self, rng, monkeypatch):
        sol = solve_riccati(support.random_model(rng, n=3, m=2), alpha=0.9)
        exact = csviu.riccati.stage_data

        def corrupted(Lambda, c):
            W, c = exact(Lambda, c)
            return W * (1.0 + 1e-6), c

        monkeypatch.setattr(csviu.riccati, "stage_data", corrupted)
        x = rng.standard_normal(3)
        for _ in range(2):  # a failed build is not cached
            with pytest.raises(CsviuError, match="fails to invert the control curvature"):
                optimal_control(sol, x)
        monkeypatch.setattr(csviu.riccati, "stage_data", exact)
        optimal_control(sol, x)

    def test_shared_arrays_are_read_only(self, rng):
        sol = solve_riccati(support.random_model(rng, n=2, m=2), alpha=0.9)
        for array in (sol.law.W, sol.law.c, sol.slope_map, *sol.slope_gains):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_relaxation_constants_built_once_per_law(self, rng):
        sol = solve_riccati(support.random_model(rng, n=3, m=2), alpha=0.9)
        X = rng.standard_normal((8, 3))
        optimal_control_batch(sol, X, mu_kind="asymptotic")
        optimal_control(sol, X[0], mu_kind="asymptotic")
        law = sol.law
        built = [getattr(law, name) for name in ("steps", "columns", "lists", "theta_divisor")]
        optimal_control_batch(sol, X, mu_kind="asymptotic")
        optimal_control(sol, X[0], mu_kind="asymptotic")
        assert all(getattr(law, name) is value
                   for name, value in zip(("steps", "columns", "lists", "theta_divisor"), built))
        W, c = law.W, law.c
        assert law.steps == ((1.0 / W.diagonal()).tolist(), (-c).tolist(), c.tolist())
        for column, want in zip(law.columns, (-c, c, W.diagonal())):
            assert column.shape == (2, 1) and column[:, 0].tobytes() == want.tobytes()
        assert law.lists == (W.tolist(), c.tolist())
        np.testing.assert_array_equal(law.theta_divisor, np.where(c > 0, c, np.inf))

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

    @pytest.mark.parametrize("slope", [{"mu_kind": "zero"}, {"mu": [0.3, -0.2]}, {"mu_kind": "asymptotic"}],
                             ids=["zero", "explicit", "asymptotic"])
    def test_non_finite_state_is_rejected(self, rng, slope):
        # the zero and explicit slopes used to return for a NaN state, the asymptotic one
        # named the batch argument X
        sol = solve_riccati(support.random_model(rng, n=2, m=1), alpha=0.9)
        with pytest.raises(ArgumentError, match="^x must be finite"):
            resolve_mu(sol, [np.nan, 0.0], **slope)

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


# two channels whose control noise sigma_u, sigma_bar_u is large against the
# control gains: deadzone weights Wud of about 0.55, so at alpha = 0.9 most
# states within one unit of the origin leave a channel off
DEADZONE_PLANT_DATA = {
    "A": [[0.5, 0.1], [0.0, 0.4]],
    "B": [[1.0, 0.0], [0.3, 1.0]],
    "C": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
    "D": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    "sigma": [[0.1], [0.1]],
    "sigma_x": [[0.05, 0.0], [0.0, 0.05]],
    "sigma_bar_x": [[0.1, 0.0], [0.0, 0.1]],
    "sigma_u": [[0.4, 0.0], [0.0, 0.4]],
    "sigma_bar_u": [[0.6, 0.0], [0.1, 0.6]],
}


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
        inputs = [(solve_riccati(model, alpha=0.9), [2.0 * rng.standard_normal(2) for _ in range(25)])]
        # coupled channels: the per-channel margin Wud - |b| called 6 of these 800 channel-states wrongly
        cycling = solve_riccati(SystemModel.from_dict(support.CYCLING_PLANT_DATA), alpha=0.95)
        inputs.append((cycling, 2.0 * np.random.default_rng(0).standard_normal((400, 3))))
        # wide deadzones (Wud about 0.55 per channel): many channel-states are off
        wide = solve_riccati(SystemModel.from_dict(DEADZONE_PLANT_DATA), alpha=0.9)
        inputs.append((wide, np.random.default_rng(1).standard_normal((200, 2))))
        off = 0
        for sol, states in inputs:
            for x in states:
                res = optimal_control(sol, x)
                inactive, margins = inaction_test(sol, x, res.mu)
                for i in range(sol.model.m):
                    if margins[i] > 1e-9:
                        assert inactive[i] and res.u_star[i] == 0.0
                        off += 1
                    elif margins[i] < -1e-9:
                        assert res.u_star[i] != 0.0
                    if res.u_star[i] != 0.0:
                        assert margins[i] <= 1e-9
        assert off >= 100


class TestStageResiduals:
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


class TestNoControlChannel:
    """A plant with no control channel (m = 0): every stage problem is empty, the
    optimal law is u = 0, and its norms are those of the uncontrolled plant."""

    @pytest.fixture
    def model(self):
        return SystemModel.from_dict(support.NO_CHANNEL_DATA)

    @pytest.mark.parametrize("alpha", [0.9, 1.0])
    def test_norms_match_the_linear_law_closed_form(self, model, alpha):
        est = optimal_norms(solve_riccati(model, alpha=alpha), paths=50, seed=0)
        exact = oracles.linear_law_norm(model.A, model.B, model.C, model.D, model.sigma,
                                        model.sigma_bar_x, model.sigma_bar_u, np.zeros((0, 1)), alpha)
        assert (est.energy if alpha < 1.0 else est.power) == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("mu_kind", ["zero", "asymptotic"])
    def test_stage_solves_return_empty_controls(self, model, mu_kind):
        sol = solve_riccati(model, alpha=0.9)
        res = optimal_control(sol, [1.0], mu_kind=mu_kind)
        assert res.u_star.shape == res.margins.shape == res.sor.theta.shape == (0,)
        for rows in (1, 3):
            U, Mu = optimal_control_batch(sol, np.ones((rows, 1)), mu_kind=mu_kind)
            assert U.shape == (rows, 0) and Mu.shape == (rows, 1)
        assert resolve_mu(sol, [1.0], mu_kind=mu_kind).shape == (1,)
        assert inaction_test(sol, [1.0], [0.0])[1].shape == (0,)

    def test_bare_solves_of_an_empty_problem(self):
        state = sor_solve(ControlSubproblem.from_parts(np.zeros((0, 0)), [], []))
        assert state.nu.shape == (0,) and state.residual == 0.0
        for rows in (1, 3):
            assert sor_solve_batch(np.zeros((0, 0)), np.zeros((rows, 0)), np.zeros(0)).shape == (rows, 0)

    def test_scans_and_rollouts(self, model):
        sol = solve_riccati(model, alpha=0.9)
        out = scan_region(sol, axes=(0,), resolution=5)
        assert out.labels.shape == out.margins.shape == (5, 0) and not out.invalid.any()
        optimal, zero = (estimate_energy(model, policy, 0.9, 20, [1.0], 50, seed=3)
                         for policy in (Policy.optimal(sol, mu_kind="asymptotic"), Policy.zero(0)))
        assert optimal == zero
