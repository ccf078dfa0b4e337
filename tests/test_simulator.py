import errno
import hashlib
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from csviu import (
    MaxIterations,
    Policy,
    SeriesDivergent,
    SystemModel,
    estimate_energy,
    estimate_power,
    mu_rollout,
    one_step_variation_oracle,
    optimal_control,
    optimal_control_batch,
    optimal_norms,
    overtaking_compare,
    simulate,
    solve_riccati,
    step,
)
import csviu.simulator
from csviu.cli import main
from csviu.model import NOISE_KINDS
from csviu.simulator import draw_noise_block, mean_stderr, path_rng, step_batch

import oracles
import support

# these tests fork a draw helper past the one-thread gate, from a process whose BLAS may
# run more threads; the helper only draws, so the fork is safe there
_forks_on_purpose = pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")


_SQRT3 = np.sqrt(3.0)


def _draws(kind, rng, shape):
    """``shape`` draws of a noise kind from ``rng``, through numpy's API alone."""
    if kind == "gaussian":
        return rng.standard_normal(shape)
    if kind == "rademacher":
        return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0
    return rng.uniform(-_SQRT3, _SQRT3, size=shape)


def _noise_free_model(A, B):
    return SystemModel.from_dict({"A": A, "B": B})


class TestStepping:
    def test_noise_free_step_is_the_mean_map(self):
        model = _noise_free_model([[0.5, 0.1], [0.0, 0.4]], [[1.0], [0.5]])
        x = np.array([1.0, -2.0])
        u = np.array([0.3])
        noise = np.ones(model.r + model.n + model.m)  # ignored: all noise matrices are zero
        np.testing.assert_array_equal(
            step(model, x, u, noise), model.A @ x + model.B @ u
        )

    def test_step_uses_magnitudes_for_growth_noise(self, scalar_model):
        # x = -2: growth term sigma_bar_x * |x| * eps = 0.3 * 2 * eps
        noise = np.array([0.0, 1.0, 0.0])  # (w, eps_x, eps_u)
        got = step(scalar_model, [-2.0], [0.0], noise)
        assert got[0] == pytest.approx(0.5 * -2.0 + 0.2 + 0.3 * 2.0, abs=1e-15)

    def test_batch_matches_single_steps(self, rng):
        model = support.random_model(rng, n=3, m=2, r=2)
        X = rng.standard_normal((6, 3))
        U = rng.standard_normal((6, 2))
        noise = rng.standard_normal((6, 2 + 3 + 2))
        batch = step_batch(model, X, U, noise)
        for row in range(6):
            np.testing.assert_allclose(
                batch[row], step(model, X[row], U[row], noise[row]), atol=1e-12
            )


class TestTransitionOracle:
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_step_batch_matches_the_seven_term_oracle(self, r):
        # the strided noise rows the rollout reads, on random plants n = 1..4, m = 1..3
        rng = np.random.default_rng(40 + r)
        paths, stages = 5, 3
        for n in range(1, 5):
            for m in range(1, 4):
                model = support.random_model(rng, n=n, m=m, r=r)
                mats = [getattr(model, name) for name in
                        ("A", "B", "sigma", "sigma_x", "sigma_bar_x", "sigma_u", "sigma_bar_u")]
                X = 2.0 * rng.standard_normal((paths, n))
                [chunk] = csviu.simulator._noise_chunks(model, stages, paths, seed=n + 10 * m, kind="gaussian")
                for noise in chunk:
                    assert not noise.flags.c_contiguous
                    U = 2.0 * rng.standard_normal((paths, m))
                    got = step_batch(model, X, U, noise)
                    want = oracles.noisy_transition(*mats, X, U, noise)
                    scale = oracles.noisy_transition(*map(np.abs, mats), np.abs(X), np.abs(U), np.abs(noise))
                    assert got.shape == (paths, n)
                    assert np.all(np.abs(got - want) <= 1e-13 * scale), (n, m, r)
                    X = got


class TestRandomness:
    def test_path_streams_are_reproducible(self):
        a = path_rng(7, 3).standard_normal(10)
        b = path_rng(7, 3).standard_normal(10)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, path_rng(7, 4).standard_normal(10))
        assert not np.array_equal(a, path_rng(8, 3).standard_normal(10))

    def test_negative_identifiers_rejected(self):
        with pytest.raises(ValueError):
            path_rng(-1, 0)
        with pytest.raises(ValueError):
            path_rng(0, -1)

    @pytest.mark.parametrize(
        "seed, index, name",
        [(1.5, 0, "seed"), (True, 0, "seed"), (2**64, 0, "seed"), (0, 2.0, "path_index"),
         (0, 2**64, "path_index")],
        ids=["fractional-seed", "bool-seed", "seed-2**64", "fractional-index", "index-2**64"],
    )
    def test_identifiers_must_be_integers_below_two_to_the_64(self, seed, index, name):
        # a fractional seed used to run the truncated one, and index 2**64 the stream of seed 1
        with pytest.raises(ValueError, match=name):
            path_rng(seed, index)

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_streams_are_philox_keyed_by_seed_then_path_index(self, kind):
        # the seed is the high key word and the path index the low one
        words = [0, 1, 2**63, 2**64 - 1]
        for seed in words:
            for index in words:
                want = np.random.Generator(np.random.Philox(key=(seed << 64) | index))
                got = path_rng(seed, index)
                for shape in ((3, 2), (5,)):
                    assert _draws(kind, got, shape).tobytes() == _draws(kind, want, shape).tobytes()

    def test_importing_the_package_leaves_numpy_random_unloaded(self):
        code = "import sys, csviu; print('numpy.random' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_seed_is_checked_without_any_path(self, scalar_model):
        # no stream opened, so the seed used to go unchecked and an empty block came back
        with pytest.raises(ValueError, match="seed"):
            draw_noise_block(scalar_model, 3, 0, seed=-1)

    def test_simulate_refuses_a_fractional_seed(self, scalar_model):
        with pytest.raises(ValueError, match="seed"):
            simulate(scalar_model, Policy.zero(1), [1.0], kappa=2, paths=2, seed=1.5)

    def test_adding_paths_keeps_existing_draws(self, scalar_model):
        small = draw_noise_block(scalar_model, stages=5, paths=3, seed=2)
        large = draw_noise_block(scalar_model, stages=5, paths=8, seed=2)
        np.testing.assert_array_equal(large[:3], small)

    @pytest.mark.parametrize("kind", ["gaussian", "rademacher", "uniform-scaled"])
    def test_lengthening_horizon_keeps_prefix(self, scalar_model, kind):
        short = draw_noise_block(scalar_model, stages=6, paths=4, seed=2, kind=kind)
        long = draw_noise_block(scalar_model, stages=10, paths=4, seed=2, kind=kind)
        np.testing.assert_array_equal(long[:, :6, :], short)

    @pytest.mark.parametrize("kind", ["gaussian", "rademacher", "uniform-scaled"])
    def test_moments_are_zero_mean_unit_variance(self, scalar_model, kind):
        block = draw_noise_block(scalar_model, stages=100, paths=700, seed=5, kind=kind)
        flat = block.reshape(-1, block.shape[-1])
        assert np.abs(flat.mean(axis=0)).max() <= 0.02
        cov = np.cov(flat.T)
        assert np.abs(cov - np.eye(flat.shape[1])).max() <= 0.03

    def test_unknown_noise_kind(self, scalar_model):
        with pytest.raises(ValueError, match="noise kind"):
            draw_noise_block(scalar_model, 1, 1, 0, kind="cauchy")

    @pytest.mark.parametrize(
        "stages, paths, name",
        [(3, 2.5, "paths"), (-1, 2, "stages"), (True, 2, "stages"), (3, -1, "paths")],
        ids=["fractional-paths", "negative-stages", "bool-stages", "negative-paths"],
    )
    def test_block_counts_are_named(self, scalar_model, stages, paths, name):
        # numpy used to answer with "'float' object cannot be interpreted as an
        # integer" and "negative dimensions are not allowed"
        with pytest.raises(ValueError, match=name):
            draw_noise_block(scalar_model, stages, paths, seed=0)

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("per_chunk", [1, 3, 4])
    def test_chunks_continue_one_long_draw_per_path(self, scalar_model, monkeypatch, kind, per_chunk):
        paths, stages, d = 3, 10, 3
        expected = np.stack([_draws(kind, path_rng(4, p), (stages, d)) for p in range(paths)])
        monkeypatch.setattr(csviu.simulator, "_CHUNK_BYTES", per_chunk * paths * d * 8)
        got = draw_noise_block(scalar_model, stages, paths, seed=4, kind=kind)
        assert got.tobytes() == expected.tobytes()


class TestSimulate:
    def test_bit_exact_reruns(self, scalar_model):
        pol = Policy.zero(1)
        a = simulate(scalar_model, pol, [1.0], kappa=12, paths=5, seed=3)
        b = simulate(scalar_model, pol, [1.0], kappa=12, paths=5, seed=3)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.outputs, b.outputs)

    def test_path_extension_is_consistent(self, scalar_model):
        sol = solve_riccati(scalar_model, alpha=0.9)
        pol = Policy.linear(sol.G)
        small = simulate(scalar_model, pol, [1.0], kappa=10, paths=4, seed=9)
        large = simulate(scalar_model, pol, [1.0], kappa=10, paths=16, seed=9)
        np.testing.assert_array_equal(large.states[:4], small.states)

    def test_horizon_extension_keeps_prefix(self, scalar_model):
        pol = Policy.zero(1)
        short = simulate(scalar_model, pol, [0.5], kappa=6, paths=3, seed=1)
        long = simulate(scalar_model, pol, [0.5], kappa=14, paths=3, seed=1)
        np.testing.assert_array_equal(long.states[:, :7, :], short.states)

    def test_shapes_and_properties(self, scalar_model):
        ens = simulate(scalar_model, Policy.zero(1), [1.0], kappa=4, paths=3, seed=0)
        assert ens.states.shape == (3, 5, 1)
        assert ens.controls.shape == (3, 5, 1)
        assert ens.outputs.shape == (3, 5, 1)
        assert ens.paths == 3
        assert ens.kappa == 4

    def test_validations(self, scalar_model):
        pol = Policy.zero(1)
        with pytest.raises(ValueError, match="kappa"):
            simulate(scalar_model, pol, [1.0], kappa=-1, paths=1)
        with pytest.raises(ValueError, match="paths"):
            simulate(scalar_model, pol, [1.0], kappa=1, paths=0)
        with pytest.raises(ValueError, match="x0"):
            simulate(scalar_model, pol, [1.0, 2.0], kappa=1, paths=1)

    def test_optimal_policy_rows_match_pointwise_solves(self, rng):
        model = support.random_model(rng, n=2, m=1)
        sol = solve_riccati(model, alpha=0.9)
        pol = Policy.optimal(sol, mu_kind="asymptotic")
        X = rng.standard_normal((5, 2))
        U = pol.fn(X)
        for row in range(5):
            expected = optimal_control(sol, X[row], mu_kind="asymptotic").u_star
            np.testing.assert_allclose(U[row], expected, atol=1e-7)
        assert pol.kind == "optimal[asymptotic]"

    def test_rollout_policy_takes_the_callers_solver_settings(self, rng):
        # a Monte Carlo slope reaches the law as an explicit Mu of mu_rollout values
        model = support.random_model(rng, n=2, m=1)
        sol = solve_riccati(model, alpha=0.9)
        X = np.array([[0.4, -0.2], [1.0, 1.0]])
        with pytest.raises(ValueError, match="tol"):
            Policy.optimal(sol, mu_kind="asymptotic", tol=-1.0)
        U = _rollout_slope_policy(sol, tol=1e-12).fn(X)
        for row in range(2):
            single = optimal_control(sol, X[row], mu=mu_rollout(sol, X[row]).value, tol=1e-12)
            np.testing.assert_allclose(U[row], single.u_star, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("paths", [1, 4])
    def test_policy_output_must_have_one_row_per_path(self, scalar_model, paths):
        # a length-paths vector for m = 1 used to become a (1, paths) row:
        # accepted with one path, a broadcast error with several
        flat = Policy("flat", lambda X: X[:, 0])
        with pytest.raises(ValueError, match="policy 'flat'.*expected"):
            simulate(scalar_model, flat, [1.0], kappa=2, paths=paths)

    def test_rollout_policy_smoke(self, rng):
        model = support.random_model(rng, n=2, m=1)
        sol = solve_riccati(model, alpha=0.9)
        pol = _rollout_slope_policy(sol)
        U = pol.fn(np.array([[0.4, -0.2], [1.0, 1.0]]))
        assert U.shape == (2, 1)
        assert np.all(np.isfinite(U))


def _rollout_slope_policy(sol, tol=1e-10):
    """The optimal law under one default mu_rollout slope per state, passed as ``Mu``."""
    def fn(X):
        Mu = np.array([mu_rollout(sol, x).value for x in X]).reshape(X.shape)
        return optimal_control_batch(sol, X, Mu=Mu, tol=tol)[0]

    return Policy("optimal[rollout]", fn)


def _entry_calls(model):
    """Monte Carlo calls on ``model``, keyed by the bad argument each one passes."""
    sol = solve_riccati(model, alpha=0.9)
    gain = Policy.linear(sol.G)
    return {
        "simulate-kappa-bool": lambda: simulate(model, gain, [1.0], kappa=True, paths=2),
        "simulate-kappa-fraction": lambda: simulate(model, gain, [1.0], kappa=2.5, paths=2),
        "simulate-paths-fraction": lambda: simulate(model, gain, [1.0], kappa=2, paths=2.0),
        "optimal_norms-paths-fraction": lambda: optimal_norms(sol, paths=2.5),
        "optimal_norms-kappa-fraction": lambda: optimal_norms(sol, paths=2, kappa=2.5),
        "optimal_norms-kappa-negative": lambda: optimal_norms(sol, paths=2, kappa=-1),
        "mu_rollout-depth-fraction": lambda: mu_rollout(sol, [1.0], depth=2.5, paths=2),
        "mu_rollout-paths-fraction": lambda: mu_rollout(sol, [1.0], depth=2, paths=2.5),
        "estimate_power-burn_in-fraction": lambda: estimate_power(
            model, gain, kappa=4, x0=[1.0], paths=2, burn_in=1.5
        ),
        "estimate_power-kappa-bool": lambda: estimate_power(model, gain, kappa=True, x0=[1.0], paths=2),
        "estimate_energy-x0-nan": lambda: estimate_energy(model, gain, 0.9, 3, [np.nan], 4),
        # the discount used to be checked only after the whole rollout
        "estimate_energy-alpha-negative": lambda: estimate_energy(model, gain, -1.0, 300, [1.0], 2000),
        "estimate_energy-alpha-nan": lambda: estimate_energy(model, gain, np.nan, 300, [1.0], 2000),
        "estimate_energy-alpha-zero": lambda: estimate_energy(model, gain, 0.0, 300, [1.0], 2000),
        "simulate-x0-inf": lambda: simulate(model, gain, [np.inf], kappa=3, paths=2),
        "mu_rollout-x-nan": lambda: mu_rollout(sol, [np.nan], depth=2, paths=2),
    }


@pytest.mark.parametrize("case", list(_entry_calls(support.scalar_model())))
def test_bad_counts_and_states_are_named_before_any_draw(scalar_model, case, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("noise drawn before the arguments were checked")

    call = _entry_calls(scalar_model)[case]
    monkeypatch.setattr(csviu.simulator, "_noise_chunks", no_draws)
    with pytest.raises(ValueError, match=case.split("-")[1]):
        call()


def _optimal_policy_calls():
    model = SystemModel.from_dict(support.README_DATA)
    sol = solve_riccati(model, alpha=0.95)
    x0 = [1.0, -1.0]
    return {
        "norms-mu_kind": lambda: optimal_norms(sol, paths=500, mu_kind="bogus"),
        "norms-tol": lambda: optimal_norms(sol, paths=500, sor_tol=-1),
        "energy-tol": lambda: estimate_energy(model, Policy.optimal(sol, tol=np.nan), 0.95, 10, x0, 500),
        "power-mu_kind": lambda: estimate_power(model, Policy.optimal(sol, mu_kind="bogus"), 10, x0, 500),
        "power-tol": lambda: estimate_power(model, Policy.optimal(sol, tol=True), 10, x0, 500),
    }


@pytest.mark.parametrize("case", list(_optimal_policy_calls()))
def test_optimal_policy_settings_are_checked_before_any_draw(case, monkeypatch):
    # optimal_norms(paths=500, mu_kind="bogus") used to open all 500 streams and
    # draw a chunk before the first stage solve raised
    def no_draws(*args, **kwargs):
        raise AssertionError("noise drawn before the policy settings were checked")

    call = _optimal_policy_calls()[case]
    monkeypatch.setattr(csviu.simulator, "_noise_chunks", no_draws)
    with pytest.raises(csviu.ArgumentError, match=case.split("-")[1]):
        call()


@pytest.mark.parametrize(
    "entry",
    ["simulate", "optimal_norms", "mu_rollout", "overtaking_compare", "estimate_energy", "estimate_power"],
)
def test_rollouts_draw_through_the_chunked_streams(scalar_model, entry, monkeypatch):
    # the "before any draw" tests intercept _noise_chunks, so it must be where rollouts draw
    class Drawn(Exception):
        pass

    def drawn(*args, **kwargs):
        raise Drawn

    sol = solve_riccati(scalar_model, alpha=0.9)
    gain = Policy.linear(sol.G)
    calls = {
        "simulate": lambda: simulate(scalar_model, gain, [1.0], kappa=2, paths=2),
        "optimal_norms": lambda: optimal_norms(sol, paths=2, kappa=2),
        "mu_rollout": lambda: mu_rollout(sol, [1.0], depth=2, paths=2),
        "overtaking_compare": lambda: overtaking_compare(
            scalar_model, 0.9, gain, gain, [1.0], [2], paths=2
        ),
        "estimate_energy": lambda: estimate_energy(scalar_model, gain, 0.9, 2, [1.0], 2),
        "estimate_power": lambda: estimate_power(scalar_model, gain, 2, [1.0], 2),
    }
    monkeypatch.setattr(csviu.simulator, "_noise_chunks", drawn)
    with pytest.raises(Drawn):
        calls[entry]()


@pytest.mark.parametrize("entry", ["simulate", "estimate_energy", "estimate_power", "overtaking_compare"])
def test_a_failed_stage_solve_names_the_stage_and_the_policy(scalar_model, entry):
    calls = []

    def solve(X):
        calls.append(len(X))
        if len(calls) == 4:
            raise MaxIterations("relaxation did not reach tol", iterations=7, residual=0.5)
        return np.zeros((len(X), 1))

    flaky, zero = Policy("flaky", solve), Policy.zero(1)
    run = {
        "simulate": lambda: simulate(scalar_model, flaky, [1.0], kappa=6, paths=3),
        "estimate_energy": lambda: estimate_energy(scalar_model, flaky, 0.9, 6, [1.0], 3),
        "estimate_power": lambda: estimate_power(scalar_model, flaky, 6, [1.0], 3),
        "overtaking_compare": lambda: overtaking_compare(scalar_model, 0.9, zero, flaky, [1.0], [6], paths=3),
    }
    with pytest.raises(MaxIterations) as failure:
        run[entry]()
    assert str(failure.value) == "stage 3 of a rollout under policy 'flaky': relaxation did not reach tol"
    assert (failure.value.iterations, failure.value.residual) == (7, 0.5)
    assert isinstance(failure.value.__cause__, MaxIterations)


def test_a_short_sweep_budget_names_the_stage():
    # the zero-slope stage problem at this start needs 174 sweeps
    sol = solve_riccati(SystemModel.from_dict(support.CYCLING_PLANT_DATA), alpha=0.95)
    short = Policy("optimal[short]", lambda X: optimal_control_batch(sol, X, max_iters=100)[0])
    message = (r"^stage 0 of a rollout under policy 'optimal\[short\]': "
               r"relaxation did not reach .* in 100 sweeps on 2 of 2 rows")
    with pytest.raises(MaxIterations, match=message) as failure:
        simulate(sol.model, short, [-0.125, -0.25, 0.0], kappa=4, paths=2)
    assert failure.value.iterations == 100 and failure.value.residual > 1e-10


def _reference_rollout(model, policies, X, stages, seed, noise_kind):
    """The stage loop over one whole-horizon block, read a stage at a time."""
    noise = draw_noise_block(model, max(stages - 1, 0), X.shape[0], seed, noise_kind)
    states = [X] * len(policies)
    for k in range(stages):
        batches = [(X, policy.fn(X)) for policy, X in zip(policies, states)]
        yield batches
        if k + 1 < stages:
            states = [step_batch(model, X, U, noise[:, k, :]) for X, U in batches]


class TestChunkedStream:
    PER_CHUNK = 3  # stages per chunk in the streamed runs; the horizons straddle it

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("paths", [1, 5])
    def test_streamed_rollouts_equal_the_whole_block_loop(self, rng, monkeypatch, kind, paths):
        model = support.random_model(rng, n=2, m=1)
        sol = solve_riccati(model, alpha=0.9)
        x0 = rng.standard_normal(model.n)
        opt = Policy.optimal(sol, mu_kind="asymptotic")
        k = self.PER_CHUNK
        horizons = [0, 1, k - 1, k, k + 1, 2 * k + 2]

        def run():
            out = []
            for kappa in horizons:
                ens = simulate(model, opt, x0, kappa, paths, seed=3, noise_kind=kind)
                est = optimal_norms(sol, paths=paths, seed=3, noise_kind=kind, kappa=kappa)
                mu = mu_rollout(sol, x0, depth=kappa, paths=paths, seed=3, noise_kind=kind)
                out += [ens.states, ens.controls, ens.outputs, [est.energy, est.energy_stderr],
                        mu.value, mu.stderr]
            rows = overtaking_compare(
                model, 0.9, opt, Policy.linear(sol.G), x0, horizons, paths=paths, seed=3,
                noise_kind=kind,
            )
            out.append([[r.diff, r.stderr, r.diff_scaled, r.stderr_scaled] for r in rows])
            return [np.asarray(a) for a in out]

        with monkeypatch.context() as patch:
            patch.setattr(csviu.simulator, "_rollout", _reference_rollout)
            reference = run()
        d = model.r + model.n + model.m
        monkeypatch.setattr(csviu.simulator, "_CHUNK_BYTES", k * paths * d * 8)
        streamed = run()
        assert len(streamed) == len(reference)
        for got, want in zip(streamed, reference):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @_forks_on_purpose
    def test_long_horizon_holds_far_less_than_its_noise_block(self, monkeypatch):
        model = SystemModel.from_dict(support.README_DATA)
        sol = solve_riccati(model, alpha=1.0)
        paths, stages = 1000, 1000
        block = paths * (stages - 1) * (model.r + model.n + model.m) * 8  # 32 MB
        original = csviu.simulator._noise_chunks
        for ahead in (False, True):
            held = []

            def recorded(*args):
                for chunk in original(*args):
                    held.append(_held_bytes(chunk))
                    yield chunk

            monkeypatch.setattr(csviu.simulator, "_helper_can_run", lambda: ahead)
            monkeypatch.setattr(csviu.simulator, "_noise_chunks", recorded)
            tracemalloc.start()
            try:
                optimal_norms(sol, paths=paths, seed=0, kappa=stages)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the (paths, stages) residual array is a quarter of the block, the chunk 4 MB
            assert peak < block / 2, (ahead, peak, block)
            # tracemalloc does not see a helper's shared slots; both slots together are the chunk
            assert len(held) > 2 and max(held) <= csviu.simulator._CHUNK_BYTES, (ahead, held)

    def test_simulate_holds_one_chunk_of_a_wide_noise_block(self):
        # r = 30 noise inputs on one state: the (paths, stages, r + n + m) block is 102 MB,
        # the ensemble simulate returns 10 MB
        model = SystemModel.from_dict({"A": 0.5, "B": 1.0, "C": 1.0, "D": 1.0, "sigma": [[0.1] * 30]})
        paths, kappa = 200, 2000
        block = paths * kappa * (model.r + model.n + model.m) * 8
        tracemalloc.start()
        try:
            simulate(model, Policy.zero(1), [1.0], kappa=kappa, paths=paths, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block / 4, (peak, block)


def _held_bytes(chunk):
    """Bytes of the buffer a noise chunk views: a numpy array, or a helper's shared mapping."""
    while isinstance(chunk, np.ndarray) and chunk.base is not None:
        chunk = chunk.base
    return chunk.nbytes if isinstance(chunk, np.ndarray) else len(chunk)


def _assert_no_child():
    # a child that exited but was not reaped would be returned (and reaped) here
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def helper(monkeypatch):
    """Let every run of more than one chunk fork its draw helper; the pids forked, in order."""
    forks = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(csviu.simulator, "_helper_can_run", lambda: True)
    monkeypatch.setattr(os, "fork", recorded)
    return forks


def _in_process(monkeypatch, run):
    with monkeypatch.context() as patch:
        patch.setattr(csviu.simulator, "_helper_can_run", lambda: False)
        return run()


@_forks_on_purpose
class TestDrawnAhead:
    PER_CHUNK = 4  # stages of an in-process chunk; a helper's slots hold two each

    def _small_chunks(self, monkeypatch, model, paths):
        d = model.r + model.n + model.m
        monkeypatch.setattr(csviu.simulator, "_CHUNK_BYTES", self.PER_CHUNK * paths * d * 8)

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("chunks", [2, 3, 25])
    @pytest.mark.parametrize("paths", [1, 40])
    def test_draws_keep_their_bits(self, helper, monkeypatch, kind, chunks, paths):
        model = SystemModel.from_dict(support.README_DATA)
        self._small_chunks(monkeypatch, model, paths)
        stages = self.PER_CHUNK * chunks - 1  # the last chunk is a short one
        got = draw_noise_block(model, stages, paths, seed=5, kind=kind)
        assert len(helper) == 1
        want = _in_process(monkeypatch, lambda: draw_noise_block(model, stages, paths, seed=5, kind=kind))
        assert got.tobytes() == want.tobytes()
        _assert_no_child()

    def test_a_single_chunk_run_forks_no_helper(self, helper, monkeypatch):
        model = SystemModel.from_dict(support.README_DATA)
        self._small_chunks(monkeypatch, model, 3)
        draw_noise_block(model, self.PER_CHUNK, 3, seed=5)
        assert helper == []

    @pytest.mark.parametrize("entry", ["norms-0.95", "norms-1.0", "energy", "cli-simulate"])
    def test_rollouts_keep_their_bits(self, helper, monkeypatch, tmp_path, entry):
        model = SystemModel.from_dict(support.README_DATA)
        paths = 30
        self._small_chunks(monkeypatch, model, paths)
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(support.README_DATA))
        runs = iter(range(2))

        def run():
            if entry.startswith("norms"):
                sol = solve_riccati(model, alpha=float(entry.split("-")[1]))
                return repr(optimal_norms(sol, paths=paths, seed=2, kappa=60))
            if entry == "energy":
                policy = Policy.optimal(solve_riccati(model, alpha=0.95), mu_kind="asymptotic")
                return repr(estimate_energy(model, policy, 0.95, 60, [0.3, -0.2], paths, seed=2))
            out = tmp_path / f"sim{next(runs)}"
            code = main(["simulate", "--model", str(path), "--alpha", "0.95", "--kappa", "60",
                         "--paths", str(paths), "--policy", "optimal", "--seed", "2", "--x0", "0.3,-0.2",
                         "--out", str(out)])
            assert code == 0
            return [(out / name).read_bytes() for name in ("result.json", "stages.csv")]

        got = run()
        assert len(helper) == 1
        _assert_no_child()
        assert got == _in_process(monkeypatch, run)

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_helper_chunks_are_stage_major(self, helper, monkeypatch, kind):
        # stage rows are contiguous (paths, d) blocks, and the caller holds no path-major scratch:
        # its peak while it iterates stays below one half-chunk slot
        model = SystemModel.from_dict(support.README_DATA)
        paths, stages, d = 200, 50, model.r + model.n + model.m
        self._small_chunks(monkeypatch, model, paths)
        slot = paths * (self.PER_CHUNK // 2) * d * 8
        import mmap  # noqa: F401  (imported by the helper path on first use; not part of its peak)

        chunks = csviu.simulator._noise_chunks(model, stages, paths, 3, kind)  # opens the streams
        tracemalloc.start()
        try:
            for chunk in chunks:
                assert all(row.flags.c_contiguous for row in chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(helper) == 1 and peak < slot, (peak, slot)
        _assert_no_child()

    def test_an_early_close_reaps_the_helper(self, helper):
        model = SystemModel.from_dict(support.README_DATA)
        chunks = csviu.simulator._noise_chunks(model, 10_000, 100, 0, "gaussian")
        next(chunks)
        assert len(helper) == 1
        chunks.close()
        _assert_no_child()

    def test_a_failing_policy_reaps_the_helper(self, helper, monkeypatch):
        model = SystemModel.from_dict(support.README_DATA)
        self._small_chunks(monkeypatch, model, 5)
        calls = itertools.count()

        def fn(X):
            if next(calls) == 20:
                raise MaxIterations("budget spent", iterations=3, residual=1.0)
            return np.zeros((X.shape[0], model.m))

        with pytest.raises(MaxIterations, match="stage 20") as failure:
            estimate_energy(model, Policy("failing", fn), 0.95, 60, [0.3, -0.2], 5)
        # the traceback keeps the rollout's frame alive, and still no helper outlives it
        assert failure.value.iterations == 3 and len(helper) == 1
        _assert_no_child()

    def test_a_failed_fork_draws_in_process(self, monkeypatch):
        model = SystemModel.from_dict(support.README_DATA)
        self._small_chunks(monkeypatch, model, 6)
        want = draw_noise_block(model, 50, 6, seed=1)

        def no_fork():
            raise OSError(errno.EAGAIN, "no process left")

        monkeypatch.setattr(csviu.simulator, "_helper_can_run", lambda: True)
        monkeypatch.setattr(os, "fork", no_fork)
        assert draw_noise_block(model, 50, 6, seed=1).tobytes() == want.tobytes()
        _assert_no_child()

    @pytest.mark.parametrize("kill_after", [None, 0, 3], ids=["at-fork", "after-chunk-0", "after-chunk-3"])
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_a_killed_helper_costs_no_bits(self, helper, monkeypatch, kill_after, kind):
        model = SystemModel.from_dict(support.README_DATA)
        paths, stages = 6, 50
        self._small_chunks(monkeypatch, model, paths)
        want = _in_process(monkeypatch, lambda: draw_noise_block(model, stages, paths, seed=1, kind=kind))

        def kill(pid):
            os.kill(pid, signal.SIGKILL)
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped

        if kill_after is None:
            fork = os.fork

            def fork_and_kill():
                pid = fork()
                if pid:
                    kill(pid)
                return pid

            monkeypatch.setattr(os, "fork", fork_and_kill)
        got = []
        for j, chunk in enumerate(csviu.simulator._noise_chunks(model, stages, paths, 1, kind)):
            got.append(chunk.transpose(1, 0, 2).copy())
            if j == kill_after:
                kill(helper[0])
        assert len(helper) == 1 and np.concatenate(got, axis=1).tobytes() == want.tobytes()
        _assert_no_child()


def test_a_second_thread_closes_the_gate():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not csviu.simulator._helper_can_run()
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_the_helper_runs_behind_the_real_gate(monkeypatch):
    # BLAS pinned to one thread leaves the process one thread: the gate opens on two CPUs
    code = (
        "import hashlib, os, sys\n"
        "forks = []\n"
        "fork = os.fork\n"
        "def counted():\n"
        "    pid = fork()\n"
        "    if pid:\n"
        "        forks.append(pid)\n"
        "    return pid\n"
        "os.fork = counted\n"
        "from csviu import SystemModel\n"
        "from csviu.simulator import draw_noise_block\n"
        f"model = SystemModel.from_dict({support.README_DATA!r})\n"
        "block = draw_noise_block(model, 300, 2000, 7, 'rademacher')\n"
        "print(len(forks), hashlib.sha256(block.tobytes()).hexdigest())\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-W", "error:This process:DeprecationWarning", "-c", code],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    forks, digest = out.stdout.split()
    model = SystemModel.from_dict(support.README_DATA)
    block = _in_process(monkeypatch, lambda: draw_noise_block(model, 300, 2000, 7, "rademacher"))
    assert digest == hashlib.sha256(block.tobytes()).hexdigest()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    assert int(forks) == (cpus >= 2 and sys.platform.startswith("linux"))


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _ensemble_squares(ens, stages=None):
    """|y_k|^2 of the first ``stages`` stages, read off the ensemble's outputs."""
    outputs = ens.outputs[:, :stages]
    return np.einsum("pkq,pkq->pk", outputs, outputs)


def _ensemble_energy(ens, alpha):
    sq = _ensemble_squares(ens)
    # the estimator sums one stage at a time, in stage order
    totals = np.zeros(ens.paths)
    for k in range(ens.kappa + 1):
        totals += alpha**k * sq[:, k]
    return [totals.mean(), mean_stderr(totals)]


def _ensemble_power(ens, burn_in):
    kappa = ens.kappa
    sq = _ensemble_squares(ens, kappa)
    window = np.zeros(ens.paths)
    for k in range(burn_in, kappa):
        window += sq[:, k]
    averages = window / (kappa - burn_in)
    series = np.array([np.ascontiguousarray(sq[:, k]).mean() for k in range(kappa)])
    q3, q4 = series[kappa // 2 : 3 * kappa // 4], series[3 * kappa // 4 :]
    growth = bool(q3.size and q4.size and q4.mean() > 1.5 * max(q3.mean(), 1e-300))
    return [averages.mean(), mean_stderr(averages), growth]


def _ensemble_overtaking(ens_a, ens_b, alpha, grid):
    sq_a, sq_b = _ensemble_squares(ens_a), _ensemble_squares(ens_b)
    T, rows = np.zeros(ens_a.paths), []
    for k in range(ens_a.kappa + 1):
        T = T / alpha + (sq_a[:, k] - sq_b[:, k])
        if k in grid:
            rows.append([T.mean() * alpha**k, mean_stderr(T) * alpha**k, T.mean(), mean_stderr(T)])
    return rows


def _ensemble_stationary_norm(sol, paths, seed, kind, stages):
    """optimal_norms' power at discount one from the residuals of a whole ensemble."""
    ens = simulate(sol.model, Policy.optimal(sol, mu_kind="asymptotic"), np.zeros(sol.model.n),
                   stages - 1, paths, seed, kind)
    start = stages // 2
    halves = np.zeros((2, paths))
    for k in range(start, stages):
        # the rollout hands the residual contiguous (paths, .) batches
        X, U = (np.ascontiguousarray(a[:, k]) for a in (ens.states, ens.controls))
        dev = U - X @ sol.G.T
        # the estimator sums each half of the window one stage at a time, in stage order
        halves[int(k >= (start + stages) // 2)] += sol.alpha * (
            np.einsum("pi,ij,pj->p", dev, sol.Lambda, dev)
            + np.abs(X) @ sol.forms.Wxd
            + np.abs(U) @ sol.forms.Wud
        )
    averages = (halves[0] + halves[1]) / (stages - start)
    return [sol.forms.varpi1 + float(averages.mean()), mean_stderr(averages)]


_SQUARE_PLANTS = {
    "readme": lambda: SystemModel.from_dict(support.README_DATA),
    "n6": lambda: support.spectral_gap_model(np.random.default_rng(6), 6, 3),
}


class TestOutputSquares:
    """The estimators keep only |y_k|^2, and equal their ensemble forms bit for bit."""

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("paths", [1, 2, 300])
    @pytest.mark.parametrize("plant", sorted(_SQUARE_PLANTS))
    def test_estimators_equal_their_ensemble_forms(self, plant, paths, kind):
        model = _SQUARE_PLANTS[plant]()
        sol = solve_riccati(model, alpha=0.95)
        x0 = np.linspace(-0.5, 0.7, model.n)
        policies = {"optimal": Policy.optimal(sol, mu_kind="asymptotic"),
                    "linear": Policy.linear(sol.G), "zero": Policy.zero(model.m)}
        kappa, burn_in, seed = 13, 3, 5
        for name, policy in policies.items():
            ens = simulate(model, policy, x0, kappa, paths, seed, kind)
            energy = estimate_energy(model, policy, 0.95, kappa, x0, paths, seed, kind)
            assert _bits([energy.mean, energy.stderr]) == _bits(_ensemble_energy(ens, 0.95)), name
            assert energy == ens.energy_estimate(0.95), name
            assert (energy.kappa, energy.paths) == (kappa, paths)
            power = estimate_power(model, policy, kappa, x0, paths, seed, kind, burn_in=burn_in)
            got = [power.mean, power.stderr, power.growth_flag]
            assert _bits(got) == _bits(_ensemble_power(ens, burn_in)), name
        for (a, b), alpha in ((("optimal", "linear"), 1.0), (("zero", "optimal"), 1.1)):
            grid = [0, 4, kappa]
            rows = overtaking_compare(model, alpha, policies[a], policies[b], x0, grid, paths,
                                      seed, kind)
            ensembles = [simulate(model, policies[p], x0, kappa, paths, seed, kind) for p in (a, b)]
            got = [[r.diff, r.stderr, r.diff_scaled, r.stderr_scaled] for r in rows]
            assert _bits(got) == _bits(_ensemble_overtaking(*ensembles, alpha, grid)), (a, b)
        sol1 = solve_riccati(model, alpha=1.0)
        est = optimal_norms(sol1, paths=paths, seed=seed, noise_kind=kind, kappa=2 * kappa)
        want = _ensemble_stationary_norm(sol1, paths, seed, kind, 2 * kappa)
        assert _bits([est.power, est.power_stderr]) == _bits(want)

    @pytest.mark.parametrize("entry", ["energy", "power", "cli-simulate"])
    def test_a_long_horizon_holds_one_noise_chunk(self, entry, tmp_path):
        model = SystemModel.from_dict(support.README_DATA)
        gain = Policy.linear(solve_riccati(model, alpha=0.95).G)
        paths, stages = 1000, 5500
        # the (paths, stages) matrix of |y_k|^2 the estimators once kept: 44 MB
        assert paths * stages * 8 >= 10 * csviu.simulator._CHUNK_BYTES
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(support.README_DATA))
        run = {
            "energy": lambda: estimate_energy(model, gain, 0.95, stages - 1, np.zeros(2), paths, seed=0),
            "power": lambda: estimate_power(model, gain, stages, np.zeros(2), paths, seed=0),
            "cli-simulate": lambda: main([
                "simulate", "--model", str(path), "--alpha", "0.95", "--policy", "gain",
                "--kappa", str(stages - 1), "--paths", str(paths), "--out", str(tmp_path / "sim")]),
        }
        tracemalloc.start()
        try:
            run[entry]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a path's noise stream, running sums and stage batches take well under 2 KB;
        # the power series and the CLI stage table a few floats a stage
        assert peak < csviu.simulator._CHUNK_BYTES + 2048 * paths + 32 * stages, peak

    def test_stationary_norm_holds_less_than_its_residual_array(self):
        paths, stages = 2000, 1000
        residuals = paths * stages * 8  # 16 MB
        # the discounted energy too: both keep per-path running sums and one 4 MB noise chunk
        for alpha in (1.0, 0.95):
            sol = solve_riccati(support.scalar_model(), alpha=alpha)
            tracemalloc.start()
            try:
                optimal_norms(sol, paths=paths, seed=0, kappa=stages, mu_kind="zero")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < residuals / 2, (alpha, peak, residuals)


class TestEnergy:
    def test_frozen_two_stage_value(self, scalar_model):
        # from the origin with no control, the only contribution is stage 1:
        # E|x_1|^2 = 0.01 + 0.04 + 0.04, discounted once
        est = estimate_energy(
            scalar_model, Policy.zero(1), alpha=0.9, kappa=1, x0=[0.0], paths=40000, seed=0
        )
        assert abs(est.mean - 0.081) <= 3.0 * est.stderr
        assert est.stderr < 0.002

    def test_silent_output_is_exactly_zero(self):
        model = SystemModel.from_dict(
            {"A": 0.5, "B": 1.0, "C": 0.0, "D": 0.0, "sigma": 0.1}
        )
        est = estimate_energy(model, Policy.zero(1), 0.9, kappa=5, x0=[1.0], paths=8, seed=0)
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_zero_horizon_is_deterministic(self, scalar_model):
        est = estimate_energy(
            scalar_model, Policy.zero(1), alpha=0.9, kappa=0, x0=[2.0], paths=10, seed=0
        )
        assert est.mean == pytest.approx(4.0, abs=1e-12)  # y_0 = C x_0 = 2
        assert est.stderr == 0.0

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, float("nan"), float("inf")])
    def test_discount_must_be_finite_and_positive(self, scalar_model, alpha):
        with pytest.raises(ValueError, match="alpha"):
            estimate_energy(scalar_model, Policy.zero(1), alpha, kappa=3, x0=[1.0], paths=4)
        ens = simulate(scalar_model, Policy.zero(1), [1.0], kappa=3, paths=4)
        with pytest.raises(ValueError, match="alpha"):
            ens.energy_estimate(alpha)

    def test_per_path_energy_matches_manual_sum(self, scalar_model):
        ens = simulate(scalar_model, Policy.zero(1), [1.0], kappa=3, paths=4, seed=6)
        totals = ens.output_energy(0.9)
        manual = sum(
            0.9**k * np.einsum("pq,pq->p", ens.outputs[:, k], ens.outputs[:, k])
            for k in range(4)
        )
        np.testing.assert_allclose(totals, manual, atol=1e-12)


class TestPower:
    def test_matches_stationary_oracle_without_growth_noise(self, rng):
        model = support.random_model(rng, n=2, m=1, lq=True)
        sol = solve_riccati(model, alpha=0.9)
        est = estimate_power(
            model, Policy.linear(sol.G), kappa=900, x0=[0.0, 0.0],
            paths=300, seed=1, burn_in=150,
        )
        floor = (
            model.sigma @ model.sigma.T
            + model.sigma_x @ model.sigma_x.T
            + model.sigma_u @ model.sigma_u.T
        )
        target = oracles.stationary_output_power(sol.Acl, model.C + model.D @ sol.G, floor)
        assert abs(est.mean - target) <= 4.0 * est.stderr + 0.01 * target
        assert not est.growth_flag

    def test_growth_flag_trips_on_unstable_plant(self):
        model = SystemModel.from_dict({"A": 1.5, "B": 0.0, "C": 1.0, "sigma": 0.1})
        est = estimate_power(model, Policy.zero(1), kappa=60, x0=[1.0], paths=40, seed=0)
        assert est.growth_flag

    def test_validations(self, scalar_model):
        pol = Policy.zero(1)
        with pytest.raises(ValueError, match="kappa"):
            estimate_power(scalar_model, pol, kappa=0, x0=[0.0], paths=2)
        with pytest.raises(ValueError, match="burn_in"):
            estimate_power(scalar_model, pol, kappa=5, x0=[0.0], paths=2, burn_in=5)


class TestOneStepIdentity:
    def test_needs_at_least_one_path_before_any_draw(self, scalar_model, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("noise drawn before the path count was checked")

        monkeypatch.setattr(csviu.simulator, "path_rng", no_draws)
        with pytest.raises(ValueError, match="paths"):
            one_step_variation_oracle(
                scalar_model, 0.9, [[1.0]], [[1.0]], x=[1.0], u=[0.5], paths=0
            )

    @pytest.mark.parametrize(
        "x, u, name",
        [([np.nan, 1.0], [0.1], "x"), ([1.0], [0.1], "x"), ([1.0, 1.0], [np.inf], "u"),
         ([1.0, 1.0], [0.1, 0.2], "u")],
        ids=["x-nan", "x-short", "u-inf", "u-long"],
    )
    def test_states_and_controls_are_checked_before_any_draw(self, x, u, name, monkeypatch):
        # a NaN in x used to come back as gap = nan, a short x as a matmul error
        def no_draws(*args, **kwargs):
            raise AssertionError("noise drawn before the state and control were checked")

        model = SystemModel.from_dict(support.README_DATA)
        L = solve_riccati(model, alpha=0.95).L
        monkeypatch.setattr(csviu.simulator, "path_rng", no_draws)
        with pytest.raises(ValueError, match=f"^{name} "):
            one_step_variation_oracle(model, 0.95, L, L, x, u, paths=10)

    @pytest.mark.parametrize(
        "arg, value",
        [("r", [np.nan, 0.0]), ("P", np.full((2, 2), np.nan)), ("r", [1.0]),
         ("r_next", [1.0]), ("P_next", np.eye(3)), ("P", [1.0, 2.0]), ("r_next", [0.0, np.inf])],
        ids=["r-nan", "P-all-nan", "r-short", "r_next-short", "P_next-3x3", "P-vector",
             "r_next-inf"],
    )
    def test_value_function_data_are_checked_before_any_draw(self, arg, value, monkeypatch):
        # r = [nan, 0] and an all-NaN P used to come back as gap = nan, a short r as a
        # matmul error and a 3x3 P_next as an einsum broadcast error
        def no_draws(*args, **kwargs):
            raise AssertionError("noise drawn before the value function data were checked")

        model = SystemModel.from_dict(support.README_DATA)
        L = solve_riccati(model, alpha=0.95).L
        data = {"P": L, "P_next": L, "r": None, "r_next": None, arg: value}
        monkeypatch.setattr(csviu.simulator, "path_rng", no_draws)
        with pytest.raises(ValueError, match=f"^{arg} "):
            one_step_variation_oracle(model, 0.95, x=[1.0, -1.0], u=[0.2], paths=10, **data)

    def test_noise_free_identity_is_exact_with_slopes(self, rng):
        model = _noise_free_model([[0.6, 0.1], [0.0, 0.5]], [[1.0], [0.2]])
        root = rng.standard_normal((2, 2))
        P_next = root @ root.T
        P = np.eye(2)
        check = one_step_variation_oracle(
            model, 0.9, P, P_next,
            x=[1.0, -2.0], u=[0.7],
            r=[0.3, -0.1], r_next=[0.2, 0.4],
            g=1.0, g_next=2.0,
            paths=50, seed=0,
        )
        assert abs(check.gap) <= 1e-10
        assert check.combined_stderr <= 1e-12

    def test_fixed_point_without_slope_balances(self, rng):
        picks = [("scalar", 0), ("two-state", 1), ("three-state", 2)]
        models = dict(support.regression_models())
        for name, seed in picks:
            model = models[name]
            sol = solve_riccati(model, alpha=0.9)
            x = rng.standard_normal(model.n)
            u = rng.standard_normal(model.m)
            check = one_step_variation_oracle(
                model, 0.9, sol.L, sol.L, x, u, paths=100000, seed=seed
            )
            assert abs(check.gap) <= 4.0 * check.combined_stderr + 1e-4, name

    def test_deep_orthant_slope_coupling(self):
        # state far from the origin with weak noise: sign flips are rare, so
        # the slope coupling estimate closes the identity within error bars
        model = SystemModel.from_dict(
            {"A": [[0.5, 0.1], [0.0, 0.4]], "B": [[1.0], [0.0]],
             "sigma": [[0.01], [0.01]], "sigma_bar_x": (0.02 * np.eye(2)).tolist()}
        )
        root = np.array([[1.0, 0.2], [0.2, 0.8]])
        P_next = root @ root.T
        check = one_step_variation_oracle(
            model, 0.9, np.eye(2), P_next,
            x=[5.0, 4.0], u=[1.0],
            r=[0.1, 0.2], r_next=[0.3, 0.1],
            g=0.5, g_next=0.4,
            paths=60000, seed=3,
        )
        assert abs(check.gap) <= 4.0 * check.combined_stderr + 1e-6

    def test_gap_detects_wrong_candidate_value(self, rng):
        model = support.random_model(rng, n=2, m=1)
        sol = solve_riccati(model, alpha=0.9)
        wrong = sol.L + np.eye(2)  # not the fixed point
        x = np.array([1.0, 1.0])
        check = one_step_variation_oracle(
            model, 0.9, wrong, wrong, x, [0.0], paths=20000, seed=0
        )
        # the quadratic mismatch x'(map(P) + C'C - P)x is accounted for on the
        # right side, so the identity still balances; it is an identity in P
        assert abs(check.gap) <= 4.0 * check.combined_stderr + 1e-4


class TestOptimalNorms:
    def test_energy_reduces_to_noise_floor_term_without_growth_noise(self, rng):
        # stage residuals vanish under the linear-gain optimum, so the series
        # collapses to the closed form, which the direct series oracle must match
        model = support.random_model(rng, n=2, m=1, lq=True)
        sol = solve_riccati(model, alpha=0.9)
        est = optimal_norms(sol, paths=50, seed=0)
        closed = 0.9 / 0.1 * sol.forms.varpi1
        assert est.energy == pytest.approx(closed, rel=1e-9)
        floor = (
            model.sigma @ model.sigma.T
            + model.sigma_x @ model.sigma_x.T
            + model.sigma_u @ model.sigma_u.T
        )
        series = oracles.discounted_output_energy_series(
            sol.Acl, model.C + model.D @ sol.G, floor, 0.9
        )
        assert est.energy == pytest.approx(series, rel=1e-6)
        assert est.power is None

    def test_power_reduces_to_noise_floor_without_growth_noise(self, rng):
        model = support.random_model(rng, n=2, m=1, lq=True)
        sol = solve_riccati(model, alpha=1.0)
        est = optimal_norms(sol, paths=50, seed=0, kappa=400)
        assert est.power == pytest.approx(sol.forms.varpi1, rel=1e-9)
        floor = (
            model.sigma @ model.sigma.T
            + model.sigma_x @ model.sigma_x.T
            + model.sigma_u @ model.sigma_u.T
        )
        target = oracles.stationary_output_power(sol.Acl, model.C + model.D @ sol.G, floor)
        assert est.power == pytest.approx(target, rel=1e-6)
        assert est.energy is None

    @pytest.mark.parametrize("alpha", [0.95, 1.0])
    def test_growth_noise_norm_matches_the_linear_law_closed_form(self, alpha):
        # the README plant with sigma_x = sigma_u = 0 but its growth noise on: the
        # deadzone and the mixed terms vanish, the optimal law is the gain, and
        # its norm is alpha/(1 - alpha) tr(sigma'P sigma) (tr(sigma'P sigma) at alpha = 1)
        data = dict(support.README_DATA, sigma_x=[[0.0, 0.0], [0.0, 0.0]], sigma_u=[[0.0], [0.0]])
        model = SystemModel.from_dict(data)
        sol = solve_riccati(model, alpha=alpha)
        est = optimal_norms(sol, paths=200, seed=0)
        exact = oracles.linear_law_norm(model.A, model.B, model.C, model.D, model.sigma,
                                        model.sigma_bar_x, model.sigma_bar_u, sol.G, alpha)
        value, stderr = (est.energy, est.energy_stderr) if alpha < 1.0 else (est.power, est.power_stderr)
        assert value == pytest.approx(exact, rel=1e-11)
        assert stderr <= 1e-15 * value

    def test_expanding_discount_refused(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("noise drawn for a discount above one")

        monkeypatch.setattr(csviu.simulator, "_noise_chunks", refuse)
        model = support.random_model(rng, n=2, m=1)
        # this loop does not contract in second moment at 1.05 either; the
        # discount is the reason reported
        slow = support.synthetic_solution(A=0.99, B=1.0, G=0.0, alpha=1.05)
        for sol in (solve_riccati(model, alpha=1.05), slow):
            with pytest.raises(SeriesDivergent, match="discount above one"):
                optimal_norms(sol)

    @pytest.mark.parametrize(
        "alpha, kwargs, reason",
        [
            (0.9, {"paths": 0}, "paths"),
            (1.0, {"paths": 0}, "paths"),
            (0.9, {"paths": 5, "noise_kind": "cauchy"}, "noise kind"),
            (1.0, {"paths": 5, "kappa": 0}, "kappa"),
        ],
    )
    def test_degenerate_requests_raise_instead_of_nan(self, scalar_model, alpha, kwargs, reason):
        sol = solve_riccati(scalar_model, alpha=alpha)
        with pytest.raises(ValueError, match=reason):
            optimal_norms(sol, **kwargs)

    # horizons recorded before the residual cap moved onto mu_bound
    PINNED_KAPPA = {
        0.9: {"scalar": 4, "scalar-lq": 4, "stacked": 4, "two-state": 99, "three-state": 86,
              "wide-noise": 121},
        0.95: {"scalar": 4, "scalar-lq": 4, "stacked": 4, "two-state": 222, "three-state": 193,
               "wide-noise": 265},
        1.0: dict.fromkeys(
            ("scalar", "scalar-lq", "stacked", "two-state", "three-state", "wide-noise"), 1000
        ),
    }

    @pytest.mark.parametrize("alpha", [0.9, 0.95, 1.0])
    def test_horizons_pinned_on_regression_models(self, alpha):
        got = {
            name: optimal_norms(
                solve_riccati(model, alpha=alpha), paths=2, mu_kind="zero"
            ).details["kappa"]
            for name, model in support.regression_models()
        }
        assert got == self.PINNED_KAPPA[alpha]

    @pytest.mark.parametrize("tail_tol", [0.0, 1.0, 2.0, float("nan")])
    def test_tail_tolerance_must_lie_in_the_unit_interval(self, scalar_model, tail_tol):
        sol = solve_riccati(scalar_model, alpha=0.9)
        with pytest.raises(ValueError, match="tail_tol"):
            optimal_norms(sol, paths=2, tail_tol=tail_tol)

    def test_energy_matches_the_simulated_optimal_paths(self, rng):
        # optimal_norms and simulate share one stage loop, so from the origin the
        # stage residuals of the one simulation rebuild the series estimate
        model = support.random_model(rng, n=2, m=1)
        sol = solve_riccati(model, alpha=0.9)
        kappa, paths, seed = 30, 16, 4
        est = optimal_norms(sol, kappa=kappa, paths=paths, seed=seed)
        ens = simulate(model, Policy.optimal(sol, mu_kind="asymptotic"), np.zeros(2),
                       kappa, paths, seed)
        X, U = ens.states[:, :kappa], ens.controls[:, :kappa]
        dev = U - X @ sol.G.T
        rho = 0.9 * (
            np.einsum("pki,ij,pkj->pk", dev, sol.Lambda, dev)
            + np.abs(X) @ sol.forms.Wxd
            + np.abs(U) @ sol.forms.Wud
        )
        energy = 0.9 / 0.1 * sol.forms.varpi1 + (rho @ 0.9 ** np.arange(kappa)).mean()
        assert est.details["mode"] == "direct"
        assert est.energy == pytest.approx(energy, rel=0.0, abs=1e-12)

    def test_details_record_the_estimation_mode(self, scalar_model):
        sol = solve_riccati(scalar_model, alpha=0.9)
        est = optimal_norms(sol, paths=20, seed=0)
        assert est.details["mode"] in ("direct", "split")
        assert est.details["paths"] == 20


class TestOvertaking:
    def test_both_rollouts_read_one_stream_set(self, monkeypatch):
        model = SystemModel.from_dict(support.README_DATA)
        sol = solve_riccati(model, alpha=0.95)
        args = (model, 0.95, Policy.optimal(sol, mu_kind="asymptotic"), Policy.linear(sol.G),
                [0.3, -0.2], [0, 4, 9])
        want = overtaking_compare(*args, paths=7, seed=3)
        calls = []
        original = csviu.simulator._noise_chunks

        def counted(*call_args):
            calls.append(call_args[1:])
            return original(*call_args)

        monkeypatch.setattr(csviu.simulator, "_noise_chunks", counted)
        got = overtaking_compare(*args, paths=7, seed=3)
        assert calls == [(9, 7, 3, "gaussian")]
        assert _bits([[r.diff, r.stderr, r.diff_scaled, r.stderr_scaled] for r in got]) == _bits(
            [[r.diff, r.stderr, r.diff_scaled, r.stderr_scaled] for r in want])

    def test_identical_policies_tie_exactly(self, scalar_model):
        pol = Policy.zero(1)
        rows = overtaking_compare(
            scalar_model, 1.1, pol, Policy.zero(1), [1.0], [0, 3, 7], paths=30, seed=2
        )
        assert [row.kappa for row in rows] == [0, 3, 7]
        for row in rows:
            assert row.diff == 0.0
            assert row.stderr == 0.0

    def test_diff_matches_manual_paired_energies(self, scalar_model):
        sol = solve_riccati(scalar_model, alpha=0.9)
        pol_a = Policy.zero(1)
        pol_b = Policy.linear(sol.G)
        rows = overtaking_compare(
            scalar_model, 0.9, pol_a, pol_b, [1.0], [5], paths=40, seed=7
        )
        ens_a = simulate(scalar_model, pol_a, [1.0], 5, 40, seed=7)
        ens_b = simulate(scalar_model, pol_b, [1.0], 5, 40, seed=7)
        manual = (ens_a.output_energy(0.9) - ens_b.output_energy(0.9)).mean()
        assert rows[0].diff == pytest.approx(float(manual), abs=1e-10)

    def test_scaled_columns_relate_by_the_discount_power(self, scalar_model):
        rows = overtaking_compare(
            scalar_model, 1.2, Policy.zero(1), Policy.linear([[-0.4]]), [1.0],
            [2, 4], paths=25, seed=0,
        )
        for row in rows:
            assert row.diff == pytest.approx(row.diff_scaled * 1.2**row.kappa, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    def test_nonpositive_discount_refused_before_any_draw(self, scalar_model, alpha, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("noise drawn before the discount was checked")

        monkeypatch.setattr(csviu.simulator, "_noise_chunks", no_draws)
        with pytest.raises(ValueError, match="alpha"):
            overtaking_compare(
                scalar_model, alpha, Policy.zero(1), Policy.zero(1), [1.0], [2], paths=2
            )

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_discount_refused(self, scalar_model, alpha):
        with pytest.raises(ValueError, match="alpha"):
            overtaking_compare(
                scalar_model, alpha, Policy.zero(1), Policy.zero(1), [1.0], [2], paths=2
            )

    @pytest.mark.parametrize(
        "grid", [[2.5, 3], [float("nan"), 3], [True, 3]], ids=["fractional", "nan", "bool"]
    )
    def test_grid_entries_must_be_integral(self, scalar_model, grid):
        with pytest.raises(ValueError, match="kappa_grid"):
            overtaking_compare(
                scalar_model, 1.0, Policy.zero(1), Policy.zero(1), [1.0], grid, paths=2
            )

    def test_grid_validation(self, scalar_model):
        with pytest.raises(ValueError, match="kappa_grid"):
            overtaking_compare(
                scalar_model, 1.0, Policy.zero(1), Policy.zero(1), [1.0], [], paths=2
            )
        with pytest.raises(ValueError, match="kappa_grid"):
            overtaking_compare(
                scalar_model, 1.0, Policy.zero(1), Policy.zero(1), [1.0], [-1, 2], paths=2
            )


# the README plant without baseline state and control noise: every linear law's
# cost then follows the second-moment recursion of oracles.linear_law_costs exactly
_QUIET_README = dict(support.README_DATA, sigma_x=[[0.0, 0.0], [0.0, 0.0]], sigma_u=[[0.0], [0.0]])
_LAW_GAINS = ([[-0.4, -0.1]], [[-0.63, -0.32]])


def _exact_costs(model, G, alpha, kappa, x0):
    return oracles.linear_law_costs(model.A, model.B, model.C, model.D, model.sigma, model.sigma_bar_x,
                                    model.sigma_bar_u, G, alpha, kappa, x0)


def _pooled_z(means, stderrs, exact):
    """z-score of the mean of equally sized independent estimates against ``exact``."""
    return (float(np.mean(means)) - exact) / (float(np.sqrt(np.sum(np.square(stderrs)))) / len(stderrs))


class TestExactLinearLawCosts:
    """Monte Carlo costs of linear laws against their exact second-moment recursion,
    pooled over seeds 10-19 at 500 paths each, for every noise kind and discount."""

    SEEDS = range(10, 20)
    X0 = [1.0, -1.0]

    @pytest.mark.parametrize("alpha", [0.5, 0.95])
    def test_oracle_tends_to_the_infinite_horizon_energy(self, alpha):
        model = SystemModel.from_dict(_QUIET_README)
        G = np.array(_LAW_GAINS[1])
        want = oracles.linear_law_norm(model.A, model.B, model.C, model.D, model.sigma,
                                       model.sigma_bar_x, model.sigma_bar_u, G, alpha)
        assert _exact_costs(model, G, alpha, 2000, [0.0, 0.0])[-1] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.95, 1.0, 1.02])
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_energy_estimates(self, kind, alpha):
        model = SystemModel.from_dict(_QUIET_README)
        G = np.array(_LAW_GAINS[0])
        exact = _exact_costs(model, G, alpha, 60, self.X0)[-1]
        runs = [estimate_energy(model, Policy.linear(G), alpha, 60, self.X0, 500, seed=seed, noise_kind=kind)
                for seed in self.SEEDS]
        assert abs(_pooled_z([run.mean for run in runs], [run.stderr for run in runs], exact)) <= 4.0

    @pytest.mark.parametrize("alpha", [0.95, 1.0, 1.02])
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_overtaking_differences(self, kind, alpha):
        model = SystemModel.from_dict(_QUIET_README)
        G_a, G_b = (np.array(G) for G in _LAW_GAINS)
        exact = _exact_costs(model, G_a, alpha, 60, self.X0) - _exact_costs(model, G_b, alpha, 60, self.X0)
        runs = [overtaking_compare(model, alpha, Policy.linear(G_a), Policy.linear(G_b), self.X0, [10, 60],
                                   paths=500, seed=seed, noise_kind=kind) for seed in self.SEEDS]
        for i, kappa in enumerate([10, 60]):
            z = _pooled_z([rows[i].diff for rows in runs], [rows[i].stderr for rows in runs], exact[kappa])
            assert abs(z) <= 4.0, (kappa, z)

    @pytest.mark.parametrize("burn_in", [0, 20])
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_power_estimates(self, kind, burn_in):
        # the window average of |y_k|^2 over burn_in <= k < 60 at alpha = 1
        model = SystemModel.from_dict(_QUIET_README)
        G = np.array(_LAW_GAINS[0])
        costs = _exact_costs(model, G, 1.0, 60, self.X0)
        exact = (costs[59] - (costs[burn_in - 1] if burn_in else 0.0)) / (60 - burn_in)
        runs = [estimate_power(model, Policy.linear(G), 60, self.X0, 500, seed=seed, noise_kind=kind,
                               burn_in=burn_in) for seed in self.SEEDS]
        assert abs(_pooled_z([run.mean for run in runs], [run.stderr for run in runs], exact)) <= 4.0

    @pytest.mark.parametrize("alpha", [0.95, 1.0])
    @pytest.mark.parametrize("mu_kind", ["zero", "asymptotic"])
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_overtaking_the_optimal_law(self, kind, mu_kind, alpha):
        # with sigma_x = sigma_u = 0 the deadzone weights and slope drives vanish, so the
        # optimal law is the linear u = G x of the Riccati solution under either slope kind
        model = SystemModel.from_dict(_QUIET_README)
        sol = solve_riccati(model, alpha=alpha)
        assert not sol.forms.Wud.any() and not sol.forms.Wxd.any()
        G_b = np.array(_LAW_GAINS[1])
        exact = _exact_costs(model, sol.G, alpha, 60, self.X0) - _exact_costs(model, G_b, alpha, 60, self.X0)
        runs = [overtaking_compare(model, alpha, Policy.optimal(sol, mu_kind=mu_kind), Policy.linear(G_b),
                                   self.X0, [10, 60], paths=500, seed=seed, noise_kind=kind)
                for seed in self.SEEDS]
        for i, kappa in enumerate([10, 60]):
            z = _pooled_z([rows[i].diff for rows in runs], [rows[i].stderr for rows in runs], exact[kappa])
            assert abs(z) <= 4.0, (kappa, z)
