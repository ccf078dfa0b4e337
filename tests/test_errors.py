import numpy as np
import pytest

from csviu import (
    ArgumentError,
    CsviuError,
    Policy,
    SystemModel,
    check_alpha_stability,
    detectability_search,
    estimate_energy,
    finite_horizon_riccati,
    mu_rollout,
    one_step_variation_oracle,
    optimal_control,
    optimal_norms,
    overtaking_compare,
    solve_riccati,
)
from csviu.errors import check_count, check_matrix, check_real, check_state

import support


def test_argument_error_is_a_value_error_and_a_package_error():
    assert issubclass(ArgumentError, ValueError) and issubclass(ArgumentError, CsviuError)


class TestHelpersRaiseArgumentError:
    def test_check_count(self, scalar_model):
        with pytest.raises(ArgumentError, match="^n must be an integer >= 1, got 0$"):
            check_count("n", 0, 1)
        with pytest.raises(ArgumentError, match="kappa must be an integer"):
            finite_horizon_riccati(scalar_model, 0.9, 2.5)

    def test_check_state(self, scalar_model):
        with pytest.raises(ArgumentError, match="^x has length 2, expected 1$"):
            check_state("x", [1.0, 2.0], 1)
        sol = solve_riccati(scalar_model, alpha=0.9)
        with pytest.raises(ArgumentError, match="^x must be finite"):
            optimal_control(sol, [np.nan])

    def test_check_matrix(self):
        with pytest.raises(ArgumentError, match=r"^P has shape \(2,\), expected \(2, 2\)$"):
            check_matrix("P", [1.0, 2.0], (2, 2))
        model = SystemModel.from_dict(support.README_DATA)
        with pytest.raises(ArgumentError, match="^P_next must be finite"):
            one_step_variation_oracle(model, 0.95, np.eye(2), np.full((2, 2), np.inf),
                                      x=[1.0, 0.0], u=[0.0], paths=10)


class TestCheckReal:
    def test_open_interval_and_finiteness(self):
        assert check_real("a", 0.5, 0.0, 1.0) == 0.5 and type(check_real("a", np.float64(2), 0.0)) is float
        for value in (0.0, 1.0, np.nan, np.inf):
            with pytest.raises(ArgumentError, match=r"^a must be a finite real in \(0, 1\)"):
                check_real("a", value, 0.0, 1.0)
        with pytest.raises(ArgumentError, match=r"^b must be a finite real in \(-inf, inf\), got -inf$"):
            check_real("b", -np.inf)

    @pytest.mark.parametrize("value", [True, "0.9", None, np.array([0.9])],
                             ids=["bool", "str", "None", "array"])
    def test_only_real_numbers(self, value):
        with pytest.raises(ArgumentError, match="^alpha must be a finite real"):
            check_real("alpha", value, 0.0)


def _discount_and_tolerance_calls():
    model = SystemModel.from_dict(support.README_DATA)
    sol = solve_riccati(model, alpha=0.95)
    gain = Policy.linear(sol.G)
    x0 = [1.0, 0.0]
    return {
        # a bool discount used to run as alpha = 1, a string or None to raise a bare TypeError
        "alpha-bool-energy": lambda: estimate_energy(model, gain, True, 3, x0, 2),
        "alpha-bool-overtaking": lambda: overtaking_compare(model, True, gain, gain, x0, [2], 2),
        "alpha-str": lambda: estimate_energy(model, gain, "0.9", 3, x0, 2),
        "alpha-None": lambda: overtaking_compare(model, None, gain, gain, x0, [2], 2),
        # the synthesis layer: True used to run as alpha = 1, "0.9" to raise a bare
        # TypeError, inf a SingularLambda and, in the certificates, a RuntimeWarning
        "alpha-bool-riccati": lambda: solve_riccati(model, True),
        "alpha-str-riccati": lambda: solve_riccati(model, "0.9"),
        "alpha-inf-riccati": lambda: solve_riccati(model, np.inf),
        "alpha-nan-riccati": lambda: solve_riccati(model, np.nan),
        "alpha-inf-stability": lambda: check_alpha_stability(model, np.inf),
        "alpha-bool-detect": lambda: detectability_search(model, True),
        "tail_tol-str-norms": lambda: optimal_norms(sol, paths=2, tail_tol="1e-3"),
        "tail_tol-str-rollout": lambda: mu_rollout(sol, x0, paths=2, tail_tol="1e-3"),
    }


@pytest.mark.parametrize("case", list(_discount_and_tolerance_calls()))
def test_discounts_and_tail_tolerances_are_finite_reals(case, monkeypatch):
    import csviu.simulator

    def no_draws(*args, **kwargs):
        raise AssertionError("noise drawn before the argument was checked")

    call = _discount_and_tolerance_calls()[case]
    monkeypatch.setattr(csviu.simulator, "_noise_chunks", no_draws)
    with pytest.raises(ArgumentError, match=f"^{case.split('-')[0]} must be a finite real"):
        call()


def _count_calls():
    model = SystemModel.from_dict(support.README_DATA)
    return {
        # -1 used to run no probe at all and 2.5 to raise a TypeError
        "probes-negative": lambda: check_alpha_stability(model, 0.95, probes=-1),
        "probes-fraction": lambda: check_alpha_stability(model, 0.95, probes=2.5),
        # numpy refused -1 with its own ValueError, and True ran as seed 1
        "seed-negative": lambda: check_alpha_stability(model, 0.95, seed=-1),
        "seed-bool": lambda: check_alpha_stability(model, 0.95, seed=True),
    }


@pytest.mark.parametrize("case", list(_count_calls()))
def test_certificate_counts_are_integers(case):
    with pytest.raises(ArgumentError, match=f"^{case.split('-')[0]} must be an integer"):
        _count_calls()[case]()


def _value_error_sites():
    """One call per former ``raise ValueError`` of the feedback and simulation modules."""
    from csviu import ControlSubproblem, estimate_power, scan_region, simulate, sor_solve
    from csviu.control import optimal_control_batch

    model = SystemModel.from_dict(support.README_DATA)
    sol = solve_riccati(model, alpha=0.95)
    gain = Policy.linear(sol.G)
    sub = ControlSubproblem.from_parts(np.eye(2), [1.0, -1.0], [0.5, 0.5])
    X, x0 = np.ones((3, 2)), [1.0, 0.0]
    return {
        "from_parts-sizes": (lambda: ControlSubproblem.from_parts(np.eye(2), [1.0], [0.5]),
                             "inconsistent sizes"),
        "omega": (lambda: sor_solve(sub, omega=2.5), "omega must be a finite real in"),
        "tol": (lambda: sor_solve(sub, tol=-1.0), "tol must be a finite number"),
        "state-length": (lambda: optimal_control_batch(sol, np.ones((3, 3))), "states have length 3"),
        "slope-shape": (lambda: optimal_control_batch(sol, X, Mu=np.ones((3, 3))), "slopes of shape"),
        "mu_kind": (lambda: optimal_control_batch(sol, X, mu_kind="sideways"), "unknown mu_kind"),
        "non-finite-X": (lambda: optimal_control_batch(sol, [[np.nan, 0.0]]), "X must be finite"),
        "noise-kind": (lambda: simulate(model, gain, x0, kappa=2, paths=2, noise_kind="cauchy"),
                       "unknown noise kind"),
        "policy-shape": (lambda: simulate(model, Policy("wide", lambda X: np.zeros((len(X), 3))), x0,
                                          kappa=2, paths=2), "returned controls of shape"),
        "burn_in": (lambda: estimate_power(model, gain, 3, x0, 2, burn_in=3), "burn_in must lie"),
        "kappa_grid": (lambda: overtaking_compare(model, 0.95, gain, gain, x0, [-1], paths=2),
                       "kappa_grid must contain"),
        # scan_region falls back cell by cell on any CsviuError, so it checks these first
        "scan_region-tol": (lambda: scan_region(sol, resolution=3, tol=np.inf), "tol must be"),
    }


@pytest.mark.parametrize("case", list(_value_error_sites()))
def test_feedback_and_simulation_arguments_raise_argument_error(case):
    # each of these raised a bare ValueError, which a caller cannot tell from a numpy error
    call, message = _value_error_sites()[case]
    with pytest.raises(ArgumentError, match=message):
        call()


def _stage_input_calls():
    """Inputs of ``inaction_test``, ``cost_Ju``, ``step`` and ``spectral_radius``, which used
    to reach numpy unchecked."""
    from csviu import ControlSubproblem, cost_Ju, inaction_test, spectral_radius
    from csviu.simulator import step

    sol = solve_riccati(SystemModel.from_dict(support.README_DATA), alpha=0.95)  # n = 2, m = 1
    x, mu = [1.0, -1.0], [0.1, -0.1]
    sub = ControlSubproblem.from_parts(np.eye(2), [1.0, -1.0], [0.5, 0.5])
    return {
        # the two length errors raised numpy's bare matmul ValueError
        "x-length": (lambda: inaction_test(sol, [1.0, 2.0, 3.0], mu), "^x has length 3, expected 2$"),
        "mu-length": (lambda: inaction_test(sol, x, [0.1]), "^mu has length 1, expected 2$"),
        # returned inactive=False with a NaN margin
        "x-nan": (lambda: inaction_test(sol, [np.nan, 0.0], mu), "^x must be finite"),
        # raised an IndexError
        "channel": (lambda: inaction_test(sol, x, mu, channel=5),
                    "^channel must be below the control count 1, got 5$"),
        "u-length": (lambda: cost_Ju(sub, [1.0]), "^u has length 1, expected 2$"),
        # a short noise vector reached step_batch and ended in a matmul ValueError
        "noise-length": (lambda: step(sol.model, x, [0.0], [0.1, 0.2]), "^noise has length 2, expected 4$"),
        # the eigensolver raised numpy's LinAlgError
        "M-nan": (lambda: spectral_radius([[np.nan]]), "^M must be finite$"),
        "M-inf": (lambda: spectral_radius(np.diag([1.0, np.inf])), "^M must be finite$"),
    }


@pytest.mark.parametrize("case", list(_stage_input_calls()))
def test_stage_inputs_raise_argument_error(case):
    call, message = _stage_input_calls()[case]
    with pytest.raises(ArgumentError, match=message):
        call()


def _unconvertible_calls():
    """Text and ragged nesting, which numpy refused with a bare ValueError naming no argument."""
    from csviu import ControlSubproblem, mu_asymptotic, spectral_radius
    from csviu.control import optimal_control_batch, resolve_mu, sor_solve_batch
    from csviu.simulator import step

    model = SystemModel.from_dict(support.README_DATA)  # n = 2, m = 1
    sol = solve_riccati(model, alpha=0.95)
    x, X = [1.0, -1.0], np.ones((2, 2))
    return {
        "x-text": lambda: optimal_control(sol, "ab"),
        "mu-text": lambda: optimal_control(sol, x, mu="ab"),
        "mu-ragged": lambda: resolve_mu(sol, x, mu=[[0.1, 0.2], [0.3]]),
        "X-ragged": lambda: optimal_control_batch(sol, [[1.0, 2.0], [1.0]]),
        "Mu-text": lambda: optimal_control_batch(sol, X, Mu=[["a", "b"], ["c", "d"]]),
        "sub_W-ragged": lambda: sor_solve_batch([[1.0, 0.2], [0.2]], [[1.0, -1.0]], [0.5, 0.5]),
        "B-ragged": lambda: sor_solve_batch(np.eye(2), [[1.0, -1.0], [1.0]], [0.5, 0.5]),
        "P-ragged": lambda: one_step_variation_oracle(model, 0.95, [[1.0, 0.0], [0.0]], np.eye(2),
                                                      x=x, u=[0.0], paths=10),
        "Lambda-ragged": lambda: ControlSubproblem.from_parts([[1.0, 0.2], [0.2]], [1.0, -1.0], [0.5, 0.5]),
        "b-text": lambda: ControlSubproblem.from_parts(np.eye(2), "ab", [0.5, 0.5]),
        "G-ragged": lambda: Policy.linear([[1.0, 0.2], [0.2]]),
        "sign_x-text": lambda: mu_asymptotic(sol, "ab", [1.0]),
        "x-step": lambda: step(model, "ab", [0.0], [0.1] * 4),
        "u-step": lambda: step(model, x, [[0.0], []], [0.1] * 4),
        "noise-step": lambda: step(model, x, [0.0], "abcd"),
        "M-text": lambda: spectral_radius("ab"),
        "M-ragged": lambda: spectral_radius([[1.0, 2.0], [1.0]]),
    }


@pytest.mark.parametrize("case", list(_unconvertible_calls()))
def test_unconvertible_input_names_the_argument(case):
    name = case.split("-")[0]
    with pytest.raises(ArgumentError, match=f"^{name} must be an array of real numbers: "):
        _unconvertible_calls()[case]()
