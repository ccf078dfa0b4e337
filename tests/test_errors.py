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
    }


@pytest.mark.parametrize("case", list(_count_calls()))
def test_certificate_counts_are_integers(case):
    with pytest.raises(ArgumentError, match=f"^{case.split('-')[0]} must be an integer"):
        _count_calls()[case]()
