import numpy as np
import pytest

from csviu import (
    ArgumentError,
    CsviuError,
    SystemModel,
    finite_horizon_riccati,
    one_step_variation_oracle,
    optimal_control,
    solve_riccati,
)
from csviu.errors import check_count, check_matrix, check_state

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
