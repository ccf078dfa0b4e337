"""Optimal control of linear systems whose noise grows with state and control.

The package solves the perturbed stationary cost recursion, synthesizes the
resulting nonsmooth feedback law (linear-quadratic core plus an l1 deadzone),
maps the inaction regions it induces, certifies second-moment stability and
detectability, and estimates the energy and power cost criteria by Monte
Carlo simulation.
"""

__version__ = "0.1.0"

from .control import (
    ControlResult,
    ControlSubproblem,
    SorState,
    cost_Ju,
    inaction_test,
    optimal_control,
    optimal_control_batch,
    sor_solve,
)
from .errors import (
    ArgumentError,
    AssumptionViolated,
    CsviuError,
    MaxIterations,
    ModelError,
    MonotonicityViolation,
    NoPSDSolution,
    SeriesDivergent,
    SingularLambda,
)
from .model import (
    CriterionConfig,
    SystemModel,
    load_model,
)
from .mu import MuEstimate, mu_asymptotic, mu_bound, mu_rollout
from .operators import NoiseForms, OperatorSet, spectral_radius
from .region import RegionMap, scan_region
from .riccati import RiccatiSolution, finite_horizon_riccati, solve_riccati
from .simulator import (
    EnergyEstimate,
    NormEstimates,
    OneStepCheck,
    PathEnsemble,
    Policy,
    PowerEstimate,
    estimate_energy,
    estimate_power,
    one_step_variation_oracle,
    optimal_norms,
    overtaking_compare,
    simulate,
    step,
)
from .stability import (
    StabilityReport,
    check_alpha_stability,
    check_detectability,
    closed_loop_check,
    detectability_search,
)

__all__ = [
    "ControlResult", "ControlSubproblem", "SorState", "cost_Ju", "inaction_test", "optimal_control",
    "optimal_control_batch", "sor_solve", "ArgumentError", "AssumptionViolated", "CsviuError",
    "MaxIterations", "ModelError", "MonotonicityViolation", "NoPSDSolution", "SeriesDivergent",
    "SingularLambda", "CriterionConfig", "SystemModel", "load_model", "MuEstimate", "mu_asymptotic",
    "mu_bound", "mu_rollout", "NoiseForms", "OperatorSet", "spectral_radius", "RegionMap", "scan_region",
    "RiccatiSolution", "finite_horizon_riccati", "solve_riccati", "EnergyEstimate", "NormEstimates",
    "OneStepCheck", "PathEnsemble", "Policy", "PowerEstimate", "estimate_energy", "estimate_power",
    "one_step_variation_oracle", "optimal_norms", "overtaking_compare", "simulate", "step", "StabilityReport",
    "check_alpha_stability", "check_detectability", "closed_loop_check", "detectability_search",
]
