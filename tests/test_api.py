import csviu

# The public surface, spelled out, so that adding or removing a name shows in
# the diff of this file.  Submodules are not part of ``csviu.__all__``, so
# ``from csviu import *`` binds functions and classes only.
PUBLIC_NAMES = [
    "ArgumentError",
    "AssumptionViolated",
    "ControlResult",
    "ControlSubproblem",
    "CriterionConfig",
    "CsviuError",
    "EnergyEstimate",
    "MaxIterations",
    "ModelError",
    "MonotonicityViolation",
    "MuEstimate",
    "NoPSDSolution",
    "NoiseForms",
    "NormEstimates",
    "OneStepCheck",
    "OperatorSet",
    "PathEnsemble",
    "Policy",
    "PowerEstimate",
    "RegionMap",
    "RiccatiSolution",
    "SeriesDivergent",
    "SingularLambda",
    "SorState",
    "StabilityReport",
    "SystemModel",
    "check_alpha_stability",
    "check_detectability",
    "closed_loop_check",
    "cost_Ju",
    "detectability_search",
    "estimate_energy",
    "estimate_power",
    "finite_horizon_riccati",
    "inaction_test",
    "load_model",
    "mu_asymptotic",
    "mu_bound",
    "mu_rollout",
    "one_step_variation_oracle",
    "optimal_control",
    "optimal_control_batch",
    "optimal_norms",
    "overtaking_compare",
    "scan_region",
    "simulate",
    "solve_riccati",
    "sor_solve",
    "spectral_radius",
    "step",
]


def test_public_names_are_pinned():
    assert sorted(csviu.__all__) == PUBLIC_NAMES
    assert all(hasattr(csviu, name) for name in csviu.__all__)
