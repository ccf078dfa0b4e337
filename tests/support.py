"""Shared model builders for the test suite."""

from __future__ import annotations

import numpy as np

from csviu import SystemModel
from csviu.operators import NoiseForms, spectral_radius
from csviu.riccati import RiccatiSolution

# hand-checked single-state reference used across the suite
SCALAR_DATA = {
    "A": 0.5,
    "B": 1.0,
    "C": 1.0,
    "D": 1.0,
    "sigma": 0.1,
    "sigma_x": 0.2,
    "sigma_bar_x": 0.3,
    "sigma_u": 0.2,
    "sigma_bar_u": 0.4,
}

# the two-state plant of the README quick start
README_DATA = {
    "A": [[0.9, 0.2], [0.0, 0.7]],
    "B": [[1.0], [0.5]],
    "C": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
    "D": [[0.0], [0.0], [0.5]],
    "sigma": [[0.1], [0.1]],
    "sigma_x": [[0.05, 0.0], [0.0, 0.05]],
    "sigma_bar_x": [[0.1, 0.0], [0.0, 0.1]],
    "sigma_u": [[0.1], [0.0]],
    "sigma_bar_u": [[0.2], [0.0]],
}

# A dense n = 3, m = 2 plant (one draw of the benchmark's coupled family, to two
# decimals) whose stage problems at alpha = 0.95 are slow in places: with the zero
# slope the state (-0.125, -0.25, 0) and its mirror take 174 sweeps and the cells of
# the 41 x 41 scan of [-2, 2]^2 (x3 = 0) at most 6 but two at 171, so a short sweep
# budget fails a few known cells.  Its coupled channels also test the region labels.
CYCLING_PLANT_DATA = {
    "A": [[-0.52, 0.07, -0.22], [-0.22, 0.08, -0.3], [0.39, -0.06, 0.75]],
    "B": [[-2.18, -1.68], [2.19, 2.75], [0.45, -0.08]],
    "C": [[0.56, -2.04, -0.53], [-0.41, 1.74, -0.99], [0.36, 0.72, 1.08],
          [-0.43, -0.69, -2.18], [1.15, 1.18, -0.49]],
    "D": [[-0.18, -0.12], [-0.11, -0.74], [-0.72, 0.24], [-0.19, -0.29], [-0.23, 0.26]],
    "sigma": [[-0.02], [0.07], [-0.05]],
    "sigma_x": [[0.01, 0.11, 0.06], [-0.06, 0.16, 0.18], [0.1, 0.06, 0.07]],
    "sigma_bar_x": [[0.09, -0.13, 0.11], [-0.08, 0.02, -0.01], [0.05, 0.18, 0.05]],
    "sigma_u": [[0.06, 0.07], [0.09, 0.3], [0.03, 0.02]],
    "sigma_bar_u": [[0.01, 0.0], [0.01, 0.02], [0.0, 0.0]],
}


def scalar_model() -> SystemModel:
    return SystemModel.from_dict(SCALAR_DATA)


def scalar_lq_model() -> SystemModel:
    """Scalar reference with the magnitude-growth channels switched off."""
    data = dict(SCALAR_DATA, sigma_bar_x=0.0, sigma_bar_u=0.0)
    return SystemModel.from_dict(data)


def stacked_output_data(a=0.5, b=1.0, sigma_bar_x=0.0, sigma_bar_u=0.0) -> dict:
    """Single state, output stacking the state above the control."""
    return {"A": a, "B": b, "C": [[1.0], [0.0]], "D": [[0.0], [1.0]], "sigma": 0.1,
            "sigma_bar_x": sigma_bar_x, "sigma_bar_u": sigma_bar_u}


def stacked_output_model() -> SystemModel:
    """Single state, output stacking the state above the control; no growth noise."""
    return SystemModel.from_dict(stacked_output_data())


# The benchmark's near-marginal synthesis plants at alpha = 1 (without their
# seeded 1% jitter on b): value iteration creeps toward L ~ 900 and ~ 360 at a
# rate close to one, about 6000 and 4500 steps.  The infeasible plant has no
# stabilizing gain, so value iteration blows up.
MARGINAL_DATA = {
    "marginal-a": stacked_output_data(1.0, 0.002, 0.05),
    "marginal-b": stacked_output_data(0.999, 0.003, 0.05),
}
INFEASIBLE_DATA = stacked_output_data(1.0, 0.005, 0.1, 0.5)


def random_model(
    rng: np.random.Generator,
    n: int = 2,
    m: int = 1,
    p: int | None = None,
    r: int = 1,
    radius: float = 0.7,
    noise_scale: float = 0.1,
    growth_scale: float = 0.1,
    lq: bool = False,
) -> SystemModel:
    """Random well-posed model: D'D positive definite, mean dynamics scaled to
    the requested spectral radius, control growth noise aligned with its
    baseline so the deadzone weights stay nonnegative."""
    p = p if p is not None else n + m
    if p < m:
        raise ValueError("need p >= m for a positive definite D'D")
    A = rng.standard_normal((n, n))
    eig_max = float(np.abs(np.linalg.eigvals(A)).max())
    if eig_max > 0:
        A *= radius / eig_max
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    U, _, Vt = np.linalg.svd(rng.standard_normal((p, m)), full_matrices=False)
    D = U @ np.diag(0.4 + 0.6 * rng.random(m)) @ Vt
    sigma = noise_scale * rng.standard_normal((n, r))
    sigma_x = noise_scale * rng.standard_normal((n, n))
    sigma_u = noise_scale * rng.standard_normal((n, m))
    if lq:
        sigma_bar_x = np.zeros((n, n))
        sigma_bar_u = np.zeros((n, m))
    else:
        sigma_bar_x = growth_scale * rng.standard_normal((n, n))
        sigma_bar_u = sigma_u @ np.diag(growth_scale * (0.5 + rng.random(m)))
    return SystemModel(A, B, C, D, sigma, sigma_x, sigma_bar_x, sigma_u, sigma_bar_u)


def spectral_gap_model(rng: np.random.Generator, n: int, m: int) -> SystemModel:
    """Random plant of the benchmark's synthesis family, for sizes above n = 20.

    A is symmetric with top eigenvalue 0.8 and the rest in [0.1, 0.7], so the
    second-moment maps have one dominant real eigenvalue and a spectral gap
    that power iteration can resolve; C stacks the state over a positive
    definite control weight.
    """
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (Q * np.concatenate(([0.8], rng.uniform(0.1, 0.7, n - 1)))) @ Q.T
    sigma_u = 0.1 * rng.standard_normal((n, m))
    return SystemModel(
        A=A,
        B=rng.standard_normal((n, m)) / np.sqrt(n),
        C=np.vstack([np.eye(n), np.zeros((m, n))]),
        D=np.vstack([np.zeros((n, m)), np.diag(0.5 + 0.5 * rng.random(m))]),
        sigma=0.1 * rng.standard_normal((n, 1)),
        sigma_x=0.1 * rng.standard_normal((n, n)) / np.sqrt(n),
        sigma_bar_x=0.1 * rng.standard_normal((n, n)) / np.sqrt(n),
        sigma_u=sigma_u,
        sigma_bar_u=sigma_u * (0.1 * (0.5 + rng.random(m))),
    )


def diagonal_plant(n: int) -> SystemModel:
    """n decoupled states with poles 0.1..0.8 and one shared control; the output
    stacks the state over the control.  Above n = 20 its certificates take the
    power-iteration route."""
    return SystemModel(
        A=np.diag(np.linspace(0.1, 0.8, n)), B=np.ones((n, 1)) / n,
        C=np.vstack([np.eye(n), np.zeros((1, n))]), D=np.vstack([np.zeros((n, 1)), [[1.0]]]),
        sigma=0.1 * np.ones((n, 1)), sigma_x=np.zeros((n, n)), sigma_bar_x=0.05 * np.eye(n),
        sigma_u=0.1 * np.ones((n, 1)), sigma_bar_u=0.01 * np.ones((n, 1)),
    )


def synthetic_solution(
    A,
    B,
    G,
    alpha: float = 1.0,
    Wxd=None,
    Wud=None,
    Sigma=None,
    Lambda=None,
    L=None,
    model: SystemModel | None = None,
) -> RiccatiSolution:
    """Hand-assembled solution object with chosen slopes and curvature.

    Lets a test pin the downstream inputs (deadzone weights, gain, curvature)
    to round numbers instead of whatever a solve produces, so expected outputs
    stay checkable by hand.  The embedded model is noise free unless one is
    passed in.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    G = np.atleast_2d(np.asarray(G, dtype=float))
    n, m = A.shape[0], B.shape[1]
    if model is None:
        model = SystemModel.from_dict({"A": A.tolist(), "B": B.tolist()})
    L = np.zeros((n, n)) if L is None else np.atleast_2d(np.asarray(L, dtype=float))
    Wxd = np.zeros(n) if Wxd is None else np.asarray(Wxd, dtype=float).reshape(-1)
    Wud = np.zeros(m) if Wud is None else np.asarray(Wud, dtype=float).reshape(-1)
    Sigma = np.zeros((m, n)) if Sigma is None else np.atleast_2d(np.asarray(Sigma, dtype=float))
    Lambda = np.eye(m) if Lambda is None else np.atleast_2d(np.asarray(Lambda, dtype=float))
    forms = NoiseForms(
        Zx=np.zeros((n, n)),
        Wx=np.diag(Wxd),
        Zu=np.zeros((m, m)),
        Wu=np.diag(Wud),
        varpi1=0.0,
        Wxd=Wxd,
        Wud=Wud,
    )
    Acl = A + B @ G
    return RiccatiSolution(
        model=model,
        alpha=alpha,
        L=L,
        G=G,
        Acl=Acl,
        Sigma=Sigma,
        Lambda=Lambda,
        forms=forms,
        iterations=0,
        newton_steps=0,
        residual=0.0,
        closed_loop_radius=float(spectral_radius(Acl)),
        alpha_condition_ok=None,
    )


def regression_models() -> list[tuple[str, SystemModel]]:
    """Fixed menagerie exercised by the cross-module invariants."""
    rng = np.random.default_rng(20240817)
    return [
        ("scalar", scalar_model()),
        ("scalar-lq", scalar_lq_model()),
        ("stacked", stacked_output_model()),
        ("two-state", random_model(rng, n=2, m=1)),
        ("three-state", random_model(rng, n=3, m=2, radius=0.6)),
        ("wide-noise", random_model(rng, n=2, m=2, r=3, noise_scale=0.15, growth_scale=0.12)),
    ]
