"""Correctness checks on the library's public outputs, written with numpy only.

Each function returns ``None`` when the output passes and a one-line reason
when it does not.  None of them calls into the package under test, so a
defect in the library cannot hide behind the same defect in its check.
"""

from __future__ import annotations

import numpy as np

RICCATI_RTOL = 1e-8
PSD_RTOL = 1e-10
RADIUS_ATOL = 1e-8
NORMAL_TOL = 1e-9     # acceptance criterion 02: normal-equation residual
BOX_TOL = 1e-12       # acceptance criterion 02: multiplier box slack
SPREAD_TOL = 1e-9     # acceptance criterion 02: spread across relaxations
ENERGY_SIGMAS = 5.0


def _diag_quad(S, U):
    return np.einsum("pi,pq,qi->i", S, U, S)


def riccati_step(md, alpha, P):
    """One step of the perturbed value recursion, from the model equations."""
    Sigma = md.B.T @ P @ md.A + md.D.T @ md.C / alpha
    Lam = md.B.T @ P @ md.B + np.diag(_diag_quad(md.sigma_bar_u, P)) + md.D.T @ md.D / alpha
    lyap = alpha * (md.A.T @ P @ md.A + np.diag(_diag_quad(md.sigma_bar_x, P)))
    return lyap - alpha * Sigma.T @ np.linalg.solve(Lam, Sigma) + md.C.T @ md.C


def check_riccati(md, alpha, L):
    L = np.asarray(L)
    scale = max(1.0, float(np.abs(L).max()))
    if not np.all(np.isfinite(L)):
        return "cost matrix has non-finite entries"
    residual = float(np.abs(riccati_step(md, alpha, L) - L).max())
    if residual > RICCATI_RTOL * scale:
        return f"fixed-point residual {residual:.2e} exceeds {RICCATI_RTOL:.0e} x {scale:.3g}"
    low = float(np.linalg.eigvalsh(0.5 * (L + L.T)).min())
    if low < -PSD_RTOL * scale:
        return f"cost matrix is not PSD (min eigenvalue {low:.2e})"
    return None


def _kron_diag(S):
    """Matrix of U -> Diag(diag(S' U S)) on column-stacked vec(U)."""
    n, q = S.shape
    M = np.zeros((q * q, n * n))
    for i in range(q):
        M[i + q * i] = np.kron(S[:, i], S[:, i])
    return M


def _radius(M):
    return float(np.abs(np.linalg.eigvals(M)).max())


def lyapunov_radius(md, alpha):
    return _radius(alpha * (np.kron(md.A.T, md.A.T) + _kron_diag(md.sigma_bar_x)))


def check_stability(md, alpha, report, exact: bool):
    """The verdict must be conclusive; with ``exact`` it must match our own radius."""
    if report.verdict not in ("stable", "unstable"):
        return f"stability verdict is {report.verdict!r}"
    if exact:
        radius = lyapunov_radius(md, alpha)
        if abs(radius - 1.0) > RADIUS_ATOL:
            expected = "stable" if radius < 1.0 else "unstable"
            if report.verdict != expected:
                return f"verdict {report.verdict} but the map has radius {radius:.6f}"
        if abs(report.radius - radius) > RADIUS_ATOL * max(1.0, radius):
            return f"reported radius {report.radius:.10f}, numpy gives {radius:.10f}"
    return None


def check_detectability(md, alpha, H, exact: bool):
    if H is None:
        return "no output injection found for a detectable plant"
    if exact:
        H = np.asarray(H)
        Ah = md.A + H @ md.C
        radius = _radius(alpha * (np.kron(Ah.T, Ah.T) + _kron_diag(md.sigma_bar_x)))
        if not radius < 1.0:
            return f"returned injection leaves radius {radius:.6f}"
    return None


def check_closed_loop(md, alpha, G, result, exact: bool):
    if not result.ok:
        return f"optimal gain fails the closed-loop check (radius {result.radius:.6f})"
    if exact:
        G = np.asarray(G)
        Acl = md.A + md.B @ G
        M = alpha * (
            np.kron(Acl.T, Acl.T)
            + _kron_diag(md.sigma_bar_x)
            + np.kron(G.T, G.T) @ _kron_diag(md.sigma_bar_u)
        )
        radius = _radius(M)
        if abs(result.radius - radius) > RADIUS_ATOL * max(1.0, radius):
            return f"closed-loop radius {result.radius:.10f}, numpy gives {radius:.10f}"
    return None


def check_stage(W, b, c, nu, gamma, u=None):
    """First-order conditions of one stage problem (acceptance criterion 02)."""
    normal = float(np.abs(nu + W @ (gamma + b)).max())
    if not normal <= NORMAL_TOL:
        return f"normal-equation residual {normal:.2e}"
    box = float((np.abs(gamma) - c).max())
    if not box <= BOX_TOL:
        return f"multiplier leaves its box by {box:.2e}"
    if u is not None and not np.array_equal(u, nu):
        return "returned control differs from the converged sweep"
    return None


def check_spread(controls):
    stacked = np.stack(controls)
    spread = float(np.abs(stacked - stacked[0]).max())
    if not spread <= SPREAD_TOL:
        return f"controls differ by {spread:.2e} across relaxation factors"
    return None


def check_energy(formula_mean, formula_se, direct_mean, direct_se):
    gap = abs(formula_mean - direct_mean)
    band = ENERGY_SIGMAS * float(np.hypot(formula_se, direct_se))
    if not gap <= band:
        return f"optimal_norms energy {formula_mean:.6g} vs direct {direct_mean:.6g}: gap {gap:.3g} > {band:.3g}"
    return None


def check_finite_positive(name, value):
    if not (np.isfinite(value) and value > 0):
        return f"{name} is {value!r}"
    return None

