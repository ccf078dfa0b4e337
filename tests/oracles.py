"""Independent reference implementations used to check the package.

Nothing in here imports the package's solver internals: the fixed-point
reference is a plain textbook value iteration, the l1 reference is proximal
gradient descent, and scipy supplies second opinions for the algebraic
equations.  Keep it that way; these exist to disagree with the package when
the package is wrong.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg


def dare_fixed_point(A, B, Q, R, N, alpha=1.0, tol=1e-13, max_iters=500000):
    """Discounted algebraic Riccati fixed point by direct value iteration.

    Iterates P <- Ab'PAb + Q - (Bb'PAb + N')'(R + Bb'PBb)^{-1}(Bb'PAb + N')
    with Ab = sqrt(alpha) A, Bb = sqrt(alpha) B, from P = 0.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    N = np.atleast_2d(np.asarray(N, dtype=float))
    s = np.sqrt(alpha)
    Ab, Bb = s * A, s * B
    P = np.zeros_like(Q)
    for _ in range(max_iters):
        M = Bb.T @ P @ Ab + N.T
        P_next = Ab.T @ P @ Ab + Q - M.T @ np.linalg.solve(R + Bb.T @ P @ Bb, M)
        P_next = 0.5 * (P_next + P_next.T)
        if np.abs(P_next - P).max() <= tol:
            return P_next
        P = P_next
    raise RuntimeError("oracle value iteration did not converge")


def noisy_riccati_fixed_point(A, B, C, D, Sx, Su, alpha=1.0, rtol=1e-14, max_iters=1000000):
    """Minimal PSD fixed point of the value recursion with growth noise.

    Plain value iteration from P = 0 of
    P <- alpha*(A'PA + Zx) + C'C - N'(alpha*(B'PB + Zu) + D'D)^{-1}N with
    N = alpha*B'PA + D'C, Zx = Diag(s_i'P s_i) over the columns s_i of ``Sx``
    and Zu likewise for ``Su``; it stops once a step is below ``rtol`` times
    max(1, |P|), so on a map contracting at rate r its error is about
    rtol/(1 - r) relative.
    """
    A, B, C, D, Sx, Su = (np.atleast_2d(np.asarray(X, dtype=float)) for X in (A, B, C, D, Sx, Su))
    P = np.zeros_like(A)
    for _ in range(max_iters):
        Zx = np.diag([s @ P @ s for s in Sx.T])
        Zu = np.diag([s @ P @ s for s in Su.T])
        N = alpha * B.T @ P @ A + D.T @ C
        P_next = (alpha * (A.T @ P @ A + Zx) + C.T @ C
                  - N.T @ np.linalg.solve(alpha * (B.T @ P @ B + Zu) + D.T @ D, N))
        P_next = 0.5 * (P_next + P_next.T)
        if np.abs(P_next - P).max() <= rtol * max(1.0, np.abs(P_next).max()):
            return P_next
        P = P_next
    raise RuntimeError("oracle value iteration did not converge")


def recession_ratio(A, B, Sx, Su, P, alpha=1.0):
    """Smallest generalized eigenvalue of (R_inf(P), P) for a positive definite P.

    R_inf(P) = alpha*(A'PA + Zx - N'(B'PB + Zu)^{-1}N) with N = B'PA is the
    value map of :func:`noisy_riccati_fixed_point` with C and D dropped; the
    pencil goes to scipy's generalized symmetric eigensolver.
    """
    A, B, Sx, Su, P = (np.atleast_2d(np.asarray(X, dtype=float)) for X in (A, B, Sx, Su, P))
    Zx = np.diag([s @ P @ s for s in Sx.T])
    Zu = np.diag([s @ P @ s for s in Su.T])
    N = B.T @ P @ A
    R = alpha * (A.T @ P @ A + Zx - N.T @ np.linalg.solve(B.T @ P @ B + Zu, N))
    return float(scipy.linalg.eigh(0.5 * (R + R.T), P, eigvals_only=True)[0])


def noise_diagonal(S, U):
    """Diag(s_i'U s_i) over the columns s_i of ``S``, one column at a time."""
    return np.diag([s @ U @ s for s in np.atleast_2d(S).T])


def second_moment_image(U, F, Sx, alpha, G=None, Su=None):
    """alpha*(F'UF + Diag(diag(Sx'USx)) + G'Diag(diag(Su'USu))G) at one n x n ``U``;
    the control term is left out when ``G`` is None."""
    out = F.T @ U @ F + noise_diagonal(Sx, U)
    if G is not None:
        out = out + G.T @ noise_diagonal(Su, U) @ G
    return alpha * out


def value_map_terms(A, B, C, D, Sx, Su, U, alpha=1.0):
    """``(R(U), Sigma, Lambda)``: one step of the value map of
    :func:`noisy_riccati_fixed_point` at one n x n ``U``, with
    Sigma = B'UA + D'C/alpha, Lambda = B'UB + Zu + D'D/alpha and
    R(U) = alpha*(A'UA + Zx - Sigma'Lambda^{-1}Sigma) + C'C."""
    A, B, C, D, Sx, Su = (np.atleast_2d(np.asarray(X, dtype=float)) for X in (A, B, C, D, Sx, Su))
    Sigma = B.T @ U @ A + D.T @ C / alpha
    Lambda = B.T @ U @ B + noise_diagonal(Su, U) + D.T @ D / alpha
    R = second_moment_image(U, A, Sx, alpha) + C.T @ C - alpha * Sigma.T @ np.linalg.solve(Lambda, Sigma)
    return R, Sigma, Lambda


def dare_scipy(A, B, Q, R, N, alpha=1.0):
    """Same fixed point through scipy's solver (cross-check of the oracle itself)."""
    s = np.sqrt(alpha)
    return scipy.linalg.solve_discrete_are(s * np.atleast_2d(A), s * np.atleast_2d(B),
                                           np.atleast_2d(Q), np.atleast_2d(R),
                                           s=np.atleast_2d(N))


def dare_gain(A, B, Q, R, N, alpha=1.0, P=None):
    """Feedback gain of the discounted problem: u = G x."""
    if P is None:
        P = dare_fixed_point(A, B, Q, R, N, alpha)
    s = np.sqrt(alpha)
    Ab, Bb = s * np.atleast_2d(A), s * np.atleast_2d(B)
    M = Bb.T @ P @ Ab + np.atleast_2d(N).T
    return -np.linalg.solve(np.atleast_2d(R) + Bb.T @ P @ Bb, M)


def soft_threshold(v, t):
    """Componentwise shrink toward zero by t >= 0."""
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def l1_quadratic_argmin(Lambda, b, c, tol=1e-12, max_iters=1000000):
    """Minimize u'Lambda u + b'u + c'|u| by accelerated proximal gradient.

    Runs until the componentwise subgradient optimality residual drops below
    tol.  Independent of any sweep-based solver by construction.
    """
    Lambda = np.atleast_2d(np.asarray(Lambda, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    m = b.size
    lip = 2.0 * float(np.linalg.eigvalsh(0.5 * (Lambda + Lambda.T)).max())
    step = 1.0 / lip
    u = np.zeros(m)
    y = u.copy()
    t_acc = 1.0
    for _ in range(max_iters):
        grad = 2.0 * Lambda @ y + b
        u_next = soft_threshold(y - step * grad, step * c)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        y = u_next + ((t_acc - 1.0) / t_next) * (u_next - u)
        u, t_acc = u_next, t_next
        if l1_subgradient_residual(Lambda, b, c, u) <= tol:
            return u
    raise RuntimeError("proximal gradient oracle did not converge")


def l1_subgradient_residual(Lambda, b, c, u):
    """Max violation of the first-order optimality conditions at u."""
    Lambda = np.atleast_2d(np.asarray(Lambda, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    s = 2.0 * Lambda @ u + b
    res = np.where(
        u > 0, np.abs(s + c), np.where(u < 0, np.abs(s - c), np.maximum(np.abs(s) - c, 0.0))
    )
    return float(res.max())


def sor_sweeps_reference(W, b, c, omega, z0, tol, max_iters):
    """Projected SOR on the generalized normal equation, as a plain loop.

    Gauss-Seidel over the coordinates in order, on Python floats: the
    unrelaxed point ``z_i <- 0 z_i - 1/W_ii (W s with W_ii -> 0)_i - b_i``,
    then ``gamma_i = clip(z_i, -c_i, c_i)`` at omega = 1 and
    ``gamma_i = clip((1 - omega) gamma_i + omega z_i, -c_i, c_i)`` otherwise,
    and ``s_i = gamma_i + b_i``; after every sweep the full residual
    ``max_i |nu_i + (W s)_i|`` with ``nu_i = sign(z_i) max(W_ii (|z_i| - c_i), 0)``,
    a NaN term making it NaN.  Each sum starts at 0.0 and adds its terms left
    to right, the diagonal coupling term as ``0.0 * s_i``.  Returns ``(z,
    gamma, nu, sweeps, residual)`` on convergence, else ``(None, None, None,
    max_iters, residual)``, the residual being inf when no sweep ran.
    """
    w = np.asarray(W, dtype=float).tolist()
    b = np.asarray(b, dtype=float).tolist()
    c = np.asarray(c, dtype=float).tolist()
    z = np.asarray(z0, dtype=float).tolist()
    m = len(b)
    g = [min(max(z[i], -c[i]), c[i]) for i in range(m)]
    s = [g[i] + b[i] for i in range(m)]
    residual = math.inf
    for sweep in range(1, max_iters + 1):
        for i in range(m):
            coupling = 0.0
            for j in range(m):
                coupling += (0.0 if j == i else w[i][j]) * s[j]
            z[i] = 0.0 * z[i] - 1.0 / w[i][i] * coupling - b[i]
            y = z[i] if omega == 1.0 else (1.0 - omega) * g[i] + omega * z[i]
            g[i] = -c[i] if y < -c[i] else c[i] if y > c[i] else y
            s[i] = g[i] + b[i]
        nu = []
        residual = 0.0
        for i in range(m):
            nu.append(math.copysign(max(w[i][i] * (abs(z[i]) - c[i]), 0.0), z[i]))
            row = 0.0
            for j in range(m):
                row += w[i][j] * s[j]
            r = abs(nu[i] + row)
            if r > residual or r != r:
                residual = r
        if residual <= tol:
            return np.array(z), np.array(g), np.array(nu), sweep, residual
    return None, None, None, max_iters, residual


def noisy_transition(A, B, sigma, sigma_x, sigma_bar_x, sigma_u, sigma_bar_u, X, U, noise):
    """Next states of a (paths, n) batch, one path at a time.

    x' = A x + B u + sigma w + (sigma_x + sigma_bar_x Diag|x|) eps_x
    + (sigma_u + sigma_bar_u Diag|u|) eps_u, where each row of ``noise`` stacks
    (w, eps_x, eps_u).  With every argument replaced by its absolute value it
    returns the sum of the terms' magnitudes, the scale of the rounding error.
    """
    A, B, sigma, sigma_x, sigma_bar_x, sigma_u, sigma_bar_u = (
        np.atleast_2d(np.asarray(M, dtype=float))
        for M in (A, B, sigma, sigma_x, sigma_bar_x, sigma_u, sigma_bar_u)
    )
    n, r = A.shape[0], sigma.shape[1]
    out = np.empty((len(X), n))
    for p, (x, u, e) in enumerate(zip(X, U, noise)):
        w, ex, eu = e[:r], e[r : r + n], e[r + n :]
        out[p] = (A @ x + B @ u + sigma @ w + (sigma_x + sigma_bar_x * np.abs(x)) @ ex
                  + (sigma_u + sigma_bar_u * np.abs(u)) @ eu)
    return out


def stationary_second_moment(Acl, floor_cov):
    """X solving X = Acl X Acl' + floor_cov (stable Acl, additive noise only)."""
    return scipy.linalg.solve_discrete_lyapunov(np.atleast_2d(Acl), np.atleast_2d(floor_cov))


def stationary_output_power(Acl, Ccl, floor_cov):
    """Long-run E||y||^2 for y = Ccl x under x+ = Acl x + additive noise."""
    X = stationary_second_moment(Acl, floor_cov)
    Ccl = np.atleast_2d(Ccl)
    return float(np.trace(Ccl @ X @ Ccl.T))


def discounted_output_energy_series(Acl, Ccl, floor_cov, alpha, tol=1e-14, max_terms=2000000):
    """Sum_k alpha^k E||y_k||^2 from x_0 = 0 by direct series accumulation."""
    Acl = np.atleast_2d(Acl)
    Ccl = np.atleast_2d(Ccl)
    Q = Ccl.T @ Ccl
    cov = np.zeros_like(Acl)
    total = 0.0
    weight = 1.0
    for _ in range(max_terms):
        term = weight * float(np.trace(Q @ cov))
        total += term
        cov = Acl @ cov @ Acl.T + floor_cov
        weight *= alpha
        if weight * max(float(np.trace(Q @ cov)), 1e-300) < tol and weight < tol:
            return total
    raise RuntimeError("series oracle did not converge")


def min_eig(U):
    return float(np.linalg.eigvalsh(0.5 * (U + np.asarray(U).T)).min())


def kron_diag_matrix(S):
    """Matrix of U -> Diag(diag(S'US)) on column-stacked vec(U), built row by row."""
    n, q = S.shape
    M = np.zeros((q * q, n * n))
    for i in range(q):
        M[i + q * i] = np.kron(S[:, i], S[:, i])
    return M


def second_moment_matrix(F, Sx, alpha, G=None, Su=None):
    """Dense n^2 x n^2 matrix of alpha*(F'UF + Diag(diag(Sx'USx)) + G'Diag(diag(Su'USu))G)."""
    M = np.kron(F.T, F.T) + kron_diag_matrix(Sx)
    if G is not None:
        M = M + np.kron(G.T, G.T) @ kron_diag_matrix(Su)
    return alpha * M


def linear_law_norm(A, B, C, D, sigma, Sx, Su, G, alpha):
    """Energy from the origin (alpha < 1) or long-run power (alpha = 1) of u = Gx
    on a plant whose baseline state and control noise are zero (sigma_x = sigma_u = 0).

    Every stage cost is then quadratic in the state, with no deadzone term,
    so the cost matrix P of the law solves
    P = (C + DG)'(C + DG) + alpha*(F'PF + Diag(diag(Sx'PSx)) + G'Diag(diag(Su'PSu))G),
    F = A + BG, here as one dense n^2 system through :func:`second_moment_matrix`.
    The energy from x0 = 0 is alpha/(1 - alpha) tr(sigma'P sigma) and the
    power at alpha = 1 is tr(sigma'P sigma).
    """
    A, B, C, D, sigma, Sx, Su, G = (np.atleast_2d(np.asarray(X, dtype=float))
                                    for X in (A, B, C, D, sigma, Sx, Su, G))
    n = A.shape[0]
    Ccl = C + D @ G
    M = second_moment_matrix(A + B @ G, Sx, alpha, G, Su)
    P = np.linalg.solve(np.eye(n * n) - M, (Ccl.T @ Ccl).reshape(-1, order="F")).reshape(n, n, order="F")
    floor = float(np.trace(sigma.T @ P @ sigma))
    return floor if alpha == 1.0 else alpha / (1.0 - alpha) * floor


def symmetric_block(K, n):
    """Restriction of the vec-form matrix ``K`` to symmetric n x n inputs.

    Upper-triangle coordinates: a symmetric U is the sum over i <= j of U_ij
    times E_ij + E_ji (E_ii on the diagonal), and the image is read at its
    entries (i, j), i <= j, in ``np.triu_indices`` order.
    """
    i, j = np.triu_indices(n)
    cols = np.arange(i.size)
    lift = np.zeros((n * n, i.size))
    lift[i + n * j, cols] = lift[j + n * i, cols] = 1.0
    return (K @ lift)[i + n * j]


def stability_conditions(A, Sx, alpha, probes=10, seed=0, margin=1e-10):
    """The five second-moment stability conditions by dense n^2 x n^2 solves.

    Mirrors the documented rules of the package's certificate (strict
    inequalities with a margin band, normalized eigenvalue signs, the
    identity plus ``probes`` seeded PSD inputs for inverse positivity, the
    alpha >= 1 counter-discount gate) but evaluates every condition by
    solving (I - L) vec(X) = vec(Q) and the resolvent on the full matrices,
    whatever the mean dynamics.
    """
    A = np.atleast_2d(A)
    n = A.shape[0]

    def below(value, threshold):
        if not np.isfinite(value):
            return False
        if value < threshold - margin:
            return True
        if value > threshold + margin:
            return False
        return None

    def sign(U):
        eigs = np.linalg.eigvalsh(0.5 * (U + U.T))
        value = float(eigs.min()) / max(1.0, float(np.abs(eigs).max()))
        return value, (None if abs(value) <= margin else value > 0)

    def both(a, b):
        if a is False or b is False:
            return False
        if a is None or b is None:
            return None
        return True

    def unvec(v):
        return v.reshape((n, n), order="F")

    L = second_moment_matrix(A, Sx, alpha)
    radius = float(np.abs(np.linalg.eigvals(L)).max())
    d_stable = below(radius, 1.0)
    rng = np.random.default_rng(seed)
    rhs = [np.eye(n)]
    for _ in range(probes):
        root = rng.standard_normal((n, n))
        rhs.append(root @ root.T)
    IL = np.eye(n * n) - L
    X = np.linalg.solve(IL, np.stack([q.reshape(-1, order="F") for q in rhs], axis=1))
    U = unvec(X[:, 0])
    U = 0.5 * (U + U.T)
    shrink = U - unvec(L @ U.reshape(-1, order="F"))
    lyapunov_ok = both(sign(U)[1], sign(shrink)[1])
    worst = min(sign(unvec(X[:, k]))[0] for k in range(X.shape[1]))
    inverse_positive = not worst < -margin
    rho_A = float(np.abs(np.linalg.eigvals(A)).max())
    eig_ok = below(np.sqrt(alpha) * rho_A, 1.0)
    resolvent_radius = np.nan
    resolvent_ok = False if eig_ok is False else None
    if eig_ok:
        R = np.linalg.solve(np.eye(n * n) - alpha * np.kron(A.T, A.T), kron_diag_matrix(Sx))
        resolvent_radius = float(np.abs(np.linalg.eigvals(R)).max())
        resolvent_ok = below(resolvent_radius, 1.0 / alpha)
    conditions = (inverse_positive, d_stable, lyapunov_ok, d_stable, both(eig_ok, resolvent_ok))
    if any(c is None for c in conditions):
        verdict = "indeterminate"
    elif all(conditions):
        gate = alpha < 1.0 or below(alpha * rho_A, 1.0) is True
        verdict = "stable" if gate else "indeterminate"
    else:
        verdict = "unstable"
    return {
        "radius": radius,
        "conditions": conditions,
        "verdict": verdict,
        "witness": U,
        "eig_ok": eig_ok,
        "resolvent_radius": resolvent_radius,
    }
