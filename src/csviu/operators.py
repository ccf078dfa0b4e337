"""Matrix operators that drive the cost recursions.

Everything here acts on symmetric matrices ``U`` of the state dimension and is
parameterized by one model and one discount ``alpha``.  The noise-induced
diagonal corrections are what separates these maps from the classical
Lyapunov / Riccati steps: quadratic growth of the noise intensity shows up as
``Diag(diag(S' U S))`` terms, and the mixed baseline/growth products feed the
piecewise-linear part of the cost through the diagonals returned in
:class:`NoiseForms`.

The second-moment map is written once, in
:meth:`OperatorSet.second_moment_map`, on n x n matrices or stacks of them.
The Riccati step, the one-step variation oracle and every certificate radius
use it; the dense matrix of :meth:`OperatorSet.operator_matrix` is that map
applied to a basis of the symmetric matrices, in upper-triangle coordinates.
Equations U - map(U) = Q are solved once, in
:meth:`OperatorSet.lyapunov_solve`, on n x n matrices as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, MaxIterations, SingularLambda, check_real
from .model import SystemModel

DENSE_MAX = 400  # largest dimension whose spectral radius comes from a dense eigensolve
MAX_DOUBLINGS = 64


def symmetrize(U):
    """Return (U + U')/2."""
    U = np.asarray(U, dtype=float)
    return 0.5 * (U + U.T)


class NoiseForms(NamedTuple):
    """Noise-induced corrections evaluated at one cost matrix U.

    Zx, Wx are n x n diagonal; Zu, Wu are m x m diagonal; Wxd/Wud are their
    diagonals as vectors; varpi1 is the constant noise floor trace term.
    """

    Zx: np.ndarray
    Wx: np.ndarray
    Zu: np.ndarray
    Wu: np.ndarray
    varpi1: float
    Wxd: np.ndarray
    Wud: np.ndarray


class LyapunovSolve(NamedTuple):
    """Solution of U - second_moment_map(U, F, G) = Q and the map's stability.

    ``U`` has the shape of Q and is None when the mean part is not stable or
    the capacitance system is singular.  ``resolvent_radius`` is rho(M) for
    the capacitance matrix M of :meth:`OperatorSet.lyapunov_solve` (NaN when
    the mean part is not stable); ``stable`` says rho(sqrt(alpha) F) < 1 and
    alpha * rho(M) < 1, which together hold exactly when the map has
    spectral radius below one.
    """

    U: np.ndarray | None
    stable: bool
    resolvent_radius: float


class SigmaLambda(NamedTuple):
    Sigma: np.ndarray   # m x n cross gain numerator
    Lambda: np.ndarray  # m x m control curvature


def _diag_quad(S, U, T):
    """diag(S' U T) for one n x n ``U`` or a stack (k, n, n), without forming S' U T.

    Entry i is sum_p S[p, i] (U T)[p, i]: column i of S dotted with column i
    of U T.  So one BLAS product U @ T and a two-operand reduction over p
    give every diagonal.  numpy runs a three-operand einsum in its unblocked
    loop instead: about 3x slower on one 20 x 20 U and over 10x on the
    210-matrix stack of :meth:`OperatorSet.operator_matrix` at n = 20.
    """
    return np.einsum("...pi,pi->...i", U @ T, S)


@dataclass(frozen=True)
class OperatorSet:
    """Stateless bundle of the cost-propagation operators at a fixed discount.

    ``alpha`` is stored as a float; anything but a finite real above zero
    raises :class:`~csviu.errors.ArgumentError`.
    """

    model: SystemModel
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_real("alpha", self.alpha, 0.0))

    def noise_quadratic_forms(self, U) -> NoiseForms:
        """Evaluate all noise corrections at ``U`` in one pass."""
        md = self.model
        U = np.asarray(U, dtype=float)
        zx = _diag_quad(md.sigma_bar_x, U, md.sigma_bar_x)
        wx = _diag_quad(md.sigma_bar_x, U, md.sigma_x) + _diag_quad(md.sigma_x, U, md.sigma_bar_x)
        zu = _diag_quad(md.sigma_bar_u, U, md.sigma_bar_u)
        wu = _diag_quad(md.sigma_bar_u, U, md.sigma_u) + _diag_quad(md.sigma_u, U, md.sigma_bar_u)
        floor = md.sigma @ md.sigma.T + md.sigma_x @ md.sigma_x.T + md.sigma_u @ md.sigma_u.T
        varpi1 = float(np.einsum("ij,ji->", U, floor))
        return NoiseForms(np.diag(zx), np.diag(wx), np.diag(zu), np.diag(wu), varpi1, wx, wu)

    def second_moment_map(self, U, F=None, G=None):
        """Apply the second-moment map to ``U`` without vectorizing it.

        The map is U -> alpha*(F'UF + Diag(diag(Sx'USx)) + G'Diag(diag(Su'USu))G)
        with the growth intensities Sx = ``sigma_bar_x``, Su = ``sigma_bar_u``.
        ``F`` defaults to ``A`` and the control term is left out when ``G`` is
        None.  ``U`` is one n x n matrix or a stack of shape (k, n, n); the cost
        is O(n^3) per matrix.
        """
        md = self.model
        U = np.asarray(U, dtype=float)
        F = md.A if F is None else F
        out = F.T @ U @ F
        diagonal = np.einsum("...ii->...i", out)  # writable view of each diagonal
        diagonal += _diag_quad(md.sigma_bar_x, U, md.sigma_bar_x)
        if G is not None:
            zu = _diag_quad(md.sigma_bar_u, U, md.sigma_bar_u)
            out += (G.T * zu[..., None, :]) @ G
        return self.alpha * out

    def sigma_lambda(self, U) -> SigmaLambda:
        md = self.model
        U = np.asarray(U, dtype=float)
        Sigma = md.B.T @ U @ md.A + md.D.T @ md.C / self.alpha
        zu = _diag_quad(md.sigma_bar_u, U, md.sigma_bar_u)
        Lambda = md.B.T @ U @ md.B + np.diag(zu) + md.D.T @ md.D / self.alpha
        return SigmaLambda(Sigma, Lambda)

    def riccati_step(self, U):
        """One value-iteration step; raises :class:`SingularLambda` on a singular curvature."""
        md = self.model
        Sigma, Lambda = self.sigma_lambda(U)
        try:
            gain_term = np.linalg.solve(Lambda, Sigma)
        except np.linalg.LinAlgError as exc:
            raise SingularLambda(
                "control curvature matrix is singular; the model needs D'D positive definite"
            ) from exc
        return self.second_moment_map(U) - self.alpha * Sigma.T @ gain_term + md.C.T @ md.C

    def operator_matrix(self, F=None, G=None):
        """Matrix of :meth:`second_moment_map` on symmetric matrices.

        Coordinates are the upper-triangle entries ``U[np.triu_indices(n)]``:
        the matrix maps them to those of the image, so it is
        n(n+1)/2 square.  Column k is the image of the k-th basis matrix,
        E_ij + E_ji for i < j and E_ii on the diagonal, and all columns come
        from one stacked :meth:`second_moment_map` call.
        """
        n = self.model.n
        i, j = np.triu_indices(n)
        k = np.arange(i.size)
        basis = np.zeros((i.size, n, n))
        basis[k, i, j] = basis[k, j, i] = 1.0
        return self.second_moment_map(basis, F, G)[:, i, j].T

    def map_radius(self, F=None, G=None):
        """Spectral radius of :meth:`second_moment_map` with the same ``F``, ``G``.

        The map is positive on the semidefinite cone, so its radius is an
        eigenvalue with a symmetric eigenvector.  On skew-symmetric U the map
        is alpha*F'UF, whose radius alpha*rho(F)^2 never exceeds that of the
        symmetric block, so the block alone carries the radius.  Up to
        n*n = DENSE_MAX it is the dense eigenvalue radius of
        :meth:`operator_matrix` on that block.  Above that, power iteration
        runs on n x n matrices through :meth:`second_moment_map`, from the
        identity, and no dense matrix is built; it can raise
        :class:`MaxIterations` as :func:`spectral_radius` does.
        """
        n = self.model.n
        if n * n <= DENSE_MAX:
            return spectral_radius(self.operator_matrix(F, G))
        return _power_radius(lambda U: self.second_moment_map(U, F, G), np.eye(n))

    def lyapunov_solve(self, Q, F=None, G=None) -> LyapunovSolve:
        """Solve U - second_moment_map(U, F, G) = Q without vectorizing U.

        ``Q`` is one n x n matrix or a stack (k, n, n); ``F`` and ``G`` are
        those of :meth:`second_moment_map`.  The noise term has rank n + m:
        alpha * sum_r (w_r'U w_r) r r' over the pairs (w, r) = (Sx e_i, e_i)
        and, with a gain, (Su e_j, G'e_j).  With T(U) = U - alpha*F'UF, one
        batched :func:`stein_solve` gives Y_r = T^{-1}(r r') and T^{-1}(Q);
        then U = T^{-1}(Q) + alpha * sum_r z_r Y_r, where z solves the
        (n+m)-square capacitance system (I - alpha*M) z = c with
        M_pr = w_p'Y_r w_p and c_p = w_p'T^{-1}(Q) w_p.  The nonzero spectrum
        of T^{-1} o (noise term) is that of alpha*M, so its radius is exact.
        Raises :class:`MaxIterations` when the doubling does not settle.
        """
        md = self.model
        F = md.A if F is None else F
        root = np.sqrt(self.alpha)
        if root * float(np.abs(np.linalg.eigvals(F)).max()) >= 1.0:
            return LyapunovSolve(None, False, np.nan)
        R, W = np.eye(md.n), md.sigma_bar_x
        if G is not None:
            R, W = np.hstack([R, G.T]), np.hstack([W, md.sigma_bar_u])
        Q = np.asarray(Q, dtype=float)
        rhs = Q if Q.ndim == 3 else Q[None]
        k = R.shape[1]
        Y = stein_solve(root * F, np.concatenate([R.T[:, :, None] * R.T[:, None, :], rhs]))
        # M_pr = w_p'Y_r w_p and c_p = w_p'T^{-1}(Q) w_p are the diagonals diag(W'Y W) of the
        # whole stack, so one product Y @ W and one reduction give both (see _diag_quad)
        forms = _diag_quad(W, Y, W)
        M, c = forms[:k].T, forms[k:].T
        radius = spectral_radius(M, method="eig")
        stable = bool(self.alpha * radius < 1.0)
        try:
            z = np.linalg.solve(np.eye(k) - self.alpha * M, c)
        except np.linalg.LinAlgError:
            return LyapunovSolve(None, False, radius)
        U = Y[k:] + self.alpha * np.tensordot(z, Y[:k], axes=(0, 0))
        return LyapunovSolve(U if Q.ndim == 3 else U[0], stable, radius)


def stein_solve(F, Q):
    """Solve Y - F'YF = Q by Smith's doubling iteration; ``Q`` may be a stack (k, n, n).

    Step j adds the next 2^j terms of Y = sum_k (F^k)' Q F^k and squares F.
    Once ||F^(2^j)||_F^2 <= machine epsilon, the terms still missing,
    (F^(2^j))' Y F^(2^j), are below that fraction of Y, and the iteration
    stops.  It needs rho(F) < 1; when ``MAX_DOUBLINGS`` squarings do not get
    there it raises :class:`MaxIterations`.
    """
    F = np.asarray(F, dtype=float)
    Y = np.array(Q, dtype=float)
    for _ in range(MAX_DOUBLINGS):
        Y += F.T @ Y @ F
        F = F @ F
        size = float(np.vdot(F, F))
        if size <= np.finfo(float).eps:
            return Y
    raise MaxIterations(
        f"Stein doubling did not settle after {MAX_DOUBLINGS} squarings "
        f"(||F^(2^j)||_F^2 = {size:.3e}); the map needs rho(F) < 1",
        iterations=MAX_DOUBLINGS,
        residual=size,
    )


def spectral_radius(M, method="auto", tol=1e-12, max_iters=20000):
    """Spectral radius of a square matrix.

    Small matrices (dimension up to DENSE_MAX) go through the dense
    eigensolver; large ones (as produced by vectorizing operators on big
    state spaces) use power iteration, which is adequate when the matrix
    leaves the semidefinite cone invariant and its dominant eigenvalue is
    the only one on its spectral circle.  When several eigenvalues share the
    spectral circle the iterates need not settle (10 of 2000 random small
    closed-loop maps with unit-scale gains); the iteration then raises
    :class:`MaxIterations` after ``max_iters`` steps and never returns an
    unsettled number.  A settled estimate can still differ from the dense
    radius by up to about 1e-10 relative (8e-11 seen on those maps), which is
    why dimensions up to DENSE_MAX keep the eigensolver.
    """
    M = np.asarray(M, dtype=float)
    d = M.shape[0] if M.ndim else 0
    if M.shape != (d, d):
        raise ArgumentError(f"expected a square matrix, got shape {M.shape}")
    if d == 0:
        return 0.0
    if method == "eig" or (method == "auto" and d <= DENSE_MAX):
        return float(np.abs(np.linalg.eigvals(M)).max())
    if method not in ("power", "auto"):
        raise ArgumentError(f"unknown method {method!r}")

    # start inside the cone image when d is a perfect square (vec of identity)
    k = int(round(np.sqrt(d)))
    if k * k == d:
        v = np.eye(k).reshape(-1, order="F")
    else:
        v = np.ones(d)
    return _power_radius(lambda w: M @ w, v, tol, max_iters)


def _power_radius(apply, v, tol=1e-12, max_iters=20000):
    """Power iteration of ``apply`` from ``v``: vectors or matrices, Frobenius norm.

    Returns once three successive norm ratios agree within ``tol`` (relative,
    floored at one); raises :class:`MaxIterations` after ``max_iters`` steps.
    """
    v = v / np.linalg.norm(v)
    estimate = 0.0
    steady = 0
    for it in range(max_iters):
        w = apply(v)
        r = float(np.linalg.norm(w))
        if r == 0.0:
            return 0.0
        v = w / r
        if abs(r - estimate) <= tol * max(1.0, r):
            steady += 1
            if steady >= 3:
                return r
        else:
            steady = 0
        estimate = r
    raise MaxIterations(
        f"power iteration did not settle after {max_iters} steps (last estimate {estimate:.6e})",
        iterations=max_iters,
        residual=abs(r - estimate),
    )
