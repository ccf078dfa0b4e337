"""Matrix operators that drive the cost recursions.

Everything here acts on symmetric matrices ``U`` of the state dimension and is
parameterized by one model and one discount ``alpha``.  The noise-induced
diagonal corrections are what separates these maps from the classical
Lyapunov / Riccati steps: quadratic growth of the noise intensity shows up as
``Diag(diag(S' U S))`` terms, and the mixed baseline/growth products feed the
piecewise-linear part of the cost through the diagonals returned in
:class:`NoiseForms`.

Every quadratic form of ``U`` that these maps read comes from one helper,
:func:`_forms`: T'UT and the noise diagonals diag(W'UW) from one product
U @ [T W].  The value map takes T = [A B] and W = [Sx Su], so one call per
iterate gives A'UA, B'UA, B'UB and both noise diagonals, which
:meth:`OperatorSet.riccati_step` and :meth:`OperatorSet.sigma_lambda` read
as blocks.  The second-moment map is written once, in
:meth:`OperatorSet.second_moment_map`, on n x n matrices or stacks of them,
with T = F; the one-step variation oracle and every certificate radius use
it, and the dense matrix of :meth:`OperatorSet.operator_matrix` is that map
applied to a basis of the symmetric matrices, in upper-triangle coordinates,
which only the tests read.  Equations U - map(U) = Q are solved once, in
:meth:`OperatorSet.lyapunov_solve`, on n x n matrices as well: one Stein
doubling pass and a capacitance system, factored per discount.  Up to n = 20
:meth:`OperatorSet.map_radius` runs inverse iteration on the map's resolvent
through that factored solve.  Each shift is tested against the radius by the
sign pattern of the capacitance system, an M-matrix test that stays right on
triangular and defective maps, and the radius is returned only inside a
tested bracket of relative width 1e-13 (on an F far from normal, that
bracket is only as good as the Stein sums).  Above n = 20 it runs power
iteration, which can raise :class:`~csviu.errors.MaxIterations` when several
eigenvalues share the spectral circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, MaxIterations, SingularLambda, as_floats, check_real
from .model import SystemModel

DENSE_MAX = 400  # spectral_radius: dense eigensolve up to this dimension; map_radius: resolvent up to n*n
MAX_DOUBLINGS = 64
# budget and tolerances of the resolvent iteration of OperatorSet.map_radius
_POWER_STEPS = 8        # power steps from the identity before the first shift
_CW_RIDGE = 1e-3        # multiple of I added to the power iterate, largest entry 1, for the first bound
_RADIUS_FLOOR = 1e-11   # smallest relative margin of a shift above the estimate
_RADIUS_TOL = 1e-13     # relative width of the tested bracket the radius is returned from
_RESHIFT_STEPS = 4      # a shift that would settle within this many more steps is kept
_RADIUS_SHIFTS = 32     # shifts tested, each one factorization
_RADIUS_STEPS = 100     # resolvent steps


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


def _forms(U, factors, k):
    """``(T'UT, diag(W'UW))`` for ``factors`` = [T W], T its first ``k`` columns.

    ``U`` is one n x n matrix or a stack (s, n, n).  One BLAS product
    U @ [T W] gives U T and U W; T'(U T) is a second product, and the
    diagonals are the two-operand reduction of :func:`_diag_quad`.  This is
    the one place the package forms the noise diagonals diag(S'US) and the
    control products B'U: the value map, the second-moment map and the
    capacitance system of :meth:`OperatorSet.lyapunov_solve` all read them
    from here (``k`` = 0 gives the diagonals alone).
    """
    UX = U @ factors
    return factors[:, :k].T @ UX[..., :k], np.einsum("...pi,pi->...i", UX[..., k:], factors[:, k:])


def _eig_radius(F):
    """max |eig(F)| of a square F, from the dense eigensolver."""
    return float(np.abs(np.linalg.eigvals(F)).max())


@dataclass(frozen=True)
class OperatorSet:
    """Stateless bundle of the cost-propagation operators at a fixed discount.

    ``alpha`` is stored as a float; anything but a finite real above zero
    raises :class:`~csviu.errors.ArgumentError`.  The output weights every
    Riccati step adds, D'C/alpha, D'D/alpha and C'C, and the stacked factors
    [A B Sx Su] of its quadratic form are built on first use and cached on
    the instance.
    """

    model: SystemModel
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_real("alpha", self.alpha, 0.0))

    def noise_quadratic_forms(self, U) -> NoiseForms:
        """Evaluate all noise corrections at ``U`` in one pass."""
        md = self.model
        U = np.asarray(U, dtype=float)
        z = _forms(U, self._factors[:, md.n + md.m:], 0)[1]
        wx = _diag_quad(md.sigma_bar_x, U, md.sigma_x) + _diag_quad(md.sigma_x, U, md.sigma_bar_x)
        wu = _diag_quad(md.sigma_bar_u, U, md.sigma_u) + _diag_quad(md.sigma_u, U, md.sigma_bar_u)
        floor = md.sigma @ md.sigma.T + md.sigma_x @ md.sigma_x.T + md.sigma_u @ md.sigma_u.T
        varpi1 = float(np.einsum("ij,ji->", U, floor))
        return NoiseForms(np.diag(z[:md.n]), np.diag(wx), np.diag(z[md.n:]), np.diag(wu), varpi1, wx, wu)

    @cached_property
    def _weights(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(D'C/alpha, D'D/alpha, C'C)``, the constant terms of :meth:`sigma_lambda`
        and :meth:`riccati_step`."""
        md = self.model
        return md.D.T @ md.C / self.alpha, md.D.T @ md.D / self.alpha, md.C.T @ md.C

    @cached_property
    def _factors(self) -> np.ndarray:
        """[A B Sx Su], n x 2(n + m): T = [A B] and W = [Sx Su] of the value map's form."""
        md = self.model
        return np.hstack([md.A, md.B, md.sigma_bar_x, md.sigma_bar_u])

    def _blocks(self, U):
        """T'UT + Diag(diag(W'UW)) at one n x n ``U``, T = [A B], W = [Sx Su].

        Its blocks are every form the value map reads: A'UA + Diag(diag(Sx'USx))
        top left, B'UA below it and B'UB + Diag(diag(Su'USu)) bottom right,
        all from one call of :func:`_forms`.
        """
        k = self.model.n + self.model.m
        Q, z = _forms(U, self._factors, k)
        Q.reshape(-1)[::k + 1] += z  # Q is a fresh C-ordered product, so this is its diagonal
        return Q

    def _sigma_lambda(self, Q) -> SigmaLambda:
        """:meth:`sigma_lambda` from the blocks ``Q`` of :meth:`_blocks`."""
        n = self.model.n
        cross, curvature, _ = self._weights
        return SigmaLambda(Q[n:, :n] + cross, Q[n:, n:] + curvature)

    def _step(self, U):
        """``(R(U), Sigma, Lambda, Lambda^{-1} Sigma)`` at one n x n ``U``, R the value
        map, from one stacked form: :meth:`riccati_step` and its gain -Lambda^{-1} Sigma.

        Raises :class:`SingularLambda` on a singular curvature.
        """
        Q = self._blocks(np.asarray(U, dtype=float))
        Sigma, Lambda = self._sigma_lambda(Q)
        try:
            gain_term = np.linalg.solve(Lambda, Sigma)
        except np.linalg.LinAlgError as exc:
            raise SingularLambda(
                "control curvature matrix is singular; the model needs D'D positive definite"
            ) from exc
        n = self.model.n
        step = self.alpha * Q[:n, :n] - self.alpha * Sigma.T @ gain_term + self._weights[2]
        return step, Sigma, Lambda, gain_term

    def second_moment_map(self, U, F=None, G=None):
        """Apply the second-moment map to ``U`` without vectorizing it.

        The map is U -> alpha*(F'UF + Diag(diag(Sx'USx)) + G'Diag(diag(Su'USu))G)
        with the growth intensities Sx = ``sigma_bar_x``, Su = ``sigma_bar_u``.
        ``F`` defaults to ``A`` and the control term is left out when ``G`` is
        None.  ``U`` is one n x n matrix or a stack of shape (k, n, n); the cost
        is O(n^3) per matrix.
        """
        return self._moment(np.asarray(U, dtype=float), self._map_factors(F, G), G)

    def _map_factors(self, F, G):
        """[F Sx], or [F Sx Su] with a gain: the factors :func:`_forms` reads for the map."""
        md = self.model
        F = md.A if F is None else F
        return np.hstack([F, md.sigma_bar_x] if G is None else [F, md.sigma_bar_x, md.sigma_bar_u])

    def _moment(self, U, factors, G):
        """:meth:`second_moment_map` of ``U`` with the ``factors`` of :meth:`_map_factors`."""
        n = self.model.n
        out, z = _forms(U, factors, n)
        diagonal = np.einsum("...ii->...i", out)  # writable view of each diagonal
        diagonal += z[..., :n]
        if G is not None:
            out += (G.T * z[..., None, n:]) @ G
        return self.alpha * out

    def sigma_lambda(self, U) -> SigmaLambda:
        return self._sigma_lambda(self._blocks(np.asarray(U, dtype=float)))

    def riccati_step(self, U):
        """One value-iteration step; raises :class:`SingularLambda` on a singular curvature."""
        return self._step(U)[0]

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

        The map L is positive on the semidefinite cone, so its radius rho is
        an eigenvalue with a semidefinite eigenvector.  Up to n*n = DENSE_MAX
        it comes from inverse iteration on the resolvent
        (sI - L)^{-1} = s^{-1} (I - L_{alpha/s})^{-1}, L_{alpha/s} the map at
        discount alpha/s, applied through the capacitance solve of
        :meth:`lyapunov_solve`, which is factored once per shift s.
        L_{alpha/s} is stable, that is s > rho, exactly when
        rho(sqrt(alpha/s) F) < 1 and I - (alpha/s) M is a nonsingular
        M-matrix, M >= 0 the capacitance matrix; :func:`_below_one` decides
        the latter from elimination pivots, which keep the exact zeros of a
        triangular M, so the test also holds on defective maps (a double
        integrator with diagonal growth noise), where eigenvalues of M are
        off by about eps^(1/k).  So every shift moves one end of a bracket
        [lo, hi] around rho, which starts at lo = alpha*rho(F)^2, and the
        iteration runs only at shifts above rho, where 1/(s - rho) strictly
        dominates the resolvent's spectrum, several eigenvalues on the
        spectral circle included.  The first shift is the Collatz-Wielandt
        bound rho <= lambda_max(U^{-1/2} L(U) U^{-1/2}), U > 0, at a few
        power steps from the identity; later shifts move toward the running
        estimate, or, while it converges slowly, come from a chord on the
        capacitance radius (see :class:`_Chord`).  A settled estimate
        is returned only once shifts just below and just above it have been
        tested, so the result lies in a tested bracket of relative width
        1e-13.  When a fixed budget of shifts and steps runs out,
        :class:`MaxIterations` is raised with the bracket; no unsettled
        number is returned.  The tests read M as computed: for an F far from
        normal (a Jordan block in rotated coordinates) the Stein sums lose
        precision at shifts near alpha*rho(F)^2, a shift where the doubling
        loses all of it also raises :class:`MaxIterations` with the bracket,
        and a radius returned there is only as accurate as those sums (in
        every such case tried, closer than the dense eigenvalues).  Above
        n*n = DENSE_MAX, power iteration runs on n x n matrices through
        :meth:`second_moment_map`, from the identity; it can raise
        :class:`MaxIterations` as :func:`spectral_radius` does.
        """
        return self._map_radius(self.model.A if F is None else F, G, None)

    def _map_radius(self, F, G, rho_F):
        """:meth:`map_radius` with ``rho_F`` = rho(F), or None to compute it where needed."""
        n = self.model.n
        factors = self._map_factors(F, G)
        if n * n > DENSE_MAX:
            return _power_radius(lambda U: self._moment(U, factors, G), np.eye(n))
        return self._resolvent_radius(F, G, factors, _eig_radius(F) if rho_F is None else rho_F)

    def _resolvent_radius(self, F, G, factors, rho_F):
        """The resolvent iteration of :meth:`map_radius`; ``factors`` are those of
        :meth:`_map_factors`.  A map whose lower bound alpha*rho(F)^2 overflows has
        an infinite radius."""
        n, alpha, tol = self.model.n, self.alpha, _RADIUS_TOL
        mean = alpha * (rho_F * rho_F)  # rho >= the radius of U -> alpha*F'UF
        if mean == np.inf:
            return mean
        U = np.eye(n)
        for _ in range(_POWER_STEPS):
            V = self._moment(U, factors, G)
            size = float(np.abs(V).max())  # the Frobenius norm would overflow from entries near 1e154
            if size == 0.0:
                return 0.0  # L^t(I) = 0, so L^t vanishes on the cone and on every symmetric U
            U = V / size
        # Collatz-Wielandt: L(V) <= c V for V > 0 gives rho <= c
        V = symmetrize(U) + _CW_RIDGE * np.eye(n)
        inv_chol = np.linalg.inv(np.linalg.cholesky(V))
        image = inv_chol @ self._moment(V, factors, G) @ inv_chol.T
        s = (1.0 + _RADIUS_FLOOR) * max(float(np.linalg.eigvalsh(symmetrize(image))[-1]), mean)
        res, lo, hi, est, steps, spread, center = None, mean, np.inf, np.inf, 0, 16.0, None
        chord = _Chord(mean)
        for _ in range(_RADIUS_SHIFTS):
            # test s: the map at discount alpha/s is stable exactly when s > rho
            beta, trial, X, P = alpha / s, None, None, None
            if np.sqrt(beta) * rho_F < 1.0:
                try:
                    with np.errstate(over="ignore", invalid="ignore"):
                        trial, X = self._resolvent(beta, F, G, U[None])
                except MaxIterations:  # the doubling lost all precision (F far from normal)
                    break
                P = beta * np.abs(trial.M)  # M >= 0 up to rounding
                if not np.isfinite(P).all():
                    break  # the Stein sums overflowed: the test cannot tell
                if hi == np.inf and not (P.diagonal() > 0.0).any() and _perron_root(P) == 0.0:
                    # rho(P) >= max diag(P), so only a zero diagonal needs the Perron root;
                    # M's pattern, so also rho(M) = 0, is the same at every discount
                    return mean  # the noise term adds nothing to the spectrum
            below = P is not None and _below_one(P)
            chord.add(s, P, below)
            if below:  # rho < s
                hi = s
                if X is not None:  # None: I - beta*M is singular
                    res, X, history = trial, X[0], []
            else:  # rho >= s
                lo, spread, X = s, 8.0 * spread, None
            if hi - lo <= tol * hi:
                return min(max(est, lo), hi)
            if center is not None and lo <= center <= hi:
                s = _proof_shift(center, lo)
                continue
            if res is None:
                s = lo * (1.0 + spread * _RADIUS_FLOOR) if hi == np.inf else 0.5 * (lo + hi)
                continue
            if X is None:
                X = res.solve(U[None])[0]
            s = center = None
            while steps < _RADIUS_STEPS:
                # X = s (sI - L)^{-1} U, so <X, U>/<X, X> tends to (s - rho)/s
                steps += 1
                size = float(np.vdot(X, X))
                if not 0.0 < size < np.inf:  # the solve lost all precision: bisect
                    s = 0.5 * (lo + hi)
                    break
                ratio = float(np.vdot(X, U)) / size
                U = X / np.sqrt(size)
                est = alpha / res.beta * (1.0 - ratio)
                history.append(est)
                if len(history) >= 3:
                    change = abs(history[-1] - history[-2])
                    rate = change / max(abs(history[-2] - history[-3]), np.finfo(float).tiny)
                    if not rate < 0.5:  # slow, as on a defective radius: the chord places the shift
                        center = chord.root()
                        if not lo < center < hi:
                            center, s = None, 0.5 * (lo + hi)
                    elif change <= tol / 8 * est:
                        center = min(max(est, lo), hi)  # settled at a geometric rate
                    elif change * rate**_RESHIFT_STEPS > tol * est:
                        # this shift would not settle within _RESHIFT_STEPS more steps
                        s = max(est, lo) + max(spread * change, _RADIUS_FLOOR * est)
                    if center is not None:
                        s = _proof_shift(center, lo)
                    if s is not None and s < hi:
                        break
                    s = None
                X = res.solve(U[None])[0]
            if s is None:
                break
        raise MaxIterations(
            f"resolvent iteration did not settle after {steps} steps; the map's radius "
            f"lies in [{lo:.16e}, {hi:.16e}]",
            iterations=steps,
            residual=hi - lo,
        )

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
        The factorization is the one :meth:`map_radius` reuses at each shift.
        Raises :class:`MaxIterations` when the doubling does not settle.
        """
        F = self.model.A if F is None else F
        return self._lyapunov_solve(Q, F, G, _eig_radius(F))

    def _lyapunov_solve(self, Q, F, G, rho_F) -> LyapunovSolve:
        """:meth:`lyapunov_solve` with ``rho_F`` = rho(F) given."""
        if np.sqrt(self.alpha) * rho_F >= 1.0:
            return LyapunovSolve(None, False, np.nan)
        Q = np.asarray(Q, dtype=float)
        res, U = self._resolvent(self.alpha, F, G, Q if Q.ndim == 3 else Q[None])
        radius = spectral_radius(res.M, method="eig")
        if U is None:
            return LyapunovSolve(None, False, radius)
        return LyapunovSolve(U if Q.ndim == 3 else U[0], bool(self.alpha * radius < 1.0), radius)

    def _resolvent(self, beta, F, G, Q):
        """Factor U - L_beta(U) = Q, L_beta the map at discount ``beta``, and solve it for ``Q``.

        ``Q`` is a stack (q, n, n) and rho(sqrt(beta) F) < 1 is required.
        Returns the :class:`_Resolvent` and the solution stack (None when
        the capacitance system is singular).  The Stein solutions of the
        rank-one terms and of ``Q`` come from one doubling pass on their
        joint stack, as in :meth:`lyapunov_solve`.  That stack, the k terms
        r r' over ``Q``, is written once into a C-ordered buffer, which
        :func:`_stein_pass` sums in place: each matrix is contiguous, so
        every product of the pass is one BLAS call per matrix.
        """
        md = self.model
        powers = _doubling_powers(np.sqrt(beta) * F)
        R, W = np.eye(md.n), md.sigma_bar_x
        if G is not None:
            R, W = np.hstack([R, G.T]), np.hstack([W, md.sigma_bar_u])
        k = R.shape[1]
        Y = np.empty((k + len(Q), md.n, md.n))
        np.multiply(R.T[:, :, None], R.T[:, None, :], out=Y[:k])
        Y[k:] = Q
        Y = _stein_pass(powers, Y)
        # M_pr = w_p'Y_r w_p and c_p = w_p'T^{-1}(Q) w_p are the diagonals diag(W'Y W) of the
        # whole stack, so one product Y @ W and one reduction give both (see _forms)
        forms = _forms(Y, W, 0)[1]
        M = forms[:k].T
        res = _Resolvent(beta, powers, W, Y[:k], M, np.eye(k) - beta * M)
        return res, res.finish(Y[k:], forms[k:].T)


class _Resolvent(NamedTuple):
    """(I - L_beta)^{-1} of the second-moment map at one discount ``beta``, factored.

    ``powers`` are the doubling powers of sqrt(beta) F, ``Y`` the Stein
    solutions Y_r of the k rank-one noise terms, ``M`` the k x k capacitance
    matrix of :meth:`OperatorSet.lyapunov_solve` and ``K`` = I - beta*M.
    """

    beta: float
    powers: list
    W: np.ndarray
    Y: np.ndarray
    M: np.ndarray
    K: np.ndarray

    def solve(self, Q):
        """U - L_beta(U) = Q for a stack ``Q`` (q, n, n): one Stein pass and the capacitance step."""
        X = _stein_pass(self.powers, np.array(Q, dtype=float, order="C"))
        return self.finish(X, _forms(X, self.W, 0)[1].T)

    def finish(self, X, c):
        """U = X + beta * sum_r z_r Y_r with (I - beta*M) z = c, from X = T^{-1}(Q) and
        c_p = w_p'X w_p; None when I - beta*M is singular."""
        try:
            z = np.linalg.solve(self.K, c)
        except np.linalg.LinAlgError:
            return None
        return X + self.beta * np.tensordot(z, self.Y, axes=(0, 0))


def _below_one(P):
    """Whether rho(P) < 1 for a square P >= 0, from Gaussian elimination on I - P.

    I - P is a Z-matrix, and rho(P) < 1 exactly when it is a nonsingular
    M-matrix, which holds exactly when elimination without pivoting meets
    only positive pivots (Berman & Plemmons, 1994, Thm. 6.2.3).  Each update
    subtracts a product of two off-diagonal entries, both <= 0, over a
    positive pivot, so only the pivots can cancel.  A P that is
    block-triangular in its given order keeps its exact zeros, so each
    diagonal block is tested on its own, and the verdict stays exact where
    a defective P has eigenvalues off by about eps^(1/k).
    """
    A = np.eye(len(P)) - P
    for k in range(len(A)):
        pivot = A[k, k]
        if not pivot > 0.0:
            return False
        A[k + 1:, k + 1:] -= (A[k + 1:, k] / pivot)[:, None] * A[k, k + 1:]
    return True


def _perron_root(M):
    """rho(M) for a square M >= 0: the largest radius of its irreducible diagonal blocks.

    Indices i and j share a block when each reaches the other through the
    nonzero entries of M; reachability comes from repeated squaring of the
    pattern.  Each block has a simple Perron root, which eigenvalues resolve
    to rounding, where a reducible M with two blocks of equal radius is
    defective and its eigenvalues are off by about the square root of eps.
    """
    reach = (M != 0.0) | np.eye(len(M), dtype=bool)
    for _ in range(int(len(M)).bit_length()):
        reach = (reach.astype(float) @ reach.astype(float)) > 0.0
    blocks = {tuple(row) for row in reach & reach.T}
    return max(spectral_radius(M[np.ix_(b, b)], method="eig") for b in map(np.array, blocks))


class _Chord:
    """Regula falsi for the radius on psi = log(beta*rho(M_beta)) over v = log(s - mean),
    beta = alpha/s, M_beta the capacitance matrix (rho from :func:`_perron_root`)
    and ``mean`` = alpha*rho(F)^2.

    The map's radius is the s > mean at which psi crosses zero.  With a
    triangular F and diagonal growth noise sigma*I, rho(M_beta) is
    sigma^2/(1 - beta*rho(F)^2), so psi = log(alpha*sigma^2) - v is linear and
    one chord lands on the radius; elsewhere the chord is a guess, and every
    shift is tested.  ``left`` is the point of the last shift tested above
    the radius, ``right`` of the last one below it; the value of an end kept
    twice in a row is halved (the Illinois method).  Without ``right`` the
    secant through the last two left points is used.
    """

    def __init__(self, mean):
        self.mean = mean
        self.left = self.prev_left = self.right = self.below = None

    def add(self, s, P, below):
        """Record the tested shift ``s``: ``P`` is beta*M_beta, None when the map at
        alpha/s was not factored; ``below`` says the radius lies below s."""
        point = None if P is None else [np.log(s - self.mean), P, 1.0]  # v, beta*M, weight
        if below:
            if self.right is not None and self.below:
                self.right[2] *= 0.5
            self.prev_left, self.left = self.left, point
        else:
            if self.left is not None and self.below is False:
                self.left[2] *= 0.5
            if point is not None:
                self.right = point
        self.below = below

    def root(self):
        """The shift at the chord's root; NaN without two points.  psi is evaluated
        here, so shifts that never need a chord cost no Perron root."""
        if self.left is None or (self.right is None and self.prev_left is None):
            return np.nan
        (x1, p1), (x2, p2) = (self._psi(point) for point in (self.left, self.right or self.prev_left))
        if p2 == p1:
            return np.nan
        return self.mean + np.exp(x1 - p1 * (x2 - x1) / (p2 - p1))

    @staticmethod
    def _psi(point):
        v, P, weight = point
        return v, weight * np.log(_perron_root(P))


def _proof_shift(center, lo):
    """Next shift around a settled estimate: center*(1 - tol/4) while ``lo`` is below
    it, then center*(1 + tol/4); when both tests agree, the bracket is tol/2 wide."""
    down = center * (1.0 - _RADIUS_TOL / 4)
    return down if lo < down else center * (1.0 + _RADIUS_TOL / 4)


def _doubling_powers(F):
    """F, F^2, F^4, ..., F^(2^j): the squarings of Smith's doubling, up to the
    first j with ||F^(2^(j+1))||_F^2 <= machine epsilon.

    Raises :class:`MaxIterations` when ``MAX_DOUBLINGS`` squarings do not get
    there, which needs rho(F) < 1.
    """
    powers = []
    for _ in range(MAX_DOUBLINGS):
        powers.append(F)
        F = F @ F
        size = float(np.vdot(F, F))
        if size <= np.finfo(float).eps:
            return powers
    raise MaxIterations(
        f"Stein doubling did not settle after {MAX_DOUBLINGS} squarings "
        f"(||F^(2^j)||_F^2 = {size:.3e}); the map needs rho(F) < 1",
        iterations=MAX_DOUBLINGS,
        residual=size,
    )


def _stein_pass(powers, Y):
    """sum_k (F^k)' Y F^k summed in place by doubling over the ``powers`` of
    :func:`_doubling_powers`; returns ``Y``.

    ``Y`` is a C-ordered stack (k, n, n) of floats that the pass owns.  The
    order matters: numpy's matmul hands a stack to BLAS one matrix at a time
    only when each matrix has a unit-stride axis, and runs its own unblocked
    loop otherwise: with 8 doubling powers on a 21-matrix stack at n = 20,
    0.59 ms against 0.27 ms on BLAS with one thread.  ``P.T @ Y @ P`` allocates C-ordered products
    and ``+=`` keeps the layout of ``Y``, so every product of the pass takes
    the BLAS route.
    """
    for P in powers:
        Y += P.T @ Y @ P
    return Y


def stein_solve(F, Q):
    """Solve Y - F'YF = Q by Smith's doubling iteration; ``Q`` may be a stack (k, n, n).

    Step j adds the next 2^j terms of Y = sum_k (F^k)' Q F^k and squares F.
    Once ||F^(2^j)||_F^2 <= machine epsilon, the terms still missing,
    (F^(2^j))' Y F^(2^j), are below that fraction of Y, and the iteration
    stops.  It needs rho(F) < 1; when ``MAX_DOUBLINGS`` squarings do not get
    there it raises :class:`MaxIterations`.  ``Q`` is copied into C order
    first, whatever its layout, so the doubling runs on BLAS (see
    :func:`_stein_pass`) and a stack gives, matrix by matrix, the bits of
    one-matrix calls.
    """
    return _stein_pass(_doubling_powers(np.asarray(F, dtype=float)), np.array(Q, dtype=float, order="C"))


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
    why dimensions up to DENSE_MAX keep the eigensolver.  A matrix that is
    not square, not numeric or not finite raises :class:`ArgumentError`.
    """
    M = as_floats("M", M)
    d = M.shape[0] if M.ndim else 0
    if M.shape != (d, d):
        raise ArgumentError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ArgumentError("M must be finite")
    if d == 0:
        return 0.0
    if method == "eig" or (method == "auto" and d <= DENSE_MAX):
        return _eig_radius(M)
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
        r = math.sqrt(float(np.vdot(w, w)))  # the Frobenius norm, without np.linalg.norm's checks
        if r == math.inf:  # the squares overflow from entries near 1e154: scale them first
            peak = float(np.abs(w).max())
            r = peak * math.sqrt(float(np.vdot(w / peak, w / peak)))
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
