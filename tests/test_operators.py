import re
import warnings

import numpy as np
import pytest

from csviu import (ArgumentError, MaxIterations, OperatorSet, SingularLambda, SystemModel, solve_riccati,
                   spectral_radius)
from csviu import operators
from csviu.operators import stein_solve, symmetrize

import oracles
import support


@pytest.fixture
def scalar_ops(scalar_model):
    return OperatorSet(scalar_model, alpha=0.9)


class TestNoiseFormsScalar:
    """Frozen single-state values, recomputed here from first principles."""

    U = np.array([[2.0]])

    def test_quadratic_growth_terms(self, scalar_ops):
        # the growth diagonals diag(Sx'U Sx) = 0.18 and diag(Su'U Su) = 0.32 are read
        # through the second-moment map and the curvature in the next test
        forms = scalar_ops.noise_quadratic_forms(self.U)
        assert forms.Wxd[0] == pytest.approx(2 * (0.3 * 2.0 * 0.2), abs=1e-15)    # 0.24
        assert forms.Wud[0] == pytest.approx(2 * (0.4 * 2.0 * 0.2), abs=1e-15)    # 0.32
        assert forms.varpi1 == pytest.approx(2.0 * (0.01 + 0.04 + 0.04), abs=1e-15)  # 0.18

    def test_propagation_and_gain_numerators(self, scalar_ops):
        assert scalar_ops.second_moment_map(self.U)[0, 0] == pytest.approx(
            0.9 * (0.5 * 2.0 * 0.5 + 0.18), abs=1e-15  # 0.612
        )
        Sigma, Lambda = scalar_ops.sigma_lambda(self.U)
        assert Sigma[0, 0] == pytest.approx(1.0 + 1.0 / 0.9, abs=1e-15)   # 19/9
        assert Lambda[0, 0] == pytest.approx(2.32 + 1.0 / 0.9, abs=1e-15)

    def test_one_riccati_step(self, scalar_ops):
        sigma = 1.0 + 1.0 / 0.9
        lam = 2.32 + 1.0 / 0.9
        expected = 0.612 - 0.9 * sigma * sigma / lam + 1.0
        got = scalar_ops.riccati_step(self.U)[0, 0]
        assert got == pytest.approx(expected, abs=1e-14)
        assert got == pytest.approx(0.442958549222798, abs=1e-12)

    def test_zero_matrix_maps_to_noise_free_values(self, scalar_ops):
        forms = scalar_ops.noise_quadratic_forms(np.zeros((1, 1)))
        assert forms.varpi1 == 0.0
        assert not forms.Wxd.any() and not forms.Wud.any()


def test_forms_match_elementwise_loops(rng):
    # n = 21: a synthesis-sized plant, past map_radius's switch to power iteration
    for n in (3, 21):
        model = support.random_model(rng, n=n, m=2, r=2)
        ops = OperatorSet(model, alpha=0.95)
        root = rng.standard_normal((n, n))
        U = root @ root.T
        forms = ops.noise_quadratic_forms(U)

        def loop_diag(S, T):
            q = S.shape[1]
            return np.array(
                [sum(S[a, i] * U[a, b] * T[b, i] for a in range(n) for b in range(n)) for i in range(q)]
            )

        # with F = 0 the second-moment map is alpha (Diag(diag(Sx'U Sx)) + E' Diag(diag(Su'U Su)) E),
        # and E = [I 0] puts the control diagonal on the first m entries
        zx = np.diag(ops.second_moment_map(U, F=np.zeros((n, n)))) / ops.alpha
        zu = np.diag(ops.second_moment_map(U, F=np.zeros((n, n)), G=np.eye(2, n)))[:2] / ops.alpha - zx[:2]
        np.testing.assert_allclose(zx, loop_diag(model.sigma_bar_x, model.sigma_bar_x), atol=1e-12)
        np.testing.assert_allclose(zu, loop_diag(model.sigma_bar_u, model.sigma_bar_u), atol=1e-12)
        np.testing.assert_allclose(
            forms.Wxd,
            loop_diag(model.sigma_bar_x, model.sigma_x) + loop_diag(model.sigma_x, model.sigma_bar_x),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            forms.Wud,
            loop_diag(model.sigma_bar_u, model.sigma_u) + loop_diag(model.sigma_u, model.sigma_bar_u),
            atol=1e-12,
        )
        floor = (
            model.sigma @ model.sigma.T
            + model.sigma_x @ model.sigma_x.T
            + model.sigma_u @ model.sigma_u.T
        )
        assert forms.varpi1 == pytest.approx(float(np.trace(U @ floor)), abs=1e-12)


def test_lq_reduction_single_step(rng):
    """With growth noise off, one value step equals the classical discounted step."""
    model = support.random_model(rng, n=3, m=2, lq=True)
    alpha = 0.9
    ops = OperatorSet(model, alpha)
    root = rng.standard_normal((3, 3))
    U = root @ root.T
    got = ops.riccati_step(U)
    s = np.sqrt(alpha)
    Ab, Bb = s * model.A, s * model.B
    Q, R, N = model.C.T @ model.C, model.D.T @ model.D, model.C.T @ model.D
    M = Bb.T @ U @ Ab + N.T
    expected = Ab.T @ U @ Ab + Q - M.T @ np.linalg.solve(R + Bb.T @ U @ Bb, M)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_singular_curvature_raises():
    model = support.scalar_model()
    bad = type(model).from_dict(dict(support.SCALAR_DATA, D=0.0, sigma_bar_u=0.0))
    ops = OperatorSet(bad, alpha=1.0)
    with pytest.raises(SingularLambda, match="D'D"):
        ops.riccati_step(np.zeros((1, 1)))


def _vec(U):
    return U.reshape(-1, order="F")


def _unvec(v, n):
    return v.reshape((n, n), order="F")


class TestOperatorMatrix:
    """The dense matrix on symmetric matrices, in upper-triangle coordinates,
    against the kron oracle of tests/oracles.py."""

    def test_scalar_lyapunov_entry(self, scalar_model):
        M = OperatorSet(scalar_model, 0.9).operator_matrix()
        np.testing.assert_allclose(M, [[0.9 * (0.25 + 0.09)]], atol=1e-15)  # [[0.306]]

    def test_zero_dynamics_gives_zero_matrix(self):
        model = support.random_model(np.random.default_rng(5), n=2, m=1)
        quiet = type(model)(np.zeros((2, 2)), model.B, model.C, model.D, model.sigma,
                            model.sigma_x, np.zeros((2, 2)), model.sigma_u, model.sigma_bar_u)
        M = OperatorSet(quiet, 1.0).operator_matrix()
        assert M.shape == (3, 3)
        assert not M.any()

    @pytest.mark.parametrize("loop", ["lyapunov", "injected"])
    def test_matrix_matches_basis_probing(self, rng, loop):
        model = support.random_model(rng, n=3, m=2)
        ops = OperatorSet(model, alpha=1.1)
        # the plant's map (default F = A) and an injected loop's, F = A + HC
        H = rng.standard_normal((3, model.p))
        F = model.A if loop == "lyapunov" else model.A + H @ model.C
        M = ops.operator_matrix() if loop == "lyapunov" else ops.operator_matrix(F)
        K = oracles.second_moment_matrix(F, model.sigma_bar_x, 1.1)
        np.testing.assert_allclose(M, oracles.symmetric_block(K, 3), atol=1e-12)
        i, j = np.triu_indices(3)
        for _ in range(20):
            root = rng.standard_normal((3, 3))
            U = root @ root.T
            np.testing.assert_allclose(M @ U[i, j], _unvec(K @ _vec(U), 3)[i, j], atol=1e-11)

    def test_closed_loop_matrix_matches_basis_probing(self, rng):
        model = support.random_model(rng, n=2, m=2)
        ops = OperatorSet(model, alpha=0.8)
        G = rng.standard_normal((2, 2))
        Acl = model.A + model.B @ G
        K = oracles.second_moment_matrix(Acl, model.sigma_bar_x, 0.8, G, model.sigma_bar_u)
        M = ops.operator_matrix(Acl, G)
        np.testing.assert_allclose(M, oracles.symmetric_block(K, 2), atol=1e-12)

    def test_matrix_free_map_on_a_stack(self, rng):
        for n in (3, 21):
            model = support.random_model(rng, n=n, m=2)
            ops = OperatorSet(model, alpha=0.8)
            G = rng.standard_normal((2, n))
            Acl = model.A + model.B @ G
            K = oracles.second_moment_matrix(Acl, model.sigma_bar_x, 0.8, G, model.sigma_bar_u)
            roots = rng.standard_normal((4, n, n))
            # scaled so the map's entries are O(1) at every n and one absolute tolerance fits
            stack = roots @ roots.transpose(0, 2, 1) / n**2
            out = ops.second_moment_map(stack, Acl, G)
            assert out.shape == (4, n, n)
            for U, got in zip(stack, out):
                np.testing.assert_allclose(got, _unvec(K @ _vec(U), n), atol=1e-12)
            np.testing.assert_array_equal(ops.second_moment_map(stack)[1],
                                          ops.second_moment_map(stack[1]))

    def test_random_maps_match_kron_oracle(self):
        # plant and closed-loop maps, rectangular control growth (n x m), both
        # sides of a unit discount, gains of random scale; matrix action and
        # radius (the resolvent iteration of map_radius) against the oracle
        rng = np.random.default_rng(31)
        count = 0
        for _ in range(6):
            for n in range(1, 9):
                for m in range(1, 4):
                    model = support.random_model(rng, n=n, m=m, radius=float(rng.uniform(0.3, 1.2)),
                                                 growth_scale=float(rng.uniform(0.0, 0.5)))
                    G = -float(rng.uniform(0.1, 1.0)) * rng.standard_normal((m, n))
                    i, j = np.triu_indices(n)
                    for F, gain in ((model.A, None), (model.A + model.B @ G, G)):
                        for alpha in (0.8, 1.1):
                            ops = OperatorSet(model, alpha)
                            K = oracles.second_moment_matrix(F, model.sigma_bar_x, alpha, gain,
                                                             model.sigma_bar_u)
                            M = ops.operator_matrix(F, gain)
                            assert M.shape == (i.size, i.size)
                            root = rng.standard_normal((n, n))
                            U = root + root.T
                            np.testing.assert_allclose(
                                M @ U[i, j], _unvec(K @ _vec(U), n)[i, j], atol=1e-12
                            )
                            want = float(np.abs(np.linalg.eigvals(K)).max())
                            assert ops.map_radius(F, gain) == pytest.approx(want, rel=1e-12, abs=1e-12)
                            count += 1
        assert count == 576


def _dense_radius(ops, F=None, G=None):
    return float(np.abs(np.linalg.eigvals(ops.operator_matrix(F, G))).max())


# draws of the search of _circle_maps whose maps make power iteration raise
_CIRCLE_DRAWS = (30, 644, 773, 821, 920, 976, 1153)


def _circle_maps(draws):
    """(model, G) of random small closed loops with unit-scale gains (seed 0) at ``draws``:
    their maps have several eigenvalues on the spectral circle."""
    rng = np.random.default_rng(0)
    maps = []
    for draw in range(max(draws) + 1):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 3))
        model = support.random_model(rng, n=n, m=m)
        G = -rng.standard_normal((m, n))
        if draw in draws:
            maps.append((model, G))
    return maps


def _padded(model, G, n):
    """``model`` and ``G`` padded to n states: A becomes blkdiag(A, 0.1 I), and every
    other new entry is zero."""
    k = model.n
    A = np.zeros((n, n))
    A[:k, :k] = model.A
    A[k:, k:] = 0.1 * np.eye(n - k)

    def rows(X):
        return np.vstack([X, np.zeros((n - k, X.shape[1]))])

    def square(X):
        out = np.zeros((n, n))
        out[:k, :k] = X
        return out

    padded = SystemModel(A=A, B=rows(model.B), C=np.hstack([model.C, np.zeros((model.C.shape[0], n - k))]),
                         D=model.D, sigma=rows(model.sigma), sigma_x=square(model.sigma_x),
                         sigma_bar_x=square(model.sigma_bar_x), sigma_u=rows(model.sigma_u),
                         sigma_bar_u=rows(model.sigma_bar_u))
    return padded, np.hstack([G, np.zeros((G.shape[0], n - k))])


class TestMapRadius:
    """The resolvent iteration of ``map_radius`` (n <= 20) against the dense
    eigenvalues of :meth:`OperatorSet.operator_matrix`."""

    @pytest.mark.parametrize("n", [12, 16, 20])
    def test_synthesis_sized_plants(self, n):
        rng = np.random.default_rng(n)
        model = support.random_model(rng, n=n, m=n // 4, radius=0.8)
        sol = solve_riccati(model, 0.95)
        ops = OperatorSet(model, 0.95)
        for F, gain in ((model.A, None), (sol.Acl, sol.G)):
            assert ops.map_radius(F, gain) == pytest.approx(_dense_radius(ops, F, gain), rel=1e-12)

    def test_several_eigenvalues_on_the_spectral_circle(self):
        # on these maps power iteration does not settle, the shifted resolvent does
        for model, G in _circle_maps(_CIRCLE_DRAWS):
            ops, F = OperatorSet(model, 0.9), model.A + model.B @ G
            assert ops.map_radius(F, G) == pytest.approx(_dense_radius(ops, F, G), rel=1e-12)

    def test_power_iteration_above_n_20_raises_on_the_spectral_circle(self):
        # the same maps padded to n = 21, where map_radius runs power iteration: it
        # raises a typed error instead of returning an unsettled number
        for model, G in _circle_maps(_CIRCLE_DRAWS[:2]):
            model, G = _padded(model, G, 21)
            with pytest.raises(MaxIterations, match="power iteration did not settle"):
                OperatorSet(model, 0.9).map_radius(model.A + model.B @ G, G)

    def test_zero_growth_noise_gives_the_mean_radius(self, rng):
        model = support.random_model(rng, n=5, m=2, lq=True)
        G = -rng.standard_normal((2, 5))
        for F, gain in ((model.A, None), (model.A + model.B @ G, G)):
            ops = OperatorSet(model, 0.9)
            mean = 0.9 * float(np.abs(np.linalg.eigvals(F)).max()) ** 2
            assert ops.map_radius(F, gain) == pytest.approx(mean, rel=1e-12)
            assert ops.map_radius(F, gain) == pytest.approx(_dense_radius(ops, F, gain), rel=1e-12)

    def test_defective_mean_dynamics(self, rng):
        # A = Q J Q' with J a 2 x 2 Jordan block at 0.8: without growth noise the
        # map's radius 0.95 * 0.64 is defective, and the dense eigenvalues hold
        # it only to about eps^(1/3); dense growth noise splits the block
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        A = Q @ np.array([[0.8, 1.0], [0.0, 0.8]]) @ Q.T
        quiet = support.random_model(rng, n=2, m=1, lq=True)
        quiet = type(quiet)(A, quiet.B, quiet.C, quiet.D, quiet.sigma, quiet.sigma_x,
                            quiet.sigma_bar_x, quiet.sigma_u, quiet.sigma_bar_u)
        ops = OperatorSet(quiet, 0.95)
        exact = 0.95 * 0.64
        dense = _dense_radius(ops)
        assert ops.map_radius() == pytest.approx(exact, rel=1e-7)
        assert ops.map_radius() == pytest.approx(dense, rel=1e-5)
        noisy = type(quiet)(A, quiet.B, quiet.C, quiet.D, quiet.sigma, quiet.sigma_x,
                            0.05 * rng.standard_normal((2, 2)), quiet.sigma_u, quiet.sigma_bar_u)
        ops = OperatorSet(noisy, 0.95)
        assert ops.map_radius() == pytest.approx(_dense_radius(ops), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rotated_jordan_block_with_small_growth_noise(self, n):
        # A = Q (0.8 I + N) Q' is far from normal: at shifts near alpha*rho(A)^2 its
        # Stein doubling loses all precision.  Growth noise 1e-4 I and up moves the
        # radius far enough from there; at 1e-6 I the n = 3 and 4 blocks stop at such
        # a shift and raise with the bracket (the dense eigenvalues are off by up
        # to 8e-7 there), and none returns a radius the doubling could not test
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = Q @ (0.8 * np.eye(n) + np.diag(np.ones(n - 1), 1)) @ Q.T
        base = support.random_model(rng, n=n, m=1)
        for sigma in (1e-6, 1e-4, 1e-2):
            model = type(base)(A, base.B, base.C, base.D, base.sigma, base.sigma_x,
                               sigma * np.eye(n), base.sigma_u, base.sigma_bar_u)
            ops = OperatorSet(model, 0.9)
            want = _dense_radius(ops)
            if sigma == 1e-6 and n > 2:
                with pytest.raises(MaxIterations, match=r"lies in \[") as caught:
                    ops.map_radius()
                lo, hi = map(float, re.search(r"\[(\S+), (\S+)\]", str(caught.value)).groups())
                assert lo <= want < hi
            else:
                assert ops.map_radius() == pytest.approx(want, rel=1e-7)

    @pytest.mark.parametrize("n", [2, 3, 10, 20])
    @pytest.mark.parametrize("eigenvalue", [0.0, 0.7, 1.0])
    def test_jordan_block_with_diagonal_growth_noise(self, n, eigenvalue):
        # A = lambda I + N (a double integrator at lambda = 1, n = 2) and Sx = sigma I:
        # the map is triangular, its radius 0.9 (lambda^2 + sigma^2) has algebraic
        # multiplicity n and the capacitance matrix is triangular and defective too
        A = eigenvalue * np.eye(n) + np.diag(np.ones(n - 1), 1)
        base = support.random_model(np.random.default_rng(2), n=n, m=1)
        for sigma in (0.01, 0.05, 0.3):
            model = type(base)(A, base.B, base.C, base.D, base.sigma, base.sigma_x,
                               sigma * np.eye(n), base.sigma_u, base.sigma_bar_u)
            exact = 0.9 * (eigenvalue**2 + sigma**2)
            assert OperatorSet(model, 0.9).map_radius() == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("copies", [2, 3])
    def test_coupled_identical_blocks(self, copies):
        # A = I (x) R + N (x) C chains identical 2 x 2 blocks; with growth noise in
        # each block the map's radius is that of one block, defective of order
        # ``copies``: on these draws the dense eigenvalues are off by up to 8e-8
        # (two copies) and 4e-5 (three), and so would be a test by eigenvalues
        rng = np.random.default_rng(copies)
        for _ in range(6):
            R, C = rng.uniform(0.05, 0.5, (2, 2)), rng.uniform(0.5, 3.0, (2, 2))
            noise = rng.uniform(0.05, 0.5) * np.eye(2)
            block = support.random_model(rng, n=2, m=1)
            block = type(block)(R, block.B, block.C, block.D, block.sigma, block.sigma_x,
                                noise, block.sigma_u, block.sigma_bar_u)
            A = np.kron(np.eye(copies), R) + np.kron(np.eye(copies, k=1), C)
            chain = support.random_model(rng, n=2 * copies, m=1)
            chain = type(chain)(A, chain.B, chain.C, chain.D, chain.sigma, chain.sigma_x,
                                np.kron(np.eye(copies), noise), chain.sigma_u, chain.sigma_bar_u)
            exact = _dense_radius(OperatorSet(block, 0.9))
            assert OperatorSet(chain, 0.9).map_radius() == pytest.approx(exact, rel=1e-12)

    def test_perron_root_reads_each_irreducible_block(self):
        # two blocks of radius 0.8 coupled one way: np.linalg.eigvals is off by 5e-9
        R = np.array([[0.3, 0.6], [0.5, 0.2]])
        M = np.block([[R, np.zeros((2, 2))], [np.full((2, 2), 1e3), R]])
        assert operators._perron_root(M) == pytest.approx(0.8, rel=1e-15)
        assert operators._perron_root(np.triu(np.ones((4, 4)), 1)) == 0.0
        assert operators._perron_root(R) == pytest.approx(0.8, rel=1e-15)

    def test_below_one_reads_a_defective_triangular_matrix_exactly(self):
        # Jordan blocks at 1 -+ 1e-14 with a strong coupling: the pivots of I - P are
        # those of its diagonal, so the verdict holds 1e-14 from the boundary
        P = (1.0 - 1e-14) * np.eye(8) + np.diag(np.full(7, 1e6), -1)
        assert operators._below_one(P)
        assert not operators._below_one((1.0 + 1e-14) * np.eye(8) + np.diag(np.full(7, 1e6), -1))
        assert not operators._below_one(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert operators._below_one(np.array([[0.0, 0.7], [1.4, 0.0]]))

    def test_spent_budget_raises_with_a_bracket_around_the_radius(self, monkeypatch):
        model = support.random_model(np.random.default_rng(3), n=4, m=2, growth_scale=0.3)
        ops = OperatorSet(model, 0.95)
        want = _dense_radius(ops)
        monkeypatch.setattr(operators, "_RADIUS_STEPS", 1)
        with pytest.raises(MaxIterations, match=r"lies in \[") as caught:
            ops.map_radius()
        lo, hi = map(float, re.search(r"\[(\S+), (\S+)\]", str(caught.value)).groups())
        assert caught.value.iterations == 1 and caught.value.residual == hi - lo
        assert lo <= want < hi


class TestMonotoneAndLinear:
    """Positivity structure the solver leans on."""

    def test_linear_in_U(self, rng, scalar_model):
        model = support.random_model(rng, n=3, m=1)
        ops = OperatorSet(model, 0.9)
        U = rng.standard_normal((3, 3))
        V = rng.standard_normal((3, 3))
        U, V = U + U.T, V + V.T
        np.testing.assert_allclose(ops.second_moment_map(U + 2.5 * V),
                                   ops.second_moment_map(U) + 2.5 * ops.second_moment_map(V), atol=1e-11)

    def test_monotone_on_psd_order(self, rng):
        model = support.random_model(rng, n=3, m=2)
        ops = OperatorSet(model, 1.0)
        for _ in range(10):
            ru = rng.standard_normal((3, 3))
            rv = rng.standard_normal((3, 3))
            V = rv @ rv.T
            U = V + ru @ ru.T  # U >= V in the semidefinite order
            assert oracles.min_eig(ops.second_moment_map(U) - ops.second_moment_map(V)) >= -1e-10
            forms_U = ops.noise_quadratic_forms(U)
            forms_V = ops.noise_quadratic_forms(V)
            assert forms_U.varpi1 >= forms_V.varpi1 - 1e-10

    def test_curvature_positive_definite_on_psd(self, rng):
        model = support.random_model(rng, n=3, m=2)
        ops = OperatorSet(model, 0.9)
        floor = oracles.min_eig(model.D.T @ model.D / 0.9)
        for _ in range(10):
            root = rng.standard_normal((3, 3))
            _, Lambda = ops.sigma_lambda(root @ root.T)
            assert oracles.min_eig(Lambda) >= floor - 1e-10


class TestSpectralRadius:
    def test_frozen_values(self):
        assert spectral_radius(np.array([[0.306]])) == pytest.approx(0.306, abs=1e-15)
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert spectral_radius(rot) == pytest.approx(1.0, abs=1e-12)
        companion = np.array([[1.0, 1.0], [1.0, 0.0]])
        golden = (1.0 + np.sqrt(5.0)) / 2.0
        assert spectral_radius(companion) == pytest.approx(golden, abs=1e-12)

    def test_dense_above_dimension_400(self, rng):
        # a non-normal complex dominant pair of modulus 0.9 among 399 eigenvalues in
        # (-0.5, 0.5): power iteration never settled on it, the eigensolver is exact
        c, s = 0.9 * np.cos(0.5), 0.9 * np.sin(0.5)
        core = np.zeros((401, 401))
        core[:2, :2] = [[c, -4.0 * s], [s / 4.0, c]]
        core[2:, 2:] = np.diag(rng.uniform(-0.5, 0.5, 399))
        Q, _ = np.linalg.qr(rng.standard_normal((401, 401)))
        M = Q @ core @ Q.T
        assert spectral_radius(M) == pytest.approx(0.9, abs=1e-12)
        assert spectral_radius(M, method="eig") == spectral_radius(M)
        assert spectral_radius(np.zeros((401, 401))) == 0.0

    @pytest.mark.parametrize(
        "M, method, match",
        [(np.ones((2, 3)), "auto", "square"), (2.0, "auto", "square"),
         (np.eye(2), "lanczos", "unknown method"), (np.eye(2), "power", "unknown method.*map_radius")],
        ids=["non-square", "scalar", "unknown-method", "power-method"],
    )
    def test_bad_arguments_are_argument_errors(self, M, method, match):
        # a scalar used to fail with numpy's IndexError
        with pytest.raises(ArgumentError, match=match):
            spectral_radius(M, method=method)


class TestSteinSolve:
    def test_matches_dense_solve_on_a_stack(self, rng):
        F = rng.standard_normal((4, 4))
        F *= 0.9 / float(np.abs(np.linalg.eigvals(F)).max())
        roots = rng.standard_normal((3, 4, 4))
        Q = roots @ roots.transpose(0, 2, 1)
        Y = stein_solve(F, Q)
        dense = np.eye(16) - np.kron(F.T, F.T)
        for q, y in zip(Q, Y):
            want = np.linalg.solve(dense, q.reshape(-1, order="F")).reshape((4, 4), order="F")
            np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_marginal_map_raises(self):
        with pytest.raises(MaxIterations, match="doubling"):
            stein_solve(np.array([[1.0]]), np.eye(1))


class TestLyapunovSolve:
    """The matrix-free solve of U - map(U) = Q against a dense solve on
    :meth:`OperatorSet.operator_matrix`, with and without the control term."""

    @pytest.mark.parametrize("n", [2, 4, 8, 20])
    def test_matches_dense_operator_matrix_solve(self, n):
        rng = np.random.default_rng(40 + n)
        model = support.random_model(rng, n=n, m=max(1, n // 2), radius=0.6)
        G = solve_riccati(model, 0.95).G  # the kind of gain a Newton step evaluates
        roots = rng.standard_normal((3, n, n))
        Q = roots @ roots.transpose(0, 2, 1)
        i, j = np.triu_indices(n)
        ops = OperatorSet(model, 0.95)
        for F, gain in ((model.A, None), (model.A + model.B @ G, G)):
            solved = ops.lyapunov_solve(Q, F, gain)
            dense = np.linalg.solve(np.eye(i.size) - ops.operator_matrix(F, gain), Q[:, i, j].T).T
            scale = float(np.abs(dense).max())
            assert float(np.abs(solved.U[:, i, j] - dense).max()) <= 1e-14 * scale
            assert float(np.abs(solved.U - solved.U.transpose(0, 2, 1)).max()) <= 1e-13 * scale
            assert solved.stable and ops.map_radius(F, gain) < 1.0
            single = ops.lyapunov_solve(Q[1], F, gain)
            assert single.U.shape == (n, n)
            np.testing.assert_allclose(single.U, solved.U[1], rtol=0.0, atol=1e-13 * scale)

    def test_scalar_closed_form(self):
        # U (1 - alpha (f^2 + sx^2 + g^2 su^2)) = Q on one state
        model = support.scalar_model()
        ops = OperatorSet(model, 0.9)
        G = np.array([[-0.3]])
        F = model.A + model.B @ G
        gain = 0.9 * (F[0, 0] ** 2 + 0.3 ** 2 + 0.09 * 0.4 ** 2)
        solved = ops.lyapunov_solve(np.array([[2.0]]), F, G)
        assert solved.U[0, 0] == pytest.approx(2.0 / (1.0 - gain), rel=1e-14)
        assert solved.resolvent_radius == pytest.approx(
            (0.3 ** 2 + 0.09 * 0.4 ** 2) / (1.0 - 0.9 * F[0, 0] ** 2), rel=1e-14)
        assert solved.stable

    def test_noise_driven_instability_is_reported(self):
        # mean part 0.25 is stable, growth noise 0.81 takes the map to 1.06
        model = support.stacked_output_model()
        loud = type(model)(model.A, model.B, model.C, model.D, model.sigma, model.sigma_x,
                           np.array([[0.9]]), model.sigma_u, model.sigma_bar_u)
        solved = OperatorSet(loud, 1.0).lyapunov_solve(np.eye(1))
        assert not solved.stable
        assert solved.resolvent_radius == pytest.approx(0.81 / 0.75, rel=1e-14)
        assert solved.U[0, 0] == pytest.approx(1.0 / (1.0 - 1.06), rel=1e-12)

    def test_unstable_mean_part_gives_no_solution(self):
        model = support.scalar_model()
        solved = OperatorSet(model, 1.0).lyapunov_solve(np.eye(1), np.array([[1.2]]))
        assert solved.U is None and not solved.stable and np.isnan(solved.resolvent_radius)


def test_symmetrize_skips_the_asymmetry_reduction():
    # no asymmetry reduction runs: its inf - inf here would warn of an invalid value
    skewed = np.array([[1.0, np.inf], [np.inf, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = symmetrize(skewed)
    assert out.tobytes() == (0.5 * (skewed + skewed.T)).tobytes()
    np.testing.assert_array_equal(symmetrize([[1.0, 3.0], [1.0, 1.0]]), [[1.0, 2.0], [2.0, 1.0]])
