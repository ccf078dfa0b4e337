import numpy as np
import pytest

from csviu import MaxIterations, OperatorSet, SingularLambda, solve_riccati, spectral_radius
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
        forms = scalar_ops.noise_quadratic_forms(self.U)
        assert forms.Zx[0, 0] == pytest.approx(0.3 * 2.0 * 0.3, abs=1e-15)          # 0.18
        assert forms.Wx[0, 0] == pytest.approx(2 * (0.3 * 2.0 * 0.2), abs=1e-15)    # 0.24
        assert forms.Zu[0, 0] == pytest.approx(0.4 * 2.0 * 0.4, abs=1e-15)          # 0.32
        assert forms.Wu[0, 0] == pytest.approx(2 * (0.4 * 2.0 * 0.2), abs=1e-15)    # 0.32
        assert forms.varpi1 == pytest.approx(2.0 * (0.01 + 0.04 + 0.04), abs=1e-15)  # 0.18
        assert forms.Wxd[0] == forms.Wx[0, 0]
        assert forms.Wud[0] == forms.Wu[0, 0]

    def test_propagation_and_gain_numerators(self, scalar_ops):
        assert scalar_ops.lyapunov_step(self.U)[0, 0] == pytest.approx(
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
        assert not forms.Zx.any() and not forms.Wu.any()


def test_forms_match_elementwise_loops(rng):
    model = support.random_model(rng, n=3, m=2, r=2)
    ops = OperatorSet(model, alpha=0.95)
    root = rng.standard_normal((3, 3))
    U = root @ root.T
    forms = ops.noise_quadratic_forms(U)

    def loop_diag(S, T):
        q = S.shape[1]
        return np.array(
            [sum(S[a, i] * U[a, b] * T[b, i] for a in range(3) for b in range(3)) for i in range(q)]
        )

    np.testing.assert_allclose(np.diag(forms.Zx), loop_diag(model.sigma_bar_x, model.sigma_bar_x), atol=1e-12)
    np.testing.assert_allclose(
        np.diag(forms.Wx),
        loop_diag(model.sigma_bar_x, model.sigma_x) + loop_diag(model.sigma_x, model.sigma_bar_x),
        atol=1e-12,
    )
    np.testing.assert_allclose(np.diag(forms.Zu), loop_diag(model.sigma_bar_u, model.sigma_bar_u), atol=1e-12)
    np.testing.assert_allclose(
        np.diag(forms.Wu),
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
        model = support.random_model(rng, n=3, m=2)
        ops = OperatorSet(model, alpha=0.8)
        G = rng.standard_normal((2, 3))
        Acl = model.A + model.B @ G
        K = oracles.second_moment_matrix(Acl, model.sigma_bar_x, 0.8, G, model.sigma_bar_u)
        roots = rng.standard_normal((4, 3, 3))
        stack = roots @ roots.transpose(0, 2, 1)
        out = ops.second_moment_map(stack, Acl, G)
        assert out.shape == (4, 3, 3)
        for U, got in zip(stack, out):
            np.testing.assert_allclose(got, _unvec(K @ _vec(U), 3), atol=1e-12)
        np.testing.assert_array_equal(ops.second_moment_map(stack)[1], ops.lyapunov_step(stack[1]))

    def test_random_maps_match_kron_oracle(self):
        # plant and closed-loop maps, rectangular control growth (n x m), both
        # sides of a unit discount; matrix action and radius against the oracle
        rng = np.random.default_rng(31)
        for n in range(1, 7):
            for m in range(1, 4):
                model = support.random_model(rng, n=n, m=m, radius=float(rng.uniform(0.3, 1.2)),
                                             growth_scale=float(rng.uniform(0.0, 0.5)))
                G = -0.3 * rng.standard_normal((m, n))
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


class TestMonotoneAndLinear:
    """Positivity structure the solver leans on."""

    def test_linear_in_U(self, rng, scalar_model):
        model = support.random_model(rng, n=3, m=1)
        ops = OperatorSet(model, 0.9)
        U = rng.standard_normal((3, 3))
        V = rng.standard_normal((3, 3))
        U, V = U + U.T, V + V.T
        for f in (ops.lyapunov_step, lambda W: ops.noise_quadratic_forms(W).Zx):
            np.testing.assert_allclose(f(U + 2.5 * V), f(U) + 2.5 * f(V), atol=1e-11)

    def test_monotone_on_psd_order(self, rng):
        model = support.random_model(rng, n=3, m=2)
        ops = OperatorSet(model, 1.0)
        for _ in range(10):
            ru = rng.standard_normal((3, 3))
            rv = rng.standard_normal((3, 3))
            V = rv @ rv.T
            U = V + ru @ ru.T  # U >= V in the semidefinite order
            assert oracles.min_eig(ops.lyapunov_step(U) - ops.lyapunov_step(V)) >= -1e-10
            forms_U = ops.noise_quadratic_forms(U)
            forms_V = ops.noise_quadratic_forms(V)
            assert np.all(np.diag(forms_U.Zx - forms_V.Zx) >= -1e-10)
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

    def test_power_path_agrees_with_eig(self, rng):
        root = rng.standard_normal((50, 50))
        M = root @ root.T + 0.1 * np.eye(50)
        assert spectral_radius(M, method="power") == pytest.approx(
            spectral_radius(M, method="eig"), rel=1e-8
        )

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((4, 4)), method="power") == 0.0


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

    @pytest.mark.parametrize("n", [2, 4, 8])
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


def test_symmetrize_warns_on_visible_asymmetry():
    with pytest.warns(RuntimeWarning, match="asymmetry"):
        symmetrize(np.array([[0.0, 1.0], [0.0, 0.0]]))
    out = symmetrize(np.array([[1.0, 2.0], [2.0, 1.0]]))
    np.testing.assert_allclose(out, [[1.0, 2.0], [2.0, 1.0]])
