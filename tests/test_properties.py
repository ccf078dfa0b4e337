"""Property-based contracts over generated plants and matrices.

Each property runs with ``derandomize=True`` and a fixed example budget, so
tier-1 stays deterministic and takes a few seconds more.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csviu import (ControlSubproblem, MaxIterations, NoPSDSolution, OperatorSet, SeriesDivergent,
                   optimal_control, optimal_control_batch, solve_riccati, sor_solve)
from csviu.control import resolve_mu
from csviu.operators import stein_solve

import oracles
import support

LAYOUTS = {
    "C": lambda Q: Q,
    # every matrix transposed in memory: each one is Fortran-ordered
    "transposed": lambda Q: np.ascontiguousarray(Q.transpose(0, 2, 1)).transpose(0, 2, 1),
    # the stack axis fastest, the layout of an outer product of transposed factors
    "stack-fastest": np.asfortranarray,
}


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10), k=st.integers(1, 4),
       gain=st.booleans(), layout=st.sampled_from(sorted(LAYOUTS)))
def test_stacks_equal_their_one_matrix_calls(seed, n, k, gain, layout):
    """A stack (k, n, n) gives, matrix by matrix, what one-matrix calls give.

    ``stein_solve`` and ``second_moment_map`` match bit for bit in every
    layout, and ``stein_solve`` and ``lyapunov_solve`` do not depend on the
    layout at all: both copy their right-hand sides into C order, and their
    Stein stacks stay C-ordered, which keeps numpy's matmul on BLAS (on some
    machines its own loop gives the same bits, so the layout is also
    asserted).  The
    capacitance step of ``lyapunov_solve`` solves for all k right-hand
    sides at once, and LAPACK's multi-column solve and the product that
    follows sum in another order than for one column, so its single calls
    agree to rounding only.
    """
    rng = np.random.default_rng(seed)
    m = max(1, n // 3)
    model = support.random_model(rng, n=n, m=m)
    ops = OperatorSet(model, 0.95)
    G = 0.1 * rng.standard_normal((m, n)) / np.sqrt(n) if gain else None
    F = model.A + model.B @ G if gain else None
    Q = rng.standard_normal((k, n, n))
    stack = LAYOUTS[layout](Q)
    assert np.array_equal(stack, Q)
    contracting = 0.9 * model.A / max(float(np.abs(np.linalg.eigvals(model.A)).max()), 1e-300)

    def bits(a):
        return np.ascontiguousarray(a).tobytes()

    for solve in (lambda S: stein_solve(contracting, S), lambda S: ops.second_moment_map(S, F, G)):
        out = solve(stack)
        assert [bits(U) for U in out] == [bits(solve(S)) for S in stack]
    assert bits(stein_solve(contracting, stack)) == bits(stein_solve(contracting, Q))
    assert stein_solve(contracting, stack).flags.c_contiguous

    solved = ops.lyapunov_solve(stack, F, G)
    assert solved.stable  # random_model plants under a small gain keep the map stable
    assert bits(solved.U) == bits(ops.lyapunov_solve(Q, F, G).U)
    factored, U = ops._resolvent(ops.alpha, model.A if F is None else F, G, stack)
    assert factored.Y.flags.c_contiguous and U.flags.c_contiguous
    for U, S in zip(solved.U, stack):
        one = ops.lyapunov_solve(S, F, G)
        assert one.stable and one.resolvent_radius == solved.resolvent_radius
        np.testing.assert_allclose(one.U, U, rtol=0.0, atol=1e-13 * float(np.abs(U).max()))


def _assert_relative(got, want, rtol=1e-13):
    assert float(np.abs(got - want).max()) <= rtol * float(np.abs(want).max()), (got, want)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10), m=st.integers(1, 4),
       growth=st.booleans(), k=st.integers(1, 4))
def test_stacked_forms_agree_with_the_formulas(seed, n, m, growth, k):
    """The value map's step, Sigma and Lambda and the second-moment map, with and
    without a gain, all read from one stacked quadratic form, agree with their
    formulas written term by term in ``tests/oracles.py``, to 1e-13 relative to
    the largest entry, on every matrix of a stack of semidefinite U.  The
    second-moment map takes the whole stack at once; the value map takes one U.
    """
    rng = np.random.default_rng(seed)
    model = support.random_model(rng, n=n, m=m, lq=not growth)
    alpha = 0.95
    ops = OperatorSet(model, alpha)
    roots = rng.standard_normal((k, n, n))
    U = roots @ roots.transpose(0, 2, 1)
    G = 0.1 * rng.standard_normal((m, n)) / np.sqrt(n)
    Sx, Su = model.sigma_bar_x, model.sigma_bar_u
    for F, gain in ((None, None), (model.A + model.B @ G, G)):
        images = ops.second_moment_map(U, F, gain)
        for image, one in zip(images, U):
            _assert_relative(image, oracles.second_moment_image(one, model.A if F is None else F, Sx, alpha, gain, Su))
    for one in U:
        step, Sigma, Lambda = oracles.value_map_terms(model.A, model.B, model.C, model.D, Sx, Su, one, alpha)
        _assert_relative(ops.riccati_step(one), step)
        got = ops.sigma_lambda(one)
        _assert_relative(got.Sigma, Sigma)
        _assert_relative(got.Lambda, Lambda)


def _state(rng, n, kind):
    """A state of ``n`` entries: Gaussian, all +0.0, or each entry +0.0 or -0.0
    alone or among Gaussian entries."""
    signed = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    return {"random": 1.5 * rng.standard_normal(n), "zero": np.zeros(n), "signed-zeros": signed,
            "mixed": np.where(rng.random(n) < 0.5, signed, 1.5 * rng.standard_normal(n))}[kind]


def _result_arrays(result):
    return [result.u_star, result.gamma, result.mu, result.margins, result.sub.b,
            result.sor.z, result.sor.gamma, result.sor.nu, result.sor.theta]


def _failure(call):
    """(message, iterations, residual bits) of the MaxIterations ``call`` raises, None if it returns."""
    try:
        call()
    except MaxIterations as exc:
        return str(exc), exc.iterations, np.float64(exc.residual).tobytes()
    return None


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4), growth=st.sampled_from([0.1, 0.3]),
       kind=st.sampled_from(["random", "zero", "signed-zeros", "mixed"]))
def test_a_single_state_is_its_batch_of_one(seed, m, growth, kind):
    """A single state takes the single-row path of ``control._feedback``.

    For every slope input, ``optimal_control(x)``, ``optimal_control_batch(x[None])``
    and ``resolve_mu(x)`` agree bit for bit, and agree with the same row inside
    larger batches to 1e-14, the column kernel summing in another order.  A
    budget too short for a solve raises the :class:`MaxIterations` of that
    solve, as ``sor_solve`` raises it on the same stage problem.  Every
    returned array is the call's own: writing into them moves no later result.
    """
    rng = np.random.default_rng(seed)
    n = m + 1
    try:
        sol = solve_riccati(support.random_model(rng, n=n, m=m, growth_scale=growth), 0.95)
        sol.slope_gains
    except (NoPSDSolution, SeriesDivergent):  # no optimal law, or no frozen-sign slope, to test
        assume(False)
    x = _state(rng, n, kind)
    mu = 0.3 * rng.standard_normal(n)
    others = 1.5 * rng.standard_normal((2, n))
    slopes = {"zero": {"mu_kind": "zero"}, "asymptotic": {"mu_kind": "asymptotic"}, "explicit": {"mu": mu}}
    for name, slope in slopes.items():
        batch = {"Mu": np.stack([mu, 0.3 * others[0], mu])} if name == "explicit" else slope
        one = {"Mu": mu[None]} if name == "explicit" else slope
        single = optimal_control(sol, x, **slope)
        U, Mu = optimal_control_batch(sol, x[None], **one)
        assert single.u_star.tobytes() == U[0].tobytes() and single.mu.tobytes() == Mu[0].tobytes()
        assert resolve_mu(sol, x, **slope).tobytes() == Mu[0].tobytes()
        U3, Mu3 = optimal_control_batch(sol, np.stack([x, others[0], x]), **batch)
        for row in (0, 2):
            for got, want in ((U3[row], single.u_star), (Mu3[row], single.mu)):
                assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want))), (name, got, want)

        # the first stage problem the state solves; the asymptotic slope starts from sign(x)
        first = single.sub
        if name == "asymptotic":
            first = optimal_control(sol, x, mu=(np.sign(x[None]) @ sol.slope_gains[0].T)[0]).sub
        for budget in (0, 1):
            got = _failure(lambda: optimal_control(sol, x, max_iters=budget, **slope))
            assert got == _failure(lambda: optimal_control_batch(sol, x[None], max_iters=budget, **one))
            want = _failure(lambda: sor_solve(ControlSubproblem(W=first.W, b=first.b, c=first.c,
                                                                Lambda=first.Lambda), max_iters=budget))
            if want is not None or name != "asymptotic":  # a later frozen-sign solve may miss tol too
                assert got == want, (name, budget)
            elif got is not None:
                assert got[1] == budget and "on 1 of 1 rows" in got[0]

        arrays = [a.tobytes() for a in _result_arrays(single)] + [U.tobytes(), Mu.tobytes()]
        for a in _result_arrays(single) + [U, Mu]:
            a[...] = np.nan
        again = optimal_control(sol, x, **slope)
        U, Mu = optimal_control_batch(sol, x[None], **one)
        assert [a.tobytes() for a in _result_arrays(again)] + [U.tobytes(), Mu.tobytes()] == arrays
    assert not np.isnan(mu).any()  # the explicit slope was copied, never written into
