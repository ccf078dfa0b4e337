"""Property-based contracts over generated plants and matrices.

Each property runs with ``derandomize=True`` and a fixed example budget, so
tier-1 stays deterministic and takes a few seconds more.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from csviu import OperatorSet
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
