"""Property-based contracts over generated plants and matrices.

Each property runs with ``derandomize=True`` and a fixed example budget, so
tier-1 stays deterministic and takes under two seconds more.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from csviu import OperatorSet
from csviu.operators import stein_solve

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
