"""Bloch-form algebra against dense linear-algebra oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ompkit import (
    BadParameter,
    BlochOutOfBall,
    Herm2,
    Tolerances,
    WrongLength,
    eigen2,
    herm2_from_state,
    matrix_rank,
    nullspace,
    pinv,
    trace_norm,
)

SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def dense(op: Herm2) -> np.ndarray:
    return op.alpha * np.eye(2, dtype=complex) + sum(
        op.beta[k] * SIGMA[k] for k in range(3)
    )


finite = st.floats(-10.0, 10.0, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(finite, finite, finite, finite)
# |beta|^2 underflows: the axis came out 4.5e-7 short of unit length, or
# sqrt(2) long for two subnormal components
@example(0.0, 0.0, 0.0, 1.0952332916077822e-159)
@example(0.0, 0.0, 5e-324, 5e-324)
def test_eigen2_matches_dense_oracle(alpha, bx, by, bz):
    op = Herm2(alpha, (bx, by, bz))
    lo, hi, axis = eigen2(op)
    want = np.linalg.eigvalsh(dense(op))
    assert abs(lo - want[0]) <= 1e-12 * max(1.0, abs(want[0]))
    assert abs(hi - want[1]) <= 1e-12 * max(1.0, abs(want[1]))
    assert abs(np.linalg.norm(axis) - 1.0) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(finite, finite, finite, finite)
def test_trace_norm_matches_dense_oracle(alpha, bx, by, bz):
    op = Herm2(alpha, (bx, by, bz))
    want = float(np.sum(np.abs(np.linalg.eigvalsh(dense(op)))))
    assert abs(trace_norm(op) - want) <= 1e-11 * max(1.0, want)


def test_eigen2_axis_points_at_top_eigenvector():
    op = Herm2(0.3, (0.1, -0.4, 0.2))
    lo, hi, axis = eigen2(op)
    top_state = dense(herm2_from_state(axis))
    # projector onto the top eigenvector reproduces hi
    got = np.trace(dense(op) @ top_state).real
    assert abs(got - hi) <= 1e-12


def test_eigen2_zero_beta_default_axis():
    lo, hi, axis = eigen2(Herm2(1.0, (0.0, 0.0, 0.0)))
    assert lo == hi == 1.0
    assert np.array_equal(axis, [0.0, 0.0, 1.0])


def test_herm2_arithmetic():
    a = Herm2(1.0, (1.0, 0.0, 0.0))
    b = Herm2(0.5, (0.0, 2.0, 0.0))
    assert (a + b).alpha == 1.5
    assert np.array_equal((a - b).beta, [1.0, -2.0, 0.0])
    assert (-a).alpha == -1.0
    assert (2.0 * a).trace == 4.0


def test_state_constructor_validates_ball():
    herm2_from_state((0.6, 0.0, 0.8))
    with pytest.raises(BlochOutOfBall):
        herm2_from_state((0.8, 0.0, 0.8))


def test_state_has_unit_trace_and_positive_spectrum():
    rho = herm2_from_state((0.3, -0.2, 0.5))
    assert rho.trace == 1.0
    lo, hi, _ = eigen2(rho)
    assert lo >= 0.0 and hi <= 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.randoms(use_true_random=False))
def test_pinv_satisfies_penrose_identities(rows, cols, rnd):
    rng = np.random.default_rng(rnd.getrandbits(32))
    m = rng.normal(size=(rows, cols))
    p = pinv(m)
    assert np.allclose(m @ p @ m, m, atol=1e-10)
    assert np.allclose(p @ m @ p, p, atol=1e-10)
    assert np.allclose((m @ p).T, m @ p, atol=1e-10)
    assert np.allclose((p @ m).T, p @ m, atol=1e-10)


def test_pinv_respects_rank_cutoff():
    # second singular value far below the relative cutoff is treated as zero
    m = np.diag([1.0, 1e-15])
    p = pinv(m)
    assert np.allclose(p, np.diag([1.0, 0.0]))


def test_nullspace_shape_and_kernel():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(2, 5))
    basis = nullspace(m)
    assert basis.shape == (5, 3)
    assert np.allclose(m @ basis, 0.0, atol=1e-12)
    assert np.allclose(basis.T @ basis, np.eye(3), atol=1e-12)
    assert matrix_rank(m) == 2


def test_bloch_vector_must_have_three_entries():
    with pytest.raises(WrongLength, match=r"shape \(2,\)"):
        Herm2(0.5, [1, 2])
    with pytest.raises(WrongLength):
        herm2_from_state([0.0, 1.0])


def test_nullspace_of_zero_matrix_is_everything():
    basis = nullspace(np.zeros((2, 4)))
    assert basis.shape == (4, 4)
    assert np.allclose(basis.T @ basis, np.eye(4), atol=1e-12)


def test_tolerances_must_be_positive():
    with pytest.raises(BadParameter, match=r"psd_tol .* got 0\.0"):
        Tolerances(psd_tol=0.0)
    for name in ("psd_tol", "rank_tol", "match_tol"):
        with pytest.raises(BadParameter, match=rf"{name} .* got nan"):
            Tolerances(**{name: float("nan")})
    custom = Tolerances(psd_tol=1e-7, rank_tol=1e-8, match_tol=1e-6)
    assert custom.match_tol == 1e-6
