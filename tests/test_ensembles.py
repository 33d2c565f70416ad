"""Ensemble validation, pair operators, and reduction covariance."""

import math

import numpy as np
import pytest

from ompkit import (
    BadPriors,
    BlochOutOfBall,
    CaseTag,
    IndexOutOfRange,
    TooFewStates,
    bundled_ensemble,
    helstrom,
    make_ensemble,
    reduce_unidentified,
    solve,
)


def test_make_ensemble_validates_arity():
    with pytest.raises(TooFewStates):
        make_ensemble([(1.0, (0, 0, 1))])


def test_make_ensemble_validates_priors():
    with pytest.raises(BadPriors):
        make_ensemble([(0.7, (0, 0, 1)), (0.5, (0, 0, -1))])
    with pytest.raises(BadPriors):
        make_ensemble([(1.2, (0, 0, 1)), (-0.2, (0, 0, -1))])
    # NaN compares false, so a test for a bad prior once passed it
    with pytest.raises(BadPriors):
        make_ensemble([(float("nan"), (0, 0, 1)), (0.5, (0, 0, -1))])


def test_make_ensemble_renormalizes_tiny_drift():
    ens = make_ensemble([(0.5 + 2e-10, (0, 0, 1)), (0.5, (0, 0, -1))])
    assert abs(ens.priors.sum() - 1.0) <= 1e-15


def test_make_ensemble_validates_ball():
    with pytest.raises(BlochOutOfBall):
        make_ensemble([(0.5, (0, 0, 1.1)), (0.5, (0, 0, -1))])
    with pytest.raises(BlochOutOfBall, match="state 1 has Bloch norm nan"):
        make_ensemble([(0.5, (0, 0, 1)), (0.5, (0, float("nan"), 0))])


def test_ensemble_is_immutable():
    ens = make_ensemble([(0.5, (0, 0, 1)), (0.5, (0, 0, -1))])
    with pytest.raises(ValueError):
        ens.priors[0] = 0.9
    with pytest.raises(ValueError):
        ens.blochs[0, 0] = 0.5


def test_state_density_operator():
    ens = make_ensemble([(0.5, (0.3, 0, 0.4)), (0.5, (0, 0, -1))])
    rho = ens.state(0)
    assert rho.trace == 1.0
    assert np.allclose(rho.beta, [0.15, 0.0, 0.2])


def test_helstrom_bb84_pair_golden():
    pair = helstrom(bundled_ensemble("bb84"), 0, 1)
    assert np.allclose(pair.vec, [0.0, 0.0, 0.5], atol=1e-15)
    assert pair.op.alpha == 0.0
    assert np.allclose(pair.op.beta, [0.0, 0.0, 0.25], atol=1e-15)


def test_helstrom_unequal_pair_golden():
    pair = helstrom(bundled_ensemble("unequal3"), 0, 1)
    want = [(1 + math.sqrt(2)) / 8, -math.sqrt(3) / 8, 1 / (4 * math.sqrt(2))]
    assert np.allclose(pair.vec, want, atol=1e-15)


def test_helstrom_antisymmetry_and_triple_identity():
    ens = bundled_ensemble("unequal3")
    for x in range(3):
        for y in range(3):
            if x == y:
                continue
            assert np.array_equal(helstrom(ens, x, y).vec, -helstrom(ens, y, x).vec)
    total = helstrom(ens, 0, 1).vec + helstrom(ens, 1, 2).vec
    assert np.allclose(total, helstrom(ens, 0, 2).vec, atol=1e-16)


def test_helstrom_index_bounds():
    ens = bundled_ensemble("bb84")
    with pytest.raises(IndexOutOfRange):
        helstrom(ens, 0, 4)
    with pytest.raises(IndexOutOfRange, match=r"state index -1 not in \[0, 4\)"):
        helstrom(ens, 0, -1)
    # numpy would truncate 1.5 and reject "0" with a bare error
    for x, y in ((1.5, 0), ("0", 1)):
        with pytest.raises(IndexOutOfRange, match="is not an integer"):
            helstrom(ens, x, y)


def test_reduce_validates():
    ens = bundled_ensemble("bb84")
    with pytest.raises(IndexOutOfRange):
        reduce_unidentified(ens, 9)
    # 1.5 once dropped no state and returned the whole ensemble
    with pytest.raises(IndexOutOfRange, match="is not an integer"):
        reduce_unidentified(ens, 1.5)
    pair = bundled_ensemble("one_basis")
    with pytest.raises(TooFewStates):
        reduce_unidentified(pair, 0)


def test_reduce_rescaling_covariance():
    # a weak interior state is never identified; dropping it rescales the
    # solution by the retained weight instead of changing it
    ens = make_ensemble(
        [
            (0.45, (0.0, 0.0, 1.0)),
            (0.30, (0.95, 0.0, 0.0)),
            (0.20, (-0.7, 0.6, 0.0)),
            (0.05, (0.05, 0.05, 0.0)),
        ]
    )
    sol = solve(ens)
    assert sol.case_tags[3] is CaseTag.NEVER_IDENTIFIED
    reduced, r = reduce_unidentified(ens, 3)
    assert abs(r - 0.95) <= 1e-15
    sub = solve(reduced)
    assert abs(sub.p_guess - sol.p_guess / r) <= 1e-10
    assert abs(sub.symmetry_op.alpha - sol.symmetry_op.alpha / r) <= 1e-10
    assert np.allclose(sub.symmetry_op.beta, sol.symmetry_op.beta / r, atol=1e-10)
    assert np.allclose(sub.gaps, sol.gaps[:3] / r, atol=1e-10)
