"""Optimal discrimination: frozen values, KKT invariants, oracle bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ompkit import discrimination
from ompkit.bloch import Tolerances, eigen2
from ompkit.discrimination import (
    CaseTag,
    _assemble,
    _centers,
    _min_norm_weights,
    povm_value,
    povm_weights,
    solve,
    solve_general,
    solve_two_state,
)
from ompkit.ensembles import helstrom, make_ensemble
from ompkit.errors import (
    ConvergenceFailure,
    IndexOutOfRange,
    InfeasibleCompleteness,
    WrongArity,
    WrongLength,
)
from ompkit.fileio import bundled_ensemble

from helpers import (
    enumerated_enclosing_ball,
    enumerated_min_norm_weights,
    loop_assemble,
    loop_povm_value,
    oracle_random_search,
    random_ensemble,
)

TOL = Tolerances()

SQ2 = np.sqrt(2.0)
SQ23 = np.sqrt(2.0 / 3.0)


def test_bb84_guessing_probability_and_weights():
    ens = bundled_ensemble("bb84")
    sol = solve(ens)
    assert sol.p_guess == pytest.approx(0.5, abs=1e-10)
    assert sol.identified == (0, 1, 2, 3)
    assert all(t is CaseTag.PROJECTIVE_ELEMENT for t in sol.case_tags)
    assert np.allclose(sol.povm_weights, 0.5, atol=1e-9)
    # comp axis of each state is its antipode: the dual optimizer is I/4.
    for x in range(4):
        assert np.allclose(sol.comp_axis(x), -ens.blochs[x], atol=1e-9)


def test_orthogonal_pair_is_perfectly_distinguished():
    ens = make_ensemble([(0.5, (0, 0, 1)), (0.5, (0, 0, -1))])
    sol = solve(ens)
    assert sol.p_guess == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(sol.povm_weights, 1.0, atol=1e-9)


def test_two_state_nonorthogonal_golden():
    # Equal priors, axes 90 degrees apart: 1/2 * (1 + sin(pi/2)/sqrt(2)).
    ens = make_ensemble([(0.5, (0, 0, 1)), (0.5, (1, 0, 0))])
    sol = solve(ens)
    assert sol.p_guess == pytest.approx(0.5 * (1 + 1 / SQ2), abs=1e-12)


def test_three_mubs_guessing_probability():
    sol = solve(bundled_ensemble("three_mubs"))
    assert sol.p_guess == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert np.allclose(sol.povm_weights, 1.0 / 3.0, atol=1e-9)


def test_sic_guessing_probability():
    sol = solve(bundled_ensemble("sic"))
    assert sol.p_guess == pytest.approx(0.5, abs=1e-10)
    assert np.allclose(sol.povm_weights, 0.5, atol=1e-9)


def test_unequal3_frozen_solution():
    sol = solve(bundled_ensemble("unequal3"))
    assert sol.p_guess == pytest.approx(0.5846519612315915, abs=1e-10)
    axes = np.array(
        [
            [-0.796, 0.385, -0.466],
            [0.605, -0.713, 0.354],
            [0.304, 0.936, 0.178],
        ]
    )
    for x in range(3):
        assert np.allclose(sol.comp_axis(x), axes[x], atol=1e-3)


def test_dominant_state_blind_guessing():
    # One weighted state dominates the other, so guessing it is optimal.
    ens = make_ensemble([(0.9, (0, 0, 0.7)), (0.1, (0, 0, 1))])
    sol = solve(ens)
    assert sol.p_guess == pytest.approx(0.9, abs=1e-10)
    assert sol.case_tags[0] is CaseTag.NO_MEASUREMENT
    assert sol.case_tags[1] is CaseTag.NEVER_IDENTIFIED
    assert sol.identified == ()
    assert np.allclose(sol.povm_weights, 0.0)
    assert povm_value(ens, sol) == pytest.approx(0.9, abs=1e-12)


def test_blind_guess_value_is_first_no_measurement_prior():
    # two maximally mixed states whose priors differ by 2e-10 < psd_tol:
    # both are NO_MEASUREMENT, and the value is the prior of the first
    ens = make_ensemble([(0.5 + 1e-10, (0, 0, 0)), (0.5 - 1e-10, (0, 0, 0))])
    sol = solve(ens)
    assert sol.case_tags == (CaseTag.NO_MEASUREMENT,) * 2
    assert ens.priors[0] != ens.priors[1]
    assert povm_value(ens, sol) == ens.priors[0]
    assert povm_value(ens, sol) == loop_povm_value(ens, sol)


def _assert_kkt(ens, sol, tol=1e-10):
    # Dual feasibility: K - q_x rho_x is psd for every state.
    k = sol.symmetry_op
    for x in range(ens.n):
        gap_alpha = k.alpha - 0.5 * ens.priors[x]
        gap_beta = k.beta - 0.5 * ens.priors[x] * ens.blochs[x]
        low = gap_alpha - np.linalg.norm(gap_beta)
        assert low >= -tol
    assert abs(sol.p_guess - k.trace) <= tol
    # Congruence: pairwise Helstrom operators decompose over the gaps.
    for x in sol.identified:
        for y in sol.identified:
            if x == y:
                continue
            h = helstrom(ens, x, y)
            want = sol.gaps[y] * sol.comp_axis(y) - sol.gaps[x] * sol.comp_axis(x)
            assert abs(h.op.alpha - 0.5 * (ens.priors[x] - ens.priors[y])) <= 1e-12
            assert np.allclose(h.op.beta, 0.5 * want, atol=1e-8)


def test_invariants_on_random_ensembles():
    rng = np.random.default_rng(3)
    for _ in range(200):
        ens = random_ensemble(rng, int(rng.integers(2, 6)))
        sol = solve(ens)
        _assert_kkt(ens, sol)
        w = sol.povm_weights
        assert np.all(w >= -1e-10) and np.all(w <= 1 + 1e-10)
        if sol.identified:
            axes = np.array([sol.comp_axis(x) for x in sol.identified])
            ww = w[list(sol.identified)]
            # Completeness: the weighted projectors resolve the identity.
            assert abs(ww.sum() - 2.0) <= 1e-8
            assert np.allclose(ww @ axes, 0.0, atol=1e-8)
        # Each element annihilates its own complementary state.
        assert povm_value(ens, sol) == pytest.approx(sol.p_guess, abs=1e-8)


def test_two_state_solvers_agree():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        ens = random_ensemble(rng, 2)
        a = solve_general(ens)
        b = solve_two_state(ens)
        assert abs(a.p_guess - b.p_guess) <= 1e-8


def test_oracle_never_beats_the_optimum():
    rng = np.random.default_rng(5)
    for _ in range(100):
        ens = random_ensemble(rng, int(rng.integers(2, 6)))
        sol = solve(ens)
        best = oracle_random_search(ens, samples=2000, seed=int(rng.integers(1 << 30)))
        assert best <= sol.p_guess + 1e-8


def test_alternative_measurements_on_bb84():
    ens = bundled_ensemble("bb84")
    sol = solve(ens)
    for pair in [(0, 1), (2, 3)]:
        w = povm_weights(ens, sol, index_set=pair)
        assert np.allclose(w[list(pair)], 1.0, atol=1e-9)
        assert povm_value(ens, sol, weights=w) == pytest.approx(0.5, abs=1e-10)
    # Non-antipodal supports cannot resolve the identity with two elements.
    with pytest.raises(InfeasibleCompleteness):
        povm_weights(ens, sol, index_set=(0, 2))
    with pytest.raises(InfeasibleCompleteness):
        povm_weights(ens, sol, index_set=())


def test_unidentified_support_rejected():
    ens = make_ensemble([(0.9, (0, 0, 0.7)), (0.1, (0, 0, 1))])
    sol = solve(ens)
    with pytest.raises(InfeasibleCompleteness):
        povm_weights(ens, sol, index_set=(1,))


def test_two_state_solver_rejects_other_arities():
    with pytest.raises(WrongArity):
        solve_two_state(bundled_ensemble("sic"))


def test_povm_value_rejects_bad_weight_vector():
    ens = bundled_ensemble("bb84")
    sol = solve(ens)
    with pytest.raises(WrongLength):
        povm_value(ens, sol, weights=np.ones(3))


def test_symmetry_op_is_positive():
    sol = solve(bundled_ensemble("unequal3"))
    lo, _hi, _axis = eigen2(sol.symmetry_op)
    assert lo >= -1e-12


def test_uncertified_pivot_states_its_margin(monkeypatch):
    monkeypatch.setattr(discrimination, "_pivot", lambda *args: None)
    with pytest.raises(ConvergenceFailure, match=r"after 0 pivots; .* exceeds it by \d"):
        solve(bundled_ensemble("bb84"))


def test_repeated_index_rejected():
    # (0, 0, 1) once completed to weights [0.5, 1, 0, 0]: sum 1.5, value 0.375
    ens = bundled_ensemble("bb84")
    sol = solve(ens)
    with pytest.raises(InfeasibleCompleteness, match=r"\[0\]"):
        povm_weights(ens, sol, index_set=(0, 0, 1))


@pytest.mark.parametrize("k", [17, 20, 24])
@pytest.mark.parametrize("radius", [1.0, 0.6])
def test_regular_polygons_beyond_sixteen_states(k, radius):
    # a regular k-gon on a tilted great circle identifies every state, and
    # the symmetric measurement weights each one equally
    u = np.array([1.0, 2.0, 2.0]) / 3.0
    w = np.array([2.0, 1.0, -2.0]) / 3.0
    th = 2.0 * np.pi * np.arange(k) / k
    vecs = radius * (np.cos(th)[:, None] * u + np.sin(th)[:, None] * w)
    ens = make_ensemble([(1.0 / k, v) for v in vecs])
    sol = solve(ens)
    assert sol.identified == tuple(range(k))
    assert np.allclose(sol.povm_weights, 2.0 / k, rtol=0.0, atol=1e-12)
    assert povm_value(ens, sol) == pytest.approx(sol.p_guess, abs=1e-12)


@pytest.mark.parametrize("k", [13, 15, 17])
def test_odd_regular_polygons(k):
    # no antipodal pair, so every basis of the optimum holds three of the
    # k states, all of which bind
    th = 2.0 * np.pi * np.arange(k) / k
    ens = make_ensemble([(1.0 / k, [np.cos(t), np.sin(t), 0.0]) for t in th])
    assert solve(ens).p_guess == pytest.approx(2.0 / k, abs=1e-12)


def test_ten_thousand_states_certify():
    ens = random_ensemble(np.random.default_rng(10), 10_000)
    sol = solve(ens)
    _assert_kkt(ens, sol)
    assert abs(povm_value(ens, sol) - sol.p_guess) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    raises=InfeasibleCompleteness,
    reason="ROADMAP item 1: tiny-prior pair, least residual 1.113e-08 > match_tol",
)
def test_tiny_prior_pair_solves():
    # the dominant state's gap sits just above psd_tol and its complementary
    # axis comes from a cancelling difference, so no completeness weights
    # pass match_tol; a valid two-state ensemble must solve all the same
    ens = make_ensemble(
        [
            (1e-8, np.array([-3.0, 2.0, -2.0]) / np.sqrt(17.0)),
            (1.0 - 1e-8, np.array([1.0, -3.0, -4.0]) / np.sqrt(26.0)),
        ]
    )
    sol = solve(ens)
    _assert_kkt(ens, sol)
    assert abs(povm_value(ens, sol) - sol.p_guess) <= 1e-12


def test_out_of_range_measurement_index_rejected():
    ens = bundled_ensemble("bb84")
    sol = solve(ens)
    for index_set in ((0, 9), (0, -1), (1, -3)):
        with pytest.raises(IndexOutOfRange) as err:
            povm_weights(ens, sol, index_set)
        assert f"{index_set[1]} not in [0, 4)" in str(err.value)
    # numpy would truncate these to a valid index
    for index_set in ((0, 1.5), (0, 1.0), ("0", 1)):
        with pytest.raises(IndexOutOfRange, match="is not an integer"):
            povm_weights(ens, sol, index_set)


def test_thousand_states_with_many_near_active():
    # 38 states come within 1e-3 of binding at the optimum, so a search over
    # the active subsets among them tries C(38, <= 4), some 80,000 subsets
    ens = random_ensemble(np.random.default_rng(232), 1000)
    sol = solve(ens)
    _assert_kkt(ens, sol)
    assert povm_value(ens, sol) == pytest.approx(sol.p_guess, abs=1e-12)


# Integer directions: exact duplicates, antipodes and coplanar triples are
# common, while distinct directions stay well separated, so the two
# methods must agree to roundoff.
_direction = st.tuples(*[st.integers(-4, 4)] * 3).filter(any)


def _units(vectors):
    a = np.array(vectors, dtype=float).reshape(-1, 3)
    return a / np.linalg.norm(a, axis=1, keepdims=True)


@st.composite
def axis_sets(draw):
    """At most ten unit axes in the shapes that stress the weight search."""
    kind = draw(
        st.sampled_from(
            ["random", "coplanar", "duplicated", "antipodal", "single", "hemisphere"]
        )
    )
    if kind == "single":
        return _units([draw(_direction)])
    if kind == "coplanar":
        u = _units([draw(_direction)])[0]
        other = draw(_direction.filter(lambda v: np.linalg.norm(np.cross(u, v)) > 0.5))
        w = _units([np.cross(u, other)])[0]
        steps = np.array(draw(st.lists(st.integers(0, 23), min_size=1, max_size=10)))
        th = steps * np.pi / 12.0
        return np.cos(th)[:, None] * u + np.sin(th)[:, None] * w
    if kind == "hemisphere":
        # every axis strictly on one side of a plane: no completion exists
        normal = _units([draw(_direction)])[0]
        axes = _units(draw(st.lists(_direction, min_size=1, max_size=10)))
        axes = axes * np.where(axes @ normal < 0.0, -1.0, 1.0)[:, None]
        return _units(axes + 0.1 * normal)
    if kind == "random":
        return _units(draw(st.lists(_direction, min_size=1, max_size=10)))
    base = _units(draw(st.lists(_direction, min_size=1, max_size=5)))
    if kind == "duplicated":
        picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=10))
        return base[picks]
    flips = draw(st.lists(st.booleans(), min_size=len(base), max_size=len(base)))
    return np.vstack([base, -base[flips]])


@settings(max_examples=150, deadline=None)
@given(axis_sets())
def test_min_norm_weights_match_enumeration(axes):
    try:
        want = enumerated_min_norm_weights(axes, TOL)
    except InfeasibleCompleteness:
        with pytest.raises(InfeasibleCompleteness):
            _min_norm_weights(axes, TOL)
        return
    got = _min_norm_weights(axes, TOL)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize(
    "vectors",
    [
        # a pair 1e-5 rad from antipodal beside an exact antipodal pair
        [[1, -1e-5, 0], [0, 0, 1], [0, -1, 0], [0, -0.998052578, -0.0623782862],
         [-1, 0, 0], [0, 0.998052578, 0.0623782862]],
        # an antipodal pair tilted 1e-5 rad off a further axis
        [[0, 0, 1], [1, 0, 0], [0, 1e-5, 1], [0, -1e-5, -1]],
        [[0, 0, 1], [0, 0, 1], [0, 1e-5, 1], [0, -1e-5, -1]],
        # two antipodal pairs share the weight: |w|^2 is 1, not 2
        [[0, -1, 2], [0, 0, 1], [1, 0, -1], [1, -3, 1], [0, 2, -1], [-1, 0, 1],
         [0, -2, 1]],
        # one antipodal pair is optimal, the other axes in a half-plane
        # around it: the multipliers of a rank-2 support are not unique
        [[1, 0, 0], [-1, 2, 0], [0, 1, 0], [0, -1, -1], [-1, 1, -2], [-1, 1, 0],
         [2, -1, -1], [1, 2, 1], [2, 2, 1], [-1, 0, 0]],
    ],
)
def test_min_norm_weights_degenerate_axes(vectors):
    # ill-conditioned or rank-deficient supports, on which a pivoting method
    # can stop short, cycle or clip a weight
    axes = _units(vectors)
    got = _min_norm_weights(axes, TOL)
    want = enumerated_min_norm_weights(axes, TOL)
    assert np.max(np.abs(got - want)) <= 1e-12


_KINDS = (
    "random",
    "duplicated",
    "cocircular",
    "antipodal",
    "tiny_prior",
    "mixed_member",
    "dominant_prior",
)


@st.composite
def degenerate_ensembles(draw):
    """At most eight states in the shapes that stress the enclosing ball."""
    kind = draw(st.sampled_from(_KINDS))
    n = draw(st.integers(3, 8))
    counts = np.array(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)))
    priors = counts / counts.sum()
    if kind == "cocircular":
        u = _units([draw(_direction)])[0]
        other = draw(_direction.filter(lambda v: np.linalg.norm(np.cross(u, v)) > 0.5))
        w = _units([np.cross(u, other)])[0]
        height = draw(st.sampled_from([0.0, 0.3, -0.6]))
        steps = np.array(draw(st.lists(st.integers(0, 23), min_size=n, max_size=n)))
        th = steps * np.pi / 12.0
        blochs = height * np.cross(u, w) + np.sqrt(1.0 - height**2) * (
            np.cos(th)[:, None] * u + np.sin(th)[:, None] * w
        )
    elif kind == "random":
        triple = st.tuples(*[st.floats(-1.0, 1.0)] * 3)
        vecs = draw(st.lists(triple.filter(lambda v: np.linalg.norm(v) > 0.1),
                             min_size=n, max_size=n))
        radii = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n)))
        blochs = _units(vecs) * radii[:, None]
    else:
        blochs = _units(draw(st.lists(_direction, min_size=n, max_size=n)))
    if kind == "duplicated":
        blochs[-1] = blochs[0]
    elif kind == "antipodal":
        # the pair is 1e-7 rad from antipodal
        other = draw(_direction.filter(lambda v: np.linalg.norm(np.cross(blochs[0], v)) > 0.5))
        tilt = _units([np.cross(blochs[0], other)])[0]
        blochs[1] = -(np.cos(1e-7) * blochs[0] + np.sin(1e-7) * tilt)
    elif kind == "tiny_prior":
        priors = np.concatenate([[1e-7], (1.0 - 1e-7) * counts[1:] / counts[1:].sum()])
    elif kind == "mixed_member":
        blochs[0] = 0.0
    elif kind == "dominant_prior":
        priors = np.concatenate([[0.9], 0.1 * counts[1:] / counts[1:].sum()])
    return make_ensemble(list(zip(priors, blochs)))


@settings(max_examples=150, deadline=None)
@given(degenerate_ensembles())
def test_enclosing_ball_matches_enumeration(ens):
    try:
        ball = enumerated_enclosing_ball(ens)
    except ConvergenceFailure:
        # beyond the absolute certification tolerances: the ball of a pure
        # state holds every ball but one of prior ~1e-7 poking out by ~1e-8,
        # so the center lies ~1e-8 from its own and its direction, hence the
        # multipliers, are good to only ~1e-9; both searches must say so
        with pytest.raises(ConvergenceFailure):
            solve_general(ens)
        return
    want = _assemble(ens, *_centers(ens), *ball, TOL)
    got = solve_general(ens)
    assert abs(got.p_guess - want.p_guess) <= 1e-12
    assert got.identified == want.identified


def _assert_matches_loop(ens, sol):
    gaps, comp, tags, identified = loop_assemble(
        ens, sol.symmetry_op.alpha, sol.symmetry_op.beta, TOL
    )
    assert sol.gaps.tobytes() == gaps.tobytes()
    assert sol.comp_states.tobytes() == comp.tobytes()
    assert sol.case_tags == tags
    assert sol.identified == identified
    # cli.cmd_solve hands these to json.dumps
    assert all(type(x) is int for x in sol.identified)
    assert all(isinstance(t, CaseTag) for t in sol.case_tags)
    assert abs(povm_value(ens, sol) - loop_povm_value(ens, sol)) <= 1e-15


@settings(max_examples=100, deadline=None)
@given(degenerate_ensembles())
def test_assembly_matches_loop_on_degenerate_ensembles(ens):
    try:
        sol = solve(ens)
    except ConvergenceFailure:
        # the tiny-prior certification gap, covered by the enumeration test
        return
    _assert_matches_loop(ens, sol)


@st.composite
def large_ensembles(draw):
    """Up to 2,000 states: random, one dominant prior, or one maximally
    mixed member."""
    kind = draw(st.sampled_from(["random", "dominant_prior", "mixed_member"]))
    n = draw(st.integers(2, 2000))
    ens = random_ensemble(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    priors, blochs = ens.priors.copy(), ens.blochs.copy()
    if kind == "dominant_prior":
        # the ball of a prior-0.9 state of Bloch norm 0.5 holds every other
        # ball, so guessing it is optimal
        priors = np.concatenate([[0.9], 0.1 * priors[1:] / priors[1:].sum()])
        blochs[0] *= 0.5 / np.linalg.norm(blochs[0])
    elif kind == "mixed_member":
        blochs[0] = 0.0
    return make_ensemble(list(zip(priors, blochs)))


@settings(max_examples=60, deadline=None)
@given(large_ensembles())
def test_assembly_matches_loop_on_large_ensembles(ens):
    _assert_matches_loop(ens, solve(ens))
