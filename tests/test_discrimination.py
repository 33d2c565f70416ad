"""Optimal discrimination: frozen values, KKT invariants, oracle bounds."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ompkit import discrimination
from ompkit.bloch import Tolerances, eigen2
from ompkit.channels import (
    QubitChannel,
    choi_min_eigenvalues,
    depolarizing_channel,
    unitary_channel,
)
from ompkit.discrimination import (
    _FEAS_SLACK,
    CaseTag,
    _centers,
    _certify_subset,
    _dual_newton,
    _enclosing_ball,
    _min_norm_weights,
    _pair_ball,
    povm_value,
    povm_weights,
    solve,
    solve_two_state,
)
from ompkit.ensembles import helstrom, make_ensemble
from ompkit.errors import (
    BadParameter,
    ConvergenceFailure,
    IndexOutOfRange,
    InfeasibleCompleteness,
    OmpkitError,
    PairSetTooSmall,
    WrongArity,
    WrongLength,
)
from ompkit.fileio import bundled_ensemble
from ompkit.omp_check import _mapped_ensemble, check_omp, check_unitary
from ompkit.omp_construct import DELTA_COORD, build_system, family_for, unpack

from helpers import (
    NO_MEASUREMENT_COPIES,
    decimal_pair_ball,
    enumerated_enclosing_ball,
    enumerated_min_norm_weights,
    loop_assemble,
    loop_povm_value,
    lstsq_certify_subset,
    mapped_ensemble,
    oracle_random_search,
    random_cptp_channel,
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
    # the Helstrom formula p = (1 + |q0 rho0 - q1 rho1|_1) / 2, whose trace
    # norm is the larger of |q0 - q1| and |q0 v0 - q1 v1|
    rng = np.random.default_rng(11)
    for _ in range(1000):
        ens = random_ensemble(rng, 2)
        (q0, q1), (v0, v1) = ens.priors, ens.blochs
        want = 0.5 * (1.0 + max(abs(q0 - q1), np.linalg.norm(q0 * v0 - q1 * v1)))
        assert abs(solve_two_state(ens).p_guess - want) <= 1e-12


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_povm_value_rejects_non_finite_weight(bad):
    # a nan weight once gave a nan value
    ens = bundled_ensemble("bb84")
    sol = solve(ens)
    weights = sol.povm_weights.copy()
    weights[2] = bad
    with pytest.raises(BadParameter, match=rf"weight {bad!r} of state 2 is not finite"):
        povm_value(ens, sol, weights=weights)


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


def _regular_gon(k):
    """Equal priors on a regular k-gon of pure states in the xy-plane."""
    th = 2.0 * np.pi * np.arange(k) / k
    return make_ensemble([(1.0 / k, [np.cos(t), np.sin(t), 0.0]) for t in th])


@pytest.mark.parametrize("k", [13, 15, 17])
def test_odd_regular_polygons(k):
    # no antipodal pair, so every basis of the optimum holds three of the
    # k states, all of which bind
    assert solve(_regular_gon(k)).p_guess == pytest.approx(2.0 / k, abs=1e-12)


def test_ten_thousand_states_certify():
    ens = random_ensemble(np.random.default_rng(10), 10_000)
    sol = solve(ens)
    _assert_kkt(ens, sol)
    assert abs(povm_value(ens, sol) - sol.p_guess) <= 1e-12


_COMPLETENESS_EDGE = [
    (1e-7, np.array([0.0, -1.0, -1.0]) / SQ2),
    (0.6666666, np.array([0.0, -2.0, -1.0]) / np.sqrt(5.0)),
    (0.3333333, np.array([0.0, -2.0, -1.0]) / np.sqrt(5.0)),
]


@pytest.mark.parametrize(
    "states",
    [
        pytest.param(
            # the dominant state's gap sits just above psd_tol, and y - c
            # of that state is a difference of close points
            [
                (1e-8, np.array([-3.0, 2.0, -2.0]) / np.sqrt(17.0)),
                (1.0 - 1e-8, np.array([1.0, -3.0, -4.0]) / np.sqrt(26.0)),
            ],
            id="two_states",
        ),
        # the exact ball of the basis pair (0, 1), f = 0.3333333012829177
        pytest.param(_COMPLETENESS_EDGE, id="copies"),
    ],
)
def test_tiny_prior_pair_solves(states):
    # axes taken as y - c missed match_tol in the completeness weights by
    # 1.1e-8; taken along the pair's line of centers they are antipodal
    ens = make_ensemble(states)
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
            ["random", "coplanar", "duplicated", "antipodal", "single", "hemisphere",
             "balanced"]
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
    if kind == "balanced":
        # up to seven axes and the negations of three of them: a completion
        # always exists, but the row-space solution is often negative, so
        # the least-norm phase does the work
        base = _units(draw(st.lists(_direction, min_size=1, max_size=7)))
        picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=3, max_size=3))
        return np.vstack([base, -base[picks]])
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
        # a pivoting method must drop a weight it took on: without that it
        # stops at (0, 0, 1, 0, 0, 0, 1, 0), 0.569 from the optimum
        [[2, 0, -4], [2, -1, 0], [-3, 0, -4], [-3, -4, -1], [2, -3, 2], [4, -1, 3],
         [3, 0, 4], [-3, 0, -3]],
        # supports whose a_S a_S^T has a condition number near 1e11: a pair
        # antipodal to 9e-11, and one to 7.7e-6, where a Newton loop that
        # waits for an absolute 1e-12 gradient floor never settles
        [[-0.6666666667, 0.3333333333, 0.6666666667],
         [0.8728715609, -0.4364357806, 0.2182178902],
         [-0.8728715609, 0.4364357805, -0.2182178902],
         [0.4364357805, -0.8728715609, -0.2182178902],
         [-0.4364357804, 0.872871561, 0.2182178903]],
        [[0.5773502692, 0.5773502692, 0.5773502692], [-0.894427191, 0.0, 0.4472135955],
         [0.8017837257, 0.2672612419, -0.5345224838],
         [0.333322566, -0.6666698738, 0.6666688431],
         [-0.3333333333, 0.6666666667, -0.6666666667],
         [0.8944300087, 4.4772e-06, -0.44720796]],
        # nine scattered axes on which full Newton steps revisit a support
        # that is not optimal (the closing walk then misses the system by
        # 1.8e-3): the Armijo backtracking is what settles it
        [[0.198744071, -0.6888493899, 0.6971279023], [0.5169909532, -0.1194707412, -0.8476125862],
         [0.6694748736, -0.6156718419, -0.4156339457], [0.8640453433, -0.0628360492, 0.4994770022],
         [0.7129073148, -0.6859519405, 0.145715805], [-0.3817840966, -0.6180495427, -0.6872086046],
         [0.32533282, 0.6015051524, 0.7296232643], [-0.4229823071, -0.6032870742, -0.6761143941],
         [0.8158036784, 0.4932075528, 0.3020110399]],
        # an axis and its copy an ulp off, beside an antipodal pair: two
        # supports swap a zero weight back and forth at roundoff, so a loop
        # that compares only consecutive supports never settles
        [[0.0, -0.5547001962252291, -0.8320502943378437],
         [-0.5773502691896257, -0.5773502691896257, 0.5773502691896257],
         [0.9701425001453319, 0.0, -0.24253562503633297],
         [0.42640143271122083, 0.6396021490668313, -0.6396021490668313],
         [-0.5773502691896258, -0.5773502691896258, 0.5773502691896258],
         [-0.9701425001453319, -0.0, 0.24253562503633297]],
    ],
)
def test_min_norm_weights_degenerate_axes(vectors):
    # ill-conditioned or rank-deficient supports, on which a pivoting method
    # can stop short, cycle or clip a weight
    axes = _units(vectors)
    got = _min_norm_weights(axes, TOL)
    want = enumerated_min_norm_weights(axes, TOL)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_dual_newton_reports_its_gradient():
    # the loop settles only when a support repeats, so one step never does,
    # and the failure states the residual it stopped at; with room, the
    # antipodal pair carries all the weight
    axes = _units([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 1, 1]])
    a = np.vstack([np.ones((1, 4)), axes.T])
    with pytest.raises(ConvergenceFailure, match=r"1 Newton steps; gradient norm \d"):
        _dual_newton(a, np.array([2.0, 0.0, 0.0, 0.0]), 1)
    w = _dual_newton(a, np.array([2.0, 0.0, 0.0, 0.0]), 40)
    assert np.max(np.abs(w - [1, 1, 0, 0])) <= 1e-15


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
    cen, off = _centers(ens)
    try:
        want = enumerated_enclosing_ball(ens)
    except ConvergenceFailure:
        # beyond the absolute certification tolerances, which only bases of
        # three or four balls still meet (a pair's ball is exact): near a
        # tangency a root of the Gram path's quadratic, and hence its
        # equalities and multipliers, can be off by ~1e-9; both searches
        # must say so
        with pytest.raises(ConvergenceFailure):
            _enclosing_ball(cen, off)
        return
    got = _enclosing_ball(cen, off)
    assert abs(got[0] - want[0]) <= 1e-12
    # the labels, each search's ball labelled by its own basis
    assert loop_assemble(ens, *got, TOL)[3] == loop_assemble(ens, *want, TOL)[3]


@st.composite
def subsets_of_degenerate_ensembles(draw):
    """A ``degenerate_ensembles`` example and two to four of its balls.

    No ball is drawn twice, as no basis holds one twice: a pivot adds a ball
    outside the ball of its basis.
    """
    ens = draw(degenerate_ensembles())
    cen, off = _centers(ens)
    _, first = np.unique(np.column_stack([cen, off]), axis=0, return_index=True)
    # an ensemble of copies has only one distinct ball
    assume(len(first) >= 2)
    balls = st.sampled_from(sorted(first.tolist()))
    return ens, tuple(draw(st.lists(balls, min_size=2, max_size=4, unique=True)))


def _tiny_prior_ensemble():
    """Priors (1e-7, 4/13, 5/13, 4/13), scaled to sum to 1; states 1-3 are
    the pure state (-1, 1, -1)/sqrt 3 and state 0 is (-1, 0, -2)/sqrt 5.
    Its basis is the pair (0, 2), which the Gram path of three- and four-ball
    subsets would refuse: its cancelling quadratic misses the pair's
    equality by 1.6e-9 (ROADMAP item 3)."""
    priors = np.array([1e-7, 4 / 13, 5 / 13, 4 / 13])
    s0 = np.array([-1.0, 0.0, -2.0]) / np.sqrt(5.0)
    s1 = np.array([-1.0, 1.0, -1.0]) / np.sqrt(3.0)
    return make_ensemble(list(zip(priors / priors.sum(), [s0, s1, s1, s1])))


_TINY_PRIOR = _tiny_prior_ensemble()


def _inside_tangent_ensemble():
    """Priors (0.5, 0.25, 0.25): state 0 is maximally mixed, states 1 and 2
    are pure along (4, 3, -4)/sqrt 41 and (-2, 3, 2)/sqrt 17.  The ball of
    state 0 holds the other two, which touch it from inside, so on (0, 1, 2)
    the root of the equal-value system is centered on ball 0."""
    s1 = np.array([4.0, 3.0, -4.0]) / np.sqrt(41.0)
    s2 = np.array([-2.0, 3.0, 2.0]) / np.sqrt(17.0)
    return make_ensemble([(0.5, (0, 0, 0)), (0.25, s1), (0.25, s2)])


def _double_root_ensemble(s2):
    """Priors (0.5, 0.25, 0.25): state 0 is maximally mixed, states 1 and 2
    are pure along z and ``s2``.  Ball 0 holds the other two, which touch it
    from inside, so on the subset (1, 2, 0) the quadratic has a double root
    at ball 0.  Roundoff once split it: along (0, 1, 1)/sqrt 2 the solver's
    roots lay 1e-8 apart and failed the equalities, along y the oracle's."""
    return make_ensemble([(0.5, (0, 0, 0)), (0.25, (0, 0, 1)), (0.25, s2)])


# nested, internally tangent balls on one axis: a singular Gram matrix, and
# the only ball of the subset is ball 0 itself
_NESTED = make_ensemble([(0.5, (0, 0, 1)), (0.3, (0, 0, 1)), (0.2, (0, 0, 1))])


@settings(max_examples=300, deadline=None)
@given(subsets_of_degenerate_ensembles())
@example((_TINY_PRIOR, (0, 2)))
@example((_NESTED, (0, 1, 2)))
@example((_regular_gon(13), (0, 4, 9)))
# a full-rank 3 x 3 Gram matrix, inverted by its adjugate
@example((bundled_ensemble("sic"), (0, 1, 2, 3)))
# coplanar centers: a singular 3 x 3 Gram matrix, left to pinv
@example((bundled_ensemble("bb84"), (0, 1, 2, 3)))
@example((_inside_tangent_ensemble(), (0, 1, 2)))
@example((_double_root_ensemble(np.array([0.0, 1.0, 1.0]) / SQ2), (1, 2, 0)))
@example((_double_root_ensemble((0, 1, 0)), (1, 2, 0)))
def test_certify_subset_matches_lstsq_multipliers(case):
    ens, idx = case
    cen, off = _centers(ens)
    got = _certify_subset(idx, cen.tolist(), off.tolist())
    if len(idx) == 2:
        # a pair's ball is exact: the 50-digit oracle's value to 1e-15 of
        # it, and its decision wherever no ball lies within 1e-12 of the
        # slack
        inner = decimal_pair_ball(idx, cen, off, _FEAS_SLACK - 1e-12)
        outer = decimal_pair_ball(idx, cen, off, _FEAS_SLACK + 1e-12)
        if inner is not None:
            assert got is not None
        if outer is None:
            assert got is None
        if got is not None:
            assert abs(got[0] - outer[0]) <= 1e-15 * outer[0]
        if ens is _TINY_PRIOR:
            assert got is not None
        return
    # the multipliers read off the Gram solve decide as the former
    # least-squares ones did, and the ball is the same to roundoff (the
    # oracle inverts the Gram matrix by pinv, the solver by its adjugate)
    want = lstsq_certify_subset(idx, cen, off)
    assert (got is None) == (want is None)
    if got is not None:
        assert abs(got[0] - want[0]) <= 1e-13 * want[0]
        assert np.max(np.abs(np.array(got[1]) - want[1])) <= 1e-13


def test_full_rank_bases_run_no_svd(monkeypatch):
    # a Gram matrix of full rank is inverted by its adjugate; only a
    # rank-deficient one reaches the SVD of pinv
    calls = []

    def counted(name):
        real = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("pinv", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    for ens in (bundled_ensemble("sic"), bundled_ensemble("unequal3"), _regular_gon(13)):
        _enclosing_ball(*_centers(ens))
        assert calls == []
    for ens, idx in ((_NESTED, (0, 1, 2)), (bundled_ensemble("bb84"), (0, 1, 2, 3))):
        calls.clear()
        cen, off = _centers(ens)
        _certify_subset(idx, cen.tolist(), off.tolist())
        assert calls


def _pair_basis_cases():
    """Ensembles whose basis is a pair with a 1e-7 prior beside it, on
    which the Gram path's cancelling quadratic puts ``p_guess`` 1.6e-10 to
    5.8e-10 above the value of its own measurement, or refuses the pair.
    Each case: the ensemble, its basis pair and its identified states."""
    rng = np.random.default_rng(0)
    axis = rng.normal(size=3)
    rot = unitary_channel(axis / np.linalg.norm(axis), rng.uniform(0.0, 2.0 * np.pi))
    diag = np.array([0.0, 1.0, 1.0]) / SQ2
    states = [(1e-7, (1, 0, 0))] + [((1 - 1e-7) / 2, diag)] * 2
    priors = np.array([1e-7, 0.7, 0.3])
    return [
        (make_ensemble(states), (0, 1), (0, 1, 2)),
        (mapped_ensemble(make_ensemble(states), rot), (0, 1), (0, 1, 2)),
        (
            make_ensemble(list(zip(priors / priors.sum(), [(-1, 0, 0), (0, 1, 0), (0, 1, 0)]))),
            (0, 1),
            (0, 1),
        ),
        (_TINY_PRIOR, (0, 2), (0, 2)),
    ]


@pytest.mark.parametrize(
    "ens, pair, identified",
    _pair_basis_cases(),
    ids=["tiny_prior_diagonal", "rotated", "tiny_prior_copies", "tiny_prior_four"],
)
def test_pair_basis_is_exact(ens, pair, identified):
    # the exact two-ball ball: the value of the 50-digit oracle, which the
    # measurement attains to roundoff
    sol = solve(ens)
    assert abs(sol.p_guess - povm_value(ens, sol)) <= 1e-15
    want = decimal_pair_ball(pair, *_centers(ens))
    assert want is not None
    assert abs(sol.p_guess - 2.0 * want[0]) <= 1e-15
    assert sol.identified == identified


@st.composite
def pair_ensembles(draw):
    """Two states: random, one prior in 1e-10..1e-4, or the ball of the
    smaller prior nested in the other's, off tangency by a few 1e-15 or a
    few 1e-11 to 1e-9 either way."""
    kind = draw(st.sampled_from(["random", "tiny_prior", "nested"]))
    u, w = _units([draw(_direction), draw(_direction)])
    r0, r1 = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    if kind == "nested":
        # ball 1 at a distance o0 - o1 + eps from the center of ball 0,
        # along u
        q1 = draw(st.floats(0.25, 0.5, exclude_max=True))
        eps = draw(st.sampled_from([-1e-9, -3e-11, -3e-15, 0.0, 3e-15, 3e-11, 1e-9]))
        v0 = r0 * w
        v1 = ((1.0 - q1) * v0 + (1.0 - 2.0 * q1 + 2.0 * eps) * u) / q1
        assume(np.linalg.norm(v1) <= 1.0)
        return make_ensemble([(1.0 - q1, v0), (q1, v1)])
    if kind == "tiny_prior":
        q0 = 10.0 ** draw(st.floats(-10.0, -4.0))
    else:
        q0 = draw(st.floats(0.01, 0.99))
    return make_ensemble([(q0, r0 * u), (1.0 - q0, r1 * w)])


@settings(max_examples=300, deadline=None)
@given(pair_ensembles())
def test_pair_route_is_the_closed_form(ens):
    # a two-state ensemble goes through the pivot, which stops on the exact
    # ball of the pair, bit for bit, and its measurement attains it
    cen, off = _centers(ens)
    f, y, _ = _enclosing_ball(cen, off)
    (c0, c1), (o0, o1) = cen.tolist(), off.tolist()
    want_f, want_y = _pair_ball(c0, o0, c1, o1)
    assert f == want_f
    assert np.asarray(y, dtype=float).tobytes() == np.array(want_y).tobytes()
    sol = solve(ens)
    # where a gap within psd_tol declares guessing optimal, p_guess may
    # exceed the value of guessing by up to that gap
    bound = TOL.psd_tol if CaseTag.NO_MEASUREMENT in sol.case_tags else 1e-12
    assert abs(povm_value(ens, sol) - sol.p_guess) <= bound


@pytest.mark.parametrize(
    "states",
    [[(0.6, (0, 0, 1)), (0.4, (0, 0, 1))], NO_MEASUREMENT_COPIES],
    ids=["pair", "copies"],
)
def test_tangent_state_not_identified_when_guessing(states):
    # guessing state 0 is optimal and the other balls touch its ball from
    # inside: no measurement identifies them, so every rotation preserves
    # the strategy and no index set is left to check
    ens = make_ensemble(states)
    sol = solve(ens)
    assert sol.identified == ()
    assert sol.case_tags[0] is CaseTag.NO_MEASUREMENT
    assert not np.any(sol.povm_weights)
    for axis, angle in (((0, 0, 1), 0.0), ((0, 1, 0), 0.7), ((0, 0, 1), 0.7)):
        assert check_unitary(ens, unitary_channel(axis, angle), sol)
    with pytest.raises(PairSetTooSmall, match="got 0"):
        check_omp(ens, unitary_channel((0, 0, 1), 0.7), sol)


def _assert_matches_loop(ens, sol):
    # the basis of the ball, which gives a pair basis its axes
    basis = _enclosing_ball(*_centers(ens))[2]
    gaps, comp, tags, identified = loop_assemble(
        ens, sol.symmetry_op.alpha, sol.symmetry_op.beta, basis, TOL
    )
    assert sol.gaps.tobytes() == gaps.tobytes()
    assert sol.comp_states.tobytes() == comp.tobytes()
    assert sol.case_tags == tags
    assert sol.identified == identified
    # cli.cmd_solve hands these to json.dumps
    assert all(type(x) is int for x in sol.identified)
    assert all(isinstance(t, CaseTag) for t in sol.case_tags)
    assert abs(povm_value(ens, sol) - loop_povm_value(ens, sol)) <= 1e-15


def _solve_short_of_item_2(ens):
    """``solve(ens)``, or None on the ConvergenceFailure that ROADMAP item 2
    leaves: a basis of three or four balls beyond the Gram path's absolute
    thresholds."""
    try:
        return solve(ens)
    except ConvergenceFailure:
        return None


@settings(max_examples=100, deadline=None)
@given(degenerate_ensembles())
@example(make_ensemble(_COMPLETENESS_EDGE))
def test_assembly_matches_loop_on_degenerate_ensembles(ens):
    sol = _solve_short_of_item_2(ens)
    if sol is None:
        return
    _assert_matches_loop(ens, sol)


def _family_member(ens, sol, rng):
    """A completely positive member of the family of ``ens`` with its
    degradation in the window, and the family's index set; None if the
    family fails or 64 draws at box 0.5 find none."""
    try:
        fam = family_for(ens, sol)
    except OmpkitError:
        return None
    members = fam.particular + (fam.null_basis @ rng.uniform(-0.5, 0.5, (fam.dim, 64))).T
    gap = float(np.min(sol.gaps[list(fam.system.index_set)]))
    ok = (members[:, DELTA_COORD] >= 0.0) & (members[:, DELTA_COORD] <= gap)
    ok &= choi_min_eigenvalues(members[:, :DELTA_COORD]) >= -TOL.psd_tol
    if not ok.any():
        return None
    return unpack(members[np.argmax(ok)])[0], fam.system.index_set


def _draw_channel(ens, sol, kind, rng):
    """A CPTP channel of ``kind`` and the index set to test it on (None for
    the maximal one); None if ``kind`` is a family member and none is
    found.  A ``kind`` that is a channel already is returned as it is."""
    if isinstance(kind, QubitChannel):
        return kind, None
    if kind == "rotation":
        axis = rng.normal(size=3)
        return unitary_channel(axis / np.linalg.norm(axis), rng.uniform(0.0, 2.0 * np.pi)), None
    if kind == "depolarizing":
        return depolarizing_channel(rng.uniform(0.0, 1.0)), None
    if kind == "cptp":
        return random_cptp_channel(rng), None
    return _family_member(ens, sol, rng)


_CHANNEL_KINDS = st.sampled_from(["rotation", "depolarizing", "cptp", "member"])


# sic under a CPTP contraction: a negative verdict (delta 0.2499998848) on
# which a re-solve certifying the measurement's index set first reported a
# value 3.0e-11 above that of solve
_SIC_CONTRACTION = QubitChannel(
    np.diag([2.8509096335444537e-08, 1.3611161539202333e-08, 6.804241591212152e-07]),
    [0.4944861976238413, -0.18435732653903503, -0.2907813364140739],
)


@settings(max_examples=150, deadline=None)
@given(degenerate_ensembles(), _CHANNEL_KINDS, st.integers(0, 2**32 - 1))
@example(
    # the identified set names one ball twice; certified as given, that
    # singular system put the value 4.2e-10 above the solve one (the 1e-7
    # prior makes the certification ill-conditioned)
    make_ensemble([(1e-7, (1, 0, 0))] + [((1 - 1e-7) / 2, np.array([0, 1, 1]) / np.sqrt(2))] * 2),
    "rotation",
    0,
)
@example(bundled_ensemble("sic"), _SIC_CONTRACTION, 0)
def test_negative_verdict_reports_the_solve_optimum(ens, kind, seed):
    # a negative verdict re-solves the ensemble it maps; where the public
    # solve of that same ensemble succeeds, p_guess_after is its optimum,
    # bit for bit
    sol = _solve_short_of_item_2(ens)
    if sol is None:
        return
    found = _draw_channel(ens, sol, kind, np.random.default_rng(seed))
    if found is None:
        return
    channel, index_set = found
    try:
        # the verdict's own map: mapping one state at a time, as the helper
        # does, can differ from it in the last bit
        want = solve(_mapped_ensemble(ens, channel, TOL)).p_guess
    except (ConvergenceFailure, InfeasibleCompleteness):
        return
    try:
        rep = check_omp(ens, channel, sol, index_set)
    except (InfeasibleCompleteness, PairSetTooSmall):
        # no measurement to test
        return
    if not rep.is_omp:
        assert rep.p_guess_after == want


def _cocircular():
    """Priors (1, 1, 2, 2)/6 on the great circle through y and (x + z)/sqrt 2,
    at angles (0, 4, 0, 1) pi/12.

    The cold solve of the mapped states of its family member drawn from
    ``default_rng(0)`` is 6.2e-10 above the value the preserved measurement
    attains; in 50-digit arithmetic K' is feasible to -2e-17 and the
    measurement attains tr K' = p_guess - delta to 3e-16.
    """
    th = np.array([0, 4, 0, 1]) * np.pi / 12.0
    u, w = np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    blochs = np.cos(th)[:, None] * u + np.sin(th)[:, None] * w
    return make_ensemble(list(zip(np.array([1, 1, 2, 2]) / 6.0, blochs)))


_COCIRCULAR = _cocircular()


def test_preserved_optimum_is_the_certified_bound():
    ens = _COCIRCULAR
    sol = solve(ens)
    channel, index_set = _family_member(ens, sol, np.random.default_rng(0))
    rep = check_omp(ens, channel, sol, index_set)
    assert rep.is_omp
    assert rep.p_guess_after == sol.p_guess - rep.delta
    assert abs(rep.p_guess_after - povm_value(mapped_ensemble(ens, channel), sol)) <= 1e-14


@settings(max_examples=150, deadline=None)
@given(degenerate_ensembles(), _CHANNEL_KINDS, st.integers(0, 2**32 - 1))
@example(_COCIRCULAR, "member", 0)
def test_positive_verdict_brackets_the_new_optimum(ens, kind, seed):
    # a positive verdict's p_guess_after is an upper bound on the mapped
    # optimum that the preserved measurement attains; the cold solve's own
    # measurement can do no better, and its dual value agrees to the bound
    # of the verdict (not to 1e-12: it misses its own primal value by up to
    # 6.2e-10, ROADMAP item 3)
    sol = _solve_short_of_item_2(ens)
    if sol is None:
        return
    found = _draw_channel(ens, sol, kind, np.random.default_rng(seed))
    if found is None:
        return
    channel, index_set = found
    try:
        rep = check_omp(ens, channel, sol, index_set)
    except (InfeasibleCompleteness, PairSetTooSmall, ConvergenceFailure):
        # no measurement to test, or the re-solve of a negative verdict
        return
    if not rep.is_omp:
        return
    after = mapped_ensemble(ens, channel)
    weights = build_system(ens, sol, index_set).weights
    assert abs(rep.p_guess_after - povm_value(after, sol, weights)) <= 1e-12
    try:
        cold = solve(after)
    except (ConvergenceFailure, InfeasibleCompleteness):
        return
    assert rep.p_guess_after >= povm_value(after, cold) - 1e-12
    assert abs(rep.p_guess_after - cold.p_guess) <= 10.0 * TOL.match_tol


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
