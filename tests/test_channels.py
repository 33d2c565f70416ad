"""Channel construction, canonical form, and CPTP decisions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import loop_choi_matrix, random_cptp_channel
from ompkit import (
    BadParameter,
    BlochOutOfBall,
    CptpVerdict,
    QubitChannel,
    canonical_form,
    choi_matrix,
    depolarizing_channel,
    identity_channel,
    is_cptp_choi,
    is_cptp_inequalities,
    unitary_channel,
)
from ompkit.channels import CPTP_TOL, choi_min_eigenvalues


def test_identity_channel_is_identity():
    ch = identity_channel()
    v = np.array([0.3, -0.2, 0.5])
    assert np.array_equal(ch.apply(v), v)


def test_depolarizing_bounds_and_matrix():
    assert np.allclose(depolarizing_channel(0.3).matrix, 0.7 * np.eye(3))
    assert np.allclose(depolarizing_channel(1.0).apply([0, 0, 1]), [0, 0, 0])
    assert np.allclose(depolarizing_channel(0.0).matrix, np.eye(3))
    for bad in (-0.1, 1.1):
        with pytest.raises(BadParameter):
            depolarizing_channel(bad)


def test_unitary_channel_knowns():
    assert np.allclose(unitary_channel([0, 0, 1], 0.0).matrix, np.eye(3))
    flip = unitary_channel([0, 0, 1], math.pi)
    assert np.allclose(flip.matrix, np.diag([-1.0, -1.0, 1.0]), atol=1e-15)
    with pytest.raises(BadParameter):
        unitary_channel([0, 0, 2], 0.5)
    with pytest.raises(BadParameter):
        unitary_channel([0, 0], 0.5)
    # non-finite inputs once made a NaN rotation (and a RuntimeWarning)
    with pytest.raises(BadParameter, match="got norm nan"):
        unitary_channel([0, 0, np.nan], 0.5)
    with pytest.raises(BadParameter, match="angle must be finite"):
        unitary_channel([0, 0, 1], np.inf)


@settings(max_examples=60, deadline=None)
@given(st.floats(-6.0, 6.0), st.randoms(use_true_random=False))
def test_unitary_channel_is_rotation(angle, rnd):
    rng = np.random.default_rng(rnd.getrandbits(32))
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    rot = unitary_channel(axis, angle).matrix
    assert np.allclose(rot.T @ rot, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(rot) - 1.0) <= 1e-12
    assert np.allclose(rot @ axis, axis, atol=1e-12)
    assert abs(np.trace(rot) - (1.0 + 2.0 * math.cos(angle))) <= 1e-12


def test_channel_rejects_bad_entries():
    with pytest.raises(BadParameter, match="must be 3x3"):
        QubitChannel(np.eye(2), np.zeros(3))
    with pytest.raises(BadParameter, match="must be a 3-vector"):
        QubitChannel(np.eye(3), np.zeros(2))
    # a NaN entry once reached eigvalsh in the Choi test and failed there
    nan_d = np.eye(3)
    nan_d[1, 1] = np.nan
    for matrix, shift in ((nan_d, np.zeros(3)), (np.eye(3), [0, np.inf, 0])):
        with pytest.raises(BadParameter, match="entries must be finite"):
            QubitChannel(matrix, shift)


def test_apply_validates_input_ball():
    with pytest.raises(BlochOutOfBall):
        identity_channel().apply([1.2, 0, 0])


def test_apply_isotropic_shrink_golden():
    ch = QubitChannel((1 - 6 * 0.05) * np.eye(3), np.zeros(3))
    assert np.allclose(ch.apply([0, 0, 1]), [0, 0, 0.7])


def test_compose_order_and_formula():
    rng = np.random.default_rng(0)
    outer = QubitChannel(rng.normal(size=(3, 3)), rng.normal(size=3))
    inner = QubitChannel(rng.normal(size=(3, 3)), rng.normal(size=3))
    both = outer.compose(inner)
    assert np.allclose(both.matrix, outer.matrix @ inner.matrix)
    assert np.allclose(both.shift, outer.matrix @ inner.shift + outer.shift)
    a, b = random_cptp_channel(rng), random_cptp_channel(rng)
    v = np.array([0.1, 0.2, -0.3])
    assert np.allclose(a.compose(b).apply(v), a.apply(b.apply(v)))


def test_composition_of_cptp_is_cptp():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = random_cptp_channel(rng)
        b = random_cptp_channel(rng)
        assert is_cptp_choi(a.compose(b)) is CptpVerdict.CPTP


def test_choi_matrix_structure():
    rng = np.random.default_rng(2)
    ch = QubitChannel(rng.normal(size=(3, 3)), rng.normal(size=3))
    j = choi_matrix(ch)
    assert np.allclose(j, j.conj().T)
    assert abs(np.trace(j).real - 2.0) <= 1e-12


def test_cptp_choi_knowns():
    assert is_cptp_choi(identity_channel()) is CptpVerdict.CPTP
    for eta in np.linspace(0.0, 1.0, 11):
        assert is_cptp_choi(depolarizing_channel(eta)) is CptpVerdict.CPTP
    transpose_like = QubitChannel(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
    assert is_cptp_choi(transpose_like) is CptpVerdict.NOT_CP
    pushed_out = QubitChannel(np.eye(3), np.array([0.0, 0.0, 0.1]))
    assert is_cptp_choi(pushed_out) is CptpVerdict.NOT_CP


def test_cptp_image_containment():
    rng = np.random.default_rng(3)
    channels = [random_cptp_channel(rng) for _ in range(20)]
    points = rng.normal(size=(1000, 3))
    points /= np.maximum(np.linalg.norm(points, axis=1, keepdims=True), 1.0)
    for ch in channels:
        images = points @ ch.matrix.T + ch.shift
        assert np.linalg.norm(images, axis=1).max() <= 1.0 + 1e-9


def test_canonical_form_of_sorted_diagonal_is_trivial():
    form = canonical_form(QubitChannel(np.diag([0.2, 0.5, 0.9]), np.zeros(3)))
    assert np.allclose(form.scales, [0.2, 0.5, 0.9], atol=1e-12)
    assert np.allclose(form.rot_out, np.eye(3), atol=1e-12)
    assert np.allclose(form.rot_in, np.eye(3), atol=1e-12)


def test_canonical_form_of_rotation_is_all_ones():
    ch = unitary_channel(np.array([1.0, 2.0, 2.0]) / 3.0, 0.8)
    form = canonical_form(ch)
    assert np.allclose(np.abs(form.scales), [1.0, 1.0, 1.0], atol=1e-12)
    assert form.scales[2] >= 0.0


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_canonical_form_reconstructs_and_normalizes(rnd):
    rng = np.random.default_rng(rnd.getrandbits(32))
    ch = QubitChannel(rng.normal(size=(3, 3)), rng.normal(size=3))
    form = canonical_form(ch)
    assert abs(np.linalg.det(form.rot_out) - 1.0) <= 1e-9
    assert abs(np.linalg.det(form.rot_in) - 1.0) <= 1e-9
    assert np.allclose(form.rot_out.T @ form.rot_out, np.eye(3), atol=1e-9)
    assert np.allclose(form.rot_in.T @ form.rot_in, np.eye(3), atol=1e-9)
    rebuilt = form.rot_out @ np.diag(form.scales) @ form.rot_in
    assert np.allclose(rebuilt, ch.matrix, atol=1e-9)
    mags = np.abs(form.scales)
    assert mags[0] <= mags[1] + 1e-12 and mags[1] <= mags[2] + 1e-12
    assert form.scales[2] >= -1e-12
    assert np.allclose(form.shift_canon, form.rot_out.T @ ch.shift, atol=1e-12)


def test_inequalities_unital_isotropic_grid():
    for lam in np.linspace(-1.0, 1.0, 41):
        ch = QubitChannel(lam * np.eye(3), np.zeros(3))
        verdict = is_cptp_inequalities(canonical_form(ch))
        want = is_cptp_choi(ch)
        assert verdict is want, (lam, verdict, want)
    stretched = QubitChannel(1.2 * np.eye(3), np.zeros(3))
    assert is_cptp_inequalities(canonical_form(stretched)) is CptpVerdict.NOT_CP


def test_inequalities_known_notcp():
    ch = QubitChannel(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
    assert is_cptp_inequalities(canonical_form(ch)) is CptpVerdict.NOT_CP


def test_inequalities_axial_shift_matches_choi():
    ch = QubitChannel(0.7 * np.eye(3), np.array([0.0, 0.0, 0.2]))
    assert is_cptp_inequalities(canonical_form(ch)) is is_cptp_choi(ch)


def test_inequalities_agree_with_choi_when_conclusive():
    rng = np.random.default_rng(4)
    conclusive = 0
    for _ in range(2000):
        ch = QubitChannel(
            rng.uniform(-1.2, 1.2, size=(3, 3)), rng.uniform(-1.2, 1.2, size=3)
        )
        fast = is_cptp_inequalities(canonical_form(ch))
        if fast is CptpVerdict.INCONCLUSIVE:
            continue
        conclusive += 1
        assert fast is is_cptp_choi(ch)
    assert conclusive > 500


def _choi_agrees_with_oracle(coords: np.ndarray) -> np.ndarray:
    """Check the closed-form Choi operators of a stack of packed channels
    against the loop-built oracle and the batched verdicts against
    is_cptp_choi one channel at a time; returns the single verdicts."""
    lows = choi_min_eigenvalues(coords)
    assert lows.shape == (len(coords),)
    verdicts = []
    for row, lo in zip(coords, lows):
        ch = QubitChannel(row[:9].reshape(3, 3), row[9:])
        assert np.max(np.abs(choi_matrix(ch) - loop_choi_matrix(ch))) <= 1e-14
        single = is_cptp_choi(ch)
        assert bool(lo >= -CPTP_TOL) is (single is CptpVerdict.CPTP), (row, lo, single)
        verdicts.append(single)
    return np.array(verdicts)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-1.2, 1.2), min_size=12, max_size=12),
        min_size=1,
        max_size=8,
    )
)
def test_closed_form_choi_matches_loop_oracle(rows):
    _choi_agrees_with_oracle(np.array(rows))


def test_closed_form_choi_at_acceptance_endpoints():
    # one grid step either side of the exact endpoints of acceptance checks
    # 04 ((2 - sqrt 2)/4 on the unital bb84 slice, step 2.5e-5) and 05
    # (|t2| = sqrt(2/5) on the shifted one, step 1e-4); inside first
    def slice_matrix(delta):
        a = 1.0 - 4.0 * delta
        return np.array([[a, a, 0.0], [0.0, a, 0.0], [0.0, a, a]])

    lo04, step04 = (2.0 - math.sqrt(2.0)) / 4.0, 2.5e-5
    t05, step05 = math.sqrt(2.0 / 5.0), 1e-4
    rows = [
        np.concatenate([slice_matrix(g).reshape(9), np.zeros(3)])
        for g in (lo04 + step04, lo04 - step04)
    ]
    for t in (t05 - step05, t05 + step05, -t05 + step05, -t05 - step05):
        rows.append(np.concatenate([slice_matrix(0.3).reshape(9), [0.0, t, 0.0]]))
    verdicts = _choi_agrees_with_oracle(np.array(rows))
    cp, not_cp = CptpVerdict.CPTP, CptpVerdict.NOT_CP
    assert list(verdicts) == [cp, not_cp, cp, not_cp, cp, not_cp]


def test_choi_stack_empty():
    assert choi_min_eigenvalues(np.zeros((0, 12))).shape == (0,)
