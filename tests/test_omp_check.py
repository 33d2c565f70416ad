"""Measurement-preservation checks across channel families."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from ompkit import omp_check
from ompkit.bloch import Tolerances
from ompkit.channels import (
    QubitChannel,
    depolarizing_channel,
    identity_channel,
    unitary_channel,
)
from ompkit.discrimination import solve
from ompkit.ensembles import make_ensemble
from ompkit.errors import (
    BadParameter,
    ConsistencyError,
    DominatedState,
    IndexOutOfRange,
    MissingComplementaryState,
    NotEquiprobable,
    NotOmpInput,
    NotUnitary,
    OmpkitError,
    PairSetTooSmall,
    WrongArity,
)
from ompkit.fileio import bundled_ensemble, parse_channel
from ompkit.omp_construct import family_for, sieve_admissible, unpack
from ompkit.omp_check import (
    Mode,
    check_convex_mix,
    check_equiprobable,
    check_omp,
    check_pg_preserving,
    check_two_state,
    check_unitary,
)

from helpers import (
    BB84_CONTRACTION,
    BB84_FAMILY_END,
    EQUIPROBABLE_LEFT_OUT,
    LEFT_OUT_STATES,
    UNIDENTIFIED_FOURTH,
    closed_form_equiprobable,
    closed_form_two_state,
    closed_form_unitary,
    loop_pg_preserving,
    pairwise_pg_preserving,
    random_cptp_channel,
    random_ensemble,
)


def test_identity_preserves_everything():
    ens = bundled_ensemble("bb84")
    rep = check_omp(ens, identity_channel())
    assert rep.is_omp
    assert rep.mode is Mode.STRONG
    assert rep.delta == pytest.approx(0.0, abs=1e-12)
    assert rep.p_guess_before == pytest.approx(rep.p_guess_after, abs=1e-10)


def test_depolarizing_on_bb84():
    ens = bundled_ensemble("bb84")
    for eta in (0.1, 0.35, 0.9):
        rep = check_omp(ens, depolarizing_channel(eta))
        assert rep.is_omp
        assert rep.delta == pytest.approx(eta / 4.0, abs=1e-10)
        assert rep.p_guess_before - rep.p_guess_after == pytest.approx(
            rep.delta, abs=1e-10
        )


def test_axis_rotation_weak_but_not_strong():
    ens = bundled_ensemble("bb84")
    rot = unitary_channel((0, 0, 1), np.pi / 7)
    strong = check_omp(ens, rot)
    assert not strong.is_omp
    weak = check_omp(ens, rot, index_set=(0, 1))
    assert weak.is_omp
    assert weak.mode is Mode.WEAK
    assert weak.delta == pytest.approx(0.0, abs=1e-10)


def test_depolarizing_fails_for_unequal_priors():
    rep = check_omp(bundled_ensemble("unequal3"), depolarizing_channel(0.2))
    assert not rep.is_omp
    assert rep.residuals.max() > 1e-3


def test_depolarizing_undominated_left_out_state():
    # the pairwise conditions alone once gave a positive verdict here, which
    # the re-solve then contradicted (ConsistencyError)
    ens = make_ensemble(LEFT_OUT_STATES)
    rep = check_omp(ens, depolarizing_channel(0.1))
    assert rep.index_set == (0, 1)
    assert rep.residuals.max() <= 1e-12 and rep.r_bound_ok
    assert not rep.is_omp
    assert rep.p_guess_before - rep.p_guess_after < rep.delta - 1e-3


def test_pair_set_too_small():
    ens = bundled_ensemble("bb84")
    with pytest.raises(PairSetTooSmall):
        check_omp(ens, identity_channel(), index_set=(0,))


def test_unidentified_weak_state_matches_family():
    # check_omp once raised InfeasibleCompleteness here, family_for
    # MissingComplementaryState; both now validate through build_system
    ens = make_ensemble(UNIDENTIFIED_FOURTH)
    with pytest.raises(MissingComplementaryState) as fam_err:
        family_for(ens, index_set=(0, 1, 3))
    with pytest.raises(MissingComplementaryState) as check_err:
        check_omp(ens, identity_channel(), index_set=(0, 1, 3))
    assert str(check_err.value) == str(fam_err.value)


def test_out_of_range_weak_index_rejected():
    # once reported as "state 9 is not identified": numpy wraps a negative
    # index, and an index past n is no state at all
    ens = bundled_ensemble("bb84")
    for index_set in ((0, 9), (0, -1), (1, -3)):
        with pytest.raises(IndexOutOfRange) as err:
            check_omp(ens, depolarizing_channel(0.1), index_set=index_set)
        assert str(err.value) == f"state index {index_set[1]} not in [0, 4)"


def test_equiprobable_depolarizing():
    ens = bundled_ensemble("three_mubs")
    sol = solve(ens)
    for eta in (0.0, 0.25, 0.6):
        rep = check_equiprobable(ens, depolarizing_channel(eta), sol)
        assert rep.is_omp
        assert rep.kappa == pytest.approx(1.0 - eta, abs=1e-10)
        assert rep.delta == pytest.approx(eta * (sol.p_guess - 1 / 6), abs=1e-10)


def test_equiprobable_undominated_left_out_state():
    # the closed form once tested the pairwise conditions only and raised
    # ConsistencyError when the re-solve contradicted its positive verdict
    ens = make_ensemble(EQUIPROBABLE_LEFT_OUT)
    fam = family_for(ens)
    assert fam.system.index_set == (0, 1, 3)
    coeffs = np.random.default_rng(2).uniform(-0.3, 0.3, fam.dim)
    channel = unpack(fam.particular + fam.null_basis @ coeffs)[0]
    rep = check_equiprobable(ens, channel, fam.system.solution)
    assert rep.residual <= 1e-12 and 0.0 < rep.kappa <= 1.0
    assert not rep.is_omp
    general = check_omp(ens, channel, fam.system.solution)
    assert not general.is_omp
    assert general.delta == pytest.approx(rep.delta, abs=1e-12)


def test_equiprobable_requires_uniform_priors():
    with pytest.raises(NotEquiprobable):
        check_equiprobable(bundled_ensemble("unequal3"), identity_channel())


def test_planar_kernel_channel_is_omp():
    # The channel is not a multiple of the identity, but it acts as 0.5*I on
    # the plane spanned by the state differences, which is all that matters.
    trine = make_ensemble(
        [
            (1 / 3, (0.9 * np.cos(2 * np.pi * k / 3), 0.9 * np.sin(2 * np.pi * k / 3), 0))
            for k in range(3)
        ]
    )
    d = np.array([[0.5, 0, 0.1], [0, 0.5, 0.1], [0, 0, 0.6]])
    for shift in ((0, 0, 0), (0, 0, 0.2)):
        rep = check_equiprobable(trine, QubitChannel(d, shift))
        assert rep.is_omp
        assert rep.kappa == pytest.approx(0.5, abs=1e-12)
        assert rep.residual <= 1e-12
        # The common shift drops out of every difference vector.
        assert rep.delta == pytest.approx(0.5 * (19 / 30 - 1 / 3), abs=1e-10)


def _outcome(check, *args):
    try:
        return check(*args)
    except OmpkitError as exc:
        return type(exc)


def test_specialised_checks_match_closed_forms():
    # both checks read check_omp's verdict; the closed forms fit kappa on
    # the state differences and the scale on the weighted difference
    rng = np.random.default_rng(41)
    tally = {"cases": 0, "eq": 0, "two": 0, "errors": 0}
    for i in range(100):
        if i % 2 == 0:
            ens = random_ensemble(rng, int(rng.integers(2, 7)), equiprobable=True, min_norm=0.3)
        else:
            ens = random_ensemble(rng, 2)
        axis = rng.normal(size=3)
        channels = [
            depolarizing_channel(float(rng.uniform(0, 1))),
            unitary_channel(axis / np.linalg.norm(axis), float(rng.uniform(0, np.pi))),
            random_cptp_channel(rng),
        ]
        try:
            kept = sieve_admissible(family_for(ens), count=20, seed=i, box=0.5)
            channels.extend(s.channel for s in kept[:1])
        except OmpkitError:
            pass
        for channel in channels:
            pairs = []
            if i % 2 == 0:
                pairs.append(("eq", check_equiprobable, closed_form_equiprobable, ("kappa",)))
            if ens.n == 2:
                pairs.append(("two", check_two_state, closed_form_two_state, ("scale", "offset")))
            for label, check, oracle, fields in pairs:
                got, want = _outcome(check, ens, channel), _outcome(oracle, ens, channel)
                tally["cases"] += 1
                if isinstance(want, type):
                    assert got is want
                    tally["errors"] += 1
                    continue
                assert got.is_omp is want.is_omp
                tally[label] += got.is_omp
                for field in fields + ("delta", "residual"):
                    assert getattr(got, field) == pytest.approx(getattr(want, field), abs=1e-10)
    assert tally["cases"] >= 300
    assert min(tally["eq"], tally["two"], tally["errors"]) >= 20


def _near_equal_trine():
    s = 0.9 * np.sqrt(3.0) / 2.0
    trine = make_ensemble(
        [(1 / 3 + 4e-9, (0.9, 0, 0)), (1 / 3 - 4e-9, (-0.45, s, 0)), (1 / 3, (-0.45, -s, 0))]
    )
    fam = family_for(trine)
    coeffs = np.random.default_rng(1).uniform(-0.3, 0.3, 7)
    return trine, unpack(fam.particular + fam.null_basis @ coeffs)[0]


@pytest.mark.parametrize("case", ["near_equal_priors", "anisotropic"])
def test_equiprobable_reads_check_omp_in_tolerance_band(case):
    # the closed form refused both channels, which check_omp accepts: priors
    # 8e-9 apart pass as equal, but it dropped their shift term (residual
    # 1.3e-8); and it bounded |D d - kappa d| by match_tol where check_omp
    # bounds the pair's row, (1/n) |D d - kappa d| (residual 1.5e-8, n = 6)
    if case == "near_equal_priors":
        ens, channel = _near_equal_trine()
    else:
        ens = bundled_ensemble("three_mubs")
        channel = QubitChannel(np.diag([0.8, 0.8, 0.8 + 2e-8]), np.zeros(3))
    assert closed_form_equiprobable(ens, channel).residual > 1e-8
    rep = check_equiprobable(ens, channel)
    general = check_omp(ens, channel)
    assert rep.is_omp and general.is_omp
    assert rep.delta == general.delta
    assert rep.residual == pytest.approx(ens.n * np.max(general.residuals), rel=1e-12)


def test_equiprobable_collapse_refused_before_resolve(monkeypatch):
    # -eps I collapses bb84's differences, kappa = -eps: the degradation
    # window admits kappa >= -match_tol / (p_guess - 1/4) = -4e-8, and both
    # checks agree on it; beyond it check_equiprobable refuses the channel
    # before the re-solve of a negative verdict
    calls = []
    real = omp_check._optimal_value

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(omp_check, "_optimal_value", counted)
    ens = bundled_ensemble("bb84")
    for eps, expect in ((1e-9, True), (4e-8, True), (1e-7, False), (1e-6, False)):
        channel = QubitChannel(-eps * np.eye(3), np.zeros(3))
        calls.clear()
        rep = check_equiprobable(ens, channel)
        assert rep.is_omp is expect and rep.kappa < 0.0
        assert calls == []
        assert check_omp(ens, channel).is_omp is expect


def test_equiprobable_fits_once(monkeypatch):
    # kappa and the verdict read one fit; it once ran twice per call
    calls = []
    real = omp_check._fit_degradation

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(omp_check, "_fit_degradation", counted)
    ens = bundled_ensemble("three_mubs")
    for channel in (depolarizing_channel(0.3), QubitChannel(-0.2 * np.eye(3), np.zeros(3))):
        calls.clear()
        rep = check_equiprobable(ens, channel)
        assert len(calls) == 1
        assert rep.is_omp is (rep.kappa > 0.0)


@pytest.mark.parametrize("check", [check_omp, check_equiprobable])
@pytest.mark.parametrize("doc", [BB84_FAMILY_END, BB84_CONTRACTION], ids=["family_end", "contraction"])
def test_near_collapse_preserves_bb84(check, doc):
    # every pairwise residual is below 2e-10 and the degradation is inside
    # the window, with no state left out; a re-solve of the mapped states,
    # which agree to about 1e-9, fails certification, so the verdict must
    # read the optimum off its certificate
    assert check(bundled_ensemble("bb84"), parse_channel(doc)).is_omp


def test_two_state_depolarizing_threshold():
    # Orthogonal pair with priors 0.7/0.3: preserved exactly up to eta = 0.6.
    pair = make_ensemble([(0.7, (0, 0, 1)), (0.3, (0, 0, -1))])
    for eta, expect in ((0.4, True), (0.6, True), (0.8, False)):
        rep = check_two_state(pair, depolarizing_channel(eta))
        assert rep.is_omp is expect
        assert rep.scale == pytest.approx(1.0 - eta, abs=1e-12)
        assert rep.delta == pytest.approx(eta / 2.0, abs=1e-12)
        assert rep.offset == pytest.approx(eta * 0.4 / 2.0, abs=1e-12)


def test_two_state_axis_rotation():
    pair = make_ensemble([(0.6, (0, 0, 1)), (0.4, (1, 0, 0))])
    h = 0.6 * np.array([0.0, 0, 1]) - 0.4 * np.array([1.0, 0, 0])
    h /= np.linalg.norm(h)
    rep = check_two_state(pair, unitary_channel(h, 0.9))
    assert rep.is_omp
    assert rep.scale == pytest.approx(1.0, abs=1e-10)
    assert rep.offset == pytest.approx(0.0, abs=1e-10)
    assert rep.delta == pytest.approx(0.0, abs=1e-10)


def test_two_state_guard_conditions():
    with pytest.raises(WrongArity):
        check_two_state(bundled_ensemble("sic"), identity_channel())
    dominated = make_ensemble([(0.9, (0, 0, 0.7)), (0.1, (0, 0, 1))])
    with pytest.raises(DominatedState):
        check_two_state(dominated, depolarizing_channel(0.1))


def test_unitary_verdicts():
    pair = make_ensemble([(0.6, (0, 0, 1)), (0.4, (1, 0, 0))])
    h = 0.6 * np.array([0.0, 0, 1]) - 0.4 * np.array([1.0, 0, 0])
    h /= np.linalg.norm(h)
    assert check_unitary(pair, unitary_channel(h, 0.7))
    perp = np.array([h[2], 0.0, -h[0]])
    perp /= np.linalg.norm(perp)
    assert not check_unitary(pair, unitary_channel(perp, 0.7))
    # a half turn about perp flips h: the fitted degradation is |h| = 0.72,
    # past the min gap
    flip = unitary_channel(perp, np.pi)
    assert not check_unitary(pair, flip)
    assert check_omp(pair, flip).delta == pytest.approx(np.sqrt(0.52), abs=1e-12)
    assert not check_omp(pair, flip).r_bound_ok
    # |D - I| = 1.41e-8 is past match_tol, which once decided, but the pair
    # residual is 6e-9, so check_omp preserves the measurement
    assert check_unitary(pair, unitary_channel((1, 0, 0), 1e-8))
    # Three or more identified states survive only the identity rotation.
    bb84 = bundled_ensemble("bb84")
    assert check_unitary(bb84, identity_channel())
    assert not check_unitary(bb84, unitary_channel((0, 0, 1), 0.3))
    # With no identified states any rotation trivially preserves guessing.
    dominated = make_ensemble([(0.9, (0, 0, 0.7)), (0.1, (0, 0, 1))])
    assert check_unitary(dominated, unitary_channel((0, 1, 0), 1.2))
    with pytest.raises(NotUnitary):
        check_unitary(pair, depolarizing_channel(0.2))


def _rotation_cases(rng, count):
    """Seeded (ensemble, rotation) pairs: n 2..7, equal and unequal priors,
    coplanar states and guessing ensembles; random rotations, rotations
    about the measurement axis, half turns, the identity and near-identity
    angles 1e-12..1e-6."""
    for i in range(count):
        n = int(rng.integers(2, 8))
        kind = i % 4
        if kind == 0:
            ens = random_ensemble(rng, n)
        elif kind == 1:
            ens = random_ensemble(rng, n, equiprobable=True)
        elif kind == 2:
            normal = rng.normal(size=3)
            normal /= np.linalg.norm(normal)
            vecs = rng.normal(size=(n, 3))
            vecs -= np.outer(vecs @ normal, normal)
            vecs *= rng.uniform(0.2, 1.0, (n, 1)) / np.linalg.norm(vecs, axis=1, keepdims=True)
            ens = make_ensemble(zip(rng.dirichlet(np.ones(n)), vecs))
        else:
            # a prior >= 0.75 on a state of Bloch norm <= 0.2 strictly holds
            # every other ball: guessing, with no identified state
            q0 = rng.uniform(0.75, 0.9)
            v0 = rng.normal(size=3)
            v0 *= rng.uniform(0, 0.2) / np.linalg.norm(v0)
            vecs = rng.normal(size=(n - 1, 3))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            priors = (1 - q0) * rng.dirichlet(np.ones(n - 1))
            ens = make_ensemble([(q0, v0)] + list(zip(priors, vecs)))
        sol = solve(ens)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = float(rng.uniform(0, np.pi))
        spin = i // 4 % 5
        if spin == 1 and sol.identified:
            axis = sol.comp_axis(sol.identified[0])
        elif spin == 2:
            angle = np.pi
        elif spin == 3:
            angle = 0.0
        elif spin == 4:
            angle = float(10.0 ** rng.uniform(-12, -6))
        yield ens, unitary_channel(axis, angle)


def test_unitary_matches_closed_form():
    # check_unitary reads check_omp's verdict; the oracle decides from the
    # rotation axis and |D - I| <= match_tol.  They differ only where the
    # oracle's threshold is tighter than check_omp's residuals: near the
    # identity, the oracle says no and check_omp yes
    tally = {"cases": 0, "true": 0, "false": 0, "guessing": 0, "band": 0}
    for ens, rot in _rotation_cases(np.random.default_rng(43), 480):
        got, want = _outcome(check_unitary, ens, rot), _outcome(closed_form_unitary, ens, rot)
        tally["cases"] += 1
        tally["guessing"] += not solve(ens).identified
        if got is not want:
            assert want is False and got is True
            assert check_omp(ens, rot).is_omp
            tally["band"] += 1
        tally[str(got).lower()] += 1
    assert tally["cases"] >= 400
    assert min(tally["true"], tally["false"], tally["guessing"]) >= 60
    assert tally["band"] >= 1, tally


def test_pg_preserving():
    pair = make_ensemble([(0.6, (0, 0, 1)), (0.4, (1, 0, 0))])
    h = 0.6 * np.array([0.0, 0, 1]) - 0.4 * np.array([1.0, 0, 0])
    h /= np.linalg.norm(h)
    assert check_pg_preserving(pair, identity_channel())
    assert check_pg_preserving(pair, unitary_channel(h, 0.7))
    assert not check_pg_preserving(bundled_ensemble("bb84"), depolarizing_channel(0.2))


def test_pg_preserving_memory_stays_flat():
    # 2,000 states on the rotation axis stay put; moving the last one off
    # it breaks its pairs.  The n x n x 3 broadcast once peaked at 256 MB.
    rng = np.random.default_rng(3)
    priors = rng.dirichlet(np.ones(2000))
    blochs = np.outer(rng.uniform(-1.0, 1.0, 2000), [0.0, 0.0, 1.0])
    rotation = unitary_channel((0, 0, 1), 0.3)
    tracemalloc.start()
    try:
        assert check_pg_preserving(make_ensemble(zip(priors, blochs)), rotation)
        blochs[-1] = (0.6, 0.0, 0.0)
        assert not check_pg_preserving(make_ensemble(zip(priors, blochs)), rotation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_pg_preserving_matches_pairwise_oracle():
    # 600 pairs, the first 300 from seed 31; the broadcast test must also
    # give the verdict of its former per-state loop
    verdicts = []
    for seed in (31, 37):
        rng = np.random.default_rng(seed)
        for kind in range(5):
            for _ in range(60):
                n = int(rng.integers(2, 7))
                axis = rng.normal(size=3)
                axis /= np.linalg.norm(axis)
                if kind == 0:
                    # states on the rotation axis stay put
                    ens = make_ensemble(
                        zip(rng.dirichlet(np.ones(n)), np.outer(rng.uniform(-1, 1, n), axis))
                    )
                else:
                    ens = random_ensemble(rng, n)
                if kind in (0, 1):
                    channel = unitary_channel(axis, float(rng.uniform(0, np.pi)))
                elif kind == 2:
                    channel = identity_channel()
                elif kind == 3:
                    channel = random_cptp_channel(rng)
                else:
                    # near the tolerance: a perturbed identity, not a channel
                    eps = 10.0 ** rng.uniform(-11, -5)
                    channel = QubitChannel(
                        np.eye(3) + eps * rng.normal(size=(3, 3)), eps * rng.normal(size=3)
                    )
                verdict = check_pg_preserving(ens, channel)
                assert verdict is pairwise_pg_preserving(ens, channel)
                assert verdict is loop_pg_preserving(ens, channel)
                verdicts.append((kind, n, verdict))
    assert any(v and n >= 3 for kind, n, v in verdicts if kind == 0)
    assert any(v for kind, n, v in verdicts if kind == 4)
    assert any(not v for kind, n, v in verdicts if kind == 4)
    assert not any(v for kind, n, v in verdicts if kind == 3)

def test_convex_mix_builds_one_system(monkeypatch):
    # both inputs and the blend read one system; it was once built three
    # times, once per check_omp call
    calls = []
    real = omp_check.build_system

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(omp_check, "build_system", counted)
    ens = bundled_ensemble("bb84")
    first, second = identity_channel(), depolarizing_channel(0.2)
    rep = check_convex_mix(ens, first, second, 0.25)
    assert len(calls) == 1
    blend = check_omp(ens, QubitChannel(0.75 * first.matrix + 0.25 * second.matrix, np.zeros(3)))
    for field in dataclasses.fields(rep):
        assert np.array_equal(getattr(rep, field.name), getattr(blend, field.name))


def test_convex_mix_blends_degradation():
    ens = bundled_ensemble("bb84")
    rep = check_convex_mix(ens, identity_channel(), depolarizing_channel(0.2), 0.5)
    assert rep.is_omp
    assert rep.delta == pytest.approx(0.025, abs=1e-10)
    with pytest.raises(BadParameter):
        check_convex_mix(ens, identity_channel(), identity_channel(), 1.5)
    with pytest.raises(NotOmpInput):
        check_convex_mix(
            ens, unitary_channel((0, 0, 1), np.pi / 7), identity_channel(), 0.5
        )


@pytest.mark.parametrize("name", ["check_omp", "check_equiprobable", "check_two_state"])
def test_cross_validation_states_its_margin(monkeypatch, name):
    # the preserved value is made to miss the certified optimum p_guess -
    # delta by 1e-6, ten times the bound
    if name == "check_two_state":
        pair = make_ensemble([(0.7, (0, 0, 1)), (0.3, (0, 0, -1))])
        args = (pair, depolarizing_channel(0.4))
    else:
        ens = bundled_ensemble("bb84" if name == "check_omp" else "three_mubs")
        args = (ens, depolarizing_channel(0.2), solve(ens))
    real = omp_check.povm_value
    monkeypatch.setattr(omp_check, "povm_value", lambda *a: real(*a) - 1e-6)
    with pytest.raises(ConsistencyError, match=r"margin 1\.000e-06 exceeds 1\.0e-07"):
        getattr(omp_check, name)(*args)

def test_guessing_probability_never_increases():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        ens = random_ensemble(rng, int(rng.integers(2, 5)))
        ch = random_cptp_channel(rng)
        before = solve(ens).p_guess
        mapped = make_ensemble(
            [(q, ch.apply(v)) for q, v in zip(ens.priors, ens.blochs)]
        )
        assert solve(mapped).p_guess <= before + 1e-9


def test_unitary_covariance():
    # Rotations leave the gaps alone and rotate the complementary axes.
    rng = np.random.default_rng(23)
    for _ in range(200):
        ens = random_ensemble(rng, int(rng.integers(2, 6)))
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        rot = unitary_channel(axis, float(rng.uniform(0, np.pi)))
        sol = solve(ens)
        mapped = make_ensemble(
            [(q, rot.apply(v)) for q, v in zip(ens.priors, ens.blochs)]
        )
        sol2 = solve(mapped)
        assert sol2.identified == sol.identified
        assert sol2.p_guess == pytest.approx(sol.p_guess, abs=1e-9)
        assert np.allclose(sol2.gaps, sol.gaps, atol=1e-9)
        for x in sol.identified:
            assert np.allclose(
                sol2.comp_axis(x), rot.matrix @ sol.comp_axis(x), atol=1e-7
            )
