"""The linear family of measurement-preserving channels and its sieve."""

import dataclasses
import re
import tracemalloc
import types

import numpy as np
import pytest

from ompkit import channels, discrimination, omp_check, omp_construct
from ompkit.bloch import Tolerances, nullspace, pinv
from ompkit.channels import CptpVerdict, QubitChannel, is_cptp_choi, unitary_channel
from ompkit.discrimination import solve
from ompkit.ensembles import make_ensemble
from ompkit.errors import (
    BadParameter,
    ConsistencyError,
    DeltaUnreachable,
    IndexOutOfRange,
    InfeasibleCompleteness,
    MissingComplementaryState,
    PairSetTooSmall,
    WrongLength,
)
from ompkit.fileio import BUNDLED_ENSEMBLES, bundled_ensemble
from ompkit.omp_check import check_omp
from ompkit.omp_construct import (
    DELTA_COORD,
    N_UNKNOWNS,
    SHIFT_COORDS,
    build_system,
    delta_slice,
    family_for,
    fix_coordinates,
    pack,
    sieve_admissible,
    solve_family,
    unital_slice,
    unpack,
)

from helpers import (
    LEFT_OUT_SIEVE,
    UNIDENTIFIED_FOURTH,
    full_svd_nullspace,
    per_draw_sieve,
    random_ensemble,
    setdiff_left_out_low,
)


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(0)
    ch = QubitChannel(rng.normal(size=(3, 3)), rng.normal(size=3))
    x = pack(ch, 0.37)
    assert x.shape == (N_UNKNOWNS,)
    back, delta = unpack(x)
    assert np.allclose(back.matrix, ch.matrix)
    assert np.allclose(back.shift, ch.shift)
    assert delta == 0.37
    with pytest.raises(WrongLength):
        unpack(np.zeros(12))


def test_identity_vector_is_the_identity_member():
    sys = build_system(bundled_ensemble("bb84"))
    ch, delta = unpack(sys.identity_vec)
    assert np.allclose(ch.matrix, np.eye(3))
    assert np.allclose(ch.shift, 0.0)
    assert delta == 0.0


def test_one_basis_system_entries():
    sys = build_system(bundled_ensemble("one_basis"))
    assert sys.index_set == (0, 1)
    assert np.allclose(sys.helstrom_rows, [[0, 0, 1]])
    assert np.allclose(sys.prior_diffs, [1 / 3])
    assert np.allclose(sys.comp_diffs, [[0, 0, -2]])


def test_bb84_comp_diffs():
    sys = build_system(bundled_ensemble("bb84"))
    assert np.allclose(sys.comp_diffs, [[0, 0, -2], [1, 0, -1], [-1, 0, -1]])


def test_coefficient_matrix_layout():
    sys = build_system(bundled_ensemble("unequal3"))
    m1 = len(sys.index_set) - 1
    q = sys.coeff_matrix
    assert q.shape == (3 * m1, N_UNKNOWNS)
    for i in range(3):
        block = q[i * m1 : (i + 1) * m1]
        assert np.allclose(block[:, 3 * i : 3 * i + 3], sys.helstrom_rows)
        assert np.allclose(block[:, SHIFT_COORDS[i]], sys.prior_diffs)
        assert np.allclose(block[:, DELTA_COORD], -sys.comp_diffs[:, i])
        # everything else in the block is zero
        mask = np.ones(N_UNKNOWNS, dtype=bool)
        mask[3 * i : 3 * i + 3] = False
        mask[SHIFT_COORDS[i]] = False
        mask[DELTA_COORD] = False
        assert np.allclose(block[:, mask], 0.0)


@pytest.mark.parametrize(
    "name,nullity",
    [
        ("one_basis", 10),
        ("bb84", 7),
        ("three_mubs", 4),
        ("sic", 4),
        ("unequal3", 7),
    ],
)
def test_family_dimensions(name, nullity):
    fam = family_for(bundled_ensemble(name))
    assert fam.dim == nullity
    assert fam.null_basis.shape == (N_UNKNOWNS, nullity)
    # orthonormal kernel basis, every column annihilated by the system
    assert np.allclose(fam.null_basis.T @ fam.null_basis, np.eye(nullity), atol=1e-12)
    q = fam.system.coeff_matrix
    assert np.max(np.abs(q @ fam.null_basis)) <= 1e-9
    # the minimum-norm particular member reproduces the identity's image
    assert np.allclose(fam.particular, pinv(q) @ (q @ fam.system.identity_vec))


def _regular_gon(k):
    """Equal priors on a regular k-gon of pure states in the xy-plane."""
    th = 2.0 * np.pi * np.arange(k) / k
    return make_ensemble([(1.0 / k, [np.cos(t), np.sin(t), 0.0]) for t in th])


def test_nullspace_matches_full_svd_bit_for_bit():
    # the reduced SVD of a tall system gives the former full SVD's basis
    rng = np.random.default_rng(5)
    mats = [build_system(bundled_ensemble(name)).coeff_matrix for name in BUNDLED_ENSEMBLES]
    mats.append(build_system(_regular_gon(200)).coeff_matrix)
    for _ in range(100):
        rows, cols = (int(v) for v in rng.integers(1, 40, size=2))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        mats.append(rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols)))
    for m in mats:
        got, want = nullspace(m), full_svd_nullspace(m)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_polygon_family_memory_stays_flat():
    # a 2,000-gon's system has 2,000 x 3 rows; its full SVD once built a
    # 6,000 x 6,000 u, a 288 MB peak
    ens = _regular_gon(2000)
    sol = solve(ens)
    tracemalloc.start()
    try:
        fam = family_for(ens, sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fam.dim == 7
    assert peak < 16e6


def test_identity_always_in_family():
    for name in ("one_basis", "bb84", "three_mubs", "sic", "unequal3"):
        fam = family_for(bundled_ensemble(name))
        b = fam.system.identity_vec
        c = fam.null_basis.T @ (b - fam.particular)
        assert np.linalg.norm(fam.particular + fam.null_basis @ c - b) <= 1e-9


def test_equal_priors_leave_shift_free():
    for name in ("bb84", "three_mubs", "sic"):
        sys = build_system(bundled_ensemble(name))
        assert np.allclose(sys.coeff_matrix[:, list(SHIFT_COORDS)], 0.0)


def test_family_members_satisfy_all_pairs():
    rng = np.random.default_rng(2)
    ens = bundled_ensemble("unequal3")
    sol = solve(ens)
    fam = family_for(ens, sol)
    for _ in range(1000):
        c = rng.uniform(-3, 3, size=fam.dim)
        ch, delta = unpack(fam.particular + fam.null_basis @ c)
        for x in fam.system.index_set:
            for y in fam.system.index_set:
                if x >= y:
                    continue
                hvec = ens.priors[x] * ens.blochs[x] - ens.priors[y] * ens.blochs[y]
                resid = (
                    ch.matrix @ hvec
                    + (ens.priors[x] - ens.priors[y]) * ch.shift
                    - hvec
                    - delta * (sol.comp_states[x] - sol.comp_states[y])
                )
                assert np.linalg.norm(resid) <= 1e-8


def test_small_support_keeps_kernel_large():
    # At most four states are ever identified, so the system has at most
    # nine independent rows and the kernel at least four dimensions.
    rng = np.random.default_rng(4)
    for _ in range(50):
        ens = random_ensemble(rng, int(rng.integers(2, 7)))
        sol = solve(ens)
        if len(sol.identified) < 2:
            continue
        assert len(sol.identified) <= 4
        fam = family_for(ens, sol)
        assert fam.dim >= 4


def test_slices_pin_coordinates():
    fam = family_for(bundled_ensemble("unequal3"))
    uni = unital_slice(fam)
    assert uni.dim == fam.dim - 3
    member = uni.particular + uni.null_basis @ np.ones(uni.dim)
    assert np.allclose(member[list(SHIFT_COORDS)], 0.0, atol=1e-10)
    pinned = delta_slice(fam, 0.1)
    assert pinned.dim == fam.dim - 1
    member = pinned.particular + pinned.null_basis @ np.ones(pinned.dim)
    assert member[DELTA_COORD] == pytest.approx(0.1, abs=1e-10)


def test_conflicting_slices_unreachable():
    fam = family_for(bundled_ensemble("bb84"))
    pinned = delta_slice(fam, 0.1)
    with pytest.raises(DeltaUnreachable):
        delta_slice(pinned, 0.2)
    # pinning the pinned coordinate to its own value changes nothing
    assert delta_slice(pinned, 0.1) is pinned


def test_unital_zero_delta_slice_contains_identity():
    fam = delta_slice(unital_slice(family_for(bundled_ensemble("sic"))), 0.0)
    b = fam.system.identity_vec
    c = fam.null_basis.T @ (b - fam.particular)
    assert np.linalg.norm(fam.particular + fam.null_basis @ c - b) <= 1e-9


def test_fix_coordinates_general():
    fam = family_for(bundled_ensemble("bb84"))
    # the top-left matrix entry is tied to the degradation: pinning the
    # degradation to 0.05 forces it to 0.8, and any other value is refused
    sub = fix_coordinates(fam, {0: 0.8, 12: 0.05})
    member = sub.particular + sub.null_basis @ np.ones(sub.dim)
    assert member[0] == pytest.approx(0.8, abs=1e-10)
    assert member[12] == pytest.approx(0.05, abs=1e-10)
    with pytest.raises(DeltaUnreachable):
        fix_coordinates(fam, {0: 0.5, 12: 0.05})


@pytest.mark.parametrize(
    "fixed, error, message",
    [
        # -1 once wrapped to the degradation and pinned it silently
        ({-1: 0.05}, IndexOutOfRange, "coordinate -1 not in [0, 13)"),
        ({13: 0.05}, IndexOutOfRange, "coordinate 13 not in [0, 13)"),
        ({2.5: 0.05}, IndexOutOfRange, "coordinate 2.5 is not an integer"),
        # a nan target once gave a nan particular, and the sieve kept nothing
        ({DELTA_COORD: float("nan")}, BadParameter, "target nan of coordinate 12"),
        ({0: 0.8, 9: float("inf")}, BadParameter, "target inf of coordinate 9"),
    ],
    ids=["negative", "past-end", "non-integer", "nan-target", "inf-target"],
)
def test_fix_coordinates_rejects_bad_input(fixed, error, message):
    fam = family_for(bundled_ensemble("bb84"))
    with pytest.raises(error, match=re.escape(message)):
        fix_coordinates(fam, fixed)
    if list(fixed) == [DELTA_COORD]:
        with pytest.raises(error, match=re.escape(message)):
            delta_slice(fam, fixed[DELTA_COORD])


def test_build_system_guards():
    ens = bundled_ensemble("bb84")
    with pytest.raises(PairSetTooSmall):
        build_system(ens, index_set=(0,))
    # a non-antipodal pair and a repeat complete no measurement; the family
    # of such a set was once built, with ten free coefficients
    for index_set in ((0, 2), (0, 0, 1)):
        with pytest.raises(InfeasibleCompleteness):
            family_for(ens, index_set=index_set)
    # a state the solver never identifies has no complementary axis
    mixed = make_ensemble(UNIDENTIFIED_FOURTH)
    sol = solve(mixed)
    assert 3 not in sol.identified
    with pytest.raises(MissingComplementaryState):
        build_system(mixed, sol, index_set=(0, 1, 3))
    # an index outside [0, n) is no state at all
    for index_set in ((0, 9), (0, -1), (1, -3)):
        with pytest.raises(IndexOutOfRange):
            build_system(ens, index_set=index_set)


def test_sieve_soundness_and_determinism():
    ens = bundled_ensemble("three_mubs")
    sol = solve(ens)
    fam = family_for(ens, sol)
    kept = sieve_admissible(fam, count=300, seed=9, box=1.0)
    assert len(kept) >= 10
    min_gap = float(np.min(sol.gaps[list(sol.identified)]))
    assert min_gap == pytest.approx(1 / 6, abs=1e-12)
    for s in kept:
        assert -1e-9 <= s.delta <= min_gap + 1e-9
        assert is_cptp_choi(s.channel) is CptpVerdict.CPTP
        rep = check_omp(ens, s.channel, sol)
        assert rep.is_omp
        assert rep.delta == pytest.approx(s.delta, abs=1e-9)
    again = sieve_admissible(fam, count=300, seed=9, box=1.0)
    assert len(again) == len(kept)
    for a, b in zip(kept, again):
        assert np.array_equal(a.coeffs, b.coeffs)
    other = sieve_admissible(fam, count=300, seed=10, box=1.0)
    assert any(
        not np.array_equal(a.coeffs, b.coeffs) for a, b in zip(kept, other)
    )


def test_sieve_reuses_the_family_measurement(monkeypatch):
    # the index set, its weights and the linear system are the family's;
    # only the per-member verdict runs per survivor
    fam = family_for(bundled_ensemble("three_mubs"))
    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        return wrapper

    for module in (omp_check, omp_construct):
        for name in ("build_system", "povm_weights"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
    kept = sieve_admissible(fam, count=100, seed=9, box=1.0)
    assert len(kept) >= 3
    assert calls == []


def test_sieve_respects_degradation_window():
    # orthogonal-pair family: gaps (1/3, 2/3), so admissible delta < 1/3
    ens = bundled_ensemble("one_basis")
    fam = family_for(ens)
    kept = sieve_admissible(fam, count=300, seed=9, box=0.5)
    assert kept
    for s in kept:
        assert -1e-9 <= s.delta <= 1 / 3 + 1e-9


def test_sieve_drops_undominated_member():
    # draw index 20 is CPTP and meets the pairwise conditions, but leaves a
    # state undominated; the sieve once raised ConsistencyError on it
    ens = make_ensemble(LEFT_OUT_SIEVE)
    kept = sieve_admissible(family_for(ens), count=24, seed=0, box=0.5)
    assert len(kept) == 1
    assert check_omp(ens, kept[0].channel).is_omp


def test_left_out_low_matches_setdiff_oracle():
    # the boolean mask of the left-out states gives the former setdiff1d
    # margins bit for bit on every member drawn, kept or not
    ens = make_ensemble(LEFT_OUT_SIEVE)
    fam = family_for(ens)
    sol, index_set = fam.system.solution, fam.system.index_set
    rng = np.random.default_rng(5)
    for box in (0.5, 2.0):
        for c in rng.uniform(-box, box, size=(200, fam.dim)):
            channel, delta = unpack(fam.particular + fam.null_basis @ c)
            mapped = ens.blochs @ channel.matrix.T + channel.shift
            want = setdiff_left_out_low(ens, sol, index_set, mapped, delta)
            got = omp_check._left_out_low(ens, sol, index_set, mapped, delta)
            assert want.shape == (2,)
            assert got.tobytes() == want.tobytes()


def test_kept_members_run_no_solver(monkeypatch):
    # a kept member preserves the measurement, so its verdict certifies the
    # new optimum itself: no certification, no assembly and no re-solve
    fam = family_for(bundled_ensemble("sic"))
    calls, kept_calls = [], []

    def counted(real):
        def wrapper(*args):
            calls.append(real.__name__)
            return real(*args)

        return wrapper

    for name in ("_certify_subset", "_assemble"):
        monkeypatch.setattr(discrimination, name, counted(getattr(discrimination, name)))
    monkeypatch.setattr(omp_check, "_optimal_value", counted(omp_check._optimal_value))
    real_verdict = omp_check._verdict

    def verdict(*args):
        calls.clear()
        report = real_verdict(*args)
        if report.is_omp:
            kept_calls.append(list(calls))
        return report

    monkeypatch.setattr(omp_check, "_verdict", verdict)
    kept = sieve_admissible(fam, count=200, seed=0, box=0.5)
    assert len(kept) == len(kept_calls) >= 50
    assert all(c == [] for c in kept_calls)


def test_sieve_guard_states_residual():
    # a rotation is no member of the bb84 family: the guard must call it an
    # assembly bug and state the margin
    fam = family_for(bundled_ensemble("bb84"))
    broken = dataclasses.replace(
        fam,
        particular=pack(unitary_channel((1, 0, 0), 0.3), 0.0),
        null_basis=np.zeros((N_UNKNOWNS, 0)),
        dim=0,
    )
    with pytest.raises(
        ConsistencyError, match=r"max residual \d\.\d{3}e-\d\d \(bound 1\.0e-08\)"
    ):
        sieve_admissible(broken, count=3)


@pytest.mark.parametrize("count", [0, -3])
@pytest.mark.parametrize("dim", [None, 0])
def test_sieve_without_draws_is_empty(count, dim):
    fam = family_for(bundled_ensemble("bb84"))
    if dim == 0:
        fam = dataclasses.replace(fam, null_basis=np.zeros((N_UNKNOWNS, 0)), dim=0)
    assert sieve_admissible(fam, count=count) == []


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"box": float("nan")}, "got nan"),
        ({"box": float("inf")}, "got inf"),
        ({"box": -1.0}, "got -1.0"),
        # finite, but the width of [-box, box] overflows
        ({"box": 1e308}, "got 1e+308"),
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
    ],
    ids=["box-nan", "box-inf", "box-negative", "box-overflow", "seed-negative", "seed-float"],
)
def test_sieve_rejects_bad_box_and_seed(kwargs, message):
    # each once escaped as a numpy ValueError or OverflowError
    fam = family_for(bundled_ensemble("bb84"))
    with pytest.raises(BadParameter, match=re.escape(message)):
        sieve_admissible(fam, count=5, **kwargs)


def test_sieve_matches_per_draw_oracle():
    # the batched sieve must keep the same draws as the per-draw loop and
    # report bit-identical members, on every slice and in both boxes
    rng = np.random.default_rng(17)
    ensembles = [bundled_ensemble(name) for name in BUNDLED_ENSEMBLES]
    while len(ensembles) < len(BUNDLED_ENSEMBLES) + 4:
        ens = random_ensemble(rng, int(rng.integers(2, 6)))
        if len(solve(ens).identified) >= 2:
            ensembles.append(ens)
    compared = 0
    for seed, ens in enumerate(ensembles):
        fam = family_for(ens)
        sol = fam.system.solution
        min_gap = float(np.min(sol.gaps[list(sol.identified)]))
        for sl in (fam, unital_slice(fam), delta_slice(fam, 0.4 * min_gap)):
            for box in (0.5, 2.0):
                got = sieve_admissible(sl, count=40, seed=seed, box=box)
                want = per_draw_sieve(sl, 40, seed, box)
                assert len(got) == len(want), (seed, box)
                for a, b in zip(got, want):
                    assert np.array_equal(a.coeffs, b.coeffs)
                    assert np.array_equal(a.channel.matrix, b.channel.matrix)
                    assert np.array_equal(a.channel.shift, b.channel.shift)
                    assert a.delta == b.delta
                compared += len(got)
    assert compared >= 200, compared


def test_sieve_blocks_continue_the_stream(monkeypatch):
    # draws screened in several blocks are those of one draw at a time
    monkeypatch.setattr(omp_construct, "_SIEVE_BLOCK", 7)
    fam = family_for(bundled_ensemble("three_mubs"))
    got = sieve_admissible(fam, count=40, seed=3, box=0.5)
    want = per_draw_sieve(fam, 40, 3, 0.5)
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert np.array_equal(a.coeffs, b.coeffs)
        assert a.delta == b.delta


def test_sieve_tests_choi_once_per_block(monkeypatch):
    # the batched eigensolve is the only Choi test of a member: one call per
    # block, none per survivor
    monkeypatch.setattr(omp_construct, "_SIEVE_BLOCK", 16)
    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        return wrapper

    for module in (channels, omp_construct):
        monkeypatch.setattr(
            module, "choi_min_eigenvalues", counted(module.choi_min_eigenvalues)
        )
    for module in (channels, omp_check):
        monkeypatch.setattr(module, "is_cptp_choi", counted(module.is_cptp_choi))
    kept = sieve_admissible(
        family_for(bundled_ensemble("three_mubs")), count=100, seed=3, box=0.5
    )
    assert len(kept) >= 3
    assert calls == ["choi_min_eigenvalues"] * 7


@pytest.mark.parametrize("dim", range(14))
def test_sieve_members_are_the_per_draw_products(monkeypatch, dim):
    # every draw passes (a window of 1e300, a positive Choi test, a positive
    # verdict), so the sieve reports each member it built; each must equal
    # the per-draw particular + null_basis @ c bit for bit
    rng = np.random.default_rng(dim)
    fam = dataclasses.replace(
        family_for(bundled_ensemble("bb84")),
        particular=rng.normal(size=N_UNKNOWNS),
        null_basis=rng.normal(size=(N_UNKNOWNS, dim)),
        dim=dim,
    )
    report = types.SimpleNamespace(
        residuals=np.zeros(1), r_bound_ok=True, is_omp=True, delta=0.0
    )
    monkeypatch.setattr(omp_check, "_verdict", lambda *args: report)
    monkeypatch.setattr(
        omp_construct, "choi_min_eigenvalues", lambda coords: np.zeros(len(coords))
    )
    tol = Tolerances(match_tol=1e300)
    kept = sieve_admissible(fam, count=500, seed=dim, box=2.0, tol=tol)
    assert len(kept) == 500
    for s in kept:
        got = pack(s.channel, s.delta)
        assert np.array_equal(got, fam.particular + fam.null_basis @ s.coeffs)
        if dim == 0:
            # an empty product adds zeros: every member is the particular one
            assert np.array_equal(got, fam.particular)


def test_solve_family_direct():
    sys = build_system(bundled_ensemble("three_mubs"))
    fam = solve_family(sys)
    assert fam.dim == 4
    assert fam.system is sys
