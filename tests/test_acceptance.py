"""Acceptance checks: one test and one printed verdict line per criterion.

Checks 04 and 05 scan the complete-positivity region of two slices of the
four-state family; their expected endpoints are exact closed forms, derived
in the comments at each test.
"""

import json

import numpy as np
import pytest

from ompkit.bloch import Tolerances
from ompkit.channels import (
    CptpVerdict,
    QubitChannel,
    canonical_form,
    depolarizing_channel,
    is_cptp_choi,
    is_cptp_inequalities,
    unitary_channel,
)
from ompkit.cli import main
from ompkit.discrimination import (
    povm_value,
    povm_weights,
    solve,
    solve_general,
)
from ompkit.ensembles import helstrom
from ompkit.errors import PairSetTooSmall
from ompkit.fileio import bundled_ensemble
from ompkit.gallery import _affine_fit
from ompkit.omp_check import check_equiprobable, check_omp, check_convex_mix
from ompkit.omp_construct import family_for, sieve_admissible

from helpers import oracle_random_search, random_ensemble


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _bb84_slice_matrix(delta: float) -> np.ndarray:
    a = 1.0 - 4.0 * delta
    return np.array([[a, a, 0.0], [0.0, a, 0.0], [0.0, a, a]])


def _true_intervals(grid: np.ndarray, flags: np.ndarray) -> list:
    idx = np.flatnonzero(flags)
    if idx.size == 0:
        return []
    segs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
    return [(float(grid[s[0]]), float(grid[s[-1]])) for s in segs]


def test_01_bb84_guessing_probability():
    ens = bundled_ensemble("bb84")
    sol = solve_general(ens)
    ok = abs(sol.p_guess - 0.5) <= 1e-8
    values = [povm_value(ens, sol)]
    for subset in [(2, 3), (0, 1)]:
        w = povm_weights(ens, sol, subset)
        values.append(povm_value(ens, sol, weights=w))
    ok = ok and all(abs(v - 0.5) <= 1e-8 for v in values)
    _report(1, ok, f"p_guess {sol.p_guess!r}, measurement values {values}")


def _family_samples(tmp_path, capsys, name, seed):
    from importlib import resources

    path = tmp_path / f"{name}.json"
    path.write_text(resources.files("ompkit").joinpath(f"data/{name}.json").read_text())
    code = main(
        [
            "family",
            str(path),
            "--unital",
            "--samples",
            "200",
            "--seed",
            str(seed),
            "--json",
            "--no-timestamp",
        ]
    )
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    return rep["samples"]


def test_02_three_mub_family_isotropic(tmp_path, capsys):
    samples = _family_samples(tmp_path, capsys, "three_mubs", seed=1)
    assert len(samples) >= 20
    worst = 0.0
    for s in samples:
        d = np.array(s["D"])
        off = d - np.diag(np.diag(d))
        worst = max(worst, float(np.max(np.abs(off))))
        worst = max(worst, float(np.ptp(np.diag(d))))
        worst = max(worst, float(np.max(np.abs(np.diag(d) - (1 - 6 * s["delta"])))))
    _report(2, worst <= 1e-8, f"{len(samples)} unital members, worst deviation {worst:.3e}")


def test_03_sic_family_isotropic(tmp_path, capsys):
    samples = _family_samples(tmp_path, capsys, "sic", seed=1)
    assert len(samples) >= 20
    worst = 0.0
    for s in samples:
        d = np.array(s["D"])
        off = d - np.diag(np.diag(d))
        worst = max(worst, float(np.max(np.abs(off))))
        worst = max(worst, float(np.ptp(np.diag(d))))
        worst = max(worst, float(np.max(np.abs(np.diag(d) - (1 - 4 * s["delta"])))))
    _report(3, worst <= 1e-8, f"{len(samples)} unital members, worst deviation {worst:.3e}")


def test_04_bb84_unital_slice_region():
    # singular values of the one-parameter slice D = a * M, a = 1 - 4 delta
    sv = np.sort(np.array([1.0, np.sqrt(2 - np.sqrt(3)), np.sqrt(2 + np.sqrt(3))]))
    worst = 0.0
    for delta in (0.05, 0.15, 0.2):
        cf = canonical_form(QubitChannel(_bb84_slice_matrix(delta), np.zeros(3)))
        a = 1.0 - 4.0 * delta
        worst = max(worst, float(np.max(np.abs(np.abs(cf.scales) - a * sv))))
    sv_ok = worst <= 1e-8

    # admissible degradation region of the slice. det M = 1, so for a > 0 the
    # canonical scales a * sv are all positive and the Fujiwara-Algoet
    # tetrahedron condition binds on its face 1 + l_min >= l_mid + l_max:
    # a <= 1 / (sv_mid + sv_max - sv_min) = 1 / (1 + sqrt(2)), since
    # (sqrt(2 + sqrt(3)) - sqrt(2 - sqrt(3)))**2 = 2. Hence the lower end is
    # delta = (1 - a_max) / 4 = (2 - sqrt(2)) / 4. The Choi determinant of the
    # slice, (a**2 + 2a - 1)(5a**2 - 2a - 1) / 16, vanishes there and next at
    # a = (1 - sqrt(6)) / 5, i.e. delta = (4 + sqrt(6)) / 20, beyond the scan,
    # which stops at the bb84 minimum gap 0.25. For delta < 0.1206 the
    # largest scale exceeds 1, so those maps are not even positive.
    step = 2.5e-5
    grid = np.arange(0.0, 0.25, step)
    a_max = 1.0 / (sv[1] + sv[2] - sv[0])
    want_lo = float((1.0 - a_max) / 4.0)
    flags = np.array(
        [
            is_cptp_choi(QubitChannel(_bb84_slice_matrix(g), np.zeros(3)))
            is CptpVerdict.CPTP
            for g in grid
        ]
    )
    intervals = _true_intervals(grid, flags)
    want_intervals = [(want_lo, float(grid[-1]))]
    region_ok = (
        len(intervals) == 1
        and abs(intervals[0][0] - want_lo) <= step
        and intervals[0][1] == want_intervals[0][1]
    )
    _report(
        4,
        sv_ok and region_ok,
        f"singular value deviation {worst:.3e}; expected admissible regions "
        f"{want_intervals}, measured {intervals}",
    )


def test_05_bb84_non_unital_slice():
    # D = -0.2 * M with shift (0, t2, 0). The Choi determinant of this channel
    # is (5 t2**2 - 2)(25 t2**2 - 34) / 2000; the Choi matrix is positive
    # definite at t2 = 0 and first becomes singular at t2 = +-sqrt(2/5).
    d = _bb84_slice_matrix(0.3)
    step = 1e-4
    grid = np.arange(-1.0, 1.0, step)
    want = np.sqrt(2 / 5)
    flags = np.array(
        [
            is_cptp_choi(QubitChannel(d, np.array([0.0, t, 0.0]))) is CptpVerdict.CPTP
            for t in grid
        ]
    )
    intervals = _true_intervals(grid, flags)
    ok = (
        len(intervals) == 1
        and abs(intervals[0][0] + want) <= step
        and abs(intervals[0][1] - want) <= step
    )
    _report(5, ok, f"expected admissible t2 in [{-want}, {want}], measured {intervals}")


def test_06_unequal_priors_example():
    ens = bundled_ensemble("unequal3")
    sol = solve(ens)
    axes_want = np.array(
        [[-0.796, 0.385, -0.466], [0.605, -0.713, 0.354], [0.304, 0.936, 0.178]]
    )
    axes_got = np.array([sol.comp_axis(x) for x in range(3)])
    axes_err = float(np.max(np.abs(axes_got - axes_want)))

    fam = family_for(ens, sol)
    relations = (
        (2, 0, (1.707, 1.707, 7.075)),
        (5, 3, (0.0, 1.707, 1.547)),
        (8, 6, (1.0, 1.707, 4.145)),
        (9, 1, (0.0, 2.598, 1.808)),
        (10, 4, (2.598, 2.598, 9.894)),
        (11, 7, (0.0, 2.598, 1.059)),
    )
    coef_err = 0.0
    for target, free, want in relations:
        c0, c1, c2, residual = _affine_fit(fam, target, free)
        got = (abs(c0), abs(c1), abs(c2))
        coef_err = max(coef_err, residual, max(abs(g - w) for g, w in zip(got, want)))
    ok = axes_err <= 1e-3 and coef_err <= 1e-3
    _report(
        6,
        ok,
        f"complementary axis error {axes_err:.2e}, family coefficient error {coef_err:.2e}",
    )


def _solvable(rng, n, equiprobable=False, least=2):
    while True:
        ens = random_ensemble(rng, n, equiprobable=equiprobable)
        sol = solve(ens)
        if len(sol.identified) >= least:
            return ens, sol


def test_07_depolarization_property():
    rng = np.random.default_rng(71)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        ens, sol = _solvable(rng, n, equiprobable=True)
        eta = float(rng.uniform(0.0, 1.0))
        rep = check_omp(ens, depolarizing_channel(eta), sol)
        min_r = float(np.min(sol.gaps[list(sol.identified)]))
        if rep.delta <= min_r + 1e-9:
            assert rep.is_omp, (n, eta, rep.delta, min_r)
            checked += 1
        eq = check_equiprobable(ens, depolarizing_channel(eta), sol)
        assert abs(eq.kappa - (1.0 - eta)) <= 1e-8
    for _ in range(200):
        ens, sol = _solvable(rng, 2)
        eta = float(rng.uniform(0.0, 1.0))
        rep = check_omp(ens, depolarizing_channel(eta), sol)
        min_r = float(np.min(sol.gaps[list(sol.identified)]))
        if rep.delta <= min_r + 1e-9:
            assert rep.is_omp, (eta, rep.delta, min_r)
            checked += 1
    _report(7, True, f"400 random ensembles, {checked} within the degradation bound")


def test_08_unitary_propositions():
    rng = np.random.default_rng(81)
    for _ in range(200):
        ens, sol = _solvable(rng, 2)
        h = ens.priors[0] * ens.blochs[0] - ens.priors[1] * ens.blochs[1]
        h /= np.linalg.norm(h)
        rep = check_omp(ens, unitary_channel(h, float(rng.uniform(0.1, 3.0))), sol)
        assert rep.is_omp and abs(rep.delta) <= 1e-8
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        rep = check_omp(ens, unitary_channel(axis, float(rng.uniform(0.1, 3.0))), sol)
        assert not rep.is_omp
    for _ in range(100):
        ens, sol = _solvable(rng, int(rng.integers(3, 7)), least=3)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        rep = check_omp(ens, unitary_channel(axis, float(rng.uniform(0.1, 3.0))), sol)
        assert not rep.is_omp
    _report(8, True, "200 pair rotations, 200 skew rotations, 100 multi-state rotations")


def test_09_kkt_congruence_and_oracle():
    rng = np.random.default_rng(91)
    for trial in range(500):
        ens = random_ensemble(rng, int(rng.integers(2, 6)))
        sol = solve_general(ens)
        k = sol.symmetry_op
        for x in range(ens.n):
            lo = (k.alpha - 0.5 * ens.priors[x]) - np.linalg.norm(
                k.beta - 0.5 * ens.priors[x] * ens.blochs[x]
            )
            assert lo >= -1e-9
        assert abs(sol.p_guess - k.trace) <= 1e-8
        for x in sol.identified:
            for y in sol.identified:
                if x >= y:
                    continue
                h = helstrom(ens, x, y)
                want = 0.5 * (
                    sol.gaps[y] * sol.comp_axis(y) - sol.gaps[x] * sol.comp_axis(x)
                )
                assert np.max(np.abs(h.op.beta - want)) <= 1e-8
        best = oracle_random_search(ens, samples=10_000, seed=trial)
        assert best <= sol.p_guess + 1e-8
    _report(9, True, "500 ensembles: duality bracket, congruence, oracle bound")


def test_10_convexity_of_the_preserving_set():
    ens = bundled_ensemble("three_mubs")
    sol = solve(ens)
    fam = family_for(ens, sol)
    kept = sieve_admissible(fam, count=400, seed=21, box=0.5)
    assert len(kept) >= 101, len(kept)
    worst = 0.0
    for a, b in zip(kept[:100], kept[1:101]):
        rep = check_convex_mix(ens, a.channel, b.channel, 0.5, sol)
        assert rep.is_omp
        worst = max(worst, abs(rep.delta - 0.5 * (a.delta + b.delta)))
    _report(10, worst <= 1e-8, f"100 midpoint mixtures, worst delta error {worst:.3e}")


def test_11_cptp_cross_check():
    rng = np.random.default_rng(111)
    conclusive = 0
    for _ in range(10_000):
        ch = QubitChannel(
            rng.uniform(-1.2, 1.2, size=(3, 3)), rng.uniform(-1.2, 1.2, size=3)
        )
        choi = is_cptp_choi(ch)
        quick = is_cptp_inequalities(canonical_form(ch))
        if quick is not CptpVerdict.INCONCLUSIVE:
            conclusive += 1
            assert quick is choi, (ch.matrix, ch.shift, quick, choi)
    _report(11, True, f"10000 random affine pairs, {conclusive} conclusive, 0 disagreements")


def test_12_examples_command(capsys):
    code = main(["examples", "--no-timestamp"])
    out = capsys.readouterr().out
    ok = code == 0 and "5/5 PASS" in out
    _report(12, ok, f"exit code {code}, summary line {out.strip().splitlines()[-1]!r}")
