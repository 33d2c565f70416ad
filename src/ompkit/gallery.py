"""Worked reference cases with frozen expected values.

Each case loads one of the bundled ensembles, solves it, builds the
measurement-preserving channel family, and compares a handful of derived
quantities against values frozen here.  The CLI ``examples`` subcommand
runs all of them and reports one pass/fail line per case, which doubles
as an end-to-end self test of the installed package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import DEFAULT_TOL, Tolerances
from .discrimination import povm_value, povm_weights, solve
from .channels import canonical_form, QubitChannel
from .fileio import bundled_ensemble
from .omp_construct import OmpFamily, delta_slice, family_for, unital_slice, unpack

_SQ2 = math.sqrt(2.0)
_SQ3 = math.sqrt(3.0)

# Frozen expectations.  Guessing probabilities and difference matrices are
# exact; components quoted to three decimals keep a 1e-3 comparison.
_BB84_ROWS = np.array([[0.0, 0.0, 0.5], [-0.25, 0.0, 0.25], [0.25, 0.0, 0.25]])
_MUB_ROWS = np.array(
    [[0.0, 0.0, 2.0], [-1.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, -1.0, 1.0], [0.0, 1.0, 1.0]]
) / 6.0
_SIC_ROWS = np.array(
    [
        [-2.0 * _SQ2 / 3.0, 0.0, 4.0 / 3.0],
        [_SQ2 / 3.0, -math.sqrt(2.0 / 3.0), 4.0 / 3.0],
        [_SQ2 / 3.0, math.sqrt(2.0 / 3.0), 4.0 / 3.0],
    ]
) / 4.0
_UNEQUAL_ROWS = np.array(
    [
        [(1.0 + _SQ2) / 8.0, -_SQ3 / 8.0, 1.0 / (4.0 * _SQ2)],
        [(1.0 + _SQ2) / 8.0, _SQ3 / 8.0, 1.0 / (4.0 * _SQ2)],
    ]
)
_UNEQUAL_P_GUESS = 0.5846519612315915
_UNEQUAL_AXES = np.array(
    [[-0.796, 0.385, -0.466], [0.605, -0.713, 0.354], [0.304, 0.936, 0.178]]
)
# Affine dependencies inside the unequal-prior family: each entry maps one
# dependent coordinate to (free coordinate, constant, free coeff, delta coeff).
_UNEQUAL_RELATIONS = (
    (2, 0, 1.707, -1.707, -7.075),
    (5, 3, 0.0, -1.707, 1.547),
    (8, 6, 1.0, -1.707, -4.145),
    (9, 1, 0.0, -2.598, 1.808),
    (10, 4, 2.598, -2.598, -9.894),
    (11, 7, 0.0, -2.598, 1.059),
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named comparison inside a gallery case."""

    label: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CaseReport:
    name: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _close(label: str, got: float, want: float, tol: float) -> CheckResult:
    got = float(got)
    diff = abs(got - want)
    return CheckResult(label, bool(diff <= tol), f"got {got!r}, want {want!r}, |diff| {diff:.3e}")


def _allclose(label: str, got, want, tol: float) -> CheckResult:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return CheckResult(label, False, f"shape {got.shape} != {want.shape}")
    diff = float(np.max(np.abs(got - want))) if got.size else 0.0
    return CheckResult(label, bool(diff <= tol), f"max |diff| {diff:.3e}, tol {tol:.1e}")


def _equal(label: str, got, want) -> CheckResult:
    return CheckResult(label, bool(got == want), f"got {got!r}, want {want!r}")


def _members(fam: OmpFamily, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, size=(count, fam.dim))
    return fam.particular[None, :] + coeffs @ fam.null_basis.T


def _slice_pattern(label: str, fam: OmpFamily, checker, count: int = 12, seed: int = 7):
    """Worst residual of a per-member structural predicate over samples."""
    worst = 0.0
    for x in _members(fam, count, seed):
        channel, delta = unpack(x)
        worst = max(worst, float(checker(channel, delta)))
    return CheckResult(label, worst <= 1e-9, f"worst residual {worst:.3e} over {count} members")


def _affine_fit(fam: OmpFamily, target: int, free: int) -> tuple[float, float, float, float]:
    """Exact affine coefficients of one family coordinate.

    Fits ``x[target] = c0 + c1 x[free] + c2 x[12]`` over sampled members and
    returns ``(c0, c1, c2, residual)``; the residual is machine-zero when the
    family really has that dependency structure.
    """
    pts = _members(fam, 24, seed=11)
    design = np.column_stack([np.ones(len(pts)), pts[:, free], pts[:, 12]])
    coef, _, _, _ = np.linalg.lstsq(design, pts[:, target], rcond=None)
    residual = float(np.max(np.abs(design @ coef - pts[:, target])))
    return float(coef[0]), float(coef[1]), float(coef[2]), residual


def _case_one_basis(tol: Tolerances) -> CaseReport:
    ens = bundled_ensemble("one_basis")
    sol = solve(ens, tol)
    fam = family_for(ens, sol, tol=tol)
    gap = ens.priors[0] - ens.priors[1]
    sliced = delta_slice(fam, 0.1, tol)

    def relations(channel: QubitChannel, delta: float) -> float:
        d, t = channel.matrix, channel.shift
        return max(
            abs(d[0, 2] + gap * t[0]),
            abs(d[1, 2] + gap * t[1]),
            abs(d[2, 2] - (1.0 - 2.0 * delta - gap * t[2])),
        )

    checks = (
        _close("guessing probability is certain", sol.p_guess, 1.0, 1e-12),
        _allclose("projective weights", sol.povm_weights, [1.0, 1.0], 1e-12),
        _equal("family dimension", fam.dim, 10),
        _slice_pattern("third-column relations on the delta slice", sliced, relations),
    )
    return CaseReport("one_basis", checks)


def _case_bb84(tol: Tolerances) -> CaseReport:
    ens = bundled_ensemble("bb84")
    sol = solve(ens, tol)
    fam = family_for(ens, sol, tol=tol)

    def pattern(channel: QubitChannel, delta: float) -> float:
        d = channel.matrix
        fixed = 1.0 - 4.0 * delta
        zeros = max(abs(d[0, 2]), abs(d[1, 0]), abs(d[1, 2]), abs(d[2, 0]))
        return max(zeros, abs(d[0, 0] - fixed), abs(d[2, 2] - fixed))

    sub_z = povm_weights(ens, sol, index_set=(0, 1), tol=tol)
    sub_x = povm_weights(ens, sol, index_set=(2, 3), tol=tol)
    shrink = 0.8
    member = QubitChannel(
        np.array([[shrink, shrink, 0.0], [0.0, shrink, 0.0], [0.0, shrink, shrink]]),
        np.zeros(3),
    )
    singulars = shrink * np.array(
        [math.sqrt(2.0 - _SQ3), 1.0, math.sqrt(2.0 + _SQ3)]
    )
    checks = (
        _close("guessing probability", sol.p_guess, 0.5, 1e-12),
        _allclose("four-outcome weights", sol.povm_weights, [0.5] * 4, 1e-12),
        _allclose("pairwise difference rows", fam.system.helstrom_rows, _BB84_ROWS, 1e-12),
        _equal("family dimension", fam.dim, 7),
        _slice_pattern("diagonal ties and structural zeros", fam, pattern),
        _close("z-basis submeasurement value", povm_value(ens, sol, sub_z), 0.5, 1e-12),
        _close("x-basis submeasurement value", povm_value(ens, sol, sub_x), 0.5, 1e-12),
        _allclose(
            "canonical scales of an equal-offdiagonal member",
            canonical_form(member).scales,
            singulars,
            1e-9,
        ),
    )
    return CaseReport("bb84", checks)


def _case_three_mubs(tol: Tolerances) -> CaseReport:
    ens = bundled_ensemble("three_mubs")
    sol = solve(ens, tol)
    fam = family_for(ens, sol, tol=tol)
    unital = unital_slice(fam, tol)

    def isotropic(channel: QubitChannel, delta: float) -> float:
        want = (1.0 - 6.0 * delta) * np.eye(3)
        return float(np.max(np.abs(channel.matrix - want)))

    checks = (
        _close("guessing probability", sol.p_guess, 1.0 / 3.0, 1e-12),
        _allclose("six-outcome weights", sol.povm_weights, [1.0 / 3.0] * 6, 1e-9),
        _allclose("pairwise difference rows", fam.system.helstrom_rows, _MUB_ROWS, 1e-12),
        _equal("family dimension", fam.dim, 4),
        _slice_pattern("unital members are isotropic", unital, isotropic),
    )
    return CaseReport("three_mubs", checks)


def _case_sic(tol: Tolerances) -> CaseReport:
    ens = bundled_ensemble("sic")
    sol = solve(ens, tol)
    fam = family_for(ens, sol, tol=tol)
    unital = unital_slice(fam, tol)

    def isotropic(channel: QubitChannel, delta: float) -> float:
        want = (1.0 - 4.0 * delta) * np.eye(3)
        return float(np.max(np.abs(channel.matrix - want)))

    checks = (
        _close("guessing probability", sol.p_guess, 0.5, 1e-12),
        _allclose("four-outcome weights", sol.povm_weights, [0.5] * 4, 1e-9),
        _allclose("pairwise difference rows", fam.system.helstrom_rows, _SIC_ROWS, 1e-12),
        _equal("family dimension", fam.dim, 4),
        _slice_pattern("unital members are isotropic", unital, isotropic),
    )
    return CaseReport("sic", checks)


def _case_unequal3(tol: Tolerances) -> CaseReport:
    ens = bundled_ensemble("unequal3")
    sol = solve(ens, tol)
    fam = family_for(ens, sol, tol=tol)
    axes = np.array([sol.comp_axis(x) for x in range(3)])

    coef_checks = []
    for target, free, c0, c1, c2 in _UNEQUAL_RELATIONS:
        got0, got1, got2, residual = _affine_fit(fam, target, free)
        worst = max(abs(got0 - c0), abs(got1 - c1), abs(got2 - c2), residual)
        coef_checks.append(
            CheckResult(
                f"affine link x[{target}] ~ x[{free}], delta",
                bool(worst <= 1e-3),
                f"coeffs ({got0:.4f}, {got1:.4f}, {got2:.4f}), worst error {worst:.3e}",
            )
        )

    checks = (
        _close("guessing probability", sol.p_guess, _UNEQUAL_P_GUESS, 1e-12),
        _allclose("pairwise difference rows", fam.system.helstrom_rows, _UNEQUAL_ROWS, 1e-12),
        _allclose("complementary axes", axes, _UNEQUAL_AXES, 1e-3),
        _equal("family dimension", fam.dim, 7),
        *coef_checks,
    )
    return CaseReport("unequal3", checks)


_CASES = {
    "one_basis": _case_one_basis,
    "bb84": _case_bb84,
    "three_mubs": _case_three_mubs,
    "sic": _case_sic,
    "unequal3": _case_unequal3,
}


def run_all(tol: Tolerances = DEFAULT_TOL) -> tuple[CaseReport, ...]:
    """Run every gallery case in a fixed order."""
    return tuple(case(tol) for case in _CASES.values())
