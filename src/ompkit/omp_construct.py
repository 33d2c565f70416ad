"""Construction of the full family of measurement-preserving channels.

The pairwise preservation conditions are linear in the channel matrix, the
shift, and the degradation, so for a measurement identifying m states they
stack into a 3(m-1) x 13 system whose solution set is an affine subspace:
a minimum-norm particular solution plus the kernel.  Everything here builds
that subspace, slices it (unital, fixed degradation), and sieves random
members down to admissible channels, meaning completely positive ones whose
degradation stays within the measurement's gap bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import DEFAULT_TOL, Tolerances, nullspace, pinv
from .channels import QubitChannel, choi_min_eigenvalues
from .discrimination import DiscriminationSolution, povm_weights, solve
from .ensembles import Ensemble, _index_array
from .errors import (
    ConsistencyError,
    DeltaUnreachable,
    MissingComplementaryState,
    PairSetTooSmall,
    WrongLength,
)

# Unknown vector layout: three channel-matrix rows, then the shift, then the
# degradation scalar.
N_UNKNOWNS = 13
SHIFT_COORDS = (9, 10, 11)
DELTA_COORD = 12
# sieve draws screened per batched Choi test; bounds the sieve's memory
_SIEVE_BLOCK = 4096


@dataclass(frozen=True)
class OmpSystem:
    """One optimal measurement of an ensemble and its preservation conditions.

    ``index_set`` names the measured states and ``weights`` the
    completeness weights of the measurement, so a system exists only for a
    complete optimal measurement.  ``helstrom_rows[j]`` is the weighted
    Bloch difference of the anchor state against the j-th other identified
    state, ``prior_diffs[j]`` the prior difference, and ``comp_diffs[j]``
    the complementary-axis difference.  ``coeff_matrix`` is their
    3(m-1) x 13 assembly and ``identity_vec`` packs the identity channel,
    which is always a solution.
    """

    ensemble: Ensemble
    solution: DiscriminationSolution
    index_set: tuple
    weights: np.ndarray
    helstrom_rows: np.ndarray
    prior_diffs: np.ndarray
    comp_diffs: np.ndarray
    coeff_matrix: np.ndarray
    identity_vec: np.ndarray


@dataclass(frozen=True)
class OmpFamily:
    """Affine solution set: ``particular + null_basis @ c`` over free c."""

    system: OmpSystem
    particular: np.ndarray
    null_basis: np.ndarray
    dim: int


@dataclass(frozen=True)
class SieveSample:
    """One admissible family member and the coefficients that produced it."""

    channel: QubitChannel
    delta: float
    coeffs: np.ndarray


def pack(channel: QubitChannel, delta: float) -> np.ndarray:
    """Flatten a channel and degradation into the 13-vector of unknowns."""
    return np.concatenate(
        [channel.matrix.reshape(9), channel.shift, [float(delta)]]
    )


def unpack(x) -> tuple:
    """Inverse of pack; validates the length."""
    x = np.asarray(x, dtype=float)
    if x.shape != (N_UNKNOWNS,):
        raise WrongLength(f"expected a 13-vector, got shape {x.shape}")
    return QubitChannel(x[:9].reshape(3, 3), x[9:12]), float(x[DELTA_COORD])


def build_system(
    ens: Ensemble,
    sol: DiscriminationSolution | None = None,
    index_set=None,
    tol: Tolerances = DEFAULT_TOL,
) -> OmpSystem:
    """Validate a measurement on ``ens`` and assemble its conditions.

    ``index_set`` defaults to every identified state.  It must name at
    least two states of ``[0, n)`` (PairSetTooSmall, IndexOutOfRange), all
    identified (MissingComplementaryState), that complete a measurement
    without repeats (InfeasibleCompleteness from ``povm_weights``); the
    weights are the solution's own when the set is its identified set and
    it measures.
    This is the one validation of an index set for check_omp, family_for
    and the sieve.
    The anchor is the smallest index in the set; rows for all other pairs
    are linear combinations of the anchored ones, so nothing is lost.
    """
    if sol is None:
        sol = solve(ens, tol)
    if index_set is None:
        index_set = sol.identified
    index_set = tuple(index_set)
    idx = _index_array(ens, index_set)
    if len(index_set) < 2:
        raise PairSetTooSmall(
            f"need at least two identified states, got {len(index_set)}"
        )
    unknown = set(index_set).difference(sol.identified)
    if unknown:
        raise MissingComplementaryState(f"state {min(unknown)} is not identified")
    if index_set == sol.identified and np.any(sol.povm_weights):
        # the solver already completed this measurement
        weights = sol.povm_weights
    else:
        weights = povm_weights(ens, sol, index_set, tol)
    short = np.linalg.norm(sol.comp_states[idx], axis=1) < 0.5
    if np.any(short):
        raise MissingComplementaryState(
            f"state {idx[short][0]} has no complementary axis"
        )
    a1 = min(index_set)
    rest = idx[idx != a1]
    m1 = len(rest)
    rows = (
        ens.priors[a1] * ens.blochs[a1] - ens.priors[rest, None] * ens.blochs[rest]
    )
    dq = ens.priors[a1] - ens.priors[rest]
    sdiff = sol.comp_states[a1] - sol.comp_states[rest]
    q = np.zeros((3 * m1, N_UNKNOWNS))
    for i in range(3):
        block = slice(i * m1, (i + 1) * m1)
        q[block, 3 * i : 3 * i + 3] = rows
        q[block, SHIFT_COORDS[i]] = dq
        q[block, DELTA_COORD] = -sdiff[:, i]
    return OmpSystem(
        ensemble=ens,
        solution=sol,
        index_set=index_set,
        weights=weights,
        helstrom_rows=rows,
        prior_diffs=dq,
        comp_diffs=sdiff,
        coeff_matrix=q,
        identity_vec=pack(QubitChannel(np.eye(3), np.zeros(3)), 0.0),
    )


def solve_family(sys: OmpSystem, tol: Tolerances = DEFAULT_TOL) -> OmpFamily:
    """Minimum-norm particular solution plus orthonormal kernel basis."""
    q, b = sys.coeff_matrix, sys.identity_vec
    particular = pinv(q, tol) @ (q @ b)
    basis = nullspace(q, tol)
    return OmpFamily(sys, particular, basis, basis.shape[1])


def family_for(
    ens: Ensemble,
    sol: DiscriminationSolution | None = None,
    index_set=None,
    tol: Tolerances = DEFAULT_TOL,
) -> OmpFamily:
    """Convenience: build the system and solve it in one step."""
    return solve_family(build_system(ens, sol, index_set, tol), tol)


def fix_coordinates(
    fam: OmpFamily, fixed: dict, tol: Tolerances = DEFAULT_TOL
) -> OmpFamily:
    """Restrict the family to members with the given coordinates pinned.

    ``fixed`` maps unknown-vector positions to target values.  Raises
    DeltaUnreachable when no member attains them.
    """
    coords = sorted(fixed)
    targets = np.array([float(fixed[c]) for c in coords])
    a = fam.null_basis[coords, :]
    rhs = targets - fam.particular[coords]
    # the basis is orthonormal, so entries of ``a`` sit on a unit scale;
    # a selector block below rank_tol means the kernel cannot move these
    # coordinates at all, only round-off pretends it can
    frozen = fam.dim == 0 or np.linalg.norm(a) <= tol.rank_tol
    if frozen:
        if np.linalg.norm(rhs) > tol.match_tol:
            raise DeltaUnreachable(
                f"coordinates {coords} are pinned away from the target"
            )
        return fam
    c = pinv(a, tol) @ rhs
    if np.linalg.norm(a @ c - rhs) > tol.match_tol:
        raise DeltaUnreachable(
            f"no family member attains coordinates {dict(fixed)}"
        )
    particular = fam.particular + fam.null_basis @ c
    keep = nullspace(a, tol)
    basis = fam.null_basis @ keep
    return OmpFamily(fam.system, particular, basis, basis.shape[1])


def unital_slice(fam: OmpFamily, tol: Tolerances = DEFAULT_TOL) -> OmpFamily:
    """Members with zero shift; never empty, the identity is one."""
    return fix_coordinates(fam, {c: 0.0 for c in SHIFT_COORDS}, tol)


def delta_slice(
    fam: OmpFamily, delta: float, tol: Tolerances = DEFAULT_TOL
) -> OmpFamily:
    """Members with the degradation pinned to ``delta``."""
    return fix_coordinates(fam, {DELTA_COORD: float(delta)}, tol)


def sieve_admissible(
    fam: OmpFamily,
    count: int = 1000,
    seed: int = 0,
    box: float = 2.0,
    tol: Tolerances = DEFAULT_TOL,
) -> list:
    """Random admissible members of the family.

    Coefficients are drawn uniformly from ``[-box, box]^dim``; a member is
    kept when its degradation lies in ``[0, min gap]`` up to tolerance, its
    Choi operator is positive, and check_omp's verdict on the family's own
    system confirms it, so the index set, its weights and the linear
    system are those of the family, not derived again per member.  A
    member that meets the pairwise conditions but whose new symmetry
    operator fails to dominate a state left out of the measurement is
    dropped: the family holds the pairwise conditions only.  A member that
    fails the pairwise conditions or the degradation bound of the verdict
    raises ConsistencyError, since that is an assembly bug.

    The draws are screened in blocks of ``_SIEVE_BLOCK``: one stack of
    matrix-vector products, as in ``discrimination._row_dots``, builds every
    member of a block, each bit for bit the per-draw ``particular +
    null_basis @ c``, and one batched eigensolve, the only Choi test of a
    member, tests them; the sieve reports exactly the members it screened.
    Successive blocks continue the generator's stream, so the draws are
    those of one ``uniform`` call per member.
    """
    from .omp_check import _verdict

    rng = np.random.default_rng(seed)
    sys = fam.system
    min_gap = float(np.min(sys.solution.gaps[list(sys.index_set)]))
    kept = []
    left = max(int(count), 0)
    while left > 0:
        coeffs = rng.uniform(-box, box, size=(min(left, _SIEVE_BLOCK), fam.dim))
        left -= len(coeffs)
        members = fam.particular + (fam.null_basis @ coeffs[:, :, None])[:, :, 0]
        deltas = members[:, DELTA_COORD]
        ok = (-tol.match_tol <= deltas) & (deltas <= min_gap + tol.match_tol)
        ok[ok] = choi_min_eigenvalues(members[ok, :DELTA_COORD]) >= -tol.psd_tol
        for x, c in zip(members[ok], coeffs[ok]):
            channel, delta = unpack(x)
            report = _verdict(sys, channel, tol)
            worst = float(np.max(report.residuals))
            if worst > tol.match_tol or not report.r_bound_ok:
                raise ConsistencyError(
                    "sieved member fails the pairwise check: max residual "
                    f"{worst:.3e} (bound {tol.match_tol:.1e}), delta "
                    f"{report.delta:.3e} (bound [0, {min_gap:.6g}]); family "
                    "assembly bug"
                )
            if report.is_omp:
                kept.append(SieveSample(channel, delta, c))
    return kept
