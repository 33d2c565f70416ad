"""Tests for preservation of optimal measurements under a qubit channel.

A channel preserves an optimal measurement exactly when one scalar, the
guessing degradation, simultaneously closes every pairwise linear condition
relating the channel to the measurement's complementary states.  The checks
here fit that scalar by least squares, decide preservation from the
residuals and the gap bound, and then cross-validate the verdict by
re-solving the transformed ensemble, so a positive answer is always backed
by two independent computations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .bloch import DEFAULT_TOL, Tolerances
from .channels import CptpVerdict, QubitChannel, is_cptp_choi
from .discrimination import (
    CaseTag,
    DiscriminationSolution,
    povm_weights,
    solve,
    solve_two_state,
)
from .ensembles import Ensemble, make_ensemble
from .errors import (
    BadParameter,
    ChannelNotCPTP,
    ConsistencyError,
    DominatedState,
    NotEquiprobable,
    NotOmpInput,
    NotUnitary,
    PairSetTooSmall,
    WrongArity,
)


class Mode(enum.Enum):
    """STRONG tests the canonical maximal measurement, WEAK a user subset."""

    STRONG = "strong"
    WEAK = "weak"


@dataclass(frozen=True)
class OmpReport:
    """Outcome of a preservation check.

    ``residuals`` holds one Euclidean residual per state pair;
    ``r_bound_ok`` records whether the fitted degradation sits inside
    ``[0, min gap]`` up to tolerance.  ``p_guess_after`` is the re-solved
    guessing probability of the transformed ensemble.
    """

    is_omp: bool
    delta: float
    residuals: np.ndarray
    r_bound_ok: bool
    index_set: tuple
    mode: Mode
    p_guess_before: float
    p_guess_after: float


@dataclass(frozen=True)
class EquiprobableReport:
    """Uniform-prior specialization: one contraction ratio decides."""

    is_omp: bool
    kappa: float
    delta: float
    residual: float


@dataclass(frozen=True)
class TwoStateReport:
    """Two-state specialization: the pair operator maps to scale * itself
    plus offset * identity, with the offset pinned by trace preservation."""

    is_omp: bool
    scale: float
    offset: float
    delta: float
    residual: float


def _require_cptp(channel: QubitChannel, tol: Tolerances):
    if is_cptp_choi(channel, tol.psd_tol) is not CptpVerdict.CPTP:
        raise ChannelNotCPTP("channel fails the Choi positivity test")


def _transformed(ens: Ensemble, channel: QubitChannel, tol: Tolerances) -> Ensemble:
    # CPTP keeps outputs inside the ball up to roundoff; widen the guard
    out_tol = Tolerances(10.0 * tol.psd_tol, tol.rank_tol, tol.match_tol)
    states = [
        (q, channel.apply(v, out_tol)) for q, v in zip(ens.priors, ens.blochs)
    ]
    return make_ensemble(states, out_tol)


def _preserved_value(ens, sol, index_set, weights, channel, tol) -> float:
    """Success probability of the measurement with ``weights`` on the
    transformed ensemble."""
    total = 0.0
    for x in index_set:
        out = channel.apply(ens.blochs[x], tol)
        total += ens.priors[x] * weights[x] * 0.5 * (1.0 - sol.comp_axis(x) @ out)
    return float(total)


def check_omp(
    ens: Ensemble,
    channel: QubitChannel,
    sol: DiscriminationSolution | None = None,
    index_set=None,
    tol: Tolerances = DEFAULT_TOL,
) -> OmpReport:
    """Decide whether ``channel`` preserves an optimal measurement of ``ens``.

    With the default ``index_set`` the maximal identified set is used
    (strong check); passing a subset tests preservation of that particular
    measurement after validating it is a complete optimal measurement.
    The pairwise conditions are anchored at the smallest index; remaining
    pairs follow by linearity, so the anchored set is exhaustive.  They make
    ``K' = q_a N(rho_a) + (r_a - delta) sigma_a`` the candidate symmetry
    operator of the transformed ensemble; the verdict is positive only if
    ``K'`` also dominates every weighted state left out of the index set,
    ``K' >= q_x N(rho_x)`` to ``psd_tol`` (the Yuen-Kennedy-Lax / Holevo
    condition), tested by the closed-form smallest eigenvalue.

    A positive verdict is cross-validated: the transformed ensemble is
    re-solved and both the degradation identity and the optimality of the
    preserved measurement must hold, else ConsistencyError.
    """
    _require_cptp(channel, tol)
    if sol is None:
        sol = solve(ens, tol)
    if index_set is None:
        index_set = sol.identified
    index_set = tuple(index_set)
    if len(index_set) < 2:
        raise PairSetTooSmall(
            f"need at least two identified states, got {len(index_set)}"
        )
    mode = Mode.STRONG if set(index_set) == set(sol.identified) else Mode.WEAK
    # validates membership and completeness of the chosen measurement
    weights = povm_weights(ens, sol, index_set, tol)
    a1 = min(index_set)
    rest = [x for x in index_set if x != a1]
    lhs = []
    axes = []
    for aj in rest:
        hvec = ens.priors[a1] * ens.blochs[a1] - ens.priors[aj] * ens.blochs[aj]
        lhs.append(
            channel.matrix @ hvec
            + (ens.priors[a1] - ens.priors[aj]) * channel.shift
            - hvec
        )
        axes.append(sol.comp_states[a1] - sol.comp_states[aj])
    lhs = np.array(lhs)
    axes = np.array(axes)
    denom = float(np.sum(axes * axes))
    delta = float(np.sum(lhs * axes) / denom) if denom > 1e-18 else 0.0
    residuals = np.linalg.norm(lhs - delta * axes, axis=1)
    min_gap = float(np.min(sol.gaps[list(index_set)]))
    r_bound_ok = -tol.match_tol <= delta <= min_gap + tol.match_tol
    # beta is twice the Bloch vector of K'; alpha I + b.sigma has smallest
    # eigenvalue alpha - |b|
    out = np.setdiff1d(np.arange(ens.n), index_set)
    mapped = ens.blochs @ channel.matrix.T + channel.shift
    beta = ens.priors[a1] * mapped[a1] + (sol.gaps[a1] - delta) * sol.comp_states[a1]
    low = 0.5 * (sol.p_guess - delta - ens.priors[out]) - 0.5 * np.linalg.norm(
        beta - ens.priors[out, None] * mapped[out], axis=1
    )
    dominated = bool(np.all(low >= -tol.psd_tol))
    is_omp = bool(np.max(residuals) <= tol.match_tol) and r_bound_ok and dominated
    after_sol = solve(_transformed(ens, channel, tol), tol)
    report = OmpReport(
        is_omp=is_omp,
        delta=delta,
        residuals=residuals,
        r_bound_ok=r_bound_ok,
        index_set=index_set,
        mode=mode,
        p_guess_before=sol.p_guess,
        p_guess_after=after_sol.p_guess,
    )
    if is_omp:
        drop = sol.p_guess - after_sol.p_guess
        if abs(delta - drop) > 10.0 * tol.match_tol:
            raise ConsistencyError(
                f"fitted degradation {delta:.3e} disagrees with re-solved "
                f"drop {drop:.3e}"
            )
        value = _preserved_value(ens, sol, index_set, weights, channel, tol)
        if abs(value - after_sol.p_guess) > 10.0 * tol.match_tol:
            raise ConsistencyError(
                "preserved measurement is not optimal for the transformed "
                f"ensemble: {value:.12g} vs {after_sol.p_guess:.12g}"
            )
    return report


def check_equiprobable(
    ens: Ensemble,
    channel: QubitChannel,
    sol: DiscriminationSolution | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> EquiprobableReport:
    """Uniform-prior preservation test.

    For equal priors the pairwise conditions collapse to one scalar: every
    identified difference vector must be an eigenvector of the channel
    matrix with a common ratio in (0, 1].  The shift drops out entirely.
    The degradation is the lost fraction of the common gap,
    ``(1 - kappa) * (p_guess - 1/n)``.
    """
    _require_cptp(channel, tol)
    if np.ptp(ens.priors) > tol.match_tol:
        raise NotEquiprobable(f"priors range over {np.ptp(ens.priors):.3g}")
    if sol is None:
        sol = solve(ens, tol)
    if len(sol.identified) < 2:
        raise PairSetTooSmall("need at least two identified states")
    a1 = min(sol.identified)
    diffs = np.array(
        [ens.blochs[a1] - ens.blochs[aj] for aj in sol.identified if aj != a1]
    )
    mapped = diffs @ channel.matrix.T
    kappa = float(np.sum(mapped * diffs) / np.sum(diffs * diffs))
    residual = float(np.max(np.linalg.norm(mapped - kappa * diffs, axis=1)))
    is_omp = residual <= tol.match_tol and 0.0 < kappa <= 1.0 + tol.match_tol
    delta = (1.0 - kappa) * (sol.p_guess - 1.0 / ens.n)
    if is_omp:
        after = solve(_transformed(ens, channel, tol), tol)
        drop = sol.p_guess - after.p_guess
        if abs(delta - drop) > 10.0 * tol.match_tol:
            raise ConsistencyError(
                f"degradation {delta:.3e} disagrees with re-solved drop "
                f"{drop:.3e}"
            )
    return EquiprobableReport(is_omp, kappa, delta, residual)


def check_two_state(
    ens: Ensemble,
    channel: QubitChannel,
    tol: Tolerances = DEFAULT_TOL,
) -> TwoStateReport:
    """Two-state preservation test via the pair operator.

    Fits the scale factor on the weighted Bloch difference; the identity
    offset is fixed by trace preservation rather than fitted.  Preservation
    requires the scale to lie in ``[(2 q_max - 1)/(2 p_guess - 1), 1]``.
    """
    if ens.n != 2:
        raise WrongArity(f"two-state check got {ens.n} states")
    _require_cptp(channel, tol)
    sol = solve_two_state(ens, tol)
    if any(t is CaseTag.NO_MEASUREMENT for t in sol.case_tags):
        raise DominatedState("guessing is optimal; no measurement to preserve")
    hvec = ens.priors[0] * ens.blochs[0] - ens.priors[1] * ens.blochs[1]
    g = channel.matrix @ hvec + (ens.priors[0] - ens.priors[1]) * channel.shift
    scale = float(g @ hvec / (hvec @ hvec))
    residual = float(np.linalg.norm(g - scale * hvec))
    offset = float((1.0 - scale) * (ens.priors[0] - ens.priors[1]) / 2.0)
    low = (2.0 * float(np.max(ens.priors)) - 1.0) / (2.0 * sol.p_guess - 1.0)
    is_omp = (
        residual <= tol.match_tol
        and low - tol.match_tol <= scale <= 1.0 + tol.match_tol
    )
    delta = (1.0 - scale) * (sol.p_guess - 0.5)
    if is_omp:
        after = solve(_transformed(ens, channel, tol), tol)
        drop = sol.p_guess - after.p_guess
        if abs(delta - drop) > 10.0 * tol.match_tol:
            raise ConsistencyError(
                f"degradation {delta:.3e} disagrees with re-solved drop "
                f"{drop:.3e}"
            )
    return TwoStateReport(is_omp, scale, offset, delta, residual)


def _rotation_axis(d: np.ndarray) -> np.ndarray:
    """Unit axis of a proper rotation (the +1 eigenvector)."""
    w, v = np.linalg.eig(d)
    k = int(np.argmin(np.abs(w - 1.0)))
    axis = np.real(v[:, k])
    return axis / np.linalg.norm(axis)


def check_unitary(
    ens: Ensemble,
    channel: QubitChannel,
    sol: DiscriminationSolution | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> bool:
    """Preservation verdict for a rotation channel, decided geometrically.

    A two-element measurement survives exactly the rotations about its own
    axis; a measurement identifying three or more states survives only the
    identity.  With no identified states (guessing) every rotation trivially
    preserves the strategy.  Positive verdicts are cross-checked against
    check_omp, which must report zero degradation.
    """
    d, t = channel.matrix, channel.shift
    if (
        np.linalg.norm(d.T @ d - np.eye(3)) > 1e-9
        or abs(np.linalg.det(d) - 1.0) > 1e-9
        or np.linalg.norm(t) > 1e-9
    ):
        raise NotUnitary("channel is not a Bloch rotation")
    if sol is None:
        sol = solve(ens, tol)
    identity = np.linalg.norm(d - np.eye(3)) <= tol.match_tol
    if len(sol.identified) == 0:
        verdict = True
    elif len(sol.identified) > 2:
        verdict = identity
    else:
        axis = _rotation_axis(d)
        meas = sol.comp_axis(sol.identified[0])
        verdict = identity or np.linalg.norm(np.cross(axis, meas)) <= tol.match_tol
    if verdict and len(sol.identified) >= 2:
        report = check_omp(ens, channel, sol, tol=tol)
        if not report.is_omp or abs(report.delta) > tol.match_tol:
            raise ConsistencyError(
                "geometric verdict disagrees with the pairwise check"
            )
    return verdict


def check_pg_preserving(
    ens: Ensemble,
    channel: QubitChannel,
    tol: Tolerances = DEFAULT_TOL,
) -> bool:
    """True when every pairwise weighted difference is left untouched.

    This is the zero-degradation condition over all pairs, identified or
    not; such channels keep the guessing probability exactly.
    """
    for x in range(ens.n):
        for y in range(x + 1, ens.n):
            hvec = ens.priors[x] * ens.blochs[x] - ens.priors[y] * ens.blochs[y]
            g = (
                channel.matrix @ hvec
                + (ens.priors[x] - ens.priors[y]) * channel.shift
                - hvec
            )
            if np.linalg.norm(g) > tol.match_tol:
                return False
    return True


def check_convex_mix(
    ens: Ensemble,
    first: QubitChannel,
    second: QubitChannel,
    mix: float,
    sol: DiscriminationSolution | None = None,
    index_set=None,
    tol: Tolerances = DEFAULT_TOL,
) -> OmpReport:
    """Check the blend ``(1-mix)*first + mix*second`` and its degradation.

    Both inputs must pass check_omp for the same measurement; the blend then
    must too, with degradation equal to the blend of the input degradations.
    Violations raise ConsistencyError since they contradict convexity of the
    preserving set.
    """
    mix = float(mix)
    if not 0.0 <= mix <= 1.0:
        raise BadParameter(f"mixing weight must be in [0, 1], got {mix}")
    if sol is None:
        sol = solve(ens, tol)
    rep_a = check_omp(ens, first, sol, index_set, tol)
    rep_b = check_omp(ens, second, sol, index_set, tol)
    if not (rep_a.is_omp and rep_b.is_omp):
        raise NotOmpInput("both channels must preserve the measurement")
    blend = QubitChannel(
        (1.0 - mix) * first.matrix + mix * second.matrix,
        (1.0 - mix) * first.shift + mix * second.shift,
    )
    report = check_omp(ens, blend, sol, index_set, tol)
    target = (1.0 - mix) * rep_a.delta + mix * rep_b.delta
    if not report.is_omp or abs(report.delta - target) > tol.match_tol:
        raise ConsistencyError(
            f"blend degradation {report.delta:.3e} is not the blended value "
            f"{target:.3e}"
        )
    return report
