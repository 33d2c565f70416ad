"""Tests for preservation of optimal measurements under a qubit channel.

A channel preserves an optimal measurement exactly when one scalar, the
guessing degradation, simultaneously closes every pairwise linear condition
relating the channel to the measurement's complementary states, and the new
symmetry operator still dominates every state the measurement leaves out.
check_omp takes the measurement and its pairwise conditions from
omp_construct's ``build_system``, the linear system solved for the family,
fits the scalar by least squares, and decides from the residuals, the gap
bound and dominance.  Every other check is one reading of that verdict on
one system: the family's sieve on the family's own system, the equiprobable
and two-state checks as a contraction ratio and a scale, the rotation check
as its verdict on a rotation, and the convex-mix check as its verdict on
both inputs and on the blend.
A positive verdict is its own certificate: its symmetry operator is
dual-feasible for the transformed ensemble, and the preserved measurement
must attain its trace there, so no solver runs.
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
    _optimal_value,
    povm_value,
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
    WrongArity,
)
from .omp_construct import OmpSystem, build_system, pack


class Mode(enum.Enum):
    """STRONG tests the canonical maximal measurement, WEAK a user subset."""

    STRONG = "strong"
    WEAK = "weak"


@dataclass(frozen=True)
class OmpReport:
    """Outcome of a preservation check.

    ``residuals`` holds one Euclidean residual per state pair;
    ``r_bound_ok`` records whether the fitted degradation sits inside
    ``[0, min gap]`` up to tolerance.  ``p_guess_after`` is the transformed
    ensemble's optimum: ``p_guess_before - delta``, certified, on a positive
    verdict, and its value-only re-solve on a negative one.
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


def _mapped_ensemble(ens: Ensemble, channel: QubitChannel, tol: Tolerances) -> Ensemble:
    """The ensemble ``channel`` makes of ``ens``."""
    # CPTP keeps outputs inside the ball up to roundoff; widen the guard
    out_tol = Tolerances(10.0 * tol.psd_tol, tol.rank_tol, tol.match_tol)
    mapped = ens.blochs @ channel.matrix.T + channel.shift
    return make_ensemble(zip(ens.priors, mapped), out_tol)


def _cross_validate(sol, after_ens, delta, tol, weights) -> float:
    """The optimum ``tr K' = p_guess - delta`` of the transformed ensemble
    under a positive verdict, which makes ``K'`` dual-feasible there.

    The preserved measurement, with completeness ``weights``, must attain
    it to ``10 match_tol``, else ConsistencyError.
    """
    bound = 10.0 * tol.match_tol
    upper = sol.p_guess - delta
    value = povm_value(after_ens, sol, weights)
    miss = abs(value - upper)
    if miss > bound:
        raise ConsistencyError(
            "preserved measurement is not optimal for the transformed "
            f"ensemble: {value:.12g} vs {upper:.12g}: margin "
            f"{miss:.3e} exceeds {bound:.1e}"
        )
    return upper


def _left_out_low(ens, sol, index_set, mapped, delta) -> np.ndarray:
    """Smallest eigenvalue of ``K' - q_x N(rho_x)``, with ``K' = q_a N(rho_a)
    + (r_a - delta) sigma_a``, for every state ``x`` left out of
    ``index_set``, in increasing order of ``x``.  ``K'`` dominates them all
    (the Yuen-Kennedy-Lax / Holevo condition) when none is below
    ``-psd_tol``.

    ``mapped`` holds the channel's image of every Bloch vector.  The
    closed form: beta is twice the Bloch vector of the difference, and
    ``alpha I + b.sigma`` has smallest eigenvalue ``alpha - |b|``.
    """
    a1 = min(index_set)
    out = np.ones(ens.n, dtype=bool)
    out[list(index_set)] = False
    beta = ens.priors[a1] * mapped[a1] + (sol.gaps[a1] - delta) * sol.comp_states[a1]
    return 0.5 * (sol.p_guess - delta - ens.priors[out]) - 0.5 * np.linalg.norm(
        beta - ens.priors[out, None] * mapped[out], axis=1
    )


def _fit_degradation(system: OmpSystem, channel: QubitChannel):
    """The degradation that best closes the system's pairwise conditions at
    ``channel``, by least squares, and each pair's residual.

    The system's blocks hold one Bloch component each; with delta zero in
    the packed channel the product is the left-hand side of every pair.
    """
    x = pack(channel, 0.0) - system.identity_vec
    lhs = (system.coeff_matrix @ x).reshape(3, -1).T
    axes = system.comp_diffs
    denom = float(np.sum(axes * axes))
    delta = float(np.sum(lhs * axes) / denom) if denom > 1e-18 else 0.0
    return delta, np.linalg.norm(lhs - delta * axes, axis=1)


def _verdict(
    system: OmpSystem, channel: QubitChannel, tol: Tolerances, fit=None
) -> OmpReport:
    """check_omp's verdict on a validated measurement, ``channel`` CPTP;
    ``fit`` is ``_fit_degradation(system, channel)`` if the caller has it.

    A positive verdict reads the new optimum off its certificate
    (``_cross_validate``); only a negative one re-solves, value-only, by
    the same ball search as ``solve``.
    """
    ens, sol, index_set = system.ensemble, system.solution, system.index_set
    delta, residuals = fit or _fit_degradation(system, channel)
    min_gap = float(np.min(sol.gaps[list(index_set)]))
    r_bound_ok = -tol.match_tol <= delta <= min_gap + tol.match_tol
    after_ens = _mapped_ensemble(ens, channel, tol)
    low = _left_out_low(ens, sol, index_set, after_ens.blochs, delta)
    dominated = bool(np.all(low >= -tol.psd_tol))
    is_omp = bool(np.max(residuals) <= tol.match_tol) and r_bound_ok and dominated
    if is_omp:
        p_after = _cross_validate(sol, after_ens, delta, tol, system.weights)
    else:
        p_after = _optimal_value(after_ens)
    return OmpReport(
        is_omp=is_omp,
        delta=delta,
        residuals=residuals,
        r_bound_ok=r_bound_ok,
        index_set=index_set,
        mode=Mode.STRONG if set(index_set) == set(sol.identified) else Mode.WEAK,
        p_guess_before=sol.p_guess,
        p_guess_after=p_after,
    )


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
    measurement.  ``build_system`` validates the index set, as it does for
    family_for, and raises for a set that is no complete optimal
    measurement.  The pairwise conditions are the family's, the system
    evaluated at the channel with zero degradation: one residual per state
    paired with the smallest index, the other pairs following by
    linearity, and the degradation fitted by least squares.  They make
    ``K' = q_a N(rho_a) + (r_a - delta) sigma_a`` the candidate symmetry
    operator of the transformed ensemble; the verdict is positive only if
    ``K'`` also dominates every weighted state left out of the index set.

    A positive verdict makes ``K'`` dual-feasible, so ``p_guess_after = tr
    K' = p_guess - delta`` bounds the new optimum from above; the preserved
    measurement must attain it, else ConsistencyError.  No solver runs.
    """
    _require_cptp(channel, tol)
    if sol is None:
        sol = solve(ens, tol)
    return _verdict(build_system(ens, sol, index_set, tol), channel, tol)


def check_equiprobable(
    ens: Ensemble,
    channel: QubitChannel,
    sol: DiscriminationSolution | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> EquiprobableReport:
    """Uniform-prior preservation test, read off check_omp's verdict.

    For equal priors each pairwise condition makes the state difference
    ``d`` an eigenvector, ``D d = kappa d``, with one ratio for all pairs;
    the shift drops out.  The degradation is ``(1 - kappa) * (p_guess -
    1/n)`` and ``residual`` the largest ``|D d - kappa d|``.  The verdict is
    check_omp's, whose degradation window is ``kappa >= -match_tol /
    (p_guess - 1/n)``; that bound is tested first, so a channel beyond it
    is refused without the re-solve of a negative verdict.
    """
    _require_cptp(channel, tol)
    if np.ptp(ens.priors) > tol.match_tol:
        raise NotEquiprobable(f"priors range over {np.ptp(ens.priors):.3g}")
    if sol is None:
        sol = solve(ens, tol)
    system = build_system(ens, sol, tol=tol)
    fit = _fit_degradation(system, channel)
    delta, residuals = fit
    kappa = 1.0 - delta / (sol.p_guess - 1.0 / ens.n)
    in_window = delta <= sol.p_guess - 1.0 / ens.n + tol.match_tol
    is_omp = in_window and _verdict(system, channel, tol, fit).is_omp
    return EquiprobableReport(is_omp, kappa, delta, ens.n * float(np.max(residuals)))


def check_two_state(
    ens: Ensemble,
    channel: QubitChannel,
    tol: Tolerances = DEFAULT_TOL,
) -> TwoStateReport:
    """Two-state preservation test, read off check_omp's verdict.

    The pair condition maps the weighted Bloch difference ``h`` to ``scale *
    h``, ``scale = 1 - delta / (p_guess - 1/2)`` as ``|h| = 2 p_guess - 1``;
    the identity offset follows from trace preservation.  The degradation
    window is the scale window ``[(2 q_max - 1)/(2 p_guess - 1), 1]``.
    """
    if ens.n != 2:
        raise WrongArity(f"two-state check got {ens.n} states")
    _require_cptp(channel, tol)
    sol = solve_two_state(ens, tol)
    if any(t is CaseTag.NO_MEASUREMENT for t in sol.case_tags):
        raise DominatedState("guessing is optimal; no measurement to preserve")
    report = _verdict(build_system(ens, sol, tol=tol), channel, tol)
    scale = 1.0 - report.delta / (sol.p_guess - 0.5)
    offset = float((1.0 - scale) * (ens.priors[0] - ens.priors[1]) / 2.0)
    return TwoStateReport(
        report.is_omp, scale, offset, report.delta, float(report.residuals[0])
    )


def check_unitary(
    ens: Ensemble,
    channel: QubitChannel,
    sol: DiscriminationSolution | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> bool:
    """Preservation verdict for a rotation channel, read off check_omp's.

    The channel must be a Bloch rotation, else NotUnitary.  A two-element
    measurement survives the rotations about its own axis, one identifying
    three or more states only the identity; with no identified states
    (guessing) every rotation trivially preserves the strategy.
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
    if len(sol.identified) == 0:
        return True
    return _verdict(build_system(ens, sol, tol=tol), channel, tol).is_omp


def check_pg_preserving(
    ens: Ensemble,
    channel: QubitChannel,
    tol: Tolerances = DEFAULT_TOL,
) -> bool:
    """True when every pairwise weighted difference is left untouched.

    This is the zero-degradation condition over all pairs, identified or
    not; such channels keep the guessing probability exactly.
    """
    # u_y - u_x is the pair (x, y) condition; keep every pair within tol,
    # testing rows in blocks of at most 2**18 pairs so that memory stays
    # flat in the number of states
    u = ens.priors[:, None] * (
        ens.blochs @ channel.matrix.T + channel.shift - ens.blochs
    )
    step = max(1, 2**18 // len(u))
    return all(
        np.all(np.linalg.norm(u[None] - u[x : x + step, None], axis=2) <= tol.match_tol)
        for x in range(0, len(u), step)
    )


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

    check_omp's verdict on one system for the measurement: both inputs must
    pass it, else NotOmpInput; the blend then must too, with degradation
    equal to the blend of the input degradations.  Violations raise
    ConsistencyError since they contradict convexity of the preserving set.
    """
    mix = float(mix)
    if not 0.0 <= mix <= 1.0:
        raise BadParameter(f"mixing weight must be in [0, 1], got {mix}")
    if sol is None:
        sol = solve(ens, tol)
    _require_cptp(first, tol)
    system = build_system(ens, sol, index_set, tol)
    rep_a = _verdict(system, first, tol)
    _require_cptp(second, tol)
    rep_b = _verdict(system, second, tol)
    if not (rep_a.is_omp and rep_b.is_omp):
        raise NotOmpInput("both channels must preserve the measurement")
    blend = QubitChannel(
        (1.0 - mix) * first.matrix + mix * second.matrix,
        (1.0 - mix) * first.shift + mix * second.shift,
    )
    _require_cptp(blend, tol)
    report = _verdict(system, blend, tol)
    target = (1.0 - mix) * rep_a.delta + mix * rep_b.delta
    if not report.is_omp or abs(report.delta - target) > tol.match_tol:
        raise ConsistencyError(
            f"blend degradation {report.delta:.3e} is not the blended value "
            f"{target:.3e}"
        )
    return report
