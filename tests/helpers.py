"""Shared random generators and oracles for the test suite.

Channels are drawn through random Stinespring isometries, so they are
completely positive and trace preserving by construction, independent of the
library's own CPTP tests.  The completeness weights and the dual of the
discrimination problem have brute-force oracles: a search over every
support, and over every active subset of up to four states, each pair
certified by its smallest ball in 50-digit ``decimal`` arithmetic and each
other subset by the former rule that solves least squares for the convex
multipliers instead of reading them off the Gram solve.  The guessing
probability has a primal lower bound from random measurements, and exact
guessing-probability preservation a test of every state pair and the former
per-state loop.  The Choi operator has a loop-built oracle from the images
of the matrix units, the batched sieve a per-draw one, and the null space
of a system its former full SVD.  The labelling
of the states at the dual optimum and the value of a measurement have
one-state-at-a-time loops, and the dominance of left-out states its former
``setdiff1d`` form.  The equal-prior and two-state preservation checks have
closed forms of their own, fitted on the state differences and the weighted
difference, and the rotation check a geometric one, from the rotation axis.
The re-solve of a transformed ensemble is confirmed by the public ``solve``.
"""

import itertools
import math
from decimal import Decimal, localcontext

import numpy as np

from ompkit import Ensemble, QubitChannel, make_ensemble
from ompkit.bloch import DEFAULT_TOL, Tolerances, _rank
from ompkit.discrimination import (
    _DOUBLE_ROOT,
    _EQ_RES,
    _FEAS_SLACK,
    _MU_TOL,
    CaseTag,
    _centers,
    solve,
    solve_two_state,
)
from ompkit.errors import (
    ConsistencyError,
    ConvergenceFailure,
    DominatedState,
    InfeasibleCompleteness,
    NotEquiprobable,
    NotUnitary,
    PairSetTooSmall,
    WrongArity,
)
from ompkit.omp_check import (
    EquiprobableReport,
    TwoStateReport,
    _require_cptp,
    check_omp,
)
from ompkit.omp_construct import SieveSample, unpack

SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# Dirichlet priors and pure states, two of them identified: under
# depolarizing noise of 0.1 the pairwise conditions hold on the identified
# pair, but the new symmetry operator no longer dominates state 2, so the
# measurement is not preserved (it scores below the new optimum)
LEFT_OUT_STATES = [
    (0.50692827135259, [-0.05645960720312963, 0.9954793594140081, 0.07637511201395575]),
    (0.05095221172408325, [0.10297764114472645, -0.6309670725448575, -0.768944834684804]),
    (0.35428851308686543, [-0.2645960992435544, 0.8912154219564922, 0.36840735054014156]),
    (0.08783100383646125, [0.5871737660750675, 0.5367425859114379, 0.6059161368558561]),
]


# Four pure states, states 1 and 2 identified: in the box-0.5 sieve (24
# draws, seed 0) draw index 20 meets the pairwise conditions and the
# degradation bound and is completely positive, but its new symmetry
# operator fails to dominate a state left out of the measurement, so the
# sieve must drop it
LEFT_OUT_SIEVE = [
    (0.25797538002807385, [0.665940348974453, 0.7197118542351848, -0.19631173801160196]),
    (0.44682865969677754, [0.20637301090397345, 0.029432715584077687, -0.9780306210051786]),
    (0.2555025178962908, [-0.7999831343649711, 0.5646396018985436, 0.203000257880257]),
    (0.03969344237885781, [-0.026321147468607708, -0.8059231098299015, -0.5914348131772734]),
]

# States 0, 1 and 2 identified; state 3 is not, so it has no
# complementary axis and no measurement may name it
UNIDENTIFIED_FOURTH = [
    (0.45, (0, 0, 1)),
    (0.30, (0.95, 0, 0)),
    (0.20, (-0.7, 0.6, 0)),
    (0.05, (0.05, 0.05, 0)),
]

# Three copies of one pure state, priors (0.5, 0.25, 0.25): guessing state
# 0 is optimal, so states 1 and 2, whose balls are tangent to the guessing
# ball, are never identified and no measurement exists
NO_MEASUREMENT_COPIES = [(0.5, (0, 0, 1)), (0.25, (0, 0, 1)), (0.25, (0, 0, 1))]

# Equal priors, states 0, 1 and 3 identified: the family member with
# coefficients default_rng(2).uniform(-0.3, 0.3, 7) meets the pairwise
# conditions and the degradation bound, but its new symmetry operator fails
# to dominate state 2, so check_equiprobable must give a negative verdict
# (it once raised ConsistencyError from the re-solve)
EQUIPROBABLE_LEFT_OUT = [
    (0.25, [0.3635365676813111, 0.8642994867575062, 0.3476025908263671]),
    (0.25, [-0.7905711255738863, 0.5492416334746546, 0.2707968306072497]),
    (0.25, [-0.616361617317075, 0.6670578943701971, 0.4184878997733128]),
    (0.25, [0.4732900852896917, 0.04573437199029376, 0.879718626826288]),
]


# Two CPTP channels of bb84 (all four states identified) under which the
# mapped states agree to a few 1e-9 and the degradation sits within 1e-9 of
# the min gap 0.25: a member of bb84's family, and a strong contraction.
# The pairwise residuals are below 2e-10 and nothing is left out, so the
# measurement is preserved, but a re-solve of the mapped ensemble raises
# ConvergenceFailure (ROADMAP item 3)
BB84_FAMILY_END = {
    "D": [
        [2.6562758490174254e-09, 9.7347687030506086e-03, 2.7755575615628914e-17],
        [-3.6979491855061791e-17, 3.5291923432337291e-01, 5.7503290832742247e-18],
        [1.1877688365238842e-16, 1.6813190282808563e-01, 2.6562760628220938e-09],
    ],
    "t": [-0.2861437010047148, -0.4449323539854103, -0.29575949370557814],
}
BB84_CONTRACTION = {
    "D": [
        [3.014510104306924e-09, 0.0, 0.0],
        [0.0, 1.5985692484572663e-07, 0.0],
        [0.0, 0.0, 2.1928860245257036e-09],
    ],
    "t": [0.23638936592338003, -0.3691900449178584, -0.29449644276253095],
}


def random_cptp_channel(rng: np.random.Generator, env_dim: int = 2) -> QubitChannel:
    """Random channel from a Haar-ish Stinespring isometry."""
    g = rng.normal(size=(2 * env_dim, 2)) + 1j * rng.normal(size=(2 * env_dim, 2))
    v, _ = np.linalg.qr(g)
    w = v.reshape(2, env_dim, 2)

    def bloch_out(bloch_in):
        rho = 0.5 * (np.eye(2, dtype=complex) + sum(bloch_in[k] * SIGMA[k] for k in range(3)))
        out = np.einsum("aei,ij,bej->ab", w, rho, w.conj())
        return np.array([np.trace(out @ s).real for s in SIGMA])

    shift = bloch_out(np.zeros(3))
    cols = [bloch_out(e) - shift for e in np.eye(3)]
    return QubitChannel(np.column_stack(cols), shift)


def random_ensemble(
    rng: np.random.Generator,
    n: int,
    equiprobable: bool = False,
    min_norm: float = 0.2,
) -> Ensemble:
    """Random ensemble with Bloch norms in [min_norm, 1]."""
    priors = np.full(n, 1.0 / n) if equiprobable else rng.dirichlet(np.ones(n))
    vecs = rng.normal(size=(n, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    vecs *= rng.uniform(min_norm, 1.0, size=(n, 1))
    return make_ensemble(list(zip(priors, vecs)))


def enumerated_min_norm_weights(axes: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Test oracle for the completeness weights: try every support.

    Each support's candidate is the row-space solution of the restricted
    completeness system, which is the optimum whenever that support is the
    optimal one; the smallest-norm admissible candidate wins.  The cost
    doubles with every axis, so keep ``len(axes)`` small.
    """
    k = axes.shape[0]
    a_full = np.vstack([np.ones((1, k)), axes.T])
    rhs = np.concatenate([[2.0], np.zeros(3)])
    best = None
    for size in range(1, k + 1):
        for sup in itertools.combinations(range(k), size):
            a = a_full[:, list(sup)]
            w = np.linalg.pinv(a, rcond=1e-12) @ rhs
            if np.min(w) < -1e-11:
                continue
            if np.linalg.norm(a @ w - rhs) > tol.match_tol:
                continue
            full = np.zeros(k)
            full[list(sup)] = np.clip(w, 0.0, None)
            norm = float(full @ full)
            if best is None or norm < best[0] - 1e-15:
                best = (norm, full)
    if best is None:
        raise InfeasibleCompleteness("no nonnegative completeness weights found")
    return best[1]


def _kkt_multipliers(units: np.ndarray):
    """Least-squares convex multipliers for ``sum mu_i u_i = 0``."""
    k = units.shape[0]
    a = np.vstack([units.T, np.ones((1, k))])
    rhs = np.concatenate([np.zeros(3), [1.0]])
    mu, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    res = float(np.linalg.norm(a @ mu - rhs))
    return mu, res


def lstsq_certify_subset(idx, cen, off):
    """Test oracle for ``_certify_subset``: its former rule, which solves a
    second, least-squares system for the convex multipliers of the unit
    directions.

    Solve the equal-value system on one subset and certify it, or None.
    Active equalities pin ``y`` to an affine function of the common value;
    the remaining quadratic closes the system.  A root is accepted only if
    every equality holds to 1e-9, the convex multipliers exist with no
    component below -1e-9 (unless the root is centered on a subset ball),
    and no other state of ``cen, off`` exceeds the value by more than
    1e-10.  Returns ``(f, y)`` for the smallest such root.
    """
    sub_c = cen[list(idx)]
    sub_o = off[list(idx)]
    if len(idx) == 1:
        y, f = sub_c[0], float(sub_o[0])
        if np.max(off + np.linalg.norm(cen - y, axis=1)) > f + _FEAS_SLACK:
            return None
        return f, y
    c0, o0 = sub_c[0], sub_o[0]
    z = sub_c[1:] - c0
    d_off = sub_o[1:] - o0
    h = 0.5 * (
        np.sum(sub_c[1:] ** 2, axis=1) - c0 @ c0 - (sub_o[1:] ** 2 - o0 * o0)
    ) - z @ c0
    g = z @ z.T
    g_pinv = np.linalg.pinv(g, rcond=1e-12)
    # y(f) = b + a f restricted to the affine hull of the subset centers
    a_vec = z.T @ (g_pinv @ d_off)
    b_vec = c0 + z.T @ (g_pinv @ h)
    qa = a_vec @ a_vec - 1.0
    qb = 2.0 * (a_vec @ (b_vec - c0) + o0)
    qc = (b_vec - c0) @ (b_vec - c0) - o0 * o0
    if abs(qa) < 1e-14:
        roots = [] if abs(qb) < 1e-14 else [-qc / qb]
    else:
        disc = qb * qb - 4.0 * qa * qc
        # a discriminant within roundoff of 0 may be a double root
        floor = _DOUBLE_ROOT * (qb * qb + abs(4.0 * qa * qc))
        if disc < -floor:
            return None
        sq = np.sqrt(max(disc, 0.0))
        roots = [(-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)]
        if disc <= floor:
            roots.append(-qb / (2.0 * qa))
    best = None
    for f in sorted(roots):
        if f < np.max(sub_o) - 1e-12:
            continue
        y = b_vec + a_vec * f
        d = y - sub_c
        dist = np.linalg.norm(d, axis=1)
        if np.max(np.abs(sub_o + dist - f)) > _EQ_RES:
            continue
        # a root centered on a subset ball is that ball alone, which needs
        # no multipliers: it is optimal exactly when it holds every ball
        if np.min(dist) >= 1e-15:
            mu, res = _kkt_multipliers(d / dist[:, None])
            if res > _EQ_RES or np.min(mu) < -_MU_TOL:
                continue
        if np.max(off + np.linalg.norm(cen - y, axis=1)) > f + _FEAS_SLACK:
            continue
        best = (float(f), y)
        break
    return best


def decimal_pair_ball(idx, cen, off, slack: float = _FEAS_SLACK):
    """Test oracle for the smallest ball of the two balls ``idx``, in
    50-digit ``decimal`` arithmetic on the exact values of the floats.

    The larger ball when it holds the other, else the ball touching both
    along the line of their centers; it shares no code with the solver's
    two-ball formula.  Returns ``(f, y)`` rounded to floats if no ball of
    ``cen, off`` exceeds it by more than ``slack``, else None.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        balls = [([Decimal(float(v)) for v in c], Decimal(float(o))) for c, o in zip(cen, off)]
        (c0, o0), (c1, o1) = balls[idx[0]], balls[idx[1]]
        diff = [b - a for a, b in zip(c0, c1)]
        gap = sum(d * d for d in diff).sqrt()
        if gap <= abs(o0 - o1):
            f, y = (o0, c0) if o0 >= o1 else (o1, c1)
        else:
            f = (gap + o0 + o1) / 2
            y = [a + (f - o0) / gap * d for a, d in zip(c0, diff)]
        excess = max(o + sum((a - b) ** 2 for a, b in zip(c, y)).sqrt() for c, o in balls) - f
        if excess > Decimal(slack):
            return None
        return float(f), np.array([float(v) for v in y])


def enumerated_enclosing_ball(ens: Ensemble):
    """Test oracle for the dual optimum: certify every subset of states.

    Tries every subset of up to four states, the most a basis of a ball in
    three dimensions holds, smallest size first, certifying each against all
    states (a pair by ``decimal_pair_ball``, any other subset by
    ``lstsq_certify_subset``), and returns ``(f, y, idx)`` of the smallest
    certified ball of the first size that has one, ``idx`` its subset.  The
    cost grows as n^4, so keep ``ens.n`` small.
    """
    cen, off = _centers(ens)
    for size in range(1, min(4, ens.n) + 1):
        certify = decimal_pair_ball if size == 2 else lstsq_certify_subset
        found = []
        for idx in itertools.combinations(range(ens.n), size):
            hit = certify(idx, cen, off)
            if hit is not None:
                found.append((*hit, list(idx)))
        if found:
            return min(found, key=lambda t: t[0])
    raise ConvergenceFailure("no active subset certified")


def oracle_random_search(ens: Ensemble, samples: int = 2000, seed: int = 0) -> float:
    """Primal lower bound on the guessing probability by random measurements.

    Draws random projective pairs and random three- and four-outcome
    measurements, labels every outcome greedily, and returns the best value
    seen, never exceeding the true optimum.  Used as an independent oracle
    in tests.
    """
    rng = np.random.default_rng(seed)
    q, v = ens.priors, ens.blochs
    best = float(np.max(q))
    axes = rng.normal(size=(samples, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    # projective pairs: outcomes (I +- u.sigma)/2 with the best label each
    up = 0.5 * (1.0 + axes @ v.T) * q
    dn = 0.5 * (1.0 - axes @ v.T) * q
    best = max(best, float(np.max(up.max(axis=1) + dn.max(axis=1))))
    for k in (3, 4):
        # whitened Wishart outcomes: M_j = S^{-1/2} G_j S^{-1/2}, batched
        batch = max(1, samples // 20)
        g = rng.normal(size=(batch, k, 2, 2)) + 1j * rng.normal(size=(batch, k, 2, 2))
        g = g @ np.conj(np.swapaxes(g, 2, 3))
        s = g.sum(axis=1)
        tau = np.trace(s, axis1=1, axis2=2).real
        det = (s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0]).real
        root = np.sqrt(np.maximum(det, 0.0))
        # closed-form PSD square root of 2x2 S, then its adjugate inverse
        sqrt_s = (s + root[:, None, None] * np.eye(2)) / np.sqrt(
            tau + 2.0 * root
        )[:, None, None]
        sqrt_det = sqrt_s[:, 0, 0] * sqrt_s[:, 1, 1] - sqrt_s[:, 0, 1] * sqrt_s[:, 1, 0]
        white = np.empty_like(sqrt_s)
        white[:, 0, 0] = sqrt_s[:, 1, 1]
        white[:, 1, 1] = sqrt_s[:, 0, 0]
        white[:, 0, 1] = -sqrt_s[:, 0, 1]
        white[:, 1, 0] = -sqrt_s[:, 1, 0]
        white /= sqrt_det[:, None, None]
        m = np.einsum("bij,bkjl,blm->bkim", white, g, white)
        marks = np.stack(
            [
                (m[..., 0, 1] + m[..., 1, 0]).real,
                (1j * (m[..., 0, 1] - m[..., 1, 0])).real,
                (m[..., 0, 0] - m[..., 1, 1]).real,
            ],
            axis=-1,
        )
        traces = (m[..., 0, 0] + m[..., 1, 1]).real
        probs = 0.5 * q * (traces[..., None] + marks @ v.T)
        values = np.sum(np.max(probs, axis=2), axis=1)
        best = max(best, float(np.max(values)))
    return best


def full_svd_nullspace(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Test oracle for ``bloch.nullspace``: its former body, whose full SVD
    also builds the rows-by-rows ``u`` of a tall matrix."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    _, s, vt = np.linalg.svd(m)
    return vt[_rank(s, tol):].T.copy()


def pairwise_pg_preserving(ens: Ensemble, channel: QubitChannel, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Test oracle for exact guessing-probability preservation: every pair.

    Maps each weighted Bloch difference of a pair of states directly and
    requires the channel to leave all of them unchanged.
    """
    for x in range(ens.n):
        for y in range(x + 1, ens.n):
            hvec = ens.priors[x] * ens.blochs[x] - ens.priors[y] * ens.blochs[y]
            g = channel.matrix @ hvec + (ens.priors[x] - ens.priors[y]) * channel.shift - hvec
            if np.linalg.norm(g) > tol.match_tol:
                return False
    return True


def loop_pg_preserving(ens: Ensemble, channel: QubitChannel, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Test oracle for ``check_pg_preserving``: its former body, one loop
    step per state against every later state."""
    u = ens.priors[:, None] * (
        ens.blochs @ channel.matrix.T + channel.shift - ens.blochs
    )
    return all(
        np.all(np.linalg.norm(u[x + 1 :] - u[x], axis=1) <= tol.match_tol)
        for x in range(ens.n - 1)
    )


def setdiff_left_out_low(ens: Ensemble, sol, index_set, mapped: np.ndarray, delta: float) -> np.ndarray:
    """Test oracle for ``omp_check._left_out_low``: its former body, the
    left-out states taken by ``np.setdiff1d``."""
    a1 = min(index_set)
    out = np.setdiff1d(np.arange(ens.n), index_set)
    beta = ens.priors[a1] * mapped[a1] + (sol.gaps[a1] - delta) * sol.comp_states[a1]
    return 0.5 * (sol.p_guess - delta - ens.priors[out]) - 0.5 * np.linalg.norm(
        beta - ens.priors[out, None] * mapped[out], axis=1
    )


def loop_choi_matrix(channel: QubitChannel) -> np.ndarray:
    """Test oracle for the Choi operator: sum of ``Phi(E_ab) (x) E_ab``.

    Maps each matrix unit through the channel's Bloch form one at a time,
    so it shares nothing with the library's constant basis.
    """
    d, t = channel.matrix, channel.shift.astype(complex)
    j = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[a, b] = 1.0
            alpha = np.trace(e) / 2.0
            beta = np.array([np.trace(s @ e) / 2.0 for s in SIGMA])
            out_beta = d @ beta + alpha * t
            image = alpha * np.eye(2) + sum(out_beta[k] * SIGMA[k] for k in range(3))
            j += np.kron(image, e)
    return (j + j.conj().T) / 2.0


def per_draw_sieve(fam, count: int, seed: int, box: float, tol: Tolerances = DEFAULT_TOL) -> list:
    """Test oracle for the batched sieve: one draw, member and test at a time.

    Draws each coefficient vector with its own ``uniform`` call, builds the
    member, tests the degradation window and the smallest eigenvalue of
    ``loop_choi_matrix``, and keeps what check_omp confirms.
    """
    rng = np.random.default_rng(seed)
    sys = fam.system
    min_gap = float(np.min(sys.solution.gaps[list(sys.index_set)]))
    kept = []
    for _ in range(int(count)):
        c = rng.uniform(-box, box, size=fam.dim)
        channel, delta = unpack(fam.particular + fam.null_basis @ c)
        if not -tol.match_tol <= delta <= min_gap + tol.match_tol:
            continue
        if np.linalg.eigvalsh(loop_choi_matrix(channel))[0] < -tol.psd_tol:
            continue
        if check_omp(sys.ensemble, channel, sys.solution, sys.index_set, tol).is_omp:
            kept.append(SieveSample(channel, delta, c))
    return kept


def _displacement(x: int, cen, off, f: float, y, basis) -> np.ndarray:
    """``y - c_x``, or for a member of a two-ball basis whose ball is
    neither of its balls, ``f - o_x`` times the unit vector from ``c_x``
    to the other member's center."""
    if len(basis) == 2 and x in basis and f > max(off[basis[0]], off[basis[1]]):
        d = cen[basis[0] + basis[1] - x] - cen[x]
        gap = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        return (f - off[x]) * (d / gap)
    return y - cen[x]


def loop_assemble(ens: Ensemble, f: float, y: np.ndarray, basis, tol: Tolerances = DEFAULT_TOL):
    """Test oracle for the labelling at the dual optimum ``Herm2(f, y)``
    certified by the states ``basis``.

    Labels one state at a time and returns ``(gaps, comp_states, case_tags,
    identified)`` as the solver's assembly defines them.
    """
    cen, off = _centers(ens)
    gaps = 2.0 * float(f) - ens.priors
    # where blind guessing is optimal no measurement identifies a state,
    # not even one tangent to the guessing ball
    guessing = any(gaps[x] <= tol.psd_tol for x in range(ens.n))
    comp = np.zeros((ens.n, 3))
    tags = []
    for x in range(ens.n):
        disp = _displacement(x, cen, off, f, y, basis)
        lo = (f - off[x]) - np.linalg.norm(disp)
        if gaps[x] <= tol.psd_tol:
            tags.append(CaseTag.NO_MEASUREMENT)
            continue
        comp[x] = 2.0 * disp / gaps[x]
        if lo <= tol.psd_tol and not guessing:
            tags.append(CaseTag.PROJECTIVE_ELEMENT)
        else:
            tags.append(CaseTag.NEVER_IDENTIFIED)
    identified = tuple(x for x in range(ens.n) if tags[x] is CaseTag.PROJECTIVE_ELEMENT)
    return gaps, comp, tuple(tags), identified


def loop_povm_value(ens: Ensemble, sol, weights=None) -> float:
    """Test oracle for ``povm_value``: one state's success term at a time."""
    weights = sol.povm_weights if weights is None else np.asarray(weights, dtype=float)
    if not np.any(weights):
        for x, tag in enumerate(sol.case_tags):
            if tag is CaseTag.NO_MEASUREMENT:
                return float(ens.priors[x])
    total = 0.0
    for x in range(ens.n):
        w = weights[x]
        if w == 0.0:
            continue
        total += ens.priors[x] * w * 0.5 * (1.0 - sol.comp_axis(x) @ ens.blochs[x])
    return float(total)


def mapped_ensemble(ens: Ensemble, channel: QubitChannel, tol: Tolerances = DEFAULT_TOL) -> Ensemble:
    """The ensemble ``channel`` makes of ``ens``, one state at a time, with
    the roundoff guard of the verdict's own."""
    out_tol = Tolerances(10.0 * tol.psd_tol, tol.rank_tol, tol.match_tol)
    return make_ensemble([(q, channel.apply(v)) for q, v in zip(ens.priors, ens.blochs)], out_tol)


def _confirm_drop(ens: Ensemble, channel: QubitChannel, sol, delta: float, tol: Tolerances) -> None:
    """Re-solve the mapped ensemble, mapped one state at a time, with the
    public ``solve``: its optimum must drop by ``delta``."""
    drop = sol.p_guess - solve(mapped_ensemble(ens, channel, tol), tol).p_guess
    if abs(delta - drop) > 10.0 * tol.match_tol:
        raise ConsistencyError(f"degradation {delta:.3e} disagrees with drop {drop:.3e}")


def closed_form_equiprobable(
    ens: Ensemble, channel: QubitChannel, sol=None, tol: Tolerances = DEFAULT_TOL
) -> EquiprobableReport:
    """Test oracle for ``check_equiprobable``: the contraction ratio kappa
    fitted directly on the identified state differences, the left-out
    states tested one at a time, and a positive verdict re-solved."""
    _require_cptp(channel, tol)
    if np.ptp(ens.priors) > tol.match_tol:
        raise NotEquiprobable(f"priors range over {np.ptp(ens.priors):.3g}")
    if sol is None:
        sol = solve(ens, tol)
    if len(sol.identified) < 2:
        raise PairSetTooSmall("need at least two identified states")
    ident = np.array(sol.identified)
    a1 = ident.min()
    diffs = ens.blochs[a1] - ens.blochs[ident[ident != a1]]
    mapped = diffs @ channel.matrix.T
    kappa = float(np.sum(mapped * diffs) / np.sum(diffs * diffs))
    residual = float(np.max(np.linalg.norm(mapped - kappa * diffs, axis=1)))
    delta = (1.0 - kappa) * (sol.p_guess - 1.0 / ens.n)
    images = ens.blochs @ channel.matrix.T + channel.shift
    beta = ens.priors[a1] * images[a1] + (sol.gaps[a1] - delta) * sol.comp_states[a1]
    dominated = True
    for x in set(range(ens.n)).difference(sol.identified):
        gap = beta - ens.priors[x] * images[x]
        low = 0.5 * (sol.p_guess - delta - ens.priors[x]) - 0.5 * np.linalg.norm(gap)
        dominated = dominated and bool(low >= -tol.psd_tol)
    is_omp = residual <= tol.match_tol and 0.0 < kappa <= 1.0 + tol.match_tol and dominated
    if is_omp:
        _confirm_drop(ens, channel, sol, delta, tol)
    return EquiprobableReport(is_omp, kappa, delta, residual)


def closed_form_two_state(
    ens: Ensemble, channel: QubitChannel, tol: Tolerances = DEFAULT_TOL
) -> TwoStateReport:
    """Test oracle for ``check_two_state``: the scale fitted directly on the
    weighted Bloch difference and tested against its window, and a positive
    verdict re-solved."""
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
    is_omp = residual <= tol.match_tol and low - tol.match_tol <= scale <= 1.0 + tol.match_tol
    delta = (1.0 - scale) * (sol.p_guess - 0.5)
    if is_omp:
        _confirm_drop(ens, channel, sol, delta, tol)
    return TwoStateReport(is_omp, scale, offset, delta, residual)


def closed_form_unitary(
    ens: Ensemble, channel: QubitChannel, sol=None, tol: Tolerances = DEFAULT_TOL
) -> bool:
    """Test oracle for ``check_unitary``: decided geometrically.

    A two-element measurement survives exactly the rotations about its own
    axis, the +1 eigenvector of the rotation; a measurement identifying
    three or more states survives only the identity, to ``match_tol`` in
    the matrix norm.  With no identified states every rotation preserves
    guessing.  A positive verdict must be confirmed by check_omp with zero
    degradation, else ConsistencyError.
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
        w, v = np.linalg.eig(d)
        axis = np.real(v[:, int(np.argmin(np.abs(w - 1.0)))])
        axis /= np.linalg.norm(axis)
        meas = sol.comp_axis(sol.identified[0])
        verdict = identity or np.linalg.norm(np.cross(axis, meas)) <= tol.match_tol
    if verdict and len(sol.identified) >= 2:
        report = check_omp(ens, channel, sol, tol=tol)
        if not report.is_omp or abs(report.delta) > tol.match_tol:
            raise ConsistencyError("geometric verdict disagrees with the pairwise check")
    return bool(verdict)
