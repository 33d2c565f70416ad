"""Minimum-error discrimination of qubit ensembles.

The dual of the discrimination problem asks for the Hermitian operator of
least trace dominating every weighted state.  In Bloch coordinates that is a
weighted smallest-enclosing-ball problem for the points ``q_x v_x / 2`` with
additive offsets ``q_x / 2``; its optimal value is half the guessing
probability.  ``solve`` solves it by basis improvement for every number
of states: each pivot finds the farthest violator in one numpy pass over
all states, then certifies the at most five balls of its pool as Python
floats, where numpy would spend more on each call than on the arithmetic.
A basis of one or two states is its exact smallest ball, in closed form,
and the pivoting stops once no other state exceeds the ball by 1e-15.  A
basis of three or four states is certified through the first-order
conditions, solved with the adjugate of its 2 x 2 or 3 x 3 Gram matrix (an
SVD pseudo-inverse only where that matrix is rank-deficient), to three
absolute thresholds (equalities to 1e-9, convex multipliers above -1e-9 of
their sum, no state beyond the ball by 1e-10), not to machine precision:
near internally tangent or nearly coincident balls such a value can be off
by about 1e-10 (ROADMAP item 2).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, replace
from operator import mul

import numpy as np

from .bloch import DEFAULT_TOL, Herm2, Tolerances
from .ensembles import Ensemble, _index_array
from .errors import (
    BadParameter,
    ConvergenceFailure,
    InfeasibleCompleteness,
    WrongArity,
    WrongLength,
)

# Certification thresholds of a basis.  They gate acceptance of a candidate
# optimum, not the quality of the answer itself, which is set by the linear
# algebra.
_EQ_RES = 1e-9
_MU_TOL = 1e-9
_FEAS_SLACK = 1e-10

# Roundoff floors: of the ball geometry (nesting of a pair, a root centered
# on a ball, the exit test of the pivoting), and of a discriminant, as a
# share of qb^2 + |4 qa qc|.
_ROUNDOFF = 1e-15
_DOUBLE_ROOT = 1e-14

# Roundoff floor of the completeness weights: in the NNLS and walk pivots a
# weight at or below it counts as zero and a residual below it as exact.
_KKT_TOL = 1e-12
# Relative floor on a singular value of a support a_S in the dual Newton
# step: below it, the value's square is roundoff in a_S a_S^T.
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


class CaseTag(enum.Enum):
    """Per-state outcome of the dual geometry.

    PROJECTIVE_ELEMENT: the dual gap closes to a rank-1 operator, so the
    state can be detected by a weighted projector.  NEVER_IDENTIFIED: the gap
    operator is definite, so every optimal measurement ignores the state, or
    blind guessing is optimal and the state is not measured.
    NO_MEASUREMENT: the dual optimum coincides with the weighted state
    itself, so blind guessing is already optimal.
    """

    PROJECTIVE_ELEMENT = "projective_element"
    NEVER_IDENTIFIED = "never_identified"
    NO_MEASUREMENT = "no_measurement"


@dataclass(frozen=True)
class DiscriminationSolution:
    """Optimal discrimination data for one ensemble.

    ``symmetry_op`` is the dual optimizer; ``p_guess`` equals its trace.
    ``gaps[x]`` is ``p_guess - priors[x]`` and ``comp_states[x]`` is the raw
    Bloch vector of the complementary state, unit length exactly when the
    state is identified, shorter for NEVER_IDENTIFIED states, and the zero
    vector in the NO_MEASUREMENT case where it is undefined.
    ``povm_weights[x]`` scales the projector onto the plane orthogonal to
    ``comp_states[x]``; weights of unidentified states are zero, and the
    whole vector is zero when blind guessing is the optimal strategy.
    """

    p_guess: float
    symmetry_op: Herm2
    gaps: np.ndarray
    comp_states: np.ndarray
    identified: tuple
    case_tags: tuple
    povm_weights: np.ndarray

    def comp_axis(self, x: int) -> np.ndarray:
        """Unit complementary axis of state ``x`` (zero vector if the gap
        closes, which happens only for a dominant state)."""
        s = self.comp_states[x]
        n = np.linalg.norm(s)
        return s / n if n > 0 else s.copy()


def _centers(ens: Ensemble):
    return ens.blochs * (ens.priors[:, None] / 2.0), ens.priors / 2.0


def _dot(u, v) -> float:
    """``u @ v`` of two short float lists."""
    return sum(map(mul, u, v))


def _dist(u, v) -> float:
    """``|u - v|`` of two float 3-lists."""
    d0, d1, d2 = u[0] - v[0], u[1] - v[1], u[2] - v[2]
    return math.sqrt(d0 * d0 + d1 * d1 + d2 * d2)


def _holds(f: float, y, cen, off) -> bool:
    """Whether the ball ``(f, y)`` holds every ball of ``cen, off`` to
    1e-10."""
    lim = f + _FEAS_SLACK
    return all(o + _dist(c, y) <= lim for c, o in zip(cen, off))


def _gram_inverse(g: list) -> list:
    """Inverse of the 2 x 2 or 3 x 3 Gram matrix ``g``.

    By its adjugate where ``det g > 1e-12 (tr g)^m``, which implies
    ``lambda_min > 1e-12 lambda_max``, so ``pinv(g, rcond=1e-12)`` would
    truncate nothing; otherwise, for a rank-deficient ``g``, by that
    ``pinv``.
    """
    if len(g) == 2:
        (a, b), (_, d) = g
        adj = [[d, -b], [-b, a]]
        det = a * d - b * b
        tr = a + d
    else:
        (a, b, c), (_, d, e), (_, _, k) = g
        adj = [
            [d * k - e * e, c * e - b * k, b * e - c * d],
            [c * e - b * k, a * k - c * c, b * c - a * e],
            [b * e - c * d, b * c - a * e, a * d - b * b],
        ]
        det = a * adj[0][0] + b * adj[0][1] + c * adj[0][2]
        tr = a + d + k
    if det > 1e-12 * tr ** len(g):
        return [[v / det for v in row] for row in adj]
    return np.linalg.pinv(np.array(g), rcond=1e-12).tolist()


def _certify_subset(idx, cen, off):
    """The smallest ball of two to four balls if it holds every ball, else
    None.

    ``cen, off`` are float lists (one 3-list per ball), as ``_pivot`` makes
    them once per pool, and all the work is on Python floats.  A pair has
    its smallest ball in closed form (``_pair_ball``), exact to roundoff.
    Three or four balls solve the equal-value system: active equalities pin
    ``y = c_0 + z^T xi`` to an affine function of the common value, with
    ``xi`` from one inverse of the Gram matrix ``g = z z^T``
    (``_gram_inverse``) applied to the offset differences and to the
    right-hand side ``h_i = (g_ii - (o_i - o_0)(o_i + o_0)) / 2``, which
    does not cancel for close centers; the remaining quadratic closes the
    system.  The barycentric coordinates ``(1 - sum xi, xi)`` of ``y``,
    scaled by the distances ``|y - c_i|``, are the KKT multipliers, so that
    one solve also certifies.  A discriminant within roundoff of 0 may have
    split a double root, which is then a candidate too.  A root is accepted
    only if every equality holds to 1e-9 and no multiplier is below -1e-9
    of their sum (none needed where it is centered on a ball).  Either way
    the ball must hold every ball of ``cen, off`` to 1e-10: a subset's
    optimum that holds every ball is the optimum of all of them.  Returns
    ``(f, y)``, for the smallest accepted root, with ``y`` a float list.
    """
    if len(idx) == 2:
        i, j = idx
        f, y = _pair_ball(cen[i], off[i], cen[j], off[j])
        return (f, y) if _holds(f, y, cen, off) else None
    c0, o0 = cen[idx[0]], off[idx[0]]
    z = [[a - b for a, b in zip(cen[i], c0)] for i in idx[1:]]
    d_off = [off[i] - o0 for i in idx[1:]]
    g = [[_dot(u, v) for v in z] for u in z]
    h = [0.5 * (g[k][k] - d_off[k] * (off[i] + o0)) for k, i in enumerate(idx[1:])]
    g_inv = _gram_inverse(g)
    xi_a = [_dot(row, d_off) for row in g_inv]
    xi_b = [_dot(row, h) for row in g_inv]
    # y(f) = c0 + z^T (xi_b + f xi_a) = c0 + bz + f a, in the affine hull
    a = [_dot(xi_a, col) for col in zip(*z)]
    bz = [_dot(xi_b, col) for col in zip(*z)]
    qa = _dot(a, a) - 1.0
    qb = 2.0 * (_dot(a, bz) + o0)
    qc = _dot(bz, bz) - o0 * o0
    if abs(qa) < 1e-14:
        roots = [] if abs(qb) < 1e-14 else [-qc / qb]
    else:
        disc = qb * qb - 4.0 * qa * qc
        floor = _DOUBLE_ROOT * (qb * qb + abs(4.0 * qa * qc))
        if disc < -floor:
            return None
        sq = math.sqrt(max(disc, 0.0))
        roots = [(-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)]
        if disc <= floor:
            # roundoff may have split a double root
            roots.append(-qb / (2.0 * qa))
    sub_o = [off[i] for i in idx]
    for f in sorted(roots):
        if f < max(sub_o) - 1e-12:
            continue
        y = [c + b + v * f for c, b, v in zip(c0, bz, a)]
        dist = [_dist(y, cen[i]) for i in idx]
        if max([abs(o + d - f) for o, d in zip(sub_o, dist)]) > _EQ_RES:
            continue
        # y = sum lam_i c_i with sum lam_i = 1, so sum lam_i (y - c_i) = 0;
        # a root centered on a ball is that ball alone
        xi = [b + f * v for b, v in zip(xi_b, xi_a)]
        mu = list(map(mul, [1.0 - sum(xi)] + xi, dist))
        if min(dist) >= _ROUNDOFF and min(mu) < -_MU_TOL * sum(mu):
            continue
        if _holds(f, y, cen, off):
            return f, y
    return None


def _pivot(basis: list, j: int, cen: np.ndarray, off: np.ndarray):
    """``(basis, f, y)`` of the smallest certified ball of ``basis + [j]``.

    ``j`` lies outside the ball of ``basis``, so every basis of the new ball
    contains it: only those subsets are certified, against the at most five
    balls of the pool, smallest size first.  The pool becomes float lists
    once, and ``_certify_subset`` works on those.  Sizes start at two:
    where ball ``j`` alone would certify, the pair of ``j`` and any ball
    ``b`` of the basis does too, as ``_pair_ball`` is then ball ``j`` or,
    where ``b`` pokes out of it by less than the slack, a ball holding ball
    ``j`` whole.  None if none certifies.
    """
    pool = sorted(basis + [j])
    sub_c, sub_o = cen[pool].tolist(), off[pool].tolist()
    pos = pool.index(j)
    for size in range(2, min(len(pool), 4) + 1):
        found = []
        for idx in itertools.combinations(range(len(pool)), size):
            if pos not in idx:
                continue
            hit = _certify_subset(idx, sub_c, sub_o)
            if hit is not None:
                found.append((hit[0], hit[1], [pool[i] for i in idx]))
        if found:
            f, y, new = min(found, key=lambda t: t[0])
            return new, f, np.array(y)
    return None


def _walk(a: np.ndarray, rhs: np.ndarray, w: np.ndarray, free: np.ndarray):
    """Step from ``w`` toward the free columns' row-space solution.

    The solve ``pinv(a_F) rhs`` is at once the least-squares and the
    least-norm point of the free columns.  A weight that would turn negative
    stops the step where it reaches zero and leaves the free set; the walk
    repeats until the solve is positive (the inner loop of Lawson & Hanson
    1974, ch. 23).  Returns the new weights and free set.
    """
    w, free = w.copy(), free.copy()
    while free.any():
        idx = np.flatnonzero(free)
        s = np.linalg.pinv(a[:, idx], rcond=1e-12) @ rhs
        if np.min(s) > 0.0:
            w[idx] = s
            break
        neg = s <= 0.0
        alpha = np.min(w[idx][neg] / np.maximum(w[idx][neg] - s[neg], 1e-300))
        w[idx] += alpha * (s - w[idx])
        out = idx[w[idx] <= _KKT_TOL]
        w[out] = 0.0
        free[out] = False
    return w, free


def _nnls(a: np.ndarray, rhs: np.ndarray, limit: int) -> np.ndarray:
    """Lawson-Hanson non-negative least squares: ``min |a w - rhs|, w >= 0``.

    The column of steepest residual descent joins the passive set and
    ``_walk`` restores a positive solve.  A pivot is kept only if it lowers
    the residual; otherwise its column is barred until one does, so a pivot
    spoilt by roundoff cannot cycle.
    """
    k = a.shape[1]
    w = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    barred = np.zeros(k, dtype=bool)
    res = float(np.linalg.norm(rhs))
    for _ in range(limit):
        grad = a.T @ (rhs - a @ w)
        grad[passive | barred] = -np.inf
        j = int(np.argmax(grad))
        # below the floor the gradient is roundoff: w is feasible
        if grad[j] <= 0.0 or res <= _KKT_TOL:
            return w
        inner = passive.copy()
        inner[j] = True
        trial, inner = _walk(a, rhs, w, inner)
        trial_res = float(np.linalg.norm(a @ trial - rhs))
        if trial_res < res:
            w, passive, res = trial, inner, trial_res
            barred[:] = False
        else:
            barred[j] = True
    raise ConvergenceFailure(
        f"non-negative least squares did not settle in {limit} pivots; "
        f"residual {res:.3e}"
    )


def _dual_newton(a: np.ndarray, rhs: np.ndarray, limit: int) -> np.ndarray:
    """Semismooth Newton on the dual of ``min |w|^2 / 2, a w = rhs, w >= 0``.

    The optimum is ``w = (a^T lam)_+`` at the minimum over R^4 of the
    convex, piecewise quadratic ``phi(lam) = |(a^T lam)_+|^2 / 2 - rhs . lam``,
    whose gradient is the residual ``a w - rhs`` (Mangasarian 1984;
    Hintermueller, Ito & Kunisch, SIAM J. Optim. 13, 865 (2002)).  From
    ``lam = (a a^T)^+ rhs``, each step solves ``a_S a_S^T`` on the support
    ``S = {a^T lam > 0}`` and backtracks until phi falls by the Armijo rule.
    The loop stops when a support repeats, not at a floor on the gradient,
    which is never reached where ``a_S a_S^T`` is ill-conditioned: a full
    step that keeps its support has landed on the minimum, and any other
    repeat (a damped step, a zero weight flipped by roundoff) is left to the
    caller's closing walk and residual check.  Returns ``(a^T lam)_+``.
    """

    def phi(lam):
        w = np.maximum(a.T @ lam, 0.0)
        return 0.5 * (w @ w) - rhs @ lam

    def normal_solve(cols, v):
        # (a_S a_S^T)^+ v through the SVD of a_S, to _SQRT_EPS
        pinv = np.linalg.pinv(a[:, cols], rcond=_SQRT_EPS)
        return pinv.T @ (pinv @ v)

    lam = normal_solve(slice(None), rhs)
    seen = set()
    for _ in range(limit):
        z = a.T @ lam
        sup = z > 0.0
        if sup.tobytes() in seen:
            return np.maximum(z, 0.0)
        seen.add(sup.tobytes())
        grad = a[:, sup] @ z[sup] - rhs
        step = -normal_solve(sup, grad)
        t, now, slope = 1.0, phi(lam), grad @ step
        while phi(lam + t * step) > now + 1e-4 * t * slope and t > 1e-10:
            t *= 0.5
        lam = lam + t * step
    raise ConvergenceFailure(
        f"least-norm completion did not settle in {limit} Newton steps; "
        f"gradient norm {np.linalg.norm(grad):.3e}"
    )


def _min_norm_weights(axes: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Smallest nonnegative weights with ``sum w = 2`` and ``sum w s = 0``.

    Solves ``min |w|^2 / 2`` subject to ``A w = b``, ``w >= 0``, where
    ``A = [1; axes^T]`` is 4 x k and ``b = (2, 0, 0, 0)``:

    1. the row-space solution ``pinv(A) b`` is the optimum whenever it is
       nonnegative, which settles symmetric ensembles in one solve;
    2. otherwise Lawson-Hanson NNLS decides feasibility: a least residual
       ``|A w - b|`` above ``match_tol`` means no measurement exists;
    3. semismooth Newton on the 4-variable dual, ``w = (A^T lam)_+``, on
       the system the NNLS point solves exactly, finds the support of the
       least-norm point, and a last ``_walk`` makes the weights the positive
       row-space solution on that support alone, the candidate a search
       over every support would pick.

    Every pivot or Newton step is one 4 x m pseudo-inverse (m <= k) and
    each loop is bounded by ``8 k + 32`` of them, so the cost is polynomial
    in k.  Where two identified axes are antipodal to within about 1e-6 rad
    the support is ill-conditioned; the weights then still complete the
    measurement, but their norm may exceed the least one.
    """
    k = axes.shape[0]
    a = np.vstack([np.ones((1, k)), axes.T])
    rhs = np.array([2.0, 0.0, 0.0, 0.0])
    w = np.linalg.pinv(a, rcond=1e-12) @ rhs
    if np.min(w) >= 0.0 and np.linalg.norm(a @ w - rhs) <= tol.match_tol:
        return w
    limit = 8 * k + 32
    w = _nnls(a, rhs, limit)
    res = float(np.linalg.norm(a @ w - rhs))
    if res > tol.match_tol:
        raise InfeasibleCompleteness(
            "no nonnegative completeness weights found: least residual "
            f"{res:.3e} exceeds match_tol {tol.match_tol:.1e}"
        )
    # the system the NNLS point solves exactly is consistent even where the
    # tolerance admits a residual, so the dual method never meets an
    # infeasible one
    w = _dual_newton(a, a @ w, limit)
    w, _ = _walk(a, rhs, w, w > 0.0)
    res = float(np.linalg.norm(a @ w - rhs))
    if res > tol.match_tol:
        raise ConvergenceFailure(
            f"least-norm completion lost feasibility: residual {res:.3e} "
            f"exceeds match_tol {tol.match_tol:.1e}"
        )
    return w


# CaseTag by the codes _assemble computes
_TAGS = np.array(
    [CaseTag.PROJECTIVE_ELEMENT, CaseTag.NEVER_IDENTIFIED, CaseTag.NO_MEASUREMENT],
    dtype=object,
)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` for every row, through the same dot kernel as the
    1-D product, so each entry equals its per-row product bit for bit."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _unit_rows(s: np.ndarray) -> np.ndarray:
    """``comp_axis`` of every row of ``s``: scaled to unit length, a zero
    row left zero."""
    norms = np.sqrt(_row_dots(s, s))
    return s / np.where(norms > 0.0, norms, 1.0)[:, None]


def _assemble(ens: Ensemble, cen, off, f: float, y: np.ndarray, basis, tol: Tolerances):
    """The solution at the dual optimum ``Herm2(f, y)`` of basis ``basis``.

    ``cen, off`` are the solver's ``_centers(ens)``.  A state's
    complementary state is its displacement ``y - c_x``; a pair basis
    whose balls touch the ball from outside each other takes both along
    its line of centers, as a difference of close points costs the
    dominant state of a tiny-prior pair 1e-8 of its axis.  All states are
    labelled at once: a gap at or below ``psd_tol`` is NO_MEASUREMENT with a
    zero complementary state, otherwise the state is PROJECTIVE_ELEMENT when
    the smallest eigenvalue of its gap operator is at or below ``psd_tol``
    and NEVER_IDENTIFIED above.  When a NO_MEASUREMENT state makes blind
    guessing optimal, no state is identified, a tangent one included, and
    the weights are all zero; otherwise they are the least-norm completion
    of the identified states.
    """
    p_guess = 2.0 * float(f)
    gaps = p_guess - ens.priors
    disp = y - cen
    if len(basis) == 2:
        a, b = basis
        oa, ob = float(off[a]), float(off[b])
        if f > max(oa, ob):
            ca, cb = cen[a].tolist(), cen[b].tolist()
            gap = _dist(cb, ca)
            disp[a] = [(f - oa) * ((q - p) / gap) for p, q in zip(ca, cb)]
            disp[b] = [(f - ob) * ((p - q) / gap) for p, q in zip(ca, cb)]
    # lo[x] is the smallest eigenvalue of the dual gap operator of state x
    lo = (f - off) - np.linalg.norm(disp, axis=1)
    blind = gaps <= tol.psd_tol
    safe = np.where(blind, 1.0, gaps)
    comp = np.where(blind[:, None], 0.0, 2.0 * disp / safe[:, None])
    code = np.where(blind, 2, (lo > tol.psd_tol) | blind.any())
    sol = DiscriminationSolution(
        p_guess=p_guess,
        symmetry_op=Herm2(f, y),
        gaps=gaps,
        comp_states=comp,
        identified=tuple(np.flatnonzero(code == 0).tolist()),
        case_tags=tuple(_TAGS[code].tolist()),
        povm_weights=np.zeros(ens.n),
    )
    if blind.any():
        # guessing is optimal; the all-zero weights mean "no measurement"
        return sol
    return replace(sol, povm_weights=povm_weights(ens, sol, tol=tol))


def povm_weights(
    ens: Ensemble,
    sol: DiscriminationSolution,
    index_set=None,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Weights of an optimal measurement supported on ``index_set``.

    ``index_set`` defaults to every identified state.  Any nonnegative
    solution of the completeness system on identified states is
    automatically optimal (summing the per-element success terms telescopes
    to the trace of the dual optimizer), so restricting the support is how
    alternative optimal measurements are selected.  Ties are broken by
    minimum Euclidean norm, found by ``_min_norm_weights`` for any number k
    of identified states: one 4 x k pseudo-inverse when the optimum uses
    every state, otherwise NNLS and then Newton steps on the 4-variable
    dual, at most ``8 k + 32`` solves of that size per loop.  The index set is validated
    and its complementary axes gathered as arrays, with no loop over its
    states.  Raises IndexOutOfRange for an entry that is not an integer in
    ``[0, n)``, and InfeasibleCompleteness when the chosen support admits
    no measurement, e.g. non-antipodal two-element supports, names a state
    twice or names an unidentified one.
    """
    if index_set is None:
        # the solver's own set: in range, distinct and identified
        idx = np.array(sol.identified, dtype=np.intp)
    else:
        idx = _index_array(ens.n, tuple(index_set))
        order = np.sort(idx)
        twice = order[1:][order[1:] == order[:-1]]
        if twice.size:
            raise InfeasibleCompleteness(
                f"index set names states {np.unique(twice).tolist()} more than once"
            )
        measured = np.zeros(ens.n, dtype=bool)
        measured[list(sol.identified)] = True
        bad = idx[~measured[idx]]
        if bad.size:
            raise InfeasibleCompleteness(
                f"states {bad.tolist()} are not identified by this solution"
            )
    if not idx.size:
        raise InfeasibleCompleteness("empty index set")
    weights = np.zeros(ens.n)
    weights[idx] = _min_norm_weights(_unit_rows(sol.comp_states[idx]), tol)
    return weights


def _enclosing_ball(cen: np.ndarray, off: np.ndarray):
    """``(f, y, basis)`` of the smallest ball enclosing the balls
    ``B(cen_x, off_x)``, certified by the balls of ``basis``.

    Basis improvement for an LP-type problem with bases of at most four
    balls.  The loop begins at the ball of the largest prior, the only
    one-ball basis it needs: each pivot takes the state farthest outside the
    current ball and computes the new basis, of two to four balls, from
    scratch (``_pivot``), as move-to-front is not safe for balls (Fischer &
    Gartner, IJCGA 14, 2004).  The violator search leaves out the basis,
    whose balls exceed their ball by roundoff or the Gram path's root error.
    The loop ends once no other state exceeds the ball by 1e-15, or, within
    1e-10 where the Gram roots are no more accurate, once a pivot certifies
    no larger ball (such pivots would cycle).  Raises ConvergenceFailure,
    stating the pivots made and the largest violation, when a pivot beyond
    that band certifies no ball or ``8 n + 32`` pivots do not settle:
    degeneracy beyond the built-in tolerances.
    """
    basis = [int(np.argmax(off))]
    f, y = float(off[basis[0]]), cen[basis[0]]
    limit = 8 * len(off) + 32
    for pivots in range(limit + 1):
        vals = off + np.linalg.norm(cen - y, axis=1)
        for i in basis:
            vals[i] = -np.inf
        j = int(np.argmax(vals))
        if vals[j] <= f + _ROUNDOFF:
            return f, y, basis
        hit = None if pivots == limit else _pivot(basis, j, cen, off)
        near = vals[j] <= f + _FEAS_SLACK
        if hit is None or (near and hit[1] <= f):
            if near:
                return f, y, basis
            break
        basis, f, y = hit
    raise ConvergenceFailure(
        f"enclosing ball not certified after {pivots} pivots; state {j} "
        f"still exceeds it by {vals[j] - f:.3e}"
    )


def _pair_ball(c0, o0: float, c1, o1: float):
    """``(f, y)`` of the smallest ball enclosing the balls ``B(c0, o0)`` and
    ``B(c1, o1)``, in closed form on floats (centers as 3-lists): the larger
    ball when it holds the other, else the ball touching both along the line
    of their centers."""
    gap = _dist(c1, c0)
    if gap <= abs(o0 - o1) + _ROUNDOFF:
        return (o0, c0) if o0 >= o1 else (o1, c1)
    f = 0.5 * (gap + o0 + o1)
    return f, [a + (f - o0) * ((b - a) / gap) for a, b in zip(c0, c1)]


def solve_general(ens: Ensemble, tol: Tolerances = DEFAULT_TOL) -> DiscriminationSolution:
    """Exact optimal discrimination of an arbitrary qubit ensemble.

    The dual optimum is the smallest ball enclosing the balls ``B(q_x v_x /
    2, q_x / 2)``, found by the basis improvement of ``_enclosing_ball``
    from the ball of the largest prior; ``_assemble`` labels the states and
    completes the measurement; a two-state ensemble's basis is a pair,
    whose ball is closed-form.  Raises ConvergenceFailure when the pivots
    do not settle.
    """
    cen, off = _centers(ens)
    return _assemble(ens, cen, off, *_enclosing_ball(cen, off), tol)


def solve_two_state(ens: Ensemble, tol: Tolerances = DEFAULT_TOL) -> DiscriminationSolution:
    """``solve_general`` of a two-state ensemble (the trace-norm formula).

    When the weighted Bloch difference is shorter than the prior difference
    the best strategy is to always guess the likelier state; it gets tagged
    NO_MEASUREMENT and the other one NEVER_IDENTIFIED.  Raises WrongArity
    for any other number of states.
    """
    if ens.n != 2:
        raise WrongArity(f"two-state solver got {ens.n} states")
    return solve_general(ens, tol)


def solve(ens: Ensemble, tol: Tolerances = DEFAULT_TOL) -> DiscriminationSolution:
    """Exact optimal discrimination of any qubit ensemble: ``solve_general``,
    one route for every number of states."""
    return solve_general(ens, tol)


def _optimal_value(ens: Ensemble) -> float:
    """The guessing probability ``solve(ens).p_guess`` alone, which a
    negative preservation verdict reports: the same ball, with no labels and
    no measurement assembled."""
    f, _, _ = _enclosing_ball(*_centers(ens))
    return 2.0 * float(f)


def povm_value(ens: Ensemble, sol: DiscriminationSolution, weights=None) -> float:
    """Success probability actually achieved by a measurement.

    ``weights`` defaults to the weights stored in the solution.  At an
    optimum the result equals ``p_guess`` to machine precision, which makes
    it a strong-duality certificate.  The value is one sum over the nonzero
    weights of ``q_x w_x (1 - u_x . v_x) / 2``, with ``u_x`` the unit
    complementary axis.  In the guessing-only case (all weights zero) it is
    the prior of the first NO_MEASUREMENT state.  Raises WrongLength for a
    weight vector of the wrong shape and BadParameter for a weight that is
    not finite.
    """
    if weights is None:
        weights = sol.povm_weights
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (ens.n,):
        raise WrongLength(f"expected {ens.n} weights, got shape {weights.shape}")
    bad = np.flatnonzero(~np.isfinite(weights))
    if bad.size:
        raise BadParameter(f"weight {float(weights[bad[0]])!r} of state {bad[0]} is not finite")
    nz = np.flatnonzero(weights)
    if not nz.size and CaseTag.NO_MEASUREMENT in sol.case_tags:
        return float(ens.priors[sol.case_tags.index(CaseTag.NO_MEASUREMENT)])
    axes = _unit_rows(sol.comp_states[nz])
    terms = ens.priors[nz] * weights[nz] * 0.5 * (1.0 - _row_dots(axes, ens.blochs[nz]))
    return float(terms.sum())
