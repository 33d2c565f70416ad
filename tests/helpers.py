"""Shared random generators and oracles for the test suite.

Channels are drawn through random Stinespring isometries, so they are
completely positive and trace preserving by construction, independent of the
library's own CPTP tests.  The completeness weights and the dual of the
discrimination problem have brute-force oracles: a search over every
support, and over every active subset of up to four states.
"""

import itertools

import numpy as np

from ompkit import Ensemble, QubitChannel, make_ensemble
from ompkit.bloch import DEFAULT_TOL, Tolerances
from ompkit.discrimination import _centers, _certify_subset
from ompkit.errors import ConvergenceFailure, InfeasibleCompleteness

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


def enumerated_enclosing_ball(ens: Ensemble):
    """Test oracle for the dual optimum: certify every subset of states.

    Tries every subset of up to four states, the most a basis of a ball in
    three dimensions holds, smallest size first, certifying each against all
    states, and returns ``(f, y)`` of the smallest certified ball of the
    first size that has one.  The cost grows as n^4, so keep ``ens.n``
    small.
    """
    cen, off = _centers(ens)
    for size in range(1, min(4, ens.n) + 1):
        found = []
        for idx in itertools.combinations(range(ens.n), size):
            hit = _certify_subset(idx, cen, off)
            if hit is not None:
                found.append(hit)
        if found:
            return min(found, key=lambda t: t[0])
    raise ConvergenceFailure("no active subset certified")
