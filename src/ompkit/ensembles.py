"""Qubit ensembles: validated prior/Bloch-vector collections and pair operators."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .bloch import DEFAULT_TOL, Herm2, Tolerances
from .errors import BadPriors, BlochOutOfBall, IndexOutOfRange, TooFewStates, WrongLength

# Priors further off from summing to 1 than this are rejected instead of renormalized.
_PRIOR_DRIFT = 1e-9


@dataclass(frozen=True)
class Ensemble:
    """An ensemble ``{(q_x, v_x)}`` of qubit states in Bloch form.

    ``priors`` has shape (n,) and sums to one; ``blochs`` has shape (n, 3)
    with every row inside the closed unit ball.  Build instances through
    :func:`make_ensemble`, which enforces those invariants.
    """

    priors: np.ndarray
    blochs: np.ndarray

    @property
    def n(self) -> int:
        return len(self.priors)

    def state(self, x: int) -> Herm2:
        """Weighted state ``q_x rho_x`` is ``priors[x] * state(x)``; this is ``rho_x``."""
        return Herm2(0.5, self.blochs[x] / 2.0)


@dataclass(frozen=True)
class HelstromPair:
    """The weighted difference ``q_x rho_x - q_y rho_y`` for one ordered pair.

    ``vec`` is the Bloch 3-vector ``q_x v_x - q_y v_y``, i.e. twice the beta
    component of ``op``.
    """

    x: int
    y: int
    op: Herm2
    vec: np.ndarray


def make_ensemble(states, tol: Tolerances = DEFAULT_TOL) -> Ensemble:
    """Validate raw ``[(q, bloch), ...]`` pairs into an :class:`Ensemble`.

    Priors must be strictly positive numbers summing to one; a drift below
    1e-9 is silently renormalized, anything larger raises BadPriors.  Every
    Bloch vector must have three entries (WrongLength) and may exceed unit
    norm only within the positivity tolerance.  NaN, which compares false,
    fails both tests.
    """
    states = list(states)
    if len(states) < 2:
        raise TooFewStates(f"need at least 2 states, got {len(states)}")
    qs = [q for q, _ in states]
    try:
        priors = np.array([float(q) for q in qs])
    except (TypeError, ValueError) as exc:
        raise BadPriors(f"every prior must be a number: {exc}") from None
    vecs = [np.asarray(v, dtype=float) for _, v in states]
    try:
        blochs = np.array(vecs)
    except ValueError:  # ragged
        blochs = None
    if blochs is None or blochs.shape != (len(vecs), 3):
        x = next(x for x, v in enumerate(vecs) if v.shape != (3,))
        raise WrongLength(f"state {x} has a Bloch vector of shape {vecs[x].shape}, not (3,)")
    if not np.all(priors > 0):
        raise BadPriors("all priors must be strictly positive")
    total = priors.sum()
    if abs(total - 1.0) >= _PRIOR_DRIFT:
        raise BadPriors(f"priors sum to {total:.12g}, not 1")
    priors = priors / total
    norms = np.linalg.norm(blochs, axis=1)
    if not np.all(norms <= 1.0 + tol.psd_tol):
        bad = int(np.argmax(norms))
        raise BlochOutOfBall(f"state {bad} has Bloch norm {norms[bad]:.12g} > 1")
    priors.flags.writeable = False
    blochs.flags.writeable = False
    return Ensemble(priors, blochs)


def _index_array(n: int, index_set, what: str = "state index") -> np.ndarray:
    """``index_set`` as an integer array, the one validation of indices
    into ``n`` items (states, or the unknowns of a channel family):
    IndexOutOfRange, naming the first entry that is not an integer in
    ``[0, n)``, before anything is indexed with it (numpy would wrap a
    negative index and truncate a float)."""
    idx = np.asarray(index_set)
    if idx.size and idx.dtype.kind not in "biu":
        bad = next(x for x in index_set if not isinstance(x, numbers.Integral))
        raise IndexOutOfRange(f"{what} {bad!r} is not an integer")
    idx = idx.astype(np.intp, copy=False)
    out = (idx < 0) | (idx >= n)
    if out.any():
        raise IndexOutOfRange(f"{what} {int(idx[out][0])} not in [0, {n})")
    return idx


def reduce_unidentified(ens: Ensemble, drop: int, tol: Tolerances = DEFAULT_TOL):
    """Remove one state and renormalize the remaining priors.

    Returns ``(reduced, r)`` where ``r = 1 - q_drop`` is the retained weight;
    guessing probabilities of the reduced problem rescale by ``r``.
    ``drop`` must be an integer in ``[0, n)`` (IndexOutOfRange).
    """
    _index_array(ens.n, (drop,))
    if ens.n - 1 < 2:
        raise TooFewStates("cannot reduce a two-state ensemble further")
    keep = [x for x in range(ens.n) if x != drop]
    r = float(ens.priors[keep].sum())
    reduced = make_ensemble(
        [(ens.priors[x] / r, ens.blochs[x]) for x in keep], tol=tol
    )
    return reduced, r


def helstrom(ens: Ensemble, x: int, y: int) -> HelstromPair:
    """Pair operator ``q_x rho_x - q_y rho_y`` in Bloch form; ``x`` and ``y``
    must be integers in ``[0, n)`` (IndexOutOfRange)."""
    _index_array(ens.n, (x, y))
    vec = ens.priors[x] * ens.blochs[x] - ens.priors[y] * ens.blochs[y]
    op = Herm2((ens.priors[x] - ens.priors[y]) / 2.0, vec / 2.0)
    return HelstromPair(x, y, op, vec)
