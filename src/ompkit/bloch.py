"""Bloch-form algebra for 2x2 Hermitian operators.

Every Hermitian 2x2 operator is written as ``alpha * I + beta . sigma`` with a
real scalar ``alpha`` and a real 3-vector ``beta``.  All spectral quantities
then reduce to closed forms (eigenvalues ``alpha +- |beta|``), which keeps the
rest of the library free of complex matrices.  The module also carries the
small real-matrix helpers (pseudoinverse, nullspace) used by the family
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, BlochOutOfBall, WrongLength


def _vec3(v) -> np.ndarray:
    a = np.array(v, dtype=float)
    if a.shape != (3,):
        raise WrongLength(f"expected a 3-vector, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used throughout the library.

    psd_tol bounds how negative an eigenvalue may be before an operator is
    declared non-positive; rank_tol is relative to the largest singular value
    when deciding matrix rank; match_tol bounds residuals when two operator
    expressions are declared equal.
    """

    psd_tol: float = 1e-9
    rank_tol: float = 1e-9
    match_tol: float = 1e-8

    def __post_init__(self):
        for name in ("psd_tol", "rank_tol", "match_tol"):
            value = getattr(self, name)
            # NaN compares false, so it is refused too
            if not value > 0:
                raise BadParameter(f"{name} must be strictly positive, got {value!r}")


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class Herm2:
    """A 2x2 Hermitian operator ``alpha * I + beta . sigma``."""

    alpha: float
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", _vec3(self.beta))

    @property
    def trace(self) -> float:
        return 2.0 * self.alpha

    def __add__(self, other: "Herm2") -> "Herm2":
        return Herm2(self.alpha + other.alpha, self.beta + other.beta)

    def __sub__(self, other: "Herm2") -> "Herm2":
        return Herm2(self.alpha - other.alpha, self.beta - other.beta)

    def __neg__(self) -> "Herm2":
        return Herm2(-self.alpha, -self.beta)

    def __rmul__(self, scalar: float) -> "Herm2":
        return Herm2(scalar * self.alpha, scalar * self.beta)


def herm2_from_state(v, tol: Tolerances = DEFAULT_TOL) -> Herm2:
    """Density operator of the qubit state with Bloch vector ``v``.

    Raises BlochOutOfBall when ``|v| > 1`` beyond the positivity tolerance.
    """
    v = _vec3(v)
    norm = float(np.linalg.norm(v))
    if norm > 1.0 + tol.psd_tol:
        raise BlochOutOfBall(f"Bloch vector has norm {norm:.12g} > 1")
    return Herm2(0.5, v / 2.0)


def eigen2(a: Herm2) -> tuple[float, float, np.ndarray]:
    """Eigenvalues and eigenaxis of a Bloch-form operator.

    Returns ``(lo, hi, axis)`` with ``lo = alpha - |beta|``,
    ``hi = alpha + |beta|`` and ``axis = beta / |beta|``.  The eigenvector for
    ``hi`` has Bloch vector ``+axis``, the one for ``lo`` has ``-axis``.  For
    ``beta = 0`` the axis defaults to ``(0, 0, 1)`` so output is deterministic.
    """
    # scaled by the largest component, so that squaring cannot underflow
    # and a subnormal beta still has a unit axis
    m = float(np.max(np.abs(a.beta)))
    if m == 0.0:
        return a.alpha, a.alpha, np.array([0.0, 0.0, 1.0])
    unit = a.beta / m
    n = float(np.linalg.norm(unit))
    r = m * n
    return a.alpha - r, a.alpha + r, unit / n


def trace_norm(a: Herm2) -> float:
    """Sum of absolute eigenvalues, ``|alpha + |beta|| + |alpha - |beta||``."""
    r = float(np.linalg.norm(a.beta))
    return abs(a.alpha + r) + abs(a.alpha - r)


def _rank(s: np.ndarray, tol: Tolerances) -> int:
    """Number of singular values ``s`` (sorted descending) above ``rank_tol``
    times the largest, 0 for an empty or all-zero spectrum: the one rank
    rule of :func:`pinv`, :func:`nullspace` and :func:`matrix_rank`."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol.rank_tol * s[0]))


def pinv(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse over the singular values :func:`_rank` keeps."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    rank = _rank(s, tol)
    if rank == 0:
        return np.zeros((m.shape[1], m.shape[0]))
    inv = np.zeros_like(s)
    inv[:rank] = 1.0 / s[:rank]
    return (vt.T * inv) @ u.T


def nullspace(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the right nullspace as columns, shape
    ``(n_cols, n_cols - rank)`` with the rank of :func:`_rank`."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    # the reduced SVD of a tall matrix still has a complete ``vt``, without
    # the rows-by-rows ``u``
    _, s, vt = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    return vt[_rank(s, tol):].T.copy()


def matrix_rank(m, tol: Tolerances = DEFAULT_TOL) -> int:
    """Rank under the same rule as :func:`pinv` and :func:`nullspace`."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    return _rank(np.linalg.svd(m, compute_uv=False), tol)
