"""Qubit channels as affine maps of the Bloch ball.

A channel acts on Bloch vectors as ``v -> D v + t`` with a real 3x3 matrix
``D`` and a shift ``t``; this parametrization is trace preserving by
construction, so complete positivity is the only condition left to test.  The
authoritative test is the smallest eigenvalue of the 4x4 Choi operator, which
is affine in ``(D, t)``: one constant basis turns a stack of channels into
Choi operators with a single matrix product.  The closed-form inequalities of
Fujiwara & Algoet and Ruskai, Szarek & Werner on the rotation-canonical form
are kept as an independent cross-check on the domain where they are
conclusive; they save no time over the Choi test.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .bloch import DEFAULT_TOL, Tolerances
from .errors import BadParameter, BlochOutOfBall

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# J = (I(x)I + sum_k t_k s_k(x)I + sum_kj D_kj s_k(x)conj(s_j)) / 2, flattened
# row-major: one row per packed coordinate, D row-major, then t
_CHOI_BASIS = 0.5 * np.array(
    [np.kron(_SIGMA[k], _SIGMA[j].conj()).reshape(16) for k in range(3) for j in range(3)]
    + [np.kron(s, np.eye(2)).reshape(16) for s in _SIGMA]
)
_CHOI_CONST = 0.5 * np.eye(4, dtype=complex).reshape(16)

# Default slack for Choi positivity and for the inequality checks.
CPTP_TOL = 1e-9


class CptpVerdict(enum.Enum):
    CPTP = "CPTP"
    NOT_CP = "NotCP"
    INCONCLUSIVE = "INCONCLUSIVE_USE_CHOI"


@dataclass(frozen=True)
class QubitChannel:
    """Affine Bloch map ``v -> matrix @ v + shift``."""

    matrix: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        t = np.array(self.shift, dtype=float)
        if m.shape != (3, 3):
            raise BadParameter(f"channel matrix must be 3x3, got {m.shape}")
        if t.shape != (3,):
            raise BadParameter(f"channel shift must be a 3-vector, got {t.shape}")
        if not (np.isfinite(m).all() and np.isfinite(t).all()):
            raise BadParameter("channel entries must be finite")
        m.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "shift", t)

    def apply(self, v, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """Image of the Bloch vector ``v``; the input must lie in the ball."""
        v = np.asarray(v, dtype=float)
        if np.linalg.norm(v) > 1.0 + tol.psd_tol:
            raise BlochOutOfBall(f"input Bloch norm {np.linalg.norm(v):.12g} > 1")
        return self.matrix @ v + self.shift

    def compose(self, inner: "QubitChannel") -> "QubitChannel":
        """The map ``self after inner``."""
        return QubitChannel(
            self.matrix @ inner.matrix, self.matrix @ inner.shift + self.shift
        )


@dataclass(frozen=True)
class CanonicalForm:
    """Rotation-canonical decomposition ``D = rot_out @ diag(scales) @ rot_in``.

    Both rotations are proper, the signed scales satisfy
    ``|scales[0]| <= |scales[1]| <= |scales[2]|`` with ``scales[2] >= 0``, and
    ``shift_canon = rot_out.T @ t`` is the shift seen in the canonical frame.
    """

    scales: np.ndarray
    shift_canon: np.ndarray
    rot_out: np.ndarray
    rot_in: np.ndarray


def identity_channel() -> QubitChannel:
    return QubitChannel(np.eye(3), np.zeros(3))


def depolarizing_channel(eta: float) -> QubitChannel:
    """Uniform contraction ``v -> (1 - eta) v`` for ``eta`` in [0, 1]."""
    eta = float(eta)
    if not 0.0 <= 1.0 - eta <= 1.0:
        raise BadParameter(f"depolarizing strength must be in [0, 1], got {eta}")
    return QubitChannel((1.0 - eta) * np.eye(3), np.zeros(3))


def unitary_channel(axis, angle: float) -> QubitChannel:
    """Rotation of the Bloch ball about ``axis`` (unit to 1e-9) by ``angle``."""
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,):
        raise BadParameter(f"axis must be a 3-vector, got shape {axis.shape}")
    if not abs(np.linalg.norm(axis) - 1.0) <= 1e-9:
        raise BadParameter(f"axis must be unit length, got norm {np.linalg.norm(axis):.12g}")
    angle = float(angle)
    if not np.isfinite(angle):
        raise BadParameter(f"angle must be finite, got {angle}")
    c, s = np.cos(angle), np.sin(angle)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    rot = c * np.eye(3) + s * k + (1.0 - c) * np.outer(axis, axis)
    return QubitChannel(rot, np.zeros(3))


def canonical_form(channel: QubitChannel) -> CanonicalForm:
    """Signed-SVD canonical form with proper rotations on both sides.

    Singular-value signs are folded into the smallest-magnitude scale so that
    ``det(rot_out) = det(rot_in) = +1``; columns are sign-fixed to make the
    output deterministic (diagonal channels with distinct positive entries get
    identity rotations).
    """
    u, s, vt = np.linalg.svd(channel.matrix)
    # reorder to |scales| ascending; a stable sort keeps tied blocks in the
    # frame the SVD produced (so isotropic maps keep their natural axes)
    order = np.argsort(s, kind="stable")
    u = u[:, order].copy()
    s = s[order].copy()
    vt = vt[order, :].copy()
    for k in range(3):
        j = int(np.argmax(np.abs(u[:, k])))
        if u[j, k] < 0:
            u[:, k] = -u[:, k]
            vt[k, :] = -vt[k, :]
    scales = s.copy()
    if np.linalg.det(u) < 0:
        u[:, 0] = -u[:, 0]
        scales[0] = -scales[0]
    if np.linalg.det(vt) < 0:
        vt[0, :] = -vt[0, :]
        scales[0] = -scales[0]
    return CanonicalForm(scales, u.T @ channel.shift, u, vt)


def _choi_stack(coords) -> np.ndarray:
    """Choi operators (trace 2, standard basis), shape ``(m, 4, 4)``."""
    coords = np.asarray(coords, dtype=float).reshape(-1, 12)
    return (_CHOI_CONST + coords @ _CHOI_BASIS).reshape(-1, 4, 4)


def choi_min_eigenvalues(coords) -> np.ndarray:
    """Smallest Choi eigenvalue of each channel in a stack.

    ``coords`` holds one row per channel, ``D`` row-major then ``t``: the
    first 12 coordinates of ``omp_construct.pack``.
    """
    return np.linalg.eigvalsh(_choi_stack(coords))[:, 0]


def _coords(channel: QubitChannel) -> np.ndarray:
    return np.concatenate([channel.matrix.reshape(9), channel.shift])


def choi_matrix(channel: QubitChannel) -> np.ndarray:
    """Choi operator (trace 2) of the affine map under the standard basis."""
    return _choi_stack(_coords(channel))[0]


def is_cptp_choi(channel: QubitChannel, tol: float = CPTP_TOL) -> CptpVerdict:
    """CPTP verdict from the smallest Choi eigenvalue.  Always conclusive."""
    lo = float(choi_min_eigenvalues(_coords(channel))[0])
    return CptpVerdict.CPTP if lo >= -tol else CptpVerdict.NOT_CP


def is_cptp_inequalities(form: CanonicalForm, tol: float = CPTP_TOL) -> CptpVerdict:
    """Closed-form CPTP test on a canonical form.

    An independent cross-check of is_cptp_choi (acceptance check 11 pins
    their agreement), not a faster screen: the canonical form's SVD costs
    more than the closed-form Choi test.

    The scale bound ``|scale| <= 1``, the two shifted-square conditions and
    the quartic condition are necessary in general, so any failure is a
    conclusive NotCP.  They are also sufficient when the canonical shift is
    purely along the third axis, and on the boundary ``|l3| + |t3| = 1`` only
    such shifts are admissible.  Off that domain the test returns
    INCONCLUSIVE_USE_CHOI.
    """
    l1, l2, l3 = (float(x) for x in form.scales)
    t1, t2, t3 = (float(x) for x in form.shift_canon)
    if max(abs(l1), abs(l2), abs(l3)) > 1.0 + tol:
        return CptpVerdict.NOT_CP
    ok = (l1 + l2) ** 2 <= (1.0 + l3) ** 2 - t3 * t3 + tol
    ok = ok and (l1 - l2) ** 2 <= (1.0 - l3) ** 2 - t3 * t3 + tol
    lhs = (1.0 - (l1 * l1 + l2 * l2 + l3 * l3) - (t1 * t1 + t2 * t2 + t3 * t3)) ** 2
    rhs = 4.0 * (
        l1 * l1 * (t1 * t1 + l2 * l2)
        + l2 * l2 * (t2 * t2 + l3 * l3)
        + l3 * l3 * (t3 * t3 + l1 * l1)
        - 2.0 * l1 * l2 * l3
    )
    ok = ok and lhs + tol >= rhs
    if not ok:
        return CptpVerdict.NOT_CP
    axial = abs(t1) <= tol and abs(t2) <= tol
    on_boundary = abs(abs(l3) + abs(t3) - 1.0) <= tol
    if on_boundary and not axial:
        # extreme scale/shift combinations admit no transverse shift
        return CptpVerdict.NOT_CP
    if axial:
        return CptpVerdict.CPTP
    return CptpVerdict.INCONCLUSIVE
