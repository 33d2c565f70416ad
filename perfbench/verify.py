"""Independent checks of ompkit outputs, run outside the timed region.

Nothing here trusts the library's own certificates: every check recomputes
the quantity from the inputs with plain numpy.

* A discrimination solution is optimal when its symmetry operator K
  dominates every weighted state (dual feasibility, so ``Tr K`` bounds the
  guessing probability from above) and the returned measurement is a
  complete POVM that reaches ``Tr K`` (primal feasibility at the same
  value).
* A positive preservation verdict holds when the original measurement,
  applied to the transformed ensemble, reaches that ensemble's optimum,
  itself certified by the first check.
* A ``family`` report holds when every kept member has its degradation in
  ``[0, min gap]``, respects the requested slice, and is completely
  positive by a Choi matrix built here in closed form.
"""

from __future__ import annotations

import json

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)

DOMINANCE_TOL = 1e-9  # smallest eigenvalue of K - q_x rho_x
VALUE_TOL = 1e-8  # primal value against the dual bound, completeness residual
PSD_TOL = 1e-9  # smallest Choi eigenvalue of a kept family member


def dominance(priors, blochs, alpha: float, beta) -> np.ndarray:
    """Smallest eigenvalue of ``K - q_x rho_x`` for ``K = alpha I + beta.sigma``."""
    return alpha - priors / 2.0 - np.linalg.norm(beta - priors[:, None] * blochs / 2.0, axis=1)


def measurement_value(priors, blochs, weights, axes) -> float:
    """Success probability of ``E_x = w_x (I - s_x.sigma) / 2`` on the ensemble."""
    return float(np.sum(priors * weights * 0.5 * (1.0 - np.sum(axes * blochs, axis=1))))


def _axes(comp_states) -> np.ndarray:
    norms = np.linalg.norm(comp_states, axis=1, keepdims=True)
    return np.divide(comp_states, norms, out=np.zeros_like(comp_states), where=norms > 0)


def solution(ens, sol):
    """None when ``sol`` is a certified optimum of ``ens``, else the reason."""
    q, v = np.asarray(ens.priors), np.asarray(ens.blochs)
    alpha, beta = sol.symmetry_op.alpha, np.asarray(sol.symmetry_op.beta)
    lo = dominance(q, v, alpha, beta)
    if np.min(lo) < -DOMINANCE_TOL:
        return f"state {int(np.argmin(lo))} not dominated: {np.min(lo):.3e}"
    if abs(sol.p_guess - 2.0 * alpha) > 1e-12:
        return f"p_guess {sol.p_guess!r} is not the trace {2.0 * alpha!r}"
    w = np.asarray(sol.povm_weights, dtype=float)
    if not np.any(w):
        # blind guessing: the measurement is "always answer the likeliest"
        value = float(np.max(q))
    else:
        if np.min(w) < 0.0:
            return f"negative weight {np.min(w):.3e}"
        axes = _axes(np.asarray(sol.comp_states))
        residual = np.linalg.norm(np.concatenate([[np.sum(w) - 2.0], w @ axes]))
        if residual > VALUE_TOL:
            return f"weights miss completeness by {residual:.3e}"
        value = measurement_value(q, v, w, axes)
    if abs(value - sol.p_guess) > VALUE_TOL:
        return f"measurement reaches {value!r}, p_guess is {sol.p_guess!r}"
    return None


def preserved_optimum(ok, ens, channel, sol, report):
    """None when the measurement of ``sol`` stays optimal after ``channel``."""
    reason = solution(ens, sol)
    if reason is not None:
        return f"original solution: {reason}"
    if tuple(report.index_set) != tuple(sol.identified):
        return f"checked set {report.index_set} is not the identified set {sol.identified}"
    out = np.asarray(ens.blochs) @ np.asarray(channel.matrix).T + np.asarray(channel.shift)
    loose = ok.Tolerances(psd_tol=1e-8)
    after_ens = ok.make_ensemble(list(zip(ens.priors, out)), loose)
    after = ok.solve(after_ens)
    reason = solution(after_ens, after)
    if reason is not None:
        return f"transformed solution: {reason}"
    w = np.asarray(sol.povm_weights, dtype=float)
    value = measurement_value(np.asarray(ens.priors), out, w, _axes(np.asarray(sol.comp_states)))
    if value < after.p_guess - VALUE_TOL:
        return f"preserved measurement reaches {value!r} < optimum {after.p_guess!r}"
    return None


def choi(matrix, shift) -> np.ndarray:
    """Choi operator ``(1/2)[(I + t.sigma) (x) I + sum_ik D_ik sigma_i (x) sigma_k^T]``."""
    j = np.kron(I2 + np.einsum("k,kij->ij", shift, PAULI), I2)
    j += np.einsum("ik,iab,kcd->acbd", matrix, PAULI, PAULI.transpose(0, 2, 1)).reshape(4, 4)
    return 0.5 * j


def family_report(path, sol, slice_name: str, fixed_delta):
    """None when the ``family`` JSON report at ``path`` holds, else the reason."""
    report = json.loads(path.read_text(encoding="utf-8"))
    if report["kept"] != len(report["samples"]):
        return f"kept {report['kept']} but {len(report['samples'])} samples listed"
    min_gap = float(np.min(np.asarray(sol.gaps)[report["index_set"]]))
    for pos, member in enumerate(report["samples"]):
        d, t, delta = np.asarray(member["D"]), np.asarray(member["t"]), member["delta"]
        if not -VALUE_TOL <= delta <= min_gap + VALUE_TOL:
            return f"member {pos}: delta {delta!r} outside [0, {min_gap!r}]"
        if slice_name == "unital" and np.max(np.abs(t)) > VALUE_TOL:
            return f"member {pos}: unital slice with shift {t.tolist()}"
        if slice_name == "delta" and abs(delta - fixed_delta) > VALUE_TOL:
            return f"member {pos}: delta {delta!r} is not the fixed {fixed_delta!r}"
        lo = float(np.linalg.eigvalsh(choi(d, t))[0])
        if lo < -PSD_TOL:
            return f"member {pos}: Choi eigenvalue {lo:.3e}"
    return None
