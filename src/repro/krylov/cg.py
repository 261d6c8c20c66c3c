"""Preconditioned conjugate gradients.

The paper's systems are SPD, so CG with the *symmetric* variants of the
preconditioners (ASM one-level, BNN/A-DEF2 two-level) is the natural
companion method; it also anchors tests (CG and GMRES must agree).
"""

from __future__ import annotations

import numpy as np

from ..common.errors import IndefiniteError
from ..obs.recorder import NULL_RECORDER
from . import profile
from .gmres import KrylovResult, _as_operator


def cg(A, b: np.ndarray, *, M=None, x0: np.ndarray | None = None,
       tol: float = 1e-6, maxiter: int = 1000,
       callback=None, recorder=None,
       health=None) -> KrylovResult:
    """Left-preconditioned CG: solve ``A x = b`` with SPD ``A`` and SPD
    preconditioner ``M`` (applied as an operator).

    A :class:`~repro.resilience.HealthMonitor` passed as *health* is
    checked once per iteration (with the current iterate, so its
    checkpoints can serve rollback-restart recovery); breakdowns raise
    typed :class:`~repro.common.errors.KrylovBreakdown` subclasses
    carrying the last healthy iterate and the residual history.
    """
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    rec = NULL_RECORDER if recorder is None else recorder
    A_mul = profile.instrument(rec, _as_operator(A, n, "A"), "matvec")
    M_mul = profile.instrument(rec, _as_operator(M, n, "M"), "apply")
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return profile.finish_zero_rhs(n, recorder=rec, callback=callback,
                                       health=health)
    target = tol * bnorm

    r = b - A_mul(x)
    z = M_mul(r)
    p = z.copy()
    rz = float(r @ z)
    syncs = 2
    residuals = [float(np.linalg.norm(r)) / bnorm]
    profile.iteration(rec, 0, residuals[0])
    if health is not None:
        health.observe(0, residuals[0], x)
    it = 0
    while residuals[-1] * bnorm > target and it < maxiter:
        Ap = A_mul(p)
        pAp = float(p @ Ap)
        syncs += 1
        if pAp <= 0:
            raise IndefiniteError(
                f"CG breakdown: p·Ap = {pAp:.3e} <= 0 (operator or "
                "preconditioner not SPD)",
                x=x.copy(), residuals=list(residuals), iteration=it)
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = M_mul(r)
        rz_new = float(r @ z)
        syncs += 1
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
        it += 1
        residuals.append(float(np.linalg.norm(r)) / bnorm)
        profile.iteration(rec, it, residuals[-1])
        syncs += 1
        if health is not None:
            health.observe(it, residuals[-1], x)
        if callback is not None:
            callback(it, residuals[-1])
    return KrylovResult(x=x, iterations=it, residuals=residuals,
                        converged=residuals[-1] * bnorm <= target,
                        global_syncs=syncs)
