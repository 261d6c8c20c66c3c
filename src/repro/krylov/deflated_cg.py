"""Deflated conjugate gradients (Nicolaides 1987; Frank & Vuik 2002).

The paper's references [23] and [11] are the classical deflation
literature its coarse operator generalises.  Deflated CG solves the SPD
system on the A-orthogonal complement of range(Z):

    P = I − A Z E⁻¹ Zᵀ,  E = ZᵀAZ,
    solve P A x̂ = P b with CG, then  x = Q b + Pᵀ x̂,  Q = Z E⁻¹ Zᵀ.

With the GenEO Z this is the CG-side counterpart of P_A-DEF1.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..common.errors import IndefiniteError, KrylovError
from ..solvers import factorize
from ..obs.recorder import NULL_RECORDER
from . import profile
from .gmres import KrylovResult, _as_operator


def deflated_cg(A, b: np.ndarray, Z, *, M=None,
                x0: np.ndarray | None = None, tol: float = 1e-6,
                maxiter: int = 1000, backend: str = "dense",
                callback=None,
                recorder=None,
                health=None) -> KrylovResult:
    """Deflated (and optionally preconditioned) CG.

    Parameters
    ----------
    A:
        SPD matrix or operator callable.
    Z:
        ``(n, m)`` deflation basis (dense or sparse), full column rank.
    M:
        Optional SPD preconditioner (callable or matrix).
    x0:
        Initial guess.  The deflated iteration runs on x̂ with
        ``r = P(b − A x0)``; the final map ``x = Q b + Pᵀ x̂`` then
        reproduces ``x0`` exactly when it already solves the system
        (``Q b + Pᵀ x* = x*``), so a warm start from the exact solution
        converges in zero iterations like the undeflated drivers.
    """
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    rec = NULL_RECORDER if recorder is None else recorder
    A_mul = profile.instrument(rec, _as_operator(A, n, "A"), "matvec")
    M_mul = profile.instrument(rec, _as_operator(M, n, "M"), "apply")
    Zd = Z.toarray() if sp.issparse(Z) else np.asarray(Z, dtype=np.float64)
    if Zd.ndim != 2 or Zd.shape[0] != n:
        raise KrylovError(f"Z must be (n, m) with n={n}, got {Zd.shape}")
    m = Zd.shape[1]
    if m == 0:
        raise KrylovError("deflation basis Z has no columns")
    AZ = np.column_stack([A_mul(Zd[:, j]) for j in range(m)])
    E = Zd.T @ AZ
    Ef = factorize(sp.csr_matrix(E), backend)

    def P(v):                     # P = I − AZ E⁻¹ Zᵀ
        return v - AZ @ Ef.solve(Zd.T @ v)

    def Pt(v):                    # Pᵀ = I − Z E⁻¹ (AZ)ᵀ
        return v - Zd @ Ef.solve(AZ.T @ v)

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return profile.finish_zero_rhs(n, recorder=rec, callback=callback,
                                       health=health)
    target = tol * bnorm

    x_coarse = Zd @ Ef.solve(Zd.T @ b)      # Q b
    if x0 is None:
        xhat = np.zeros(n)
        r = P(b)
    else:
        xhat = np.array(x0, dtype=np.float64)
        r = P(b - A_mul(xhat))
    z = M_mul(r)
    if health is not None:
        # a corrupted preconditioner application must surface as a typed
        # breakdown before the NaN reaches the projector's dense solve
        health.check_vector("preconditioned", z, 0)
    p = z.copy()
    rz = float(r @ z)
    residuals = [float(np.linalg.norm(r)) / bnorm]
    profile.iteration(rec, 0, residuals[0])
    if health is not None:
        health.observe(0, residuals[0], xhat)
    it = 0
    while residuals[-1] * bnorm > target and it < maxiter:
        Ap = P(A_mul(p))
        pAp = float(p @ Ap)
        if pAp <= 0:
            # numerically zero curvature happens when p drifts into
            # range(Z); project and retry once, else give up
            p = P(p)
            Ap = P(A_mul(p))
            pAp = float(p @ Ap)
            if pAp <= 0:
                # attach the last healthy iterate mapped back to the
                # original solution space, so recovery can restart
                raise IndefiniteError(
                    f"deflated CG breakdown: p·PAp = {pAp:.3e}",
                    x=x_coarse + Pt(xhat), residuals=list(residuals),
                    iteration=it)
        alpha = rz / pAp
        xhat += alpha * p
        r -= alpha * Ap
        z = M_mul(r)
        if health is not None:
            health.check_vector("preconditioned", z, it)
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
        it += 1
        residuals.append(float(np.linalg.norm(r)) / bnorm)
        profile.iteration(rec, it, residuals[-1])
        if health is not None:
            health.observe(it, residuals[-1], xhat)
        if callback is not None:
            callback(it, residuals[-1])
    x = x_coarse + Pt(xhat)
    true_res = float(np.linalg.norm(b - A_mul(x))) / bnorm
    return KrylovResult(x=x, iterations=it, residuals=residuals,
                        converged=true_res <= tol * 10)
