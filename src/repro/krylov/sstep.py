"""s-step (communication-avoiding) GMRES.

The paper's §3.5 cites the s-step line of work (Chronopoulos & Gear; De
Sturler & van der Vorst) as the classical way of trading reductions for
flops.  This module implements GMRES(s) in its s-step form: one restart
cycle generates the whole Krylov block with ``s`` matvecs and **no**
intermediate reductions, then orthonormalises it with two batched
reductions (block Gram–Schmidt + CholeskyQR) — ~2 global
synchronisations per ``s`` iterations instead of ~2 per iteration.

In exact arithmetic one cycle minimises the residual over the same
Krylov space as classical GMRES(s), so per-cycle convergence matches;
the monomial basis limits practical ``s`` to ≲ 12 (its condition number
grows geometrically), which is the known trade-off of the approach.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import KrylovError
from ..obs.recorder import NULL_RECORDER
from . import profile
from .gmres import KrylovResult, _as_operator


def s_step_gmres(A, b: np.ndarray, *, M=None, s: int = 6,
                 x0: np.ndarray | None = None, tol: float = 1e-6,
                 maxiter: int = 1000, callback=None,
                 recorder=None,
                 health=None) -> KrylovResult:
    """Right-preconditioned s-step GMRES (restart length = s).

    Parameters
    ----------
    s:
        Basis-block size per cycle (recommended 2–12; the monomial basis
        degrades beyond that).
    """
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    if not (1 <= s <= n):
        raise KrylovError(f"s must be in [1, {n}], got {s}")
    rec = NULL_RECORDER if recorder is None else recorder
    A_mul = profile.instrument(rec, _as_operator(A, n, "A"), "matvec")
    M_mul = profile.instrument(rec, _as_operator(M, n, "M"), "apply")
    op = lambda v: A_mul(M_mul(v))          # noqa: E731
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return profile.finish_zero_rhs(n, recorder=rec, callback=callback,
                                       health=health)
    target = tol * bnorm

    residuals: list[float] = []
    syncs = 0
    total_it = 0
    cycle = 0
    theta = None                             # spectral-radius estimate

    while True:
        if cycle > 0:
            profile.restart(rec, cycle, total_it)
        cycle += 1
        r = b - A_mul(x)
        beta = float(np.linalg.norm(r))
        syncs += 1
        residuals.append(beta / bnorm)
        profile.iteration(rec, total_it, beta / bnorm)
        if health is not None:
            health.observe(total_it, beta / bnorm, x)
        if callback is not None:
            callback(total_it, beta / bnorm)
        if beta <= target or total_it >= maxiter:
            break

        # ---- generate the monomial block: NO reductions inside -------
        P = np.zeros((n, s + 1))
        P[:, 0] = r / beta
        if theta is None:
            w = op(P[:, 0])
            theta = float(np.linalg.norm(w))    # one-time scale estimate
            syncs += 1
            theta = max(theta, 1e-300)
            P[:, 1] = w / theta
            start = 2
        else:
            start = 1
        for j in range(start, s + 1):
            P[:, j] = op(P[:, j - 1]) / theta

        # ---- orthonormalise with two batched reductions ---------------
        # CholeskyQR: G = PᵀP (reduction #1), P Q R with R = chol(G)ᵀ
        with rec.span("orthogonalization"):
            G = P.T @ P
        syncs += 1
        # regularise: the monomial basis may be numerically rank-deficient
        eps = 1e-14 * max(float(np.trace(G)) / (s + 1), 1e-300)
        k_eff = s
        try:
            L = np.linalg.cholesky(G + eps * np.eye(s + 1))
        except np.linalg.LinAlgError:
            # fall back to an eigendecomposition-based whitening
            w_, V_ = np.linalg.eigh(G)
            keep = w_ > 1e-12 * w_.max()
            k_eff = max(int(keep.sum()) - 1, 1)
            L = None
        if L is not None:
            R = L.T                               # P = Q R
            Rinv = np.linalg.solve(R, np.eye(s + 1))
            Q = P @ Rinv
        else:
            Q, R = np.linalg.qr(P)               # rare fallback (1 sync)
            syncs += 1

        # ---- the Arnoldi-like relation --------------------------------
        # op P[:, :s] = θ P[:, 1:s+1]  ⇒  op Q R[:, :s] = θ Q R[:, 1:]
        # ⇒ H̄ = θ R[:, 1:] (R[:s, :s])⁻¹ restricted to (s+1) × s
        Rl = R[: s + 1, 1: s + 1]
        H = theta * Rl @ np.linalg.solve(R[:s, :s], np.eye(s))

        # least squares: r = P e_0 β = Q R e_0 β
        g = beta * R[:, 0]
        k = k_eff
        y, *_ = np.linalg.lstsq(H[: k + 1, :k], g[: k + 1], rcond=None)
        x = x + M_mul(Q[:, :k] @ y)
        total_it += k
        est = float(np.linalg.norm(g[: k + 1] - H[: k + 1, :k] @ y))
        residuals.append(est / bnorm)
        profile.iteration(rec, total_it, est / bnorm)
        if health is not None:
            health.observe(total_it, est / bnorm, x)
        if callback is not None:
            callback(total_it, residuals[-1])
        if total_it >= maxiter:
            rtrue = float(np.linalg.norm(b - A_mul(x)))
            residuals[-1] = rtrue / bnorm
            profile.iteration(rec, total_it, rtrue / bnorm, corrected=True)
            return KrylovResult(x=x, iterations=total_it,
                                residuals=residuals,
                                converged=rtrue <= target,
                                global_syncs=syncs)
    return KrylovResult(x=x, iterations=total_it, residuals=residuals,
                        converged=residuals[-1] * bnorm
                        <= target * (1 + 1e-12),
                        global_syncs=syncs)
