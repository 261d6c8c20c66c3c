"""p1-GMRES — the one-step pipelined GMRES of Ghysels et al. (§3.5).

The computational loop follows the paper's listing verbatim: iteration i
produces the *uncorrected* Hessenberg entries of column i (one fused
non-blocking reduction: the ⟨z_{i+1}, v_j⟩ batch together with ‖v_i‖),
and corrects column i−1 with the previous iteration's scale factor
h_{i−1,i−2}.  The reduction posted at iteration i is only consumed at
iteration i+1 — in a parallel run it hides behind the next matrix–vector
product, so each iteration costs **zero blocking** global
synchronisations (vs two for classical GMRES).

The synchronisation accounting distinguishes ``global_syncs`` (blocking)
from ``overlapped_reductions`` (posted non-blocking and hidden); the
§3.5 bench compares these across the three GMRES variants.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import KrylovError
from ..obs.recorder import NULL_RECORDER
from . import profile
from .gmres import KrylovResult, _as_operator


def p1_gmres(A, b: np.ndarray, *, M=None, x0: np.ndarray | None = None,
             tol: float = 1e-6, restart: int = 40, maxiter: int = 1000,
             callback=None,
             recorder=None,
             health=None) -> KrylovResult:
    """Right-preconditioned pipelined GMRES(m) (p1-GMRES).

    Mathematically equivalent to classical GMRES in exact arithmetic; the
    basis is built with a one-iteration-lagged normalisation.  The basis
    and Hessenberg workspaces are allocated once per solve and reused
    across restarts.
    """
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    if restart < 1:
        raise KrylovError(f"restart must be >= 1, got {restart}")
    rec = NULL_RECORDER if recorder is None else recorder
    A_mul = profile.instrument(rec, _as_operator(A, n, "A"), "matvec")
    M_mul = profile.instrument(rec, _as_operator(M, n, "M"), "apply")
    op = lambda v: A_mul(M_mul(v))  # noqa: E731 - local composition
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return profile.finish_zero_rhs(n, recorder=rec, callback=callback,
                                       health=health)
    target = tol * bnorm

    residuals: list[float] = []
    blocking_syncs = 0
    overlapped = 0
    total_it = 0
    cycle = 0

    # workspaces allocated once, reused across restarts
    m = restart
    V = np.empty((n, m + 2))
    Z = np.empty((n, m + 2))
    H = np.zeros((m + 2, m + 1))

    while True:
        if cycle > 0:
            profile.restart(rec, cycle, total_it)
        cycle += 1
        r = b - A_mul(x)
        beta = float(np.linalg.norm(r))
        blocking_syncs += 1
        residuals.append(beta / bnorm)
        profile.iteration(rec, total_it, beta / bnorm)
        if health is not None:
            health.observe(total_it, beta / bnorm, x)
        if callback is not None:
            callback(total_it, beta / bnorm)
        if beta <= target or total_it >= maxiter:
            break

        H.fill(0.0)
        np.divide(r, beta, out=V[:, 0])
        Z[:, 0] = V[:, 0]
        finalized = 0            # number of fully corrected columns
        for i in range(m + 1):
            w = op(Z[:, i])
            if i > 1:
                eta = H[i - 1, i - 2]
                if eta == 0.0:
                    # lucky breakdown: basis is invariant
                    profile.orthogonality_loss(rec, total_it, 0.0)
                    break
                V[:, i - 1] /= eta
                Z[:, i] /= eta
                w /= eta
                H[i - 1, i - 1] /= eta * eta
                H[:i - 1, i - 1] /= eta
            # line 8: z_{i+1} = w − Σ_{j<i} h_{j,i−1} z_{j+1}
            if i > 0:
                Z[:, i + 1] = w - Z[:, 1:i + 1] @ H[:i, i - 1]
            else:
                Z[:, i + 1] = w
            # line 10: v_i = z_i − Σ_{j<i} h_{j,i−1} v_j; h_{i,i−1} = ‖v_i‖
            if i > 0:
                V[:, i] = Z[:, i] - V[:, :i] @ H[:i, i - 1]
                H[i, i - 1] = float(np.linalg.norm(V[:, i]))
                finalized = i    # column i−1 of H̄ is now final
                total_it += 1
            # line 12: h_{j,i} = ⟨z_{i+1}, v_j⟩ — fused with the norm above
            # into ONE reduction, posted non-blocking (hidden behind the
            # next matvec in a parallel run)
            with rec.span("orthogonalization"):
                H[:i + 1, i] = V[:, :i + 1].T @ Z[:, i + 1]
            overlapped += 1

            if finalized:
                res = _lsq_residual(H, beta, finalized)
                residuals.append(res / bnorm)
                profile.iteration(rec, total_it, res / bnorm)
                if health is not None:
                    health.observe(total_it, res / bnorm)
                if callback is not None:
                    callback(total_it, res / bnorm)
                if res <= target or total_it >= maxiter:
                    break
            if i > 1 and H[i - 1, i - 2] == 0.0:
                break
        k = finalized
        if k:
            y = _lsq_solve(H, beta, k)
            x = x + M_mul(V[:, :k] @ y)
        rtrue = float(np.linalg.norm(b - A_mul(x)))
        blocking_syncs += 1
        if rtrue <= target:
            residuals[-1] = rtrue / bnorm
            profile.iteration(rec, total_it, rtrue / bnorm, corrected=True)
            break
        if total_it >= maxiter:
            return KrylovResult(x=x, iterations=total_it,
                                residuals=residuals, converged=False,
                                global_syncs=blocking_syncs,
                                overlapped_reductions=overlapped)
    return KrylovResult(x=x, iterations=total_it, residuals=residuals,
                        converged=residuals[-1] * bnorm <= target * (1 + 1e-12),
                        global_syncs=blocking_syncs,
                        overlapped_reductions=overlapped)


def _hbar(H: np.ndarray, k: int) -> np.ndarray:
    return H[:k + 1, :k]


def _lsq_solve(H: np.ndarray, beta: float, k: int) -> np.ndarray:
    g = np.zeros(k + 1)
    g[0] = beta
    y, *_ = np.linalg.lstsq(_hbar(H, k), g, rcond=None)
    return y


def _lsq_residual(H: np.ndarray, beta: float, k: int) -> float:
    g = np.zeros(k + 1)
    g[0] = beta
    y, res2, *_ = np.linalg.lstsq(_hbar(H, k), g, rcond=None)
    if res2.size:
        return float(np.sqrt(res2[0]))
    return float(np.linalg.norm(g - _hbar(H, k) @ y))
