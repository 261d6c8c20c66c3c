"""Preconditioned block conjugate gradients (O'Leary 1980).

The SPD companion of :mod:`.block_gmres`: every block iteration costs
one block matvec, one block preconditioner application (a single coarse
solve for the whole block with the two-level methods) and two small
``p × p`` linear solves — the block generalisations of CG's α and β
scalars.  All right-hand sides share the Krylov information, which is
what makes block CG converge in fewer iterations than p independent CG
runs on clustered spectra.

Converged columns are deflated by restart: when a column reaches its
target the iteration records it, drops it from the block and restarts
on the survivors (their current iterates are the warm start, so no
progress is lost — only the active Krylov space is rebuilt).  A width-1
block reduces to ordinary PCG.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import KrylovError
from ..krylov import profile
from ..obs.recorder import NULL_RECORDER
from .block_gmres import BlockKrylovResult


def _block_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve the small p×p system, falling back to least squares when a
    deflating block makes it (numerically) singular."""
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(A, B, rcond=None)[0]


def block_cg(A_block, B: np.ndarray, *, M_block=None,
             X0: np.ndarray | None = None, tol: float = 1e-6,
             maxiter: int = 1000,
             recorder=None,
             callback=None) -> BlockKrylovResult:
    """Solve the SPD system ``A X = B`` column-wise with block PCG.

    Parameters mirror :func:`~repro.batch.block_gmres.block_gmres`
    (there is no ``restart`` — CG needs no basis storage).  ``M_block``
    must be a symmetric positive definite preconditioner for the
    convergence theory to hold (ASM / BNN, not RAS).
    """
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise KrylovError(f"B must be a column block, got ndim={B.ndim}")
    n, p = B.shape
    rec = NULL_RECORDER if recorder is None else recorder
    A = profile.instrument(rec, A_block, "matvec")
    M = profile.instrument(
        rec, (lambda X: X) if M_block is None else M_block, "apply")

    X = np.zeros((n, p)) if X0 is None \
        else np.array(X0, dtype=np.float64, copy=True)
    bnorms = np.linalg.norm(B, axis=0)
    zero_cols = bnorms == 0.0
    X[:, zero_cols] = 0.0
    targets = tol * np.where(zero_cols, 1.0, bnorms)
    scale = np.where(zero_cols, 1.0, bnorms)

    col_iters = np.full(p, -1, dtype=np.int64)
    final_res = np.zeros(p)
    history: list[float] = []
    it = 0
    for c in np.flatnonzero(zero_cols):
        col_iters[c] = 0
        profile.column_converged(rec, 0, int(c), 0.0)
    active = np.flatnonzero(~zero_cols)

    while active.size and it < maxiter:
        R = B[:, active] - A(X[:, active])
        rn = np.linalg.norm(R, axis=0)
        done = rn <= targets[active]
        if done.any():
            for c, r in zip(active[done], rn[done]):
                col_iters[c] = it
                final_res[c] = r / scale[c]
                profile.column_converged(rec, it, int(c), float(r / scale[c]))
            active = active[~done]
            R = R[:, ~done]
            if not active.size:
                break
        Z = M(R)
        P = Z.copy()
        RZ = R.T @ Z
        deflate = False
        while it < maxiter and not deflate:
            Q = A(P)
            with rec.span("orthogonalization"):
                alpha = _block_solve(P.T @ Q, RZ)
            X[:, active] += P @ alpha
            R -= Q @ alpha
            it += 1
            rn = np.linalg.norm(R, axis=0)
            rel = rn / scale[active]
            worst = float(rel.max())
            history.append(worst)
            profile.iteration(rec, it, worst)
            if callback is not None:
                callback(it, worst)
            final_res[active] = rel
            if np.any(rn <= targets[active]):
                # a column converged: deflate it through the outer
                # restart (survivors warm-start from their iterates)
                deflate = True
                break
            Z = M(R)
            with rec.span("orthogonalization"):
                RZ_new = R.T @ Z
                beta = _block_solve(RZ, RZ_new)
            P = Z + P @ beta
            RZ = RZ_new

    # record any columns that converged exactly at the budget edge
    if active.size:
        R = B[:, active] - A(X[:, active])
        rn = np.linalg.norm(R, axis=0)
        done = rn <= targets[active]
        for c, r in zip(active[done], rn[done]):
            col_iters[c] = it
            final_res[c] = r / scale[c]
            profile.column_converged(rec, it, int(c), float(r / scale[c]))
        final_res[active] = rn / scale[active]
        active = active[~done]

    return BlockKrylovResult(
        X=X, iterations=it, column_iterations=col_iters,
        final_residuals=final_res, residuals=history,
        converged=bool(active.size == 0))
