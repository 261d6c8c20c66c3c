"""Right-preconditioned block GMRES with blocked CGS2 orthogonalization.

Block Krylov methods amortize the per-iteration communication over all
right-hand sides at once: one block matvec (``Decomposition.
matvec_block``), one block preconditioner application
(``apply_block`` — a single coarse solve for the whole block) and one
blocked orthogonalization (two gemms of classical Gram–Schmidt,
reorthogonalized — CGS2) per block iteration, independent of the block
width.  That is the §2.1 communication argument applied across the
batch dimension: a width-p block costs the *reductions* of a single
vector iteration.

Converged columns are deflated at restart boundaries (and before the
first cycle): the active block shrinks, so late stragglers don't pay
the full-width gemms.  Per-column convergence is read off the block
least-squares problem each step and reported as a
``batch.column_converged`` event on the recorder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import KrylovError
from ..krylov import profile
from ..obs.recorder import NULL_RECORDER


@dataclass
class BlockKrylovResult:
    """Outcome of a block Krylov solve (one column per right-hand side)."""

    X: np.ndarray                 # (n, p) solutions
    iterations: int               # block iterations performed
    #: block iteration at which each column converged (-1: never)
    column_iterations: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))
    #: final relative residual per column
    final_residuals: np.ndarray = field(
        default_factory=lambda: np.zeros(0))
    #: per-block-iteration max relative residual over active columns
    residuals: list[float] = field(default_factory=list)
    converged: bool = True


def _qr_block(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR; a (numerically) rank-deficient block is tolerated —
    dependent directions get ~zero diagonal and contribute nothing."""
    return np.linalg.qr(W)


def block_gmres(A_block, B: np.ndarray, *, M_block=None,
                X0: np.ndarray | None = None, tol: float = 1e-6,
                restart: int = 20, maxiter: int = 1000,
                recorder=None,
                callback=None, kernels=None) -> BlockKrylovResult:
    """Solve ``A X = B`` column-wise with block GMRES(m).

    Parameters
    ----------
    A_block, M_block:
        Callables mapping a column block ``(n, k)`` to a column block —
        the distributed block matvec and the blocked (right)
        preconditioner.
    B:
        Right-hand sides, one per column ``(n, p)``.
    restart:
        Block steps per cycle (each step grows the space by the active
        width, so the per-column Krylov dimension equals ``restart``).
    maxiter:
        Budget of *block* iterations across cycles.
    callback:
        Optional ``callback(k, max_rel_residual)`` per block iteration.
    recorder:
        Optional :class:`repro.obs.Recorder` for the ``matvec`` /
        ``apply`` / ``orthogonalization`` spans and the per-column
        events; ``None`` records nothing.
    kernels:
        Optional :class:`~repro.kernels.KernelBackend` owning the
        blocked CGS2 kernel; ``None`` is the bitwise-reference ``numpy``
        backend.
    """
    from ..kernels import default_backend
    kern = default_backend() if kernels is None else kernels
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise KrylovError(f"B must be a column block, got ndim={B.ndim}")
    n, p = B.shape
    if restart < 1:
        raise KrylovError(f"restart must be >= 1, got {restart}")
    rec = NULL_RECORDER if recorder is None else recorder
    A = profile.instrument(rec, A_block, "matvec")
    M = profile.instrument(
        rec, (lambda X: X) if M_block is None else M_block, "apply")

    X = np.zeros((n, p)) if X0 is None \
        else np.array(X0, dtype=np.float64, copy=True)
    bnorms = np.linalg.norm(B, axis=0)
    # zero columns have the exact solution 0 (same semantics as
    # finish_zero_rhs: discard the guess, converged at iteration 0)
    zero_cols = bnorms == 0.0
    X[:, zero_cols] = 0.0
    targets = tol * np.where(zero_cols, 1.0, bnorms)
    scale = np.where(zero_cols, 1.0, bnorms)

    col_iters = np.full(p, -1, dtype=np.int64)
    final_res = np.zeros(p)
    it = 0
    history: list[float] = []

    def resnorms(cols: np.ndarray) -> np.ndarray:
        R = B[:, cols] - A(X[:, cols])
        return np.linalg.norm(R, axis=0)

    active = np.flatnonzero(~zero_cols)
    for c in np.flatnonzero(zero_cols):
        col_iters[c] = 0
        profile.column_converged(rec, 0, int(c), 0.0)
    # initial deflation: columns whose guess already meets the target
    if active.size:
        rn = resnorms(active)
        done = rn <= targets[active]
        for c, r in zip(active[done], rn[done]):
            col_iters[c] = 0
            final_res[c] = r / scale[c]
            profile.column_converged(rec, 0, int(c), float(r / scale[c]))
        active = active[~done]

    cycle = 0
    while active.size and it < maxiter:
        if cycle > 0:
            profile.restart(rec, cycle, it)
        cycle += 1
        pa = active.size
        R = B[:, active] - A(X[:, active])
        V0, S0 = _qr_block(R)
        m = restart
        # basis blocks live side by side: Vb[:, :k*pa] after k steps
        Vb = np.empty((n, (m + 1) * pa))
        Vb[:, :pa] = V0
        Hbar = np.zeros(((m + 1) * pa, m * pa))
        G = np.zeros(((m + 1) * pa, pa))
        G[:pa, :] = S0
        j_done = 0
        Y = None
        for j in range(m):
            Pj = M(Vb[:, j * pa:(j + 1) * pa])
            W = A(Pj)
            k = (j + 1) * pa
            with rec.span("orthogonalization"):
                # blocked CGS2 through the kernel backend: two projection
                # sweeps, each a pair of gemms — the block analogue of
                # one batched reduction
                Hcol, Vnew, Hdiag = kern.ortho_block(Vb, k, W, _qr_block)
            Hbar[:k, j * pa:k] = Hcol
            Hbar[k:k + pa, j * pa:k] = Hdiag
            Vb[:, k:k + pa] = Vnew
            # small block least squares: min ‖G − H̄ Y‖ per column
            Y, _, _, _ = np.linalg.lstsq(
                Hbar[:k + pa, :k], G[:k + pa], rcond=None)
            res_cols = np.linalg.norm(
                G[:k + pa] - Hbar[:k + pa, :k] @ Y, axis=0)
            it += 1
            j_done = j + 1
            rel = res_cols / scale[active]
            worst = float(rel.max())
            history.append(worst)
            profile.iteration(rec, it, worst)
            if callback is not None:
                callback(it, worst)
            if np.all(res_cols <= targets[active]) or it >= maxiter:
                break
        if j_done and Y is not None:
            X[:, active] += M(Vb[:, :j_done * pa] @ Y)
        # true residuals decide deflation (the LS estimate drifts)
        rn = resnorms(active)
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
