"""Restarted GMRES with right preconditioning and synchronisation counting
— the one Arnoldi/Givens loop of the repository.

The paper's experiments stop GMRES at a relative 10⁻⁶ residual decrease
(10⁻⁸ for fig. 1) and use GMRES(40) for the elasticity comparison of
fig. 7.  Right preconditioning keeps the residual of the *original*
system observable at no extra cost, which is what the convergence
histograms plot.

Every global reduction (the dot-product batch of the Gram–Schmidt
orthogonalisation and the normalisation) increments a synchronisation
counter — the quantity the communication-avoiding variants of §3.5 are
designed to reduce.

Allocation discipline: the Krylov basis V, the Hessenberg workspace and
the Givens/orthogonalisation scratch vectors are allocated **once** per
solve and reused across restarts; the modified-Gram–Schmidt updates run
through preallocated buffers (``np.multiply``/``np.subtract`` with
``out=``), so the restart loop allocates nothing proportional to n·m.
V (and the flexible basis Z) is column-major: a basis vector is one
contiguous column.
An enabled ``recorder`` receives the ``matvec``, ``apply`` and
``orthogonalization`` spans and the per-iteration events
(:mod:`repro.krylov.profile`).

Every classical restarted GMRES of the stack is :func:`gmres` called
through its two seams (``docs/api.md``): ``kernels=`` owns every
reduction, ``health=`` is told every appended residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import ConvergenceError, KrylovError
from ..obs.recorder import NULL_RECORDER
from . import profile


@dataclass
class KrylovResult:
    """Outcome of a Krylov solve."""

    x: np.ndarray
    iterations: int
    residuals: list[float] = field(default_factory=list)
    converged: bool = True
    #: number of global synchronisations (reductions) performed
    global_syncs: int = 0
    #: reductions posted non-blocking and hidden behind the next
    #: operator product (the pipelined drivers; 0 elsewhere)
    overlapped_reductions: int = 0

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else np.inf


def _as_operator(op, n: int, name: str):
    """Accept a callable, a scipy sparse matrix or a dense array;
    matrix-like operands are validated against the system size *n*.

    Dtype contract: complex operators are rejected (the drivers are
    real-valued), and a reduced-precision matrix (e.g. float32) is
    wrapped so its products are upcast to float64 — the iterates the
    drivers hand back are always float64, whatever the operator's
    storage precision.
    """
    if op is None:
        return lambda x: x
    if callable(op):
        return op
    matrix = op
    shape = getattr(matrix, "shape", None)
    if shape is not None and tuple(shape) != (n, n):
        raise KrylovError(
            f"operator {name} has shape {tuple(shape)}, expected ({n}, {n})")
    dtype = getattr(matrix, "dtype", None)
    if dtype is not None and np.issubdtype(dtype, np.complexfloating):
        raise KrylovError(
            f"operator {name} has complex dtype {dtype}; the Krylov "
            f"drivers are real-valued")
    if dtype is not None and dtype != np.float64:
        def mul(x, _m=matrix):
            return np.asarray(_m @ x, dtype=np.float64)
        return mul

    def mul(x, _m=matrix):
        return _m @ x

    return mul


def gmres(A, b: np.ndarray, *, M=None, x0: np.ndarray | None = None,
          tol: float = 1e-6, restart: int = 40, maxiter: int = 1000,
          callback=None, raise_on_stall: bool = False,
          recorder=None, health=None,
          kernels=None, _flexible: bool = False) -> KrylovResult:
    """Right-preconditioned restarted GMRES: solve ``A (M y) = b``,
    ``x = M y``.

    Parameters
    ----------
    A, M:
        Operator and (right) preconditioner — callables or matrices.
    tol:
        Relative residual target ‖b − A x‖ / ‖b‖.
    restart:
        Krylov basis size m of GMRES(m).
    maxiter:
        Total iteration budget across restarts.
    raise_on_stall:
        Raise :class:`ConvergenceError` instead of returning an
        unconverged result (benchmarks *expect* the one-level method to
        stall, so the default is to return).
    recorder:
        Optional :class:`repro.obs.Recorder`: spans ``matvec``,
        ``apply`` and ``orthogonalization`` plus the ``iteration`` /
        ``restart`` / ``orthogonality_loss`` events.  ``None`` records
        nothing and reads no clock.
    health:
        Optional :class:`~repro.resilience.HealthMonitor` (or any
        observer with its three methods), told once per appended
        residual; the iterate is handed over at restart boundaries
        (where it is cheap), so checkpoint/rollback recovery restarts
        from the last completed cycle.  New basis vectors are scanned
        for NaN/Inf and a cheap orthogonality defect ``|v_{j+1}·v_0|``
        is reported.
    kernels:
        Owner of every reduction (``ortho_step``, ``norm``): a
        :class:`~repro.kernels.KernelBackend`, or an
        :class:`~repro.core.spmd.SpmdRank` for distributed vectors;
        ``None`` uses the reference ``numpy`` backend
        (bitwise-identical to the historical inline MGS).
    _flexible:
        Private to :func:`fgmres`.
    """
    from ..kernels import default_backend
    kern = default_backend() if kernels is None else kernels
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    if restart < 1:
        raise KrylovError(f"restart must be >= 1, got {restart}")
    rec = NULL_RECORDER if recorder is None else recorder
    A_mul = profile.instrument(rec, _as_operator(A, n, "A"), "matvec")
    M_mul = profile.instrument(rec, _as_operator(M, n, "M"), "apply")
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)

    bnorm = kern.norm(b)
    if bnorm == 0.0:
        return profile.finish_zero_rhs(n, recorder=rec, callback=callback,
                                       health=health)
    target = tol * bnorm

    residuals: list[float] = []
    syncs = 0
    total_it = 0
    cycle = 0

    # workspaces allocated once, reused across restarts; the bases are
    # column-major, so every basis vector — each Gram–Schmidt dot and
    # update, the operator inputs, the x update — is contiguous memory
    m = restart
    V = np.empty((n, m + 1), order="F")
    # flexible: the preconditioned basis Z_j = M_j v_j (M may vary)
    Z = np.empty((n, m), order="F") if _flexible else None
    H = np.zeros((m + 1, m))
    cs = np.zeros(m)
    sn = np.zeros(m)
    g = np.zeros(m + 1)
    scratch = np.empty(n)

    def _append(rel: float, iterate=None):
        # every appended residual is reported exactly once; the iterate
        # rides along at restart boundaries only
        residuals.append(rel)
        profile.iteration(rec, total_it, rel)
        if health is not None:
            health.observe(total_it, rel, iterate)
        if callback is not None:
            callback(total_it, rel)

    # the true residual of a restart boundary is computed once, at the
    # end of the cycle, and carried into the next one
    r = b - A_mul(x)
    beta = kern.norm(r)
    while True:
        if cycle > 0:
            profile.restart(rec, cycle, total_it)
        cycle += 1
        syncs += 1
        _append(beta / bnorm, x)
        if beta <= target or total_it >= maxiter:
            break

        H.fill(0.0)
        g.fill(0.0)
        g[0] = beta
        np.divide(r, beta, out=V[:, 0])
        j_done = 0
        for j in range(m):
            if Z is None:
                w = A_mul(M_mul(V[:, j]))
            else:
                Z[:, j] = M_mul(V[:, j])
                w = A_mul(Z[:, j])
            # Gram–Schmidt through the kernel backend (reference: MGS,
            # counted as the 2 syncs of distributed classical GS)
            with rec.span("orthogonalization"):
                syncs += kern.ortho_step(V, w, H, j, scratch)
                if H[j + 1, j] > 0:
                    if health is not None and j > 0:
                        health.check_vector("basis", V[:, j + 1], total_it)
                        health.orthogonality(
                            total_it, float(V[:, j + 1] @ V[:, 0]))
                else:
                    # lucky breakdown — the basis stopped growing
                    profile.orthogonality_loss(rec, total_it,
                                               float(H[j + 1, j]))
            # apply stored Givens rotations to the new column
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            # new rotation to annihilate H[j+1, j]
            denom = np.hypot(H[j, j], H[j + 1, j])
            if denom == 0.0:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j], sn[j] = H[j, j] / denom, H[j + 1, j] / denom
            H[j, j] = denom
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            total_it += 1
            j_done = j + 1
            res = abs(g[j + 1])
            _append(res / bnorm)
            if res <= target or total_it >= maxiter:
                break
        # solve the small triangular system and update x
        if j_done:
            y = _back_substitute(H, g, j_done)
            x = x + (M_mul(V[:, :j_done] @ y) if Z is None
                     else Z[:, :j_done] @ y)
        r = b - A_mul(x)
        beta = kern.norm(r)
        if beta <= target:
            residuals[-1] = beta / bnorm
            profile.iteration(rec, total_it, beta / bnorm, corrected=True)
            break
        if total_it >= maxiter:
            if raise_on_stall:
                raise ConvergenceError(
                    f"GMRES stalled at {residuals[-1]:.3e} after "
                    f"{total_it} iterations", x=x, residuals=residuals)
            return KrylovResult(x=x, iterations=total_it,
                                residuals=residuals, converged=False,
                                global_syncs=syncs)
    return KrylovResult(x=x, iterations=total_it, residuals=residuals,
                        converged=residuals[-1] * bnorm <= target * (1 + 1e-12),
                        global_syncs=syncs)


def fgmres(A, b: np.ndarray, **options) -> KrylovResult:
    """Flexible GMRES (Saad 1993): :func:`gmres` — same options, same
    loop — keeping the preconditioned basis ``Z_j = M_j v_j`` and
    updating ``x += Z y``, so *M* may change between applications (a
    variable preconditioner).
    """
    return gmres(A, b, _flexible=True, **options)


def _back_substitute(H: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        y[i] = (g[i] - H[i, i + 1:k] @ y[i + 1:k]) / H[i, i]
    return y
