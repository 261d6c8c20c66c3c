"""The multi-RHS solve session: amortize setup across many solves.

The GenEO setup — subdomain extraction, local factorizations, the
eigensolves, the coarse factorization — is the dominant cost the paper
parallelizes (figs. 8/10), and the repo's PR 1–2 made it fast.  A
:class:`SolveSession` makes it *reusable*: it borrows a fully set-up
:class:`~repro.core.solver.SchwarzSolver` (never rebuilding any of its
state) and solves simultaneous right-hand sides through true block
Krylov drivers (:mod:`.block_cg`, :mod:`.block_gmres`): one coarse solve
and one block matvec per iteration for the whole batch.

Open a session with ``SchwarzSolver.session()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.errors import ReproError, SymmetryError
from .block_cg import block_cg
from .block_gmres import BlockKrylovResult, block_gmres


@dataclass
class BatchReport:
    """Outcome of one :meth:`SolveSession.solve_many` call."""

    #: full-dof solutions (Dirichlet rows zero), one column per RHS
    X: np.ndarray
    #: the underlying block Krylov result (reduced-space iterates)
    block: BlockKrylovResult
    driver: str
    num_subdomains: int
    coarse_dim: int

    @property
    def iterations(self) -> int:
        return self.block.iterations

    @property
    def column_iterations(self) -> np.ndarray:
        return self.block.column_iterations

    @property
    def converged(self) -> bool:
        return self.block.converged


class SolveSession:
    """Batched solves over a set-up Schwarz solver.

    Parameters
    ----------
    solver:
        A constructed :class:`~repro.core.solver.SchwarzSolver`; the
        session shares (never copies) its decomposition, one-level
        factorizations, GenEO deflation space, coarse factorization and
        recorder.
    """

    def __init__(self, solver):
        self.solver = solver
        self.recorder = solver.recorder
        self.batches = 0

    @property
    def decomposition(self):
        return self.solver.decomposition

    # ------------------------------------------------------------------
    def solve_many(self, B: np.ndarray, *, tol: float = 1e-6,
                   driver: str = "auto", restart: int = 20,
                   maxiter: int = 1000,
                   X0: np.ndarray | None = None) -> BatchReport:
        """Solve one reduced system for every column of ``B (n, p)``.

        *driver* is ``"block-gmres"``, ``"block-cg"`` or ``"auto"``
        (block CG when the solver was configured for a CG-family
        method AND the operator is actually SPD — the asymmetry flag
        detected on the decomposition, not the driver name, is what
        gates the CG family; block GMRES otherwise).  Requesting
        ``"block-cg"`` explicitly on a nonsymmetric/indefinite operator
        raises :class:`~repro.common.errors.SymmetryError`.  Converged
        columns are deflated from the block as they finish; per-column
        convergence lands in the trace as ``batch.column_converged``
        events and on :attr:`BatchReport.column_iterations`.
        """
        B = np.asarray(B, dtype=np.float64)
        if B.ndim != 2:
            raise ReproError(
                f"solve_many expects a column block, got ndim={B.ndim}")
        operator_spd = getattr(self.decomposition, "is_spd", True)
        if driver == "auto":
            driver = "block-cg" \
                if (self.solver.krylov_name in ("cg", "deflated-cg")
                    and operator_spd) \
                else "block-gmres"
        if driver not in ("block-gmres", "block-cg"):
            raise ReproError(f"unknown block driver {driver!r}")
        if driver == "block-cg" and not operator_spd:
            kind = ("nonsymmetric"
                    if not getattr(self.decomposition, "is_symmetric", True)
                    else "symmetric indefinite")
            raise SymmetryError(
                f"driver='block-cg' requires an SPD operator, but this "
                f"one is {kind} — use driver='block-gmres' (or 'auto')")
        pre = self.solver.preconditioner
        if self.recorder.enabled:
            self.recorder.add("batch.batches", 1)
            self.recorder.add("batch.columns", B.shape[1])
        with self.recorder.span("batch_solve",
                                attrs={"driver": driver,
                                       "columns": B.shape[1]}):
            if driver == "block-cg":
                res = block_cg(
                    self.decomposition.matvec_block, B,
                    M_block=pre.apply_block, X0=X0, tol=tol,
                    maxiter=maxiter, recorder=self.recorder)
            else:
                res = block_gmres(
                    self.decomposition.matvec_block, B,
                    M_block=pre.apply_block, X0=X0, tol=tol,
                    restart=restart, maxiter=maxiter,
                    recorder=self.recorder,
                    kernels=self.solver.kernels)
        self.batches += 1
        if self.recorder.enabled:
            self.recorder.add("batch.block_iterations", res.iterations)
        X = np.column_stack([self.solver.problem.extend(res.X[:, j])
                             for j in range(res.X.shape[1])])
        return BatchReport(
            X=X, block=res, driver=driver,
            num_subdomains=self.decomposition.num_subdomains,
            coarse_dim=self.solver.coarse_dim)
