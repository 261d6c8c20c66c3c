"""The multi-RHS solve session: amortize setup across many solves.

The GenEO setup — subdomain extraction, local factorizations, the
eigensolves, the coarse factorization — is the dominant cost the paper
parallelizes (figs. 8/10), and the repo's PR 1–2 made it fast.  A
:class:`SolveSession` makes it *reusable*: it borrows a fully set-up
:class:`~repro.core.solver.SchwarzSolver` (never rebuilding any of its
state) and exposes the two serving-scale access patterns:

* :meth:`solve_many` — simultaneous right-hand sides through true block
  Krylov drivers (:mod:`.block_cg`, :mod:`.block_gmres`): one coarse
  solve and one block matvec per iteration for the whole batch.
* :meth:`solve` — sequential right-hand sides with subspace recycling
  (:mod:`.recycle`): each solve harvests harmonic Ritz vectors from its
  final Krylov cycle and deflates them from the next solve, GCRO-DR
  style, by augmenting the GenEO deflation space.

Open a session with ``SchwarzSolver.session()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import ReproError, SymmetryError
from ..core.adef import TwoLevelADEF1, TwoLevelADEF2, TwoLevelBNN
from ..core.coarse import CoarseOperator
from ..core.solver import SolveReport
from ..krylov import SolveProfiler, gmres
from .block_cg import block_cg
from .block_gmres import BlockKrylovResult, block_gmres
from .recycle import harvest_ritz_vectors, recycled_deflation


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
    """Batched / recycled solves over a set-up Schwarz solver.

    Parameters
    ----------
    solver:
        A constructed :class:`~repro.core.solver.SchwarzSolver`; the
        session shares (never copies) its decomposition, one-level
        factorizations, GenEO deflation space, coarse factorization and
        recorder.
    recycle_dim:
        Harmonic Ritz vectors harvested per recycled solve (the
        augmentation of the deflation space; replaced — not
        accumulated — on every harvest, so the coarse dim stays
        bounded by ``coarse_dim + recycle_dim``).
    """

    def __init__(self, solver, *, recycle_dim: int = 8):
        if recycle_dim < 0:
            raise ReproError(
                f"recycle_dim must be >= 0, got {recycle_dim}")
        self.solver = solver
        self.recorder = solver.recorder
        self.recycle_dim = int(recycle_dim)
        #: the preconditioner in use (swapped when recycling augments it)
        self._preconditioner = solver.preconditioner
        self._coarse: CoarseOperator | None = None
        self._recycle_U: np.ndarray | None = None
        self.solves = 0
        self.batches = 0

    # ------------------------------------------------------------------
    @property
    def decomposition(self):
        return self.solver.decomposition

    @property
    def coarse_dim(self) -> int:
        """Active coarse dimension (GenEO + the recycle augmentation)."""
        if self._coarse is not None:
            return self._coarse.dim
        return self.solver.coarse_dim

    @property
    def recycle_active(self) -> bool:
        return self._recycle_U is not None

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
        profiler = self._make_profiler()
        pre = self._preconditioner
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
                    maxiter=maxiter, profiler=profiler)
            else:
                res = block_gmres(
                    self.decomposition.matvec_block, B,
                    M_block=pre.apply_block, X0=X0, tol=tol,
                    restart=restart, maxiter=maxiter, profiler=profiler,
                    kernels=self.solver.kernels)
        self.batches += 1
        if self.recorder.enabled:
            self.recorder.add("batch.block_iterations", res.iterations)
        X = np.column_stack([self.solver.problem.extend(res.X[:, j])
                             for j in range(res.X.shape[1])])
        return BatchReport(
            X=X, block=res, driver=driver,
            num_subdomains=self.decomposition.num_subdomains,
            coarse_dim=self.coarse_dim)

    # ------------------------------------------------------------------
    def solve(self, b: np.ndarray | None = None, *, tol: float = 1e-6,
              restart: int = 40, maxiter: int = 1000,
              x0: np.ndarray | None = None,
              recycle: bool = True) -> SolveReport:
        """One recycled sequential solve (GMRES; right-preconditioned).

        With ``recycle=True`` the solve (a) runs against the deflation
        space augmented by the previous solve's harvest and (b) harvests
        this solve's final Arnoldi cycle for the next one.  The first
        call has nothing to recycle yet — it behaves like a plain solve
        plus a cheap harvest.
        """
        if b is None:
            b = self.solver.problem.rhs()
        profiler = self._make_profiler()
        pre = self._preconditioner
        res = gmres(self.decomposition.matvec, b, M=pre.apply, x0=x0,
                    tol=tol, restart=restart, maxiter=maxiter,
                    profiler=profiler, keep_basis=recycle,
                    kernels=self.solver.kernels)
        self.solves += 1
        if recycle and self.recycle_dim > 0:
            U = harvest_ritz_vectors(res.basis, pre.apply,
                                     self.recycle_dim)
            if U is not None:
                self._recycle_U = U
                self._rebuild_preconditioner()
                if self.recorder.enabled:
                    self.recorder.event(
                        "batch.recycle",
                        attrs={"vectors": int(U.shape[1]),
                               "coarse_dim": self.coarse_dim})
        return SolveReport(
            x=self.solver.problem.extend(res.x), krylov=res,
            timer=self.solver.timer,
            num_subdomains=self.decomposition.num_subdomains,
            coarse_dim=self.coarse_dim, nu=self.solver.nu)

    def reset_recycling(self) -> None:
        """Drop the harvested subspace and return to the base
        preconditioner."""
        self._recycle_U = None
        self._coarse = None
        self._preconditioner = self.solver.preconditioner

    # ------------------------------------------------------------------
    def _make_profiler(self) -> SolveProfiler:
        profiler = SolveProfiler(recorder=self.recorder)
        coarse = self._coarse if self._coarse is not None \
            else self.solver.coarse
        if coarse is not None:
            coarse.profiler = profiler
        return profiler

    def _rebuild_preconditioner(self) -> None:
        """Swap in a preconditioner whose coarse space is the GenEO
        deflation augmented by the current recycle block.

        Only the coarse operator is rebuilt (a dense-ish ``m × m``
        assembly and factorization, m = coarse_dim + recycle_dim); the
        expensive per-subdomain state is reused untouched.  The harvest
        *replaces* the previous one, so repeated recycling does not grow
        the coarse problem without bound.
        """
        solver = self.solver
        space = recycled_deflation(self.decomposition, self._recycle_U,
                                   base=solver.deflation)
        with self.recorder.span("recycle_coarse"):
            coarse = CoarseOperator(space,
                                    backend=solver.coarse_backend,
                                    parallel=solver.parallel,
                                    recorder=self.recorder,
                                    kernels=solver.kernels)
        base = solver.preconditioner
        if isinstance(base, (TwoLevelADEF1, TwoLevelADEF2, TwoLevelBNN)):
            cls = type(base)
            one_level = base.ras if hasattr(base, "ras") else base.one_level
        else:
            # a one-level solver gains a coarse level made purely of
            # recycled Ritz vectors — the a-posteriori construction of
            # the paper's outlook (core/ritz.py), fed by real solves
            cls = TwoLevelADEF1
            one_level = solver.one_level
        self._coarse = coarse
        self._preconditioner = cls(one_level, coarse)
