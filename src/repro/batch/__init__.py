"""Batched multi-RHS solving (serving-scale path).

* :class:`SolveSession` — owns nothing, borrows a set-up
  :class:`~repro.core.solver.SchwarzSolver` and amortizes its expensive
  state over many right-hand sides.
* :func:`block_gmres` / :func:`block_cg` — true block Krylov drivers
  (one coarse solve + one block matvec per iteration for the whole
  batch, converged columns deflated).
"""

from .block_cg import block_cg
from .block_gmres import BlockKrylovResult, block_gmres
from .session import BatchReport, SolveSession

__all__ = ["SolveSession", "BatchReport", "BlockKrylovResult",
           "block_gmres", "block_cg"]
