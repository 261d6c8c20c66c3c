"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the public API derive from :class:`ReproError` so
that callers can catch library failures with a single ``except`` clause
without masking programming errors (``TypeError`` etc. propagate
unchanged).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class MeshError(ReproError):
    """Invalid mesh topology or geometry (inverted cells, bad indices)."""


class FEMError(ReproError):
    """Invalid finite-element configuration (unknown degree, bad form)."""


class PartitionError(ReproError):
    """Graph-partitioning failure (infeasible balance, empty part)."""


class DecompositionError(ReproError):
    """Invalid overlapping-decomposition request or inconsistent state."""


class CommunicatorError(ReproError):
    """Misuse of the simulated MPI layer (rank out of range, mismatched
    collective participation, operations on a null communicator)."""


class RankFailure(CommunicatorError):
    """A (simulated) MPI rank died or was declared dead.

    Raised on the failing rank by an injected *kill* fault, and on the
    surviving ranks when the shared error box reports a peer failure —
    so a dropped message or a dead rank surfaces as a typed error on
    every rank instead of a deadlock.  In the sequential solver the
    "rank" is the subdomain index whose local solve failed.
    """

    def __init__(self, message: str, *, rank: int = -1, op: str | None = None):
        super().__init__(message)
        self.rank = rank
        self.op = op
        #: flight-recorder black box (set by the raiser when the active
        #: recorder runs in ring mode) — see repro.obs.Recorder(ring=K)
        self.flight: dict | None = None


class SymmetryError(ReproError):
    """A symmetry-requiring code path received a nonsymmetric operator.

    Raised by the cg-family drivers (``cg``, ``deflated-cg``,
    ``block-cg``), :func:`repro.fem.postprocess.energy_norm` and the
    SPD-only kernel fast paths when handed a matrix that fails
    ``check_symmetric`` — instead of silently returning garbage from a
    structurally wrong factorisation or a negative "norm".
    """


class SolverError(ReproError):
    """Direct-solver failure (singular pivot, non-SPD matrix in Cholesky)."""


class CoarseSolveError(SolverError):
    """The coarse solve failed beyond repair: the factorization produced
    non-finite values and the pseudo-inverse fallback did too (or was
    already in use).  Under ``--recovery degrade`` this triggers the
    one-level-only degraded mode."""


class EigenError(ReproError):
    """Eigensolver failure (no convergence, invalid pencil)."""


class KrylovError(ReproError):
    """Krylov-method failure (breakdown, invalid restart parameter)."""


class KrylovBreakdown(KrylovError):
    """Typed Krylov breakdown detected by the numerical health monitor.

    Mirrors :class:`ConvergenceError`'s state-carrying contract: the
    last *healthy* iterate (``x``, possibly a rolled-back checkpoint),
    the residual history up to the failure and the iteration index ride
    on the exception so a recovery policy can roll back and restart
    instead of losing the whole solve.  Per-phase seconds up to the
    failure are on the solve's recorder (``Recorder.totals()``).
    """

    def __init__(self, message: str, x=None, residuals=None,
                 iteration: int = -1):
        super().__init__(message)
        self.x = x
        self.residuals = residuals if residuals is not None else []
        self.iteration = iteration
        #: flight-recorder black box (set by the health monitor when
        #: the active recorder runs in ring mode)
        self.flight: dict | None = None


class NonFiniteError(KrylovBreakdown):
    """NaN/Inf detected in the residual, iterate or Krylov basis."""


class DivergenceError(KrylovBreakdown):
    """The residual grew past the divergence ratio over its best value."""


class StagnationError(KrylovBreakdown):
    """No meaningful residual decrease over the stagnation window."""


class OrthogonalityError(KrylovBreakdown):
    """Loss of basis orthogonality beyond the configured threshold."""


class IndefiniteError(KrylovBreakdown):
    """CG curvature breakdown: ``p·Ap <= 0`` (operator or preconditioner
    not SPD, or a corrupted local solve)."""


class ConvergenceError(KrylovError):
    """Iterative method exhausted its iteration budget.

    Carries the partially converged iterate and the residual history so
    that callers (and the benchmark harness, which *expects* the
    one-level method to stall) can still inspect the run; its per-phase
    seconds are on the solve's recorder (``Recorder.totals()``).
    """

    def __init__(self, message: str, x=None, residuals=None):
        super().__init__(message)
        self.x = x
        self.residuals = residuals if residuals is not None else []
