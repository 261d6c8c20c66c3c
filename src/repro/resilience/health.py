"""Numerical health monitoring for the Krylov drivers.

A :class:`HealthMonitor` is checked once per Krylov iteration by every
in-process driver (``cg``, ``gmres`` and with it ``fgmres``,
``p1_gmres``, ``s_step_gmres``, ``deflated_cg``) through its ``health=``
argument (the SPMD solves pass their own observers there, see
``docs/api.md``): it watches the residual stream for NaN/Inf,
divergence and stagnation, the basis for non-finite entries, and the
orthogonalisation for loss of orthogonality — each failure classified
into a typed :class:`~repro.common.errors.KrylovBreakdown` subclass
carrying the last *healthy* iterate (the checkpoint), the residual
history and the iteration index, so a
:class:`~repro.resilience.recovery.RecoveryPolicy` can roll back and
restart instead of aborting the run.

The monitor also drives the per-iteration fault tick: when a
:class:`~repro.resilience.faults.FaultInjector` is attached, every
``observe`` call fires the ``iteration`` op — this is how *kill rank r
at iteration k* plans reach a sequential solve.

Every detection emits an ``obs`` instant event (``health.<reason>``)
on the attached recorder, so breakdowns and their classification are
visible in the exported trace.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import (
    DivergenceError,
    NonFiniteError,
    OrthogonalityError,
    StagnationError,
)


class HealthMonitor:
    """Cheap per-iteration breakdown detector with iterate checkpoints.

    Parameters
    ----------
    recorder:
        Optional :class:`repro.obs.Recorder`; detections are emitted as
        ``health.*`` instant events.
    injector:
        Optional :class:`~repro.resilience.faults.FaultInjector`; every
        observed iteration fires the ``iteration`` fault op.
    divergence_ratio:
        Raise :class:`DivergenceError` when the relative residual grows
        past ``divergence_ratio ×`` its best value so far.
    stagnation_window, stagnation_rtol:
        Raise :class:`StagnationError` when the best residual improved
        by less than a factor ``(1 - stagnation_rtol)`` over the last
        *stagnation_window* iterations (0 disables the check).
    orthogonality_tol:
        Raise :class:`OrthogonalityError` when a driver reports a basis
        orthogonality defect above this threshold.  The default (0.5)
        only flags catastrophic loss: modified Gram–Schmidt legitimately
        drifts to O(ε·κ) defects on ill-conditioned (e.g. degraded)
        operators, and restarts bound the damage — tighten per-solve for
        strict monitoring.
    checkpoint_every:
        Snapshot the iterate every this-many healthy observations that
        carry one (drivers pass ``x`` where it is cheaply available:
        every CG iteration, every GMRES restart boundary).
    """

    def __init__(self, *, recorder=None, injector=None,
                 divergence_ratio: float = 1e4,
                 stagnation_window: int = 0,
                 stagnation_rtol: float = 1e-3,
                 orthogonality_tol: float = 0.5,
                 checkpoint_every: int = 10):
        from ..obs.recorder import NULL_RECORDER
        self.recorder = NULL_RECORDER if recorder is None else recorder
        self.injector = injector
        self.divergence_ratio = float(divergence_ratio)
        self.stagnation_window = int(stagnation_window)
        self.stagnation_rtol = float(stagnation_rtol)
        self.orthogonality_tol = float(orthogonality_tol)
        self.checkpoint_every = max(int(checkpoint_every), 1)
        self.residuals: list[float] = []
        self.best = np.inf
        self.best_at = 0
        #: last healthy iterate (k, x.copy()) — the rollback target
        self.checkpoint: tuple[int, np.ndarray] | None = None
        self._since_checkpoint = 0
        #: typed breakdowns raised so far (for reporting)
        self.breakdowns: list[str] = []

    # ------------------------------------------------------------------
    def _fail(self, cls, message: str, k: int, reason: str):
        self.breakdowns.append(reason)
        if self.recorder.enabled:
            self.recorder.event(f"health.{reason}",
                                attrs={"k": int(k), "message": message})
        x = None
        kc = k
        if self.checkpoint is not None:
            kc, xc = self.checkpoint
            x = xc.copy()
        exc = cls(message, x=x, residuals=list(self.residuals),
                  iteration=kc)
        if self.recorder.ring is not None:
            # flight-recorder mode: snapshot the ring buffers onto the
            # breakdown so the last K spans/events reach
            # SolveReport.resilience["flight_recorder"]
            exc.flight = self.recorder.flight_dump()
        raise exc

    def observe(self, k: int, residual: float, x=None) -> None:
        """One per-iteration health check (drivers call this exactly
        once per appended residual).  May raise a typed breakdown or an
        injected :class:`~repro.common.errors.RankFailure`."""
        if self.injector is not None:
            self.injector.fire("iteration", 0)
        self.residuals.append(float(residual))
        if not np.isfinite(residual):
            self._fail(NonFiniteError,
                       f"non-finite residual at iteration {k}", k,
                       "nonfinite")
        if x is not None and not np.all(np.isfinite(x)):
            self._fail(NonFiniteError,
                       f"non-finite iterate at iteration {k}", k,
                       "nonfinite")
        if residual > self.divergence_ratio * max(self.best, 1e-300):
            self._fail(DivergenceError,
                       f"residual {residual:.3e} diverged past "
                       f"{self.divergence_ratio:.1e} x best "
                       f"{self.best:.3e} at iteration {k}", k,
                       "divergence")
        if residual < self.best:
            self.best = residual
            self.best_at = k
        elif (self.stagnation_window
              and k - self.best_at >= self.stagnation_window):
            self._fail(StagnationError,
                       f"no residual improvement over the last "
                       f"{self.stagnation_window} iterations "
                       f"(best {self.best:.3e} at {self.best_at})", k,
                       "stagnation")
        if x is not None:
            self._since_checkpoint += 1
            if (self.checkpoint is None
                    or self._since_checkpoint >= self.checkpoint_every):
                self.checkpoint = (k, np.array(x, dtype=np.float64,
                                               copy=True))
                self._since_checkpoint = 0

    def check_vector(self, name: str, v: np.ndarray, k: int) -> None:
        """NaN/Inf scan of a basis/search vector (one pass, no copy)."""
        if not np.all(np.isfinite(v)):
            self._fail(NonFiniteError,
                       f"non-finite entries in {name} at iteration {k}",
                       k, "nonfinite")

    def orthogonality(self, k: int, defect: float) -> None:
        """A driver's (cheap) orthogonality-defect estimate — e.g.
        ``|<v_new, v_0>|`` after Gram–Schmidt.  NaN counts as a
        non-finite basis; values above the threshold are a loss of
        orthogonality."""
        if not np.isfinite(defect):
            self._fail(NonFiniteError,
                       f"non-finite orthogonality defect at iteration "
                       f"{k}", k, "nonfinite")
        if abs(defect) > self.orthogonality_tol:
            self._fail(OrthogonalityError,
                       f"orthogonality defect {defect:.3e} > "
                       f"{self.orthogonality_tol:.1e} at iteration {k}",
                       k, "orthogonality")
