"""Telemetry hooks shared by the Krylov drivers.

The solve phase of an iteration decomposes into four cost centres the
paper's analysis keeps separate (§2.1, §3.3): the preconditioner
application (``apply``), the coarse solve hidden inside it
(``coarse_solve`` — the most communication-intensive operation), the
operator product (``matvec``), and the basis orthogonalisation
(``orthogonalization`` — the reductions §3.5 pipelines away).

Every driver takes a :class:`repro.obs.Recorder` as ``recorder=``.  When
it is enabled, :func:`instrument` wraps the operators in ``matvec`` /
``apply`` spans, the orthogonalisation runs inside an
``orthogonalization`` span, and the drivers emit per-iteration events
(:func:`iteration`, :func:`restart`, :func:`orthogonality_loss`,
:func:`column_converged`).  The coarse operator opens its own
``coarse_solve`` span on the same recorder, so it nests inside
``apply`` structurally.  Per-phase seconds are
``recorder.totals()[name]["seconds"]``.

With the default no-op recorder the operators are called directly: no
wrapper, no event, no clock read.
"""

from __future__ import annotations

import numpy as np


def instrument(rec, fn, name: str):
    """*fn* with one span *name* per call on *rec*, or *fn* itself when
    *rec* is disabled."""
    if not rec.enabled:
        return fn

    def spanned(x):
        with rec.span(name):
            return fn(x)

    return spanned


def iteration(rec, k: int, residual: float, *,
              corrected: bool = False) -> None:
    """One relative-residual sample, aligned with
    ``KrylovResult.residuals`` (``corrected=True`` marks the restart
    loop replacing its last estimate with the true residual —
    :func:`repro.obs.iteration_residuals` reapplies the semantics)."""
    if rec.enabled:
        attrs = {"k": int(k), "residual": float(residual)}
        if corrected:
            attrs["corrected"] = True
        rec.event("iteration", attrs=attrs)


def restart(rec, cycle: int, k: int) -> None:
    """A restart boundary: cycle *cycle* begins at iteration *k*."""
    if rec.enabled:
        rec.event("restart", attrs={"cycle": int(cycle), "k": int(k)})


def orthogonality_loss(rec, k: int, value: float) -> None:
    """Orthogonalisation produced a (numerically) zero new direction —
    a lucky breakdown or a loss of basis orthogonality."""
    if rec.enabled:
        rec.event("orthogonality_loss",
                  attrs={"k": int(k), "value": float(value)})


def column_converged(rec, k: int, col: int, residual: float) -> None:
    """A block driver's column *col* reached its target at (block)
    iteration *k* — emitted once per right-hand side, so the trace
    shows when each column was deflated from the active block
    (:func:`repro.obs.column_iterations` reconstructs the map)."""
    if rec.enabled:
        rec.event("batch.column_converged",
                  attrs={"k": int(k), "col": int(col),
                         "residual": float(residual)})


def finish_zero_rhs(n: int, *, recorder, callback=None, health=None):
    """Shared ``‖b‖ = 0`` early return for every Krylov driver.

    Semantics (previously six diverging copies): a zero right-hand side
    has the exact solution ``x = 0`` for any nonsingular operator, so
    the drivers return it immediately — *discarding* any ``x0`` (the
    exact answer is known, iterating from a guess could only add noise).
    ``residuals`` is ``[0.0]`` by convention: the relative residual
    ``‖b − A x‖ / ‖b‖`` is 0/0 and the solve is converged, so the
    history records a single converged sample.  The callback and the
    health monitor each fire exactly once with that sample, mirroring
    the iteration-0 behaviour of a normal solve (previously both were
    silently skipped).
    """
    from .gmres import KrylovResult    # deferred: gmres imports profile
    x = np.zeros(n)
    iteration(recorder, 0, 0.0)
    if health is not None:
        health.observe(0, 0.0, x)
    if callback is not None:
        callback(0, 0.0)
    return KrylovResult(x=x, iterations=0, residuals=[0.0],
                        converged=True)
