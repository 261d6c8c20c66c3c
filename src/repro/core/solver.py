"""High-level user API: the two-level Schwarz solver.

Wires the full paper pipeline — partition, overlap, local matrices,
GenEO deflation, coarse operator, A-DEF1 — behind one object, with the
per-phase timers (*factorization*, *deflation*, *solution*) that
figures 8 and 10 report.

Example
-------
>>> from repro import SchwarzSolver
>>> from repro.mesh import unit_square
>>> from repro.fem.forms import DiffusionForm
>>> from repro.fem import channels_and_inclusions
>>> mesh = unit_square(32)
>>> form = DiffusionForm(degree=2, kappa=channels_and_inclusions(mesh))
>>> solver = SchwarzSolver(mesh, form, num_subdomains=8, nev=8)
>>> result = solver.solve(tol=1e-6)
>>> result.converged
True
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ..common.errors import (
    CoarseSolveError,
    KrylovBreakdown,
    RankFailure,
    ReproError,
    SymmetryError,
)
from ..common.timing import PhaseTimer
from ..dd.decomposition import Decomposition
from ..dd.problem import Problem
from ..fem.forms import Form
from ..kernels import get_backend
from ..krylov import (
    KrylovResult,
    SolveProfiler,
    cg,
    deflated_cg,
    fgmres,
    gmres,
    p1_gmres,
    s_step_gmres,
)
from ..mesh import SimplexMesh
from ..parallel import ParallelConfig, resolve_parallel, timed_map
from ..partition import partition_mesh
from ..resilience import HealthMonitor, as_injector, resolve_recovery
from .adef import TwoLevelADEF1, TwoLevelADEF2, TwoLevelBNN
from .coarse import CoarseOperator
from .deflation import DeflationSpace
from .geneo import (
    get_coarse_space,
    nicolaides_deflation,
    resilient_deflation,
)
from .ras import OneLevelASM, OneLevelRAS

_KRYLOV = {
    "gmres": gmres,
    "p1-gmres": p1_gmres,
    "cg": cg,
    "fgmres": fgmres,
    "sstep": s_step_gmres,
    "deflated-cg": deflated_cg,
}
#: drivers that take a ``restart`` cycle length directly
_RESTARTED = ("gmres", "p1-gmres", "fgmres")


@dataclass
class SolveReport:
    """Solution + the paper's reporting columns."""

    x: np.ndarray                 # full-dof solution (Dirichlet rows zero)
    krylov: KrylovResult
    timer: PhaseTimer
    num_subdomains: int
    coarse_dim: int
    nu: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    #: recovery bookkeeping of the solve (mode, restarts taken, faults
    #: injected by kind, degraded subdomains, coarse/eigensolve
    #: fallbacks) — empty when no fault plan / recovery policy was active
    resilience: dict = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return self.krylov.iterations

    @property
    def converged(self) -> bool:
        return self.krylov.converged

    @property
    def residuals(self) -> list[float]:
        return self.krylov.residuals


class SchwarzSolver:
    """Two-level overlapping Schwarz solver with a GenEO coarse space.

    Parameters
    ----------
    mesh, form:
        Geometry + variational form (see :mod:`repro.fem.forms`).
    num_subdomains:
        N — one simulated MPI process per subdomain, as in the paper.
    delta:
        Overlap width (paper: minimal overlap 1 for elasticity).
    nev:
        Deflation vectors per subdomain ν (uniform, as in §3.3); the
        effective ν is ``allreduce-max`` consistent by construction.
    tau:
        Optional GenEO threshold (overrides pure-count selection).
    levels:
        1 → one-level RAS only; 2 → A-DEF1 two-level (default).
    preconditioner:
        "adef1" (paper), "adef2", "bnn", or "ras"/"asm" (one-level).
    krylov:
        "gmres" (paper), "p1-gmres" (§3.5), "cg", "fgmres", "sstep"
        (communication-avoiding s-step GMRES), or "deflated-cg"
        (explicit GenEO deflation; needs a two-level preconditioner).
    dirichlet:
        Passed to :class:`~repro.dd.problem.Problem`.
    parallel:
        Executor for the per-subdomain setup loops — subdomain
        extraction, local factorizations, GenEO eigensolves, coarse
        assembly (:class:`~repro.parallel.ParallelConfig`, a backend
        name like ``"threads"``, or ``None`` for serial).  Results are
        bitwise identical across executors; per-subdomain seeds and
        phase times are preserved.
    recorder:
        Optional :class:`repro.obs.Recorder`.  When given, every setup
        phase and per-subdomain task becomes a hierarchical span, the
        Krylov loop emits per-iteration convergence events, and the
        whole run can be exported with :func:`repro.obs.write_trace`.
        ``None`` (default) uses the no-op recorder — un-instrumented
        runs pay essentially nothing.
    faults:
        Optional :class:`repro.resilience.FaultPlan` (or a ready
        injector, or a JSON plan path).  Arms deterministic fault
        injection on the setup eigensolves (``eigensolve``), the
        one-level local solves (``local_solve``), the coarse solves
        (``coarse_solve``) and the per-iteration Krylov tick
        (``iteration``).
    recovery:
        Default :class:`repro.resilience.RecoveryPolicy` (or a mode
        string ``"off"``/``"restart"``/``"degrade"``) used by
        :meth:`solve`; see ``docs/resilience.md``.
    kernel_backend:
        Kernel backend name (``"numpy"``, ``"compiled"``) or a ready
        :class:`~repro.kernels.KernelBackend` instance.  ``None``
        resolves ``REPRO_KERNEL_BACKEND``, then ``"compiled"`` when its
        C kernel library builds, else the reference ``numpy`` backend.
        Owns the hot kernels of the solve phase: local/coarse
        triangular solves, the fused RAS apply and the Krylov
        orthogonalisation — see ``docs/performance.md``.  (This is distinct from *backend* /
        *coarse_backend*, which pick the sparse factorization method.)
    coarse_space:
        Which per-subdomain coarse-space builder fills the deflation
        space — a registry name (``"geneo"``, ``"extended"``,
        ``"nicolaides"``; see
        :func:`repro.core.geneo.register_coarse_space`).  ``None``
        resolves ``$REPRO_COARSE_SPACE`` and then auto-selects:
        ``"geneo"`` (the paper's construction) for SPD operators,
        ``"extended"`` (Nataf–Parolin extended pencil on the SPD
        surrogate, non-Hermitian-safe orthonormalisation) for
        nonsymmetric/indefinite ones.  ``nev=0`` still forces the
        Nicolaides space, as before.
    """

    def __init__(self, mesh: SimplexMesh, form: Form, *,
                 num_subdomains: int, delta: int = 1, nev: int = 10,
                 tau: float | None = None, levels: int = 2,
                 preconditioner: str | None = None,
                 krylov: str = "gmres", backend: str = "superlu",
                 coarse_backend: str = "superlu",
                 coarse_space: str | None = None,
                 partition_method: str = "multilevel",
                 eigensolver: str = "lanczos",
                 dirichlet=None, part: np.ndarray | None = None,
                 scaling: str | None = "jacobi",
                 seed: int = 0,
                 parallel: ParallelConfig | str | None = None,
                 recorder=None, faults=None, recovery=None,
                 kernel_backend: str | None = None):
        from ..obs.recorder import NULL_RECORDER
        if levels not in (1, 2):
            raise ReproError(f"levels must be 1 or 2, got {levels}")
        if preconditioner is None:
            preconditioner = "adef1" if levels == 2 else "ras"
        self.krylov_name = krylov
        if krylov not in _KRYLOV:
            raise ReproError(f"unknown krylov method {krylov!r}; "
                             f"expected one of {sorted(_KRYLOV)}")
        if krylov == "deflated-cg" and preconditioner not in (
                "adef1", "adef2", "bnn"):
            raise ReproError(
                "krylov='deflated-cg' needs the GenEO deflation basis — "
                "use a two-level preconditioner (adef1/adef2/bnn), "
                f"got {preconditioner!r}")
        self.recorder = NULL_RECORDER if recorder is None else recorder
        self.timer = PhaseTimer(recorder=self.recorder)
        self.parallel = resolve_parallel(parallel)
        #: kernel backend shared by every component of the solve phase
        self.kernels = get_backend(kernel_backend, recorder=self.recorder)
        #: default recovery policy for :meth:`solve` (overridable per call)
        self.recovery = resolve_recovery(recovery)
        #: shared fault injector (a FaultPlan / plan path / injector)
        self.injector = as_injector(faults, recorder=self.recorder)
        #: subdomains whose GenEO eigensolve degraded to Nicolaides
        self.eigensolve_fallbacks: list[int] = []

        with self.recorder.span("setup"):
            self._setup(mesh, form, num_subdomains, delta, nev, tau,
                        preconditioner, backend, coarse_backend,
                        partition_method, eigensolver, dirichlet, part,
                        scaling, seed, coarse_space)
        self.preconditioner_name = preconditioner
        if self.recorder.enabled:
            self.recorder.gauge("num_subdomains",
                                self.decomposition.num_subdomains)
            self.recorder.gauge("coarse_dim", self.coarse_dim)

    def _setup(self, mesh, form, num_subdomains, delta, nev, tau,
               preconditioner, backend, coarse_backend, partition_method,
               eigensolver, dirichlet, part, scaling, seed,
               coarse_space) -> None:
        self.problem = Problem(mesh, form, dirichlet=dirichlet,
                               scaling=scaling)
        #: kept for components that re-factorize a coarse operator later
        #: (e.g. the recycling session augmenting the deflation space)
        self.coarse_backend = coarse_backend
        if part is None:
            part = partition_mesh(mesh, num_subdomains,
                                  method=partition_method, seed=seed)
        with self.timer.phase("decomposition"):
            self.decomposition = Decomposition(self.problem, part,
                                               delta=delta,
                                               parallel=self.parallel,
                                               recorder=self.recorder,
                                               kernels=self.kernels)

        #: operator symmetry, detected once on the decomposition and
        #: consumed by driver dispatch, solve_many's auto-pick and the
        #: kernel backends (the "real flag instead of assuming SPD")
        self.is_symmetric = self.decomposition.is_symmetric
        self.is_spd = self.decomposition.is_spd
        if self.krylov_name in ("cg", "deflated-cg") and not self.is_spd:
            kind = ("nonsymmetric" if not self.is_symmetric
                    else "symmetric indefinite")
            raise SymmetryError(
                f"krylov={self.krylov_name!r} requires an SPD operator, "
                f"but {type(form).__name__} assembles a {kind} one — "
                f"use gmres/fgmres/sstep instead")
        self.coarse_space_name, self._coarse_space_builder = \
            get_coarse_space(coarse_space, operator_is_spd=self.is_spd)

        with self.timer.phase("factorization"):
            one_level_cls = OneLevelASM if preconditioner in ("asm", "bnn") \
                else OneLevelRAS
            self.one_level = one_level_cls(self.decomposition,
                                           backend=backend,
                                           parallel=self.parallel,
                                           recorder=self.recorder,
                                           kernels=self.kernels)

        self.deflation: DeflationSpace | None = None
        self.coarse: CoarseOperator | None = None
        if preconditioner in ("adef1", "adef2", "bnn"):
            with self.timer.phase("deflation"):
                ncomp = self.problem.space.ncomp
                cs_builder = self._coarse_space_builder

                def build(s, **kw):
                    return cs_builder(s, ncomp=ncomp, **kw)

                def deflate(s):
                    if nev == 0:
                        return nicolaides_deflation(s, ncomp=ncomp)
                    if self.recovery.active:
                        return resilient_deflation(
                            s, nev=nev, tau=tau, method=eigensolver,
                            seed=seed + s.index, injector=self.injector,
                            recorder=self.recorder,
                            on_fallback=self.eigensolve_fallbacks.append,
                            builder=build)
                    if self.injector is not None:
                        # faults still fire with recovery off — they must
                        # surface as typed errors, never be masked
                        self.injector.fire("eigensolve", s.index)
                    return build(s, nev=nev, tau=tau,
                                 method=eigensolver,
                                 seed=seed + s.index)

                # per-subdomain GenEO eigensolves under the executor;
                # timed_map records each subdomain on its own clock
                # (figs. 8/10 SPMD wall-clock = max over subdomains)
                results, self.deflation_times = timed_map(
                    deflate, self.decomposition.subdomains, self.parallel,
                    recorder=self.recorder, label="geneo")
                self.geneo_results = results
                self.deflation = DeflationSpace(
                    self.decomposition, [r.W for r in results])
            with self.timer.phase("coarse"):
                self.coarse = CoarseOperator(self.deflation,
                                             backend=coarse_backend,
                                             parallel=self.parallel,
                                             recorder=self.recorder,
                                             kernels=self.kernels)
            if preconditioner == "adef1":
                self.preconditioner = TwoLevelADEF1(self.one_level,
                                                    self.coarse)
            elif preconditioner == "adef2":
                self.preconditioner = TwoLevelADEF2(self.one_level,
                                                    self.coarse)
            else:
                self.preconditioner = TwoLevelBNN(self.one_level,
                                                  self.coarse)
        elif preconditioner in ("ras", "asm"):
            self.preconditioner = self.one_level
        else:
            raise ReproError(f"unknown preconditioner {preconditioner!r}")

    # ------------------------------------------------------------------
    @property
    def coarse_dim(self) -> int:
        return self.coarse.dim if self.coarse is not None else 0

    @property
    def nu(self) -> np.ndarray:
        if self.deflation is None:
            return np.zeros(0, dtype=np.int64)
        return self.deflation.nu

    def operator(self, x: np.ndarray) -> np.ndarray:
        """The reduced global operator, applied distributedly (eq. 5)."""
        return self.decomposition.matvec(x)

    # ------------------------------------------------------------------
    def solve(self, b: np.ndarray | None = None, *, tol: float = 1e-6,
              restart: int = 40, maxiter: int = 1000,
              x0: np.ndarray | None = None,
              callback=None, recovery=None,
              degrade_sticky: bool = False) -> SolveReport:
        """Solve the (reduced) system with the configured Krylov method.

        *b* is a reduced right-hand side; ``None`` assembles the form's
        natural load vector.  *x0* warm-starts the Krylov iteration (all
        six drivers accept it; an exact-solution guess converges in zero
        iterations).  *recovery* (a mode string or
        :class:`~repro.resilience.RecoveryPolicy`) overrides the
        constructor's policy for this solve; with faults armed and
        recovery ``off``, failures surface as typed exceptions — with
        ``restart``/``degrade`` the solve rolls back to the last healthy
        checkpoint (and, degrading, disables the failed structure) and
        retries, up to ``max_restarts`` times.  Recovery actions land in
        :attr:`SolveReport.resilience` and as ``recovery.*`` trace
        events.

        Degrade-mode measures (a disabled subdomain, the one-level-only
        preconditioner after a coarse failure) are scoped to *this*
        solve: the preconditioner configuration is snapshotted on entry
        and restored on exit, so a later healthy solve runs at full
        strength again.  Pass ``degrade_sticky=True`` to keep the
        degraded configuration for subsequent solves (the long-lived
        lost-rank scenario of ``docs/resilience.md``).
        """
        if b is None:
            b = self.problem.rhs()
        policy = self.recovery if recovery is None \
            else resolve_recovery(recovery)
        injector = self.injector
        method = _KRYLOV[self.krylov_name]
        # one profiler shared between the Krylov loop (matvec / apply /
        # orthogonalization) and the coarse operator (coarse_solve, a
        # sub-interval of apply) — surfaced on KrylovResult.profile
        profiler = SolveProfiler(recorder=self.recorder)
        if self.coarse is not None:
            self.coarse.profiler = profiler
            self.coarse.injector = injector
            self.coarse.resilient = policy.degrading
        self.one_level.injector = injector
        kwargs = dict(tol=tol, maxiter=maxiter,
                      callback=callback, profiler=profiler)
        if self.krylov_name in ("gmres", "fgmres"):
            kwargs["kernels"] = self.kernels
        if self.krylov_name in _RESTARTED:
            kwargs["restart"] = restart
        elif self.krylov_name == "sstep":
            # s-step GMRES builds s monomial-basis directions per global
            # sync; cap s for conditioning, scaled off the cycle length
            kwargs["s"] = max(1, min(restart, 12))

        def make_health():
            if injector is None and not policy.active:
                return None
            return HealthMonitor(
                recorder=self.recorder, injector=injector,
                divergence_ratio=policy.divergence_ratio,
                stagnation_window=policy.stagnation_window,
                checkpoint_every=policy.checkpoint_every)

        resilience: dict = {}
        if injector is not None or policy.active:
            resilience = {
                "mode": policy.mode, "restarts": 0,
                "degraded_subdomains": [],
                "eigensolve_fallbacks": list(self.eigensolve_fallbacks),
                "coarse_fallbacks": 0, "one_level_only": False,
                "faults": {}, "breakdowns": [],
            }
        health = make_health()
        guess = None if x0 is None else np.asarray(x0, dtype=np.float64)
        # degrade-mode recovery mutates the preconditioner configuration
        # (disabled subdomains, one-level-only fallback); snapshot it so
        # the degradation stays scoped to this solve unless the caller
        # keeps it with degrade_sticky=True
        saved_pre = self.preconditioner
        saved_disabled = set(self.one_level.disabled)
        try:
            with self.timer.phase("solution"):
                while True:
                    try:
                        if self.krylov_name == "deflated-cg":
                            # the deflation basis carries the coarse
                            # space explicitly; pair with the one-level
                            # preconditioner only (a two-level M would
                            # apply the coarse correction twice)
                            res = method(self.operator, b,
                                         self.deflation.Z,
                                         M=self.one_level.apply,
                                         x0=guess, health=health, **kwargs)
                        else:
                            res = method(self.operator, b, x0=guess,
                                         M=self.preconditioner.apply,
                                         health=health, **kwargs)
                        break
                    except (KrylovBreakdown, RankFailure,
                            CoarseSolveError) as exc:
                        if health is not None:
                            resilience["breakdowns"] = \
                                list(health.breakdowns)
                        if self.recorder.ring is not None:
                            # flight-recorder mode: keep the black box
                            # of the *first* failure (closest to the
                            # fault, before recovery rewrites history)
                            resilience.setdefault(
                                "flight_recorder",
                                getattr(exc, "flight", None)
                                or self.recorder.flight_dump())
                        if (not policy.active
                                or resilience["restarts"]
                                >= policy.max_restarts):
                            if policy.active:
                                # restart budget exhausted: distinguish
                                # "never recovered" from "recovery off"
                                resilience["giveup"] = \
                                    resilience.get("giveup", 0) + 1
                                if self.recorder.enabled:
                                    self.recorder.event(
                                        "recovery.giveup", attrs={
                                            "reason": type(exc).__name__,
                                            "restarts":
                                                resilience["restarts"]})
                                exc.resilience = resilience
                            if self.recorder.ring is not None \
                                    and getattr(exc, "flight",
                                                None) is None:
                                exc.flight = \
                                    resilience["flight_recorder"]
                            raise
                        resilience["restarts"] += 1
                        guess = self._recover(exc, policy, health,
                                              resilience)
                        health = make_health()
        finally:
            if not degrade_sticky:
                self.preconditioner = saved_pre
                self.one_level.disabled = saved_disabled
        if resilience:
            if self.coarse is not None:
                resilience["coarse_fallbacks"] = self.coarse.fallbacks
            if injector is not None:
                resilience["faults"] = injector.summary()
            if health is not None and health.breakdowns:
                resilience["breakdowns"] = list(health.breakdowns)
        if self.recorder.enabled:
            self.recorder.gauge("iterations", res.iterations)
        return SolveReport(
            x=self.problem.extend(res.x), krylov=res, timer=self.timer,
            num_subdomains=self.decomposition.num_subdomains,
            coarse_dim=self.coarse_dim, nu=self.nu,
            resilience=resilience)

    # ------------------------------------------------------------------
    def session(self, **kwargs):
        """Open a :class:`repro.batch.SolveSession` over this solver's
        expensive state (decomposition, local factorizations, GenEO
        deflation space, coarse factorization, recorder).

        The session amortizes setup across many right-hand sides: block
        Krylov solves via :meth:`~repro.batch.SolveSession.solve_many`
        and Ritz-recycled sequential solves via
        :meth:`~repro.batch.SolveSession.solve`.  Keyword arguments are
        forwarded to the :class:`~repro.batch.SolveSession` constructor.
        """
        from ..batch import SolveSession
        return SolveSession(self, **kwargs)

    def _recover(self, exc, policy, health, resilience):
        """One recovery step: log the event, apply the structural
        degradation matched to *exc* (degrade mode), and return the
        rollback iterate for the restarted Krylov solve."""
        reason = type(exc).__name__
        warnings.warn(
            f"solve interrupted by {reason} ({exc}); "
            f"recovery={policy.mode}, restart "
            f"{resilience['restarts']}/{policy.max_restarts}",
            RuntimeWarning, stacklevel=3)
        if self.recorder.enabled:
            self.recorder.event("recovery.restart", attrs={
                "reason": reason, "restart": resilience["restarts"],
                "mode": policy.mode})
        if policy.degrading:
            if (isinstance(exc, RankFailure) and exc.rank >= 0
                    and exc.op == "local_solve"
                    and exc.rank not in self.one_level.disabled):
                self.one_level.disable(exc.rank)
                resilience["degraded_subdomains"].append(exc.rank)
                warnings.warn(
                    f"disabling failed subdomain {exc.rank} in the "
                    f"one-level preconditioner (degraded mode)",
                    RuntimeWarning, stacklevel=3)
                if self.recorder.enabled:
                    self.recorder.event("recovery.disable_subdomain",
                                        attrs={"subdomain": exc.rank})
            if isinstance(exc, CoarseSolveError) and self.coarse is not None:
                self.preconditioner = self.one_level
                resilience["one_level_only"] = True
                warnings.warn(
                    "coarse level unusable; continuing one-level only "
                    "(expect degraded convergence)",
                    RuntimeWarning, stacklevel=3)
                if self.recorder.enabled:
                    self.recorder.event("recovery.one_level_only", attrs={})
        # rollback-restart: resume from the exception's last healthy
        # iterate, else from the monitor's checkpoint, else from scratch
        x0 = getattr(exc, "x", None)
        if x0 is None and health is not None \
                and health.checkpoint is not None:
            x0 = health.checkpoint[1].copy()
        if x0 is not None and not np.all(np.isfinite(x0)):
            x0 = None
        return x0
