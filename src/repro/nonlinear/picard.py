"""Nonlinear elliptic problems via Picard (frozen-coefficient) iteration.

The paper's conclusion announces nonlinear solid-mechanics experiments
as the framework's next target.  This module implements the natural
first step: quasilinear problems

    −∇·(κ(x, u) ∇u) = f

solved by Picard iteration — freeze κ at the current iterate, solve the
resulting *linear* heterogeneous problem with the two-level GenEO
preconditioner, repeat.  Because the linearised operator changes every
step, the module exposes the paper-relevant design choice as a knob:

* ``coarse="rebuild"`` — solve each step's GenEO eigenproblems afresh
  (robust, pays the *deflation* column of fig. 8 every step);
* ``coarse="reuse"``   — keep the first step's deflation vectors and
  only re-assemble E against the new operator (cheap; the spectral
  content usually drifts slowly between Picard steps);
* ``coarse="freeze"``  — keep the entire first-step preconditioner
  (cheapest; pairs with FGMRES since the preconditioner no longer
  matches the operator).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import ReproError
from ..core.adef import TwoLevelADEF1
from ..core.coarse import CoarseOperator
from ..core.deflation import DeflationSpace
from ..core.geneo import compute_deflation
from ..core.ras import OneLevelRAS
from ..dd.decomposition import Decomposition
from ..dd.problem import Problem
from ..fem.forms import DiffusionForm
from ..krylov import gmres
from ..mesh import SimplexMesh
from ..obs.recorder import Recorder
from ..partition import partition_mesh


@dataclass
class NonlinearReport:
    """Outcome of a Picard solve."""

    x: np.ndarray                      # full-dof solution
    picard_iterations: int
    linear_iterations: list[int] = field(default_factory=list)
    updates: list[float] = field(default_factory=list)
    converged: bool = True
    #: the solve's phase spans (``decomposition``, ``factorization``,
    #: ``deflation``, ``coarse``, ``solution``) — per-phase seconds and
    #: counts are ``recorder.totals()[phase]``
    recorder: Recorder = field(default_factory=Recorder)

    @property
    def total_linear_iterations(self) -> int:
        return int(sum(self.linear_iterations))


class PicardSolver:
    """Two-level Schwarz inside a Picard loop for −∇·(κ(x,u)∇u) = f.

    Parameters
    ----------
    mesh:
        Geometry.
    kappa_of_u:
        Callable ``(cell_values_of_u, centroids) -> per-cell κ`` giving
        the frozen coefficient for the next linear solve.  ``u`` is
        passed as per-cell averages of the current iterate.
    f:
        Source term (constant or callable), as in
        :class:`~repro.fem.forms.DiffusionForm`.
    degree, num_subdomains, delta, nev:
        As in :class:`~repro.core.solver.SchwarzSolver`.
    coarse:
        "rebuild" | "reuse" | "freeze" (see module docstring).
    """

    def __init__(self, mesh: SimplexMesh, kappa_of_u, *, f=1.0,
                 degree: int = 2, num_subdomains: int = 8, delta: int = 1,
                 nev: int = 8, coarse: str = "reuse", dirichlet=None,
                 seed: int = 0):
        if coarse not in ("rebuild", "reuse", "freeze"):
            raise ReproError(f"unknown coarse strategy {coarse!r}")
        self.mesh = mesh
        self.kappa_of_u = kappa_of_u
        self.f = f
        self.degree = degree
        self.num_subdomains = num_subdomains
        self.delta = delta
        self.nev = nev
        self.coarse_strategy = coarse
        self.dirichlet = dirichlet
        self.seed = seed
        self.part = partition_mesh(mesh, num_subdomains, seed=seed)
        self._frozen_pre = None
        self._frozen_W = None

    # ------------------------------------------------------------------
    def _cell_average(self, problem: Problem, x_full: np.ndarray) -> np.ndarray:
        """Per-cell average of the P1-part of the current iterate (the
        vertex dofs always come first in the scalar numbering)."""
        vertex_vals = x_full[:self.mesh.num_vertices]
        return vertex_vals[self.mesh.cells].mean(axis=1)

    def _linear_setup(self, kappa, rec: Recorder):
        form = DiffusionForm(degree=self.degree, kappa=kappa, f=self.f)
        problem = Problem(self.mesh, form, dirichlet=self.dirichlet,
                          scaling="jacobi")
        with rec.span("decomposition"):
            dec = Decomposition(problem, self.part, delta=self.delta)
        with rec.span("factorization"):
            ras = OneLevelRAS(dec)
        if self.coarse_strategy == "freeze" and self._frozen_pre is not None:
            # keep the old preconditioner entirely (operator changed!)
            return problem, dec, self._frozen_pre
        if self.coarse_strategy == "reuse" and self._frozen_W is not None:
            W = self._frozen_W
        else:
            with rec.span("deflation"):
                W = [compute_deflation(s, nev=self.nev,
                                       seed=self.seed + s.index).W
                     for s in dec.subdomains]
            self._frozen_W = W
        with rec.span("coarse"):
            space = DeflationSpace(dec, W)
            pre = TwoLevelADEF1(ras, CoarseOperator(space))
        if self._frozen_pre is None:
            self._frozen_pre = pre
        return problem, dec, pre

    # ------------------------------------------------------------------
    def solve(self, *, tol: float = 1e-8, picard_tol: float = 1e-6,
              max_picard: int = 30, linear_tol: float = 1e-8,
              restart: int = 60, maxiter: int = 400,
              u0: np.ndarray | None = None) -> NonlinearReport:
        """Run the Picard loop until the relative update ‖u⁺−u‖/‖u⁺‖
        drops below *picard_tol*."""
        centroids = self.mesh.cell_centroids()
        # initial coefficient from u = 0 (or the supplied start)
        n_report = NonlinearReport(x=np.zeros(0), picard_iterations=0)
        rec = n_report.recorder
        x_full = u0
        u_cells = (np.zeros(self.mesh.num_cells) if u0 is None
                   else self._cell_average_init(u0))
        for it in range(1, max_picard + 1):
            kappa = np.asarray(self.kappa_of_u(u_cells, centroids),
                               dtype=np.float64)
            if kappa.shape != (self.mesh.num_cells,):
                raise ReproError(
                    f"kappa_of_u must return ({self.mesh.num_cells},), "
                    f"got {kappa.shape}")
            if np.any(kappa <= 0):
                raise ReproError("kappa_of_u produced non-positive "
                                 "diffusivity")
            problem, dec, pre = self._linear_setup(kappa, rec)
            b = problem.rhs()
            with rec.span("solution"):
                res = gmres(dec.matvec, b, M=pre.apply, tol=linear_tol,
                            restart=restart, maxiter=maxiter)
            x_new = problem.extend(res.x)
            n_report.linear_iterations.append(res.iterations)
            if x_full is None:
                update = np.inf
            else:
                denom = max(np.linalg.norm(x_new), 1e-300)
                update = float(np.linalg.norm(x_new - x_full) / denom)
                n_report.updates.append(update)
            x_full = x_new
            u_cells = self._cell_average(problem, x_full)
            n_report.picard_iterations = it
            if update <= picard_tol:
                n_report.x = x_full
                n_report.converged = True
                return n_report
        n_report.x = x_full if x_full is not None else np.zeros(0)
        n_report.converged = False
        return n_report

    def _cell_average_init(self, u0: np.ndarray) -> np.ndarray:
        vertex_vals = u0[:self.mesh.num_vertices]
        return vertex_vals[self.mesh.cells].mean(axis=1)
