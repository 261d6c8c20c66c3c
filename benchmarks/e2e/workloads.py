"""The five fixed workloads of ``bench-e2e``.

Sizes and operators are part of the benchmark's definition: a later
change may tune repeat counts, never these.  The coefficient field and
the partitioner are seeded with :data:`OPERATOR_SEED`, the same on every
run, because the iteration count of a seeded operator differs by one or
two between seeds — 8 % of ``solve_s`` on a 13-iteration solve, which
the pipeline would read as noise.  ``--seed`` feeds the right-hand-side
perturbations; the program under test only ever sees the generated
mesh, form and vectors.

Each workload also has a *smoke* size — used for the untimed warm-up
build that fills the import and reference-element caches before
anything is timed, and by the harness self-test.  It keeps the element
degree and dimension of the full size so the same cached objects are
touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.fem import channels_and_inclusions, layered_elasticity
from repro.fem.forms import (
    ConvectionDiffusionForm,
    DiffusionForm,
    ElasticityForm,
)
from repro.mesh import cantilever_2d, unit_cube, unit_square

#: GMRES(60) everywhere: no workload restarts, so iteration counts are
#: those of full GMRES and the SPMD count runs stay inside one cycle
RESTART = 60
#: masters of the SPMD coarse solve (assemble_coarse_spmd)
NUM_MASTERS = 2
#: seeds the coefficient field and the partitioner of every workload
OPERATOR_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``smoke -> (mesh, form, SchwarzSolver keyword arguments)``
    build: Callable
    tol: float
    #: K — Krylov solves that count towards ``time_to_solution_s``
    solves: int = 1
    #: run the solve phase on the thread-per-rank simulated MPI
    spmd: bool = False


def _diffusion2d(smoke: bool):
    mesh = unit_square(12 if smoke else 64)
    kappa = channels_and_inclusions(mesh, seed=OPERATOR_SEED)
    form = DiffusionForm(degree=4, kappa=kappa)
    return mesh, form, dict(num_subdomains=4 if smoke else 48,
                            nev=4 if smoke else 8, delta=1,
                            seed=OPERATOR_SEED)


def _diffusion3d(smoke: bool):
    mesh = unit_cube(4 if smoke else 14)
    kappa = channels_and_inclusions(mesh, seed=OPERATOR_SEED)
    form = DiffusionForm(degree=2, kappa=kappa)
    return mesh, form, dict(num_subdomains=4 if smoke else 32,
                            nev=4 if smoke else 10, delta=1,
                            seed=OPERATOR_SEED)


def _clamped_left(x: np.ndarray) -> np.ndarray:
    return x[:, 0] < 1e-9


def _elasticity2d(smoke: bool):
    mesh = (cantilever_2d(3, length=4.0) if smoke
            else cantilever_2d(12, length=8.0))
    lam, mu = layered_elasticity(mesh, n_layers=8)
    form = ElasticityForm(degree=3, lam=lam, mu=mu,
                          f=np.array([0.0, -9.81]))
    return mesh, form, dict(num_subdomains=4 if smoke else 32,
                            nev=6 if smoke else 16, delta=1,
                            seed=OPERATOR_SEED, dirichlet=_clamped_left)


def _convdiff2d(smoke: bool):
    mesh = unit_square(12 if smoke else 64)
    kappa = channels_and_inclusions(mesh, seed=OPERATOR_SEED)
    form = ConvectionDiffusionForm(degree=4, kappa=kappa,
                                   beta=100.0 * np.array([1.0, 0.35]))
    return mesh, form, dict(num_subdomains=4 if smoke else 48,
                            nev=4 if smoke else 8, delta=1,
                            seed=OPERATOR_SEED, partition_method="rcb")


#: why each one is here is recorded once, in BENCHMARK.json (``why``)
#: and at length in README.md
WORKLOADS: list[Workload] = [
    Workload("diffusion2d", _diffusion2d, tol=1e-8),
    Workload("diffusion3d", _diffusion3d, tol=1e-8),
    # 1e-8 is below the attainable accuracy at this contrast: GMRES
    # stagnates there, so the workload solves to 1e-6
    Workload("elasticity2d_manyrhs", _elasticity2d, tol=1e-6, solves=16),
    Workload("convdiff2d", _convdiff2d, tol=1e-8),
    Workload("diffusion2d_spmd", _diffusion2d, tol=1e-8, spmd=True),
]

BY_NAME = {w.name: w for w in WORKLOADS}


def perturbed_rhs(b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``b`` plus a random perturbation of norm ``0.1 * ||b||``."""
    g = rng.standard_normal(b.shape[0])
    return b + (0.1 * np.linalg.norm(b) / np.linalg.norm(g)) * g
