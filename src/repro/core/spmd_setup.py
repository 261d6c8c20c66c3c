"""Fully-distributed setup: every rank builds its subdomain by itself.

The sequential :class:`~repro.dd.decomposition.Decomposition` builds all
subdomains in one process — convenient for testing, but the paper's
point (§2) is stronger: *"The second approach does not require any
additional parallel information or communication: there is no need for a
global ordering"*.  This module realises that claim over the simulated
MPI.  Each rank, given only the global coarse mesh + partition array
(replicated, as FreeFem++ replicates the unrefined coarse mesh) and its
own rank id:

1. grows its own overlap ``T_i^{δ+1}``;
2. computes the element matrices of its own cells of the replicated
   global function space, and builds its Dirichlet, Neumann (and
   extended-GenEO surrogate) matrices from them with
   :func:`repro.dd.subdomain.build_subdomain` — the same builder the
   sequential decomposition calls;
3. finds neighbour candidates from the partition graph, then exchanges
   **global dof keys** with them to align the shared-dof index maps
   (entity keys, not a global dof numbering: vertex ids / edge pairs /
   face triples, which every rank can compute independently);
4. exchanges χ̃ node values with its neighbours to normalise the
   partition of unity — the global sum Σ_j χ̃_j is never formed.

The result per rank is numerically identical to the sequential
decomposition's subdomain (asserted in the tests), which validates the
paper's "communication-free setup + one neighbourhood exchange" claim.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import DecompositionError
from ..dd.overlap import grow_overlap, vertex_layers
from ..dd.problem import Problem
from ..dd.subdomain import (
    Subdomain,
    apply_jacobi_scaling,
    build_subdomain,
    jacobi_scale,
    partition_of_unity,
)
from ..mpi.simmpi import Comm

_TAG_KEYS = 21_000
_TAG_CHI = 22_000


def _partition_neighbor_candidates(mesh, part: np.ndarray, me: int,
                                   delta: int) -> list[int]:
    """Parts whose δ-regions could intersect mine: computed from the
    replicated coarse partition, no communication.

    Two δ-regions can share a dof only if the owning parts are within
    2(δ+1) vertex-adjacency layers of each other (δ growth each side
    plus one layer of vertex contact), so the owners of my 2(δ+1)-grown
    region are a superset of my true neighbours — the dof-key exchange
    prunes the false positives.
    """
    cells, _ = grow_overlap(mesh, part, me, 2 * (delta + 1))
    owners = np.unique(part[cells])
    return [int(p) for p in owners if p != me]


def build_local_subdomain(comm: Comm, problem: Problem, part: np.ndarray,
                          delta: int) -> Subdomain:
    """SPMD construction of this rank's subdomain (steps 1–4 above)."""
    me = comm.rank
    mesh = problem.mesh

    # ---- step 1+2: purely local matrices -----------------------------
    cells, layers = grow_overlap(mesh, part, me, delta + 1)
    Ke, Kg = problem.form.element_matrices_with_geneo(problem.space, cells)
    sub = build_subdomain(problem, me, cells, layers, delta, Ke, Kg)
    dofs = sub.dofs

    # ---- step 3: neighbour discovery + shared-dof alignment ----------
    candidates = _partition_neighbor_candidates(mesh, part, me, delta)
    # ship my (sorted) global dof keys to every candidate; the keys are
    # the reduced ids, which both sides computed independently from the
    # replicated coarse data — no central structure involved
    for cand in candidates:
        comm.isend(dofs, cand, _TAG_KEYS)
    neighbors: list[int] = []
    shared: dict[int, np.ndarray] = {}
    for cand in candidates:
        common = np.intersect1d(dofs, comm.recv(cand, _TAG_KEYS))
        if common.size == 0:
            continue
        neighbors.append(cand)
        shared[cand] = np.searchsorted(dofs, common)
    neighbors.sort()
    sub.neighbors, sub.shared = neighbors, shared

    # ---- step 4: partition of unity via neighbour χ̃ exchange --------
    verts, vlayer = vertex_layers(mesh, sub.cells, sub.layers)
    chi_mine = 1.0 - vlayer.astype(np.float64) / delta
    total = chi_mine.copy()
    for nb in neighbors:
        comm.isend((verts, chi_mine), nb, _TAG_CHI)
    for nb in neighbors:
        vj, cj = comm.recv(nb, _TAG_CHI)
        # accumulate their χ̃ at my vertices
        pos = np.searchsorted(verts, vj)
        ok = (pos < verts.size)
        ok[ok] &= verts[pos[ok]] == vj[ok]
        np.add.at(total, pos[ok], cj[ok])
    sub.d = partition_of_unity(problem, sub, verts, chi_mine, total)
    return sub


def spmd_build_decomposition(comm: Comm, problem: Problem,
                             part: np.ndarray, delta: int) -> Subdomain:
    """Entry point used by the tests/benchmarks: returns this rank's
    locally-built subdomain, Jacobi-scaled from its own diagonal if the
    problem asks."""
    part = np.asarray(part, dtype=np.int64)
    if delta < 1:
        raise DecompositionError(f"delta must be >= 1, got {delta}")
    sub = build_local_subdomain(comm, problem, part, delta)
    if problem.scaling == "jacobi":
        apply_jacobi_scaling(sub, jacobi_scale(sub))
    return sub
