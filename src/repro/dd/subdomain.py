"""One subdomain's local data, built by one function for both setups.

The paper's approach 2 (§2): the Dirichlet matrix ``R_i A R_iᵀ`` is the
discretisation of a on V_i^{δ+1} with the extra layer's rows and columns
removed, the Neumann matrix ``A_i^δ`` the discretisation on V_i^δ.
T_i^δ is the layer-≤ δ part of T_i^{δ+1}, so both scatter *one* array of
element matrices on those cells of the global function space: no
submesh, no local space, no dof map, no global matrix.  The caller
supplies that array — an SPMD rank
(:func:`repro.core.spmd_setup.build_local_subdomain`) computes it on
its own cells, :class:`~repro.dd.decomposition.Decomposition` slices
it from one pass over every cell of the mesh; a cell's element matrix
is the same either way.  Both setups call :func:`build_subdomain`,
:func:`partition_of_unity` and :func:`apply_jacobi_scaling`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..fem.assembly import scatter_matrix
from .problem import Problem


@dataclass
class Subdomain:
    """All local data of one subdomain (one simulated MPI rank)."""

    index: int
    #: global cell ids of T_i^δ and the layer at which each entered
    cells: np.ndarray
    layers: np.ndarray
    #: R_i — reduced-global dof id of each kept local dof (length n_i),
    #: ascending
    dofs: np.ndarray
    #: assembled (Dirichlet) matrix R_i A R_iᵀ
    A_dir: sp.csr_matrix
    #: unassembled (Neumann) matrix from discretising a on V_i^δ
    A_neu: sp.csr_matrix
    #: partition-of-unity diagonal D_i (set by :func:`partition_of_unity`)
    d: np.ndarray | None = None
    neighbors: list[int] = field(default_factory=list)
    #: for each neighbour j, positions (into my local vector) of the dofs
    #: shared with j, ordered by ascending global dof id — the two sides'
    #: arrays align, giving the action of R_i R_jᵀ
    shared: dict[int, np.ndarray] = field(default_factory=dict)
    #: boolean mask of local dofs lying in the overlap ∪_j (V_i^δ ∩ V_j^δ)
    #: — the R_{i,0} of the GenEO eigenproblem (eq. 9)
    overlap_mask: np.ndarray | None = None
    #: SPD surrogate of A_neu for the extended-GenEO pencil (the form's
    #: ``geneo_element_matrices``); ``None`` for forms whose A_neu is
    #: already symmetric positive semi-definite
    A_geneo: sp.csr_matrix | None = None

    @property
    def size(self) -> int:
        return int(self.dofs.size)


def _assemble_on(Ke: np.ndarray, cell_dofs: np.ndarray
                 ) -> tuple[sp.csr_matrix, np.ndarray]:
    """Scatter *Ke* over the dofs its cells touch, numbered in ascending
    global order; returns the matrix and those global dof ids."""
    dofs = np.unique(cell_dofs)
    return scatter_matrix(Ke, np.searchsorted(dofs, cell_dofs),
                          dofs.size), dofs


def assemble_free(problem: Problem, Ke: np.ndarray, cell_dofs: np.ndarray
                  ) -> tuple[sp.csr_matrix, np.ndarray]:
    """The matrix of element matrices *Ke* on the free dofs their cells
    touch, and the reduced ids of those dofs (ascending)."""
    A, dofs = _assemble_on(Ke, cell_dofs)
    reduced = problem.free_lookup[dofs]
    keep = np.flatnonzero(reduced >= 0)
    return A[keep][:, keep], reduced[keep]


def build_subdomain(problem: Problem, index: int, cells: np.ndarray,
                    layers: np.ndarray, delta: int, Ke: np.ndarray,
                    Kg: np.ndarray | None) -> Subdomain:
    """Subdomain *index* from ``T_i^{δ+1}`` given as its global *cells*,
    the overlap *layer* of each, and the element matrices *Ke* of the
    operator and *Kg* of the form's GenEO surrogate (``None`` if it has
    none) on those cells, as returned by
    :meth:`~repro.fem.forms.Form.element_matrices_with_geneo`.  ``d`` is
    left to :func:`partition_of_unity`, the exchange maps to the
    caller."""
    inner = layers <= delta
    cell_dofs = problem.space.cell_dofs[cells]
    A_neu, dofs = assemble_free(problem, Ke[inner], cell_dofs[inner])
    # approach 2: assemble on V_i^{δ+1}, trim to the free dofs of V_i^δ
    A_dp1, dofs_dp1 = _assemble_on(Ke, cell_dofs)
    sel = np.searchsorted(dofs_dp1, problem.free[dofs])
    A_geneo = (None if Kg is None
               else assemble_free(problem, Kg[inner], cell_dofs[inner])[0])
    return Subdomain(index=index, cells=cells[inner], layers=layers[inner],
                     dofs=dofs, A_dir=A_dp1[sel][:, sel], A_neu=A_neu,
                     A_geneo=A_geneo)


def partition_of_unity(problem: Problem, sub: Subdomain, verts: np.ndarray,
                       chi: np.ndarray, total: np.ndarray) -> np.ndarray:
    """D_i on ``sub.dofs``: χ̃_i / Σ_j χ̃_j, both given at the sorted
    global vertex ids *verts* of T_i^δ, interpolated at every Lagrange
    node by barycentric weights within any containing cell (continuity
    makes the choice irrelevant)."""
    space = problem.space
    bary = space.ref.nodes_bary.astype(np.float64) / space.degree
    local = np.searchsorted(verts, space.mesh.cells[sub.cells])
    ratio = (np.einsum("ld,cd->cl", bary, chi[local]) /
             np.einsum("ld,cd->cl", bary, total[local]))
    nodes, inverse = np.unique(space.cell_scalar_dofs[sub.cells],
                               return_inverse=True)
    values = np.empty(nodes.size)
    values[inverse.ravel()] = ratio.ravel()
    # every vector component of a node carries the node's weight
    node = problem.free[sub.dofs] // space.ncomp
    return values[np.searchsorted(nodes, node)]


def jacobi_scale(sub: Subdomain) -> np.ndarray:
    """|diag(A)|^{-1/2} on the subdomain's dofs, from its Dirichlet
    matrix (indefinite operators carry negative diagonal entries)."""
    return 1.0 / np.sqrt(np.abs(sub.A_dir.diagonal()))


def _scale_csr(A: sp.csr_matrix, scale: np.ndarray) -> None:
    """``A ← S A S`` in place, in O(nnz).

    Bitwise scipy's ``S @ A @ S``: the same products in the same order,
    ``(s_r · a) · s_c``, and the entries that come out exactly zero
    dropped as its sparse products drop them."""
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    A.data = (scale[rows] * A.data) * scale[A.indices]
    A.eliminate_zeros()


def apply_jacobi_scaling(sub: Subdomain, scale: np.ndarray) -> None:
    """``S A S`` with ``S = diag(scale)`` for every local matrix."""
    for A in (sub.A_dir, sub.A_neu, sub.A_geneo):
        if A is not None:
            _scale_csr(A, scale)
