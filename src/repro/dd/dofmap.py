"""Entity-based dof mapping between a submesh space and its parent space.

The injection of a submesh space's dofs into the parent numbering,
computed entity by entity: vertex dofs through the submesh
``vertex_map``, edge dofs through matching sorted global vertex pairs
(the ascending-id orientation survives because ``vertex_map`` is
monotonic), face dofs (3D) through sorted vertex triples and
cell-interior dofs through ``cell_map``.  Subdomain matrices do not
need it (:mod:`repro.dd.subdomain` scatters element matrices of the
global space); it is the independent reference they are checked
against.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import DecompositionError
from ..fem.space import FunctionSpace


def _match_sorted_tuples(sub_rows: np.ndarray, parent_rows: np.ndarray,
                         nv: int, what: str) -> np.ndarray:
    """Index of each row of *sub_rows* within *parent_rows*.

    Rows are sorted small tuples (pairs or triples) of vertex ids < nv;
    they are flattened to scalar keys for a searchsorted lookup.
    """
    width = parent_rows.shape[1]
    if nv ** width >= 2 ** 62:  # pragma: no cover - astronomically large mesh
        raise DecompositionError(
            f"vertex count {nv} too large for {what} key packing")

    def pack(rows):
        key = rows[:, 0].astype(np.int64)
        for c in range(1, width):
            key = key * nv + rows[:, c]
        return key

    pkey = pack(parent_rows)
    order = np.argsort(pkey)
    pkey_sorted = pkey[order]
    skey = pack(sub_rows)
    pos = np.searchsorted(pkey_sorted, skey)
    if pos.max(initial=-1) >= pkey_sorted.shape[0] or \
            not np.array_equal(pkey_sorted[pos], skey):
        raise DecompositionError(
            f"submesh {what} not found in parent mesh (non-conforming "
            "submesh?)")
    return order[pos]


def map_scalar_dofs(sub_space: FunctionSpace, parent_space: FunctionSpace,
                    vertex_map: np.ndarray, cell_map: np.ndarray) -> np.ndarray:
    """Parent scalar-dof id for every scalar dof of *sub_space*.

    *vertex_map*/*cell_map* come from
    :meth:`repro.mesh.SimplexMesh.extract_cells`.
    """
    if sub_space.degree != parent_space.degree:
        raise DecompositionError("degree mismatch between sub and parent space")
    if sub_space.mesh.dim != parent_space.mesh.dim:
        raise DecompositionError("dimension mismatch between sub and parent space")
    k = sub_space.degree
    sub_mesh = sub_space.mesh
    parent_mesh = parent_space.mesh
    nv_parent = parent_mesh.num_vertices
    out = np.empty(sub_space.num_scalar_dofs, dtype=np.int64)

    # vertices
    out[:sub_space.n_vertex_dofs] = vertex_map

    # edges
    if k > 1:
        sub_edges_parent = np.sort(vertex_map[sub_mesh.edges], axis=1)
        edge_ids = _match_sorted_tuples(sub_edges_parent, parent_mesh.edges,
                                        nv_parent, "edge")
        dpe = sub_space.dofs_per_edge
        base_sub = sub_space._edge_offset
        base_par = parent_space._edge_offset
        sub_idx = (base_sub + np.arange(sub_mesh.edges.shape[0])[:, None] * dpe
                   + np.arange(dpe)[None, :])
        par_idx = base_par + edge_ids[:, None] * dpe + np.arange(dpe)[None, :]
        out[sub_idx.ravel()] = par_idx.ravel()

    # faces (3D, k >= 3)
    if sub_space.dofs_per_face:
        sub_faces_parent = np.sort(vertex_map[sub_mesh.facets], axis=1)
        face_ids = _match_sorted_tuples(sub_faces_parent, parent_mesh.facets,
                                        nv_parent, "face")
        dpf = sub_space.dofs_per_face
        sub_idx = (sub_space._face_offset +
                   np.arange(sub_mesh.facets.shape[0])[:, None] * dpf +
                   np.arange(dpf)[None, :])
        par_idx = (parent_space._face_offset + face_ids[:, None] * dpf +
                   np.arange(dpf)[None, :])
        out[sub_idx.ravel()] = par_idx.ravel()

    # cell interiors
    dpc = sub_space.dofs_per_cell_interior
    if dpc:
        sub_idx = (sub_space._cell_offset +
                   np.arange(sub_mesh.num_cells)[:, None] * dpc +
                   np.arange(dpc)[None, :])
        par_idx = (parent_space._cell_offset +
                   np.asarray(cell_map)[:, None] * dpc +
                   np.arange(dpc)[None, :])
        out[sub_idx.ravel()] = par_idx.ravel()
    return out


def map_vector_dofs(sub_space: FunctionSpace, parent_space: FunctionSpace,
                    vertex_map: np.ndarray, cell_map: np.ndarray) -> np.ndarray:
    """Vector-dof version of :func:`map_scalar_dofs` (interleaved layout)."""
    if sub_space.ncomp != parent_space.ncomp:
        raise DecompositionError("ncomp mismatch between sub and parent space")
    scal = map_scalar_dofs(sub_space, parent_space, vertex_map, cell_map)
    ncmp = sub_space.ncomp
    if ncmp == 1:
        return scal
    return (scal[:, None] * ncmp + np.arange(ncmp)[None, :]).reshape(-1)
