"""Overlap growth: the recursive construction of T_i^δ (paper §2, fig. 2).

Starting from the non-overlapping cell partition {T_i}, layer m adds all
cells adjacent (sharing at least one vertex) to T_i^{m-1}.  The layer
index of every cell is retained — the partition of unity χ̃_i of the paper
is a function of that layer.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import DecompositionError
from ..mesh import SimplexMesh


def grow_overlap(mesh: SimplexMesh, part: np.ndarray, subdomain: int,
                 delta: int) -> tuple[np.ndarray, np.ndarray]:
    """Cells of T_i^δ and their layer indices.

    Returns ``(cells, layers)``: sorted parent cell ids of the overlapping
    subdomain and, aligned with them, the layer at which each cell entered
    (0 for T_i^0 cells, m for cells of T_i^m \\ T_i^{m-1}).
    """
    part = np.asarray(part)
    if part.shape != (mesh.num_cells,):
        raise DecompositionError(
            f"part must have shape ({mesh.num_cells},), got {part.shape}")
    if delta < 0:
        raise DecompositionError(f"delta must be >= 0, got {delta}")
    v2c = mesh.vertex_to_cells          # (nv, nc) incidence
    in_sub = part == subdomain
    if not np.any(in_sub):
        raise DecompositionError(f"subdomain {subdomain} is empty")
    layer = np.full(mesh.num_cells, -1, dtype=np.int64)
    layer[in_sub] = 0
    current = in_sub.copy()
    for m in range(1, delta + 1):
        # cells sharing a vertex with the current set
        verts = (v2c @ current.astype(np.int8)) > 0        # vertices touched
        touched = (v2c.T @ verts.astype(np.int8)) > 0      # cells touching
        new = touched & (layer < 0)
        if not np.any(new):
            break
        layer[new] = m
        current |= new
    cells = np.flatnonzero(layer >= 0)
    return cells, layer[cells]


def vertex_layers(mesh: SimplexMesh, cells: np.ndarray,
                  layers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node layer m(v) for every vertex of the overlapping subdomain.

    The paper defines χ̃_i on *nodes*: value 1 on nodes of T_i^0 and
    ``1 − m/δ`` on nodes of T_i^m \\ T_i^{m-1}; the node layer is the
    smallest layer of any subdomain cell containing the node.

    Returns ``(verts, vlayer)``: parent vertex ids (sorted) and their layer.
    """
    cell_vertices = mesh.cells[cells]                     # (ncs, dim+1)
    nloc = mesh.dim + 1
    flat_v = cell_vertices.ravel()
    flat_l = np.repeat(layers, nloc)
    order = np.argsort(flat_v, kind="stable")
    v_sorted = flat_v[order]
    l_sorted = flat_l[order]
    verts, start = np.unique(v_sorted, return_index=True)
    vlayer = np.minimum.reduceat(l_sorted, start)
    return verts, vlayer
