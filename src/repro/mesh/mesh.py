"""Simplicial meshes in 2D (triangles) and 3D (tetrahedra).

The paper's geometries come from Gmsh + FreeFem++.  Here meshes are plain
numpy arrays: ``vertices`` of shape ``(nv, dim)`` and ``cells`` of shape
``(nc, dim + 1)``, which is all that the algebraic domain-decomposition
machinery needs.  Everything derived (facets, dual graph, boundary) is
computed lazily and cached.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from ..common.errors import MeshError


class SimplexMesh:
    """An unstructured conforming simplicial mesh.

    Parameters
    ----------
    vertices:
        ``(nv, dim)`` float array of vertex coordinates, ``dim`` in {2, 3}.
    cells:
        ``(nc, dim + 1)`` int array of vertex indices per cell.
    validate:
        When true (default), checks index bounds and positive volumes.
    """

    def __init__(self, vertices, cells, *, validate: bool = True):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] not in (2, 3):
            raise MeshError(
                f"vertices must be (nv, 2) or (nv, 3), got {self.vertices.shape}")
        self.dim = int(self.vertices.shape[1])
        if self.cells.ndim != 2 or self.cells.shape[1] != self.dim + 1:
            raise MeshError(
                f"cells must be (nc, {self.dim + 1}) for dim={self.dim}, "
                f"got {self.cells.shape}")
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return int(self.vertices.shape[0])

    @property
    def num_cells(self) -> int:
        return int(self.cells.shape[0])

    def _validate(self) -> None:
        if self.num_cells == 0:
            raise MeshError("mesh has no cells")
        if self.cells.min() < 0 or self.cells.max() >= self.num_vertices:
            raise MeshError("cell vertex index out of range")
        vols = self.cell_volumes()
        if np.any(vols <= 0):
            bad = int(np.argmin(vols))
            raise MeshError(
                f"cell {bad} has non-positive volume {vols[bad]:.3e}; "
                "cells must be positively oriented")

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def cell_volumes(self) -> np.ndarray:
        """Signed volumes (areas in 2D) of all cells, vectorised."""
        v = self.vertices[self.cells]          # (nc, dim+1, dim)
        edges = v[:, 1:, :] - v[:, :1, :]      # (nc, dim, dim)
        det = np.linalg.det(edges)
        factor = 2.0 if self.dim == 2 else 6.0
        return det / factor

    def cell_centroids(self) -> np.ndarray:
        """Barycenters of all cells, shape ``(nc, dim)``."""
        return self.vertices[self.cells].mean(axis=1)

    def total_volume(self) -> float:
        return float(self.cell_volumes().sum())

    def cell_diameters(self) -> np.ndarray:
        """Longest edge length per cell (mesh size h); cached, read-only."""
        return self._cell_diameters

    @cached_property
    def _cell_diameters(self) -> np.ndarray:
        v = self.vertices[self.cells]  # (nc, dim+1, dim)
        npts = self.dim + 1
        best = np.zeros(self.num_cells)
        for a in range(npts):
            for b in range(a + 1, npts):
                d = np.linalg.norm(v[:, a, :] - v[:, b, :], axis=1)
                np.maximum(best, d, out=best)
        best.flags.writeable = False
        return best

    def h_max(self) -> float:
        return float(self.cell_diameters().max())

    # ------------------------------------------------------------------
    # Topology (cached)
    # ------------------------------------------------------------------
    @cached_property
    def _facet_data(self):
        """Sorted facet -> (facet array, cell-of-facet, count-per-facet).

        A facet is a (dim)-subset of a cell's vertices: an edge in 2D, a
        triangle in 3D.  Interior facets are shared by exactly two cells,
        boundary facets by one.
        """
        d = self.dim
        nloc = d + 1
        # local facet i = all vertices except vertex i
        locals_ = [tuple(j for j in range(nloc) if j != i) for i in range(nloc)]
        all_facets = np.concatenate(
            [self.cells[:, idx] for idx in locals_], axis=0)      # (nc*nloc, d)
        all_facets = np.sort(all_facets, axis=1)
        owner = np.tile(np.arange(self.num_cells), nloc)
        uniq, inverse, counts = np.unique(
            all_facets, axis=0, return_inverse=True, return_counts=True)
        return uniq, inverse, counts, owner

    @cached_property
    def facets(self) -> np.ndarray:
        """Unique facets as sorted vertex tuples, shape ``(nf, dim)``."""
        return self._facet_data[0]

    @cached_property
    def cell_facets(self) -> np.ndarray:
        """Facet ids per cell, shape ``(nc, dim + 1)``; column ``i`` is the
        facet opposite local vertex ``i``."""
        _, inverse, _, _ = self._facet_data
        return inverse.reshape(self.dim + 1, self.num_cells).T.copy()

    @cached_property
    def boundary_facet_ids(self) -> np.ndarray:
        """Indices (into :attr:`facets`) of boundary facets."""
        _, _, counts, _ = self._facet_data
        return np.flatnonzero(counts == 1)

    @cached_property
    def boundary_facets(self) -> np.ndarray:
        """Facets belonging to exactly one cell."""
        uniq, _, counts, _ = self._facet_data
        return uniq[counts == 1]

    @cached_property
    def boundary_vertices(self) -> np.ndarray:
        """Sorted indices of vertices lying on the domain boundary."""
        bf = self.boundary_facets
        return np.unique(bf.ravel())

    @cached_property
    def dual_graph(self) -> sp.csr_matrix:
        """Cell-adjacency graph: symmetric boolean CSR, (i, j) nonzero iff
        cells i and j share a facet.  This is the graph handed to the
        partitioner (as with METIS in the paper)."""
        uniq, inverse, counts, owner = self._facet_data
        order = np.argsort(inverse, kind="stable")
        inv_sorted = inverse[order]
        own_sorted = owner[order]
        # positions where a facet id is shared by two consecutive entries
        shared = np.flatnonzero(
            (inv_sorted[:-1] == inv_sorted[1:]))
        rows = own_sorted[shared]
        cols = own_sorted[shared + 1]
        n = self.num_cells
        data = np.ones(len(rows), dtype=np.int8)
        g = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
        g = (g + g.T).tocsr()
        g.data[:] = 1
        return g

    @cached_property
    def vertex_to_cells(self) -> sp.csr_matrix:
        """Incidence (nv x nc): (v, c) nonzero iff vertex v belongs to cell c."""
        nloc = self.dim + 1
        rows = self.cells.ravel()
        cols = np.repeat(np.arange(self.num_cells), nloc)
        data = np.ones(rows.shape[0], dtype=np.int8)
        m = sp.coo_matrix((data, (rows, cols)),
                          shape=(self.num_vertices, self.num_cells))
        m = m.tocsr()
        m.data[:] = 1
        return m

    @cached_property
    def vertex_adjacency(self) -> sp.csr_matrix:
        """Vertex-connectivity graph via shared cells (includes diagonal)."""
        v2c = self.vertex_to_cells
        g = (v2c @ v2c.T).tocsr()
        g.data[:] = 1
        return g

    # ------------------------------------------------------------------
    # Edges (needed for Pk dof layout and red refinement)
    # ------------------------------------------------------------------
    @cached_property
    def edges(self) -> np.ndarray:
        """Unique mesh edges as sorted vertex pairs, shape ``(ne, 2)``."""
        nloc = self.dim + 1
        pairs = []
        for a in range(nloc):
            for b in range(a + 1, nloc):
                pairs.append(self.cells[:, [a, b]])
        all_edges = np.sort(np.concatenate(pairs, axis=0), axis=1)
        return np.unique(all_edges, axis=0)

    @cached_property
    def cell_edges(self) -> np.ndarray:
        """Edge indices per cell: ``(nc, n_edges_per_cell)``, local edge
        ordering = lexicographic over local vertex pairs (01, 02, 03, 12...)."""
        nloc = self.dim + 1
        pairs = [(a, b) for a in range(nloc) for b in range(a + 1, nloc)]
        edges = self.edges
        # map sorted pair -> edge id using a structured lookup
        key = edges[:, 0].astype(np.int64) * self.num_vertices + edges[:, 1]
        order = np.argsort(key)
        key_sorted = key[order]
        out = np.empty((self.num_cells, len(pairs)), dtype=np.int64)
        for k, (a, b) in enumerate(pairs):
            pa = np.minimum(self.cells[:, a], self.cells[:, b])
            pb = np.maximum(self.cells[:, a], self.cells[:, b])
            q = pa * self.num_vertices + pb
            pos = np.searchsorted(key_sorted, q)
            out[:, k] = order[pos]
        return out

    # ------------------------------------------------------------------
    # Submeshes
    # ------------------------------------------------------------------
    def extract_cells(self, cell_ids) -> tuple["SimplexMesh", np.ndarray, np.ndarray]:
        """Extract the submesh formed by *cell_ids*.

        Returns ``(submesh, vertex_map, cell_map)`` where ``vertex_map[i]``
        is the parent-mesh index of local vertex ``i`` and ``cell_map`` the
        parent cell ids in submesh order.
        """
        cell_ids = np.asarray(cell_ids, dtype=np.int64)
        if cell_ids.ndim != 1:
            raise MeshError("cell_ids must be 1-D")
        sub_cells_parent = self.cells[cell_ids]
        vertex_map = np.unique(sub_cells_parent.ravel())
        renum = np.full(self.num_vertices, -1, dtype=np.int64)
        renum[vertex_map] = np.arange(vertex_map.shape[0])
        sub_cells = renum[sub_cells_parent]
        sub = SimplexMesh(self.vertices[vertex_map], sub_cells, validate=False)
        return sub, vertex_map, cell_ids.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SimplexMesh(dim={self.dim}, vertices={self.num_vertices}, "
                f"cells={self.num_cells})")
