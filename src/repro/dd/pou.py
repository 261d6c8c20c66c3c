"""The paper's partition of unity (§2).

χ̃_i is the continuous piecewise-linear function on Ω_i^δ with node values

* 1 on all nodes of T_i^0,
* 1 − m/δ on all nodes of T_i^m \\ T_i^{m-1}, m ∈ [1; δ],

and the partition of unity is χ_i = χ̃_i / Σ_j χ̃_j.  The diagonal matrix
D_i is obtained by *linear interpolation* of χ_i at the dof nodes of the
(typically higher-order) space V_i^δ — exactly the construction of the
paper (also used in Kimn & Sarkis);
:func:`repro.dd.subdomain.partition_of_unity` evaluates it.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import DecompositionError
from ..mesh import SimplexMesh
from .overlap import vertex_layers


def chi_tilde(mesh: SimplexMesh, overlaps: list[tuple[np.ndarray, np.ndarray]],
              delta: int) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Node values of χ̃_i for every subdomain, plus the global sum.

    Parameters
    ----------
    overlaps:
        Per subdomain ``(cells, layers)`` from :func:`~repro.dd.overlap.
        grow_overlap` with the *same* δ.

    Returns
    -------
    ``(per_sub, total)`` where ``per_sub[i] = (verts, values)`` gives
    χ̃_i at the parent vertex ids *verts*, and ``total[v] = Σ_j χ̃_j(v)``
    over all parent vertices (≥ 1 everywhere by construction).
    """
    if delta < 1:
        raise DecompositionError(
            f"the partition of unity requires overlap delta >= 1, got {delta}")
    total = np.zeros(mesh.num_vertices)
    per_sub = []
    for cells, layers in overlaps:
        verts, vlayer = vertex_layers(mesh, cells, layers)
        values = 1.0 - vlayer.astype(np.float64) / delta
        per_sub.append((verts, values))
        total[verts] += values
    if np.any(total[np.unique(mesh.cells)] <= 0):  # pragma: no cover
        raise DecompositionError(
            "partition-of-unity sum vanished at a mesh vertex; the cell "
            "partition does not cover the mesh")
    return per_sub, total
