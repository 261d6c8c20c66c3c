"""The one subdomain builder against the submesh reference it replaced.

:func:`repro.dd.subdomain.build_subdomain` scatters every subdomain's
element matrices, taken on its cells of the *global* function space,
into A_dir, A_neu and A_geneo.  The reference below is
the older construction, kept as an independent oracle: extract the
submeshes of T_i^{δ+1} and T_i^δ, build a local function space on each,
assemble the form there with its per-cell fields restricted, inject the
local dofs into the global numbering entity by entity
(:func:`~repro.dd.dofmap.map_vector_dofs`) and trim.  The two must agree
on the index data exactly and on the matrices to round-off.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.dd import Decomposition, Problem
from repro.dd.dofmap import map_vector_dofs
from repro.dd.overlap import grow_overlap
from repro.dd.pou import chi_tilde
from repro.fem import channels_and_inclusions, layered_elasticity
from repro.fem.forms import (
    ConvectionDiffusionForm,
    DiffusionForm,
    ElasticityForm,
    HelmholtzForm,
)
from repro.mesh import rectangle, unit_cube, unit_square
from repro.partition import partition_mesh


def _restricted(form, cell_map, num_cells):
    """*form* with every per-cell field read on the submesh cells."""
    changes = {}
    for f in dataclasses.fields(form):
        v = getattr(form, f.name)
        if isinstance(v, np.ndarray) and v.ndim >= 1 and \
                v.shape[0] == num_cells:
            changes[f.name] = v[cell_map]
    return dataclasses.replace(form, **changes)


def _local_pou(space, chi_vertex, total_vertex):
    """D_i at the scalar dofs of a local space: χ̃_i / Σ_j χ̃_j
    interpolated at each Lagrange node."""
    mesh = space.mesh
    bary = space.ref.nodes_bary.astype(np.float64) / space.degree
    chi_at = np.einsum("ld,cd->cl", bary, chi_vertex[mesh.cells])
    tot_at = np.einsum("ld,cd->cl", bary, total_vertex[mesh.cells])
    vals = np.empty(space.num_scalar_dofs)
    vals[space.cell_scalar_dofs.ravel()] = (chi_at / tot_at).ravel()
    return vals


def reference_subdomain(problem, cells, layers, delta, chi, total):
    """``(dofs, A_dir, A_neu, A_geneo, d)`` of one subdomain by submesh
    extraction, local assembly, dof injection and trimming."""
    mesh, form, gspace = problem.mesh, problem.form, problem.space
    inner = layers <= delta

    def local(cell_ids):
        smesh, vmap, cmap = mesh.extract_cells(cell_ids)
        f = _restricted(form, cmap, mesh.num_cells)
        space = f.make_space(smesh)
        return f, space, vmap, map_vector_dofs(space, gspace, vmap, cmap)

    f1, space1, _, g_dp1 = local(cells)
    f0, space0, vmap0, g_d = local(cells[inner])
    inv = np.full(gspace.num_dofs, -1, dtype=np.int64)
    inv[g_dp1] = np.arange(g_dp1.size)
    reduced = problem.free_lookup[g_d]
    keep = np.flatnonzero(reduced >= 0)
    sel = inv[g_d][keep]
    A_dir = f1.assemble_matrix(space1)[sel][:, sel].tocsr()
    A_neu = f0.assemble_matrix(space0)[keep][:, keep].tocsr()
    G = f0.assemble_geneo_matrix(space0)
    A_geneo = None if G is None else G[keep][:, keep].tocsr()
    d = np.repeat(_local_pou(space0, chi, total[vmap0]), gspace.ncomp)
    return reduced[keep], A_dir, A_neu, A_geneo, d[keep]


def _reference_exchange(dofs_list):
    """Neighbours, aligned shared positions and overlap masks from the
    subdomains' dof sets alone."""
    out = []
    for i, di in enumerate(dofs_list):
        order = np.argsort(di, kind="stable")
        shared = {}
        for j, dj in enumerate(dofs_list):
            common = np.intersect1d(di, dj)
            if j != i and common.size:
                shared[j] = order[np.searchsorted(di[order], common)]
        mask = np.zeros(di.size, dtype=bool)
        for pos in shared.values():
            mask[pos] = True
        out.append((sorted(shared), shared, mask))
    return out


def _frob_rel(A, B):
    return spla.norm(A - B) / spla.norm(B)


def _diffusion(degree):
    def build():
        mesh = unit_square(8)
        kappa = channels_and_inclusions(mesh, seed=4)
        return Problem(mesh, DiffusionForm(degree=degree, kappa=kappa)), 4
    return build


def _diffusion3d(degree):
    def build():
        mesh = unit_cube(3)
        kappa = 1.0 + np.arange(mesh.num_cells) % 7
        return Problem(mesh, DiffusionForm(degree=degree,
                                           kappa=kappa.astype(float))), 3
    return build


def _elasticity(degree):
    def build():
        mesh = rectangle(8, 3, x1=3.0)
        lam, mu = layered_elasticity(mesh)
        form = ElasticityForm(degree=degree, lam=lam, mu=mu)
        return Problem(mesh, form, dirichlet=lambda x: x[:, 0] < 1e-9), 3
    return build


def _convdiff():
    mesh = unit_square(6)
    kappa = 0.02 * channels_and_inclusions(mesh, seed=3)
    beta = np.column_stack([np.full(mesh.num_cells, 60.0),
                            np.linspace(-20.0, 20.0, mesh.num_cells)])
    return Problem(mesh, ConvectionDiffusionForm(degree=4, kappa=kappa,
                                                 beta=beta)), 4


def _helmholtz():
    mesh = unit_square(8)
    k = 6.0 + np.arange(mesh.num_cells) % 5
    form = HelmholtzForm(degree=2, kappa=channels_and_inclusions(mesh, seed=2),
                         k=k.astype(float), epsilon=0.2)
    return Problem(mesh, form), 4


CASES = {
    **{f"diffusion2d-P{k}": _diffusion(k) for k in (1, 2, 3, 4)},
    **{f"diffusion3d-P{k}": _diffusion3d(k) for k in (2, 3)},
    **{f"elasticity-P{k}": _elasticity(k) for k in (2, 3)},
    "convdiff-supg-P4": _convdiff,
    "helmholtz-P2": _helmholtz,
}


@pytest.mark.parametrize("delta", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_builder_matches_submesh_reference(case, delta):
    problem, N = CASES[case]()
    part = partition_mesh(problem.mesh, N, seed=0)
    dec = Decomposition(problem, part, delta=delta)

    grown = [grow_overlap(problem.mesh, part, i, delta + 1)
             for i in range(N)]
    chi, total = chi_tilde(problem.mesh,
                           [(c[l <= delta], l[l <= delta]) for c, l in grown],
                           delta)
    refs = [reference_subdomain(problem, c, l, delta, chi[i][1], total)
            for i, (c, l) in enumerate(grown)]
    exchange = _reference_exchange([r[0] for r in refs])

    for sub, ref, (neighbors, shared, mask) in zip(dec.subdomains, refs,
                                                   exchange):
        dofs, A_dir, A_neu, A_geneo, d = ref
        assert np.array_equal(sub.dofs, dofs)
        assert sub.neighbors == neighbors
        assert sorted(sub.shared) == sorted(shared)
        for j in neighbors:
            assert np.array_equal(sub.shared[j], shared[j])
        assert np.array_equal(sub.overlap_mask, mask)
        assert np.abs(sub.d - d).max() <= 1e-15
        assert _frob_rel(sub.A_dir, A_dir) <= 1e-14
        assert _frob_rel(sub.A_neu, A_neu) <= 1e-14
        assert (sub.A_geneo is None) == (A_geneo is None)
        if A_geneo is not None:
            assert _frob_rel(sub.A_geneo, A_geneo) <= 1e-14


@pytest.mark.parametrize("case", ["diffusion2d-P3", "diffusion3d-P2"])
def test_assemble_on_matches_unique(case):
    """``_assemble_on`` numbers a subdomain's dofs by a mask over their
    span; the ids and the matrix are bitwise those of ``np.unique`` and
    ``np.searchsorted``."""
    from repro.dd.subdomain import _assemble_on
    from repro.fem.assembly import scatter_matrix
    problem, N = CASES[case]()
    part = partition_mesh(problem.mesh, N, seed=0)
    cells, _ = grow_overlap(problem.mesh, part, 1, 2)
    cell_dofs = problem.space.cell_dofs[cells]
    Ke = problem.form.element_matrices(problem.space)[cells]
    A, dofs = _assemble_on(Ke, cell_dofs)
    ref_dofs = np.unique(cell_dofs)
    ref = scatter_matrix(Ke, np.searchsorted(ref_dofs, cell_dofs),
                         ref_dofs.size)
    assert dofs.dtype == ref_dofs.dtype
    assert np.array_equal(dofs, ref_dofs)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, attr), getattr(ref, attr))
