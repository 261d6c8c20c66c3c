"""Tests for overlap growth, partition of unity, dof maps, decomposition."""

import numpy as np
import pytest

from repro.common.errors import DecompositionError
from repro.dd import (
    Decomposition,
    Problem,
    chi_tilde,
    grow_overlap,
    map_scalar_dofs,
    vertex_layers,
)
from repro.fem import FunctionSpace, channels_and_inclusions
from repro.fem.forms import DiffusionForm, ElasticityForm
from repro.mesh import unit_cube, unit_square
from repro.partition import partition_mesh


class TestOverlapGrowth:
    def test_delta_zero_is_partition(self):
        m = unit_square(6)
        part = partition_mesh(m, 4, method="rcb")
        cells, layers = grow_overlap(m, part, 0, 0)
        assert np.array_equal(cells, np.flatnonzero(part == 0))
        assert np.all(layers == 0)

    def test_monotone_growth(self):
        m = unit_square(8)
        part = partition_mesh(m, 4, method="rcb")
        prev = set()
        for delta in range(4):
            cells, layers = grow_overlap(m, part, 1, delta)
            s = set(cells.tolist())
            assert prev.issubset(s)
            assert layers.max() <= delta
            prev = s

    def test_layers_on_structured_strip(self):
        """On a strip split in half, layer-1 cells touch the interface."""
        m = unit_square(8)
        part = (m.cell_centroids()[:, 0] > 0.5).astype(int)
        cells, layers = grow_overlap(m, part, 0, 1)
        new = cells[layers == 1]
        # every new cell shares a vertex with the left half
        left_vertices = set(m.cells[part == 0].ravel().tolist())
        for c in new:
            assert set(m.cells[c].tolist()) & left_vertices

    def test_whole_domain_limit(self):
        m = unit_square(4)
        part = partition_mesh(m, 2, method="rcb")
        cells, _ = grow_overlap(m, part, 0, 50)
        assert cells.size == m.num_cells

    def test_errors(self):
        m = unit_square(4)
        part = np.zeros(m.num_cells, dtype=int)
        with pytest.raises(DecompositionError):
            grow_overlap(m, part, 1, 1)        # empty subdomain
        with pytest.raises(DecompositionError):
            grow_overlap(m, part[:-1], 0, 1)   # bad shape
        with pytest.raises(DecompositionError):
            grow_overlap(m, part, 0, -1)

    def test_vertex_layers_minimum(self):
        m = unit_square(6)
        part = (m.cell_centroids()[:, 0] > 0.5).astype(int)
        cells, layers = grow_overlap(m, part, 0, 2)
        verts, vlayer = vertex_layers(m, cells, layers)
        # interface vertices belong to layer-0 cells => layer 0
        assert vlayer.min() == 0
        assert vlayer.max() <= 2


class TestPartitionOfUnity:
    def _chi(self, delta=2, n=8, nparts=4):
        m = unit_square(n)
        part = partition_mesh(m, nparts, method="rcb")
        overlaps = [grow_overlap(m, part, i, delta) for i in range(nparts)]
        return m, chi_tilde(m, overlaps, delta)

    def test_range(self):
        _, (per_sub, total) = self._chi()
        for verts, vals in per_sub:
            assert np.all(vals >= 0) and np.all(vals <= 1)
        assert np.all(total >= 1 - 1e-12)

    def test_sum_equals_total(self):
        m, (per_sub, total) = self._chi()
        acc = np.zeros(m.num_vertices)
        for verts, vals in per_sub:
            acc[verts] += vals
        assert np.allclose(acc, total)

    def test_interior_value_one(self):
        """Deep inside T_i^0 (away from all overlaps) χ̃_i = total = 1."""
        m, (per_sub, total) = self._chi(delta=1, n=12, nparts=2)
        verts, vals = per_sub[0]
        deep = vals == 1.0
        assert deep.any()
        assert np.all(total[verts[deep & (total[verts] == 1.0)]] == 1.0)

    def test_delta_zero_rejected(self):
        m = unit_square(4)
        part = partition_mesh(m, 2, method="rcb")
        overlaps = [grow_overlap(m, part, i, 0) for i in range(2)]
        with pytest.raises(DecompositionError):
            chi_tilde(m, overlaps, 0)


class TestDofMap:
    @pytest.mark.parametrize("gen,k", [(lambda: unit_square(4), 1),
                                       (lambda: unit_square(4), 2),
                                       (lambda: unit_square(3), 3),
                                       (lambda: unit_square(3), 4),
                                       (lambda: unit_cube(2), 2),
                                       (lambda: unit_cube(2), 3)])
    def test_coordinates_match(self, gen, k):
        m = gen()
        V = FunctionSpace(m, k)
        ids = np.arange(0, m.num_cells, 2)
        sub, vmap, cmap = m.extract_cells(ids)
        Vs = FunctionSpace(sub, k)
        gmap = map_scalar_dofs(Vs, V, vmap, cmap)
        assert np.allclose(Vs.scalar_dof_coordinates,
                           V.scalar_dof_coordinates[gmap], atol=1e-12)

    def test_injective(self):
        m = unit_square(4)
        V = FunctionSpace(m, 3)
        sub, vmap, cmap = m.extract_cells(np.arange(10))
        Vs = FunctionSpace(sub, 3)
        gmap = map_scalar_dofs(Vs, V, vmap, cmap)
        assert len(np.unique(gmap)) == gmap.size

    def test_degree_mismatch(self):
        m = unit_square(3)
        sub, vmap, cmap = m.extract_cells(np.arange(4))
        with pytest.raises(DecompositionError):
            map_scalar_dofs(FunctionSpace(sub, 1), FunctionSpace(m, 2),
                            vmap, cmap)


class TestDecomposition:
    def test_dirichlet_matrices_match_global(self, diffusion_decomposition):
        dec = diffusion_decomposition
        A = dec.problem.matrix()
        for s in dec.subdomains:
            ref = A[s.dofs][:, s.dofs]
            assert abs(s.A_dir - ref).max() <= 1e-12 * abs(ref).max()

    def test_partition_of_unity_identity(self, diffusion_decomposition):
        dec = diffusion_decomposition
        acc = np.zeros(dec.problem.num_free)
        for s in dec.subdomains:
            np.add.at(acc, s.dofs, s.d)
        assert np.abs(acc - 1).max() < 1e-12

    def test_matvec_equals_global(self, diffusion_decomposition, rng):
        dec = diffusion_decomposition
        A = dec.problem.matrix()
        x = rng.standard_normal(dec.problem.num_free)
        y = dec.matvec(x)
        assert np.linalg.norm(y - A @ x) <= 1e-10 * np.linalg.norm(A @ x)

    def test_matvec_local_consistency(self, diffusion_decomposition, rng):
        """Every subdomain's local result equals R_i(Ax)."""
        dec = diffusion_decomposition
        A = dec.problem.matrix()
        x = rng.standard_normal(dec.problem.num_free)
        Ax = A @ x
        ylist = dec.matvec_local(dec.restrict(x))
        scale = np.abs(Ax).max()
        for s, yi in zip(dec.subdomains, ylist):
            assert np.abs(yi - Ax[s.dofs]).max() < 1e-10 * max(scale, 1)

    def test_exchange_alignment_symmetric(self, diffusion_decomposition):
        dec = diffusion_decomposition
        for s in dec.subdomains:
            for j in s.neighbors:
                other = dec.subdomains[j]
                assert s.index in other.neighbors
                # aligned by global dof
                assert np.array_equal(s.dofs[s.shared[j]],
                                      other.dofs[other.shared[s.index]])

    def test_restrict_combine_roundtrip(self, diffusion_decomposition, rng):
        dec = diffusion_decomposition
        x = rng.standard_normal(dec.problem.num_free)
        assert np.allclose(dec.combine(dec.restrict(x)), x)

    def test_neumann_symmetric_psd(self, elasticity_decomposition):
        for s in elasticity_decomposition.subdomains:
            An = s.A_neu.toarray()
            assert np.allclose(An, An.T, atol=1e-8 * abs(An).max())
            w = np.linalg.eigvalsh(An)
            assert w.min() > -1e-8 * abs(w).max()

    def test_elasticity_dirichlet_matches(self, elasticity_decomposition):
        dec = elasticity_decomposition
        A = dec.problem.matrix()
        for s in dec.subdomains:
            ref = A[s.dofs][:, s.dofs]
            assert abs(s.A_dir - ref).max() <= 1e-11 * abs(ref).max()

    def test_3d_decomposition(self):
        m = unit_cube(3)
        kappa = channels_and_inclusions(m, seed=0)
        prob = Problem(m, DiffusionForm(degree=1, kappa=kappa))
        part = partition_mesh(m, 4, seed=0)
        dec = Decomposition(prob, part, delta=1)
        A = prob.matrix()
        x = np.random.default_rng(0).standard_normal(prob.num_free)
        assert np.allclose(dec.matvec(x), A @ x)

    def test_delta_validation(self, diffusion_problem):
        part = partition_mesh(diffusion_problem.mesh, 4)
        with pytest.raises(DecompositionError):
            Decomposition(diffusion_problem, part, delta=0)

    def test_part_shape_validation(self, diffusion_problem):
        with pytest.raises(DecompositionError):
            Decomposition(diffusion_problem, np.zeros(3, dtype=int), delta=1)

    def test_scaled_problem_matvec(self):
        m = unit_square(10)
        prob = Problem(m, DiffusionForm(degree=2, kappa=None),
                       scaling="jacobi")
        part = partition_mesh(m, 4, seed=0)
        dec = Decomposition(prob, part, delta=1)
        A = prob.matrix()
        assert np.allclose(A.diagonal(), 1.0)   # scaled to unit diagonal
        x = np.random.default_rng(1).standard_normal(prob.num_free)
        assert np.allclose(dec.matvec(x), A @ x)


class TestProblem:
    def test_rejects_pure_neumann(self):
        m = unit_square(4)
        with pytest.raises(DecompositionError):
            Problem(m, DiffusionForm(degree=1),
                    dirichlet=lambda x: np.zeros(len(x), dtype=bool))

    def test_extend_roundtrip(self, diffusion_problem):
        x = np.arange(diffusion_problem.num_free, dtype=float)
        full = diffusion_problem.extend(x)
        assert np.array_equal(full[diffusion_problem.free], x)
        assert np.all(full[diffusion_problem.dirichlet_dofs] == 0)

    def test_explicit_dof_dirichlet(self):
        m = unit_square(4)
        prob = Problem(m, DiffusionForm(degree=1), dirichlet=[0, 1, 2])
        assert np.array_equal(prob.dirichlet_dofs, [0, 1, 2])


@pytest.mark.parametrize("kind", ["diffusion", "convdiff"])
def test_setup_and_solve_never_form_global_matrix(kind, monkeypatch):
    """The whole pipeline — setup, load vector, solve — runs on local
    data: the global matrix (and the scale fallback it feeds) is never
    assembled."""
    from repro import SchwarzSolver
    from repro.fem.forms import ConvectionDiffusionForm, Form

    def forbidden(self, *args):
        raise AssertionError("global matrix assembled")

    monkeypatch.setattr(Problem, "matrix", forbidden)
    monkeypatch.setattr(Problem, "_free_matrix", forbidden)
    monkeypatch.setattr(Form, "assemble_matrix", forbidden)
    mesh = unit_square(10)
    kappa = channels_and_inclusions(mesh, seed=1)
    form = (DiffusionForm(degree=2, kappa=kappa) if kind == "diffusion"
            else ConvectionDiffusionForm(degree=2, kappa=0.05 * kappa,
                                         beta=np.array([20.0, 8.0])))
    solver = SchwarzSolver(mesh, form, num_subdomains=4, nev=4, seed=0)
    report = solver.solve(solver.problem.rhs(), tol=1e-8)
    assert report.converged
