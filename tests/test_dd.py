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
from repro.dd.subdomain import Subdomain, apply_jacobi_scaling
from repro.fem import (
    FunctionSpace,
    channels_and_inclusions,
    layered_elasticity,
)
from repro.fem.forms import (
    ConvectionDiffusionForm,
    DiffusionForm,
    ElasticityForm,
    HelmholtzForm,
)
from repro.mesh import rectangle, unit_cube, unit_square
from repro.partition import partition_mesh


def matvec_local(dec, x_list):
    """(Ax)_i from purely local data — eq. (5),
    (Ax)_i = Σ_j R_i R_jᵀ A_j D_j x_j, for consistent x_i = R_i x: the
    per-rank semantics of the distributed matvec."""
    t = [s.A_dir @ (s.d * xi) for s, xi in zip(dec.subdomains, x_list)]
    return dec.exchange_sum(t)


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
        ylist = matvec_local(dec, dec.restrict(x))
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

    def test_every_build_step_is_a_span(self, diffusion_problem):
        from repro.obs import Recorder
        rec = Recorder()
        part = partition_mesh(diffusion_problem.mesh, 4, seed=0)
        Decomposition(diffusion_problem, part, delta=1, recorder=rec)
        for name in ("build_subdomains", "element_matrices",
                     "apply_scaling", "build_exchange", "detect_symmetry"):
            assert len(rec.find(name)) == 1, name
        assert rec.nested_within("element_matrices", "build_subdomains")

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


def reference_exchange(subs, num_free):
    """The per-dof double loop over owner pairs that the vectorised
    ``Decomposition._build_exchange`` replaced: ``(shared, neighbors,
    overlap_mask)`` per subdomain, and the multiplicity of every dof."""
    from collections import defaultdict
    dofs_all = np.concatenate([s.dofs for s in subs])
    owner = np.concatenate([np.full(s.size, s.index, dtype=np.int64)
                            for s in subs])
    pos = np.concatenate([np.arange(s.size, dtype=np.int64) for s in subs])
    order = np.argsort(dofs_all, kind="stable")
    dsort, osort, psort = dofs_all[order], owner[order], pos[order]
    starts = np.flatnonzero(np.r_[True, dsort[1:] != dsort[:-1]])
    ends = np.r_[starts[1:], dsort.size]
    pair_pos = defaultdict(list)
    multiplicity = np.zeros(num_free, dtype=np.int64)
    for s0, s1 in zip(starts, ends):
        multiplicity[dsort[s0]] = s1 - s0
        for a in range(s0, s1):
            for b in range(s0, s1):
                if osort[a] != osort[b]:
                    pair_pos[(osort[a], osort[b])].append(psort[a])
    shared = [{} for _ in subs]
    for (i, j), plist in pair_pos.items():
        shared[i][j] = np.asarray(plist, dtype=np.int64)
    out = []
    for s, sh in zip(subs, shared):
        mask = np.zeros(s.size, dtype=bool)
        for p in sh.values():
            mask[p] = True
        out.append((sh, sorted(sh), mask))
    return out, multiplicity


def _exchange_square(delta, method="multilevel"):
    mesh = unit_square(10)
    problem = Problem(mesh, DiffusionForm(degree=2))
    return problem, partition_mesh(mesh, 6, method=method, seed=1), delta


def _exchange_cube():
    mesh = unit_cube(4)
    problem = Problem(mesh, DiffusionForm(degree=1))
    return problem, partition_mesh(mesh, 32, seed=0), 1


def _exchange_elasticity():
    mesh = rectangle(10, 4, x1=3.0)
    lam, mu = layered_elasticity(mesh)
    problem = Problem(mesh, ElasticityForm(degree=2, lam=lam, mu=mu),
                      dirichlet=lambda x: x[:, 0] < 1e-9)
    return problem, partition_mesh(mesh, 5, method="rcb", seed=0), 1


EXCHANGE_CASES = {
    **{f"square-delta{d}": (lambda d=d: _exchange_square(d))
       for d in (1, 2, 3)},
    "square-rcb": lambda: _exchange_square(2, "rcb"),
    "cube-32parts": _exchange_cube,
    "elasticity-rcb": _exchange_elasticity,
}


@pytest.mark.parametrize("case", sorted(EXCHANGE_CASES))
def test_exchange_matches_double_loop(case):
    problem, part, delta = EXCHANGE_CASES[case]()
    dec = Decomposition(problem, part, delta=delta)
    ref, multiplicity = reference_exchange(dec.subdomains, problem.num_free)
    assert np.array_equal(dec.multiplicity, multiplicity)
    if case == "cube-32parts":
        assert multiplicity.max() >= 4
    for s, (shared, neighbors, mask) in zip(dec.subdomains, ref):
        assert s.neighbors == neighbors
        assert sorted(s.shared) == neighbors
        for j in neighbors:
            assert np.array_equal(s.shared[j], shared[j])
        assert np.array_equal(s.overlap_mask, mask)


def _same_csr(A, B):
    return (np.array_equal(A.indptr, B.indptr)
            and np.array_equal(A.indices, B.indices)
            and np.array_equal(A.data, B.data))


def test_inplace_scaling_is_scipy_product():
    """``apply_jacobi_scaling`` scales in O(nnz) and reproduces
    ``S @ A @ S`` array for array — including the entries it drops: a
    stored entry whose duplicates cancelled exactly, and one that
    underflows to zero once scaled."""
    import scipy.sparse as sp
    rng = np.random.default_rng(3)
    n = 40
    # random strictly upper part and a diagonal; the two special
    # entries sit in the otherwise empty lower triangle
    R = sp.triu(sp.random(n, n, density=0.2, random_state=4), 1).tocoo()
    rows = np.r_[R.row, np.arange(n), 9, 9, 7]
    cols = np.r_[R.col, np.arange(n), 5, 5, 2]
    vals = np.r_[R.data - 0.5, 4.0 + rng.random(n), 0.3, -0.3, 1e-300]
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    assert A[9, 5] == 0.0 and 0.0 in A.data    # a stored, cancelled zero
    scale = 0.5 + rng.random(n)
    scale[7] = scale[2] = 1e-100               # only A[7, 2] underflows

    problem = Problem(unit_square(8), ConvectionDiffusionForm(
        degree=2, kappa=0.05, beta=np.array([30.0, 10.0])))
    dec = Decomposition(problem, partition_mesh(problem.mesh, 3, seed=0))
    mats = [A] + [getattr(s, m) for s in dec.subdomains
                  for m in ("A_dir", "A_neu", "A_geneo")]
    scales = [scale] + [1.0 / np.sqrt(np.abs(s.A_dir.diagonal()))
                        for s in dec.subdomains for _ in range(3)]
    for M, sc in zip(mats, scales):
        S = sp.diags(sc)
        expected = (S @ M @ S).tocsr()
        sub = Subdomain(index=0, cells=None, layers=None, dofs=None,
                        A_dir=M.copy(), A_neu=M.copy())
        apply_jacobi_scaling(sub, sc)
        assert _same_csr(sub.A_dir, expected)
        assert _same_csr(sub.A_neu, expected)
    assert expected.nnz == M.nnz    # real subdomain matrices lose nothing
    scaled = Subdomain(index=0, cells=None, layers=None, dofs=None,
                       A_dir=A.copy(), A_neu=A.copy())
    apply_jacobi_scaling(scaled, scale)
    assert scaled.A_dir.nnz == A.nnz - 2


FORMS = {
    "diffusion": lambda m: DiffusionForm(
        degree=3, kappa=channels_and_inclusions(m, seed=2)),
    "elasticity": lambda m: ElasticityForm(
        degree=2, lam=1.0 + np.arange(m.num_cells) % 3, mu=1.0),
    "convdiff": lambda m: ConvectionDiffusionForm(
        degree=3, kappa=0.02 * channels_and_inclusions(m, seed=2),
        beta=np.array([60.0, 21.0])),
    "helmholtz": lambda m: HelmholtzForm(
        degree=2, kappa=1.0, k=6.0 + np.arange(m.num_cells) % 4,
        epsilon=0.1),
}


@pytest.mark.parametrize("name", sorted(FORMS))
def test_all_cell_element_matrices_slice_bitwise(name):
    """One pass over every cell, sliced, is bitwise what each subdomain's
    own call computes — and the fused operator/surrogate pass is bitwise
    the two separate calls."""
    mesh = unit_square(12)
    form = FORMS[name](mesh)
    space = form.make_space(mesh)
    Ke, Kg = form.element_matrices_with_geneo(space)
    assert np.array_equal(Ke, form.element_matrices(space))
    G = form.geneo_element_matrices(space)
    assert (Kg is None) == (G is None)
    assert Kg is None or np.array_equal(Kg, G)
    part = partition_mesh(mesh, 5, seed=0)
    for i in range(5):
        cells, _ = grow_overlap(mesh, part, i, 2)
        Ke_i, Kg_i = form.element_matrices_with_geneo(space, cells)
        assert np.array_equal(Ke[cells], Ke_i)
        assert Kg is None or np.array_equal(Kg[cells], Kg_i)


@pytest.mark.parametrize("kind", ["diffusion", "convdiff"])
def test_threads_build_is_bitwise_serial(kind):
    """Worker threads slice the shared element-matrix arrays; every
    subdomain array is bitwise the serial build's — with more workers
    than cores and a short switch interval, so the tasks interleave."""
    import sys

    from repro.parallel import ParallelConfig
    mesh = unit_square(12)
    form = FORMS[kind](mesh)
    part = partition_mesh(mesh, 6, seed=0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        decs = [Decomposition(Problem(mesh, form, scaling="jacobi"), part,
                              delta=2, parallel=p)
                for p in ("serial", ParallelConfig("threads", workers=4))]
    finally:
        sys.setswitchinterval(interval)
    assert decs[1].parallel.backend == "threads"
    assert np.array_equal(decs[0].multiplicity, decs[1].multiplicity)
    assert np.array_equal(decs[0].problem.scale, decs[1].problem.scale)
    for a, b in zip(decs[0].subdomains, decs[1].subdomains):
        for name in ("A_dir", "A_neu", "A_geneo"):
            A, B = getattr(a, name), getattr(b, name)
            assert (A is None) == (B is None)
            assert A is None or _same_csr(A, B), name
        for name in ("dofs", "d", "cells", "layers", "overlap_mask"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.neighbors == b.neighbors
        for j in a.neighbors:
            assert np.array_equal(a.shared[j], b.shared[j])


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
