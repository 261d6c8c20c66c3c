"""Tests for the direct-solver substrate: all backends + distributed."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SolverError
from repro.core.geneo import DEFAULT_SHIFT_REL
from repro.dd import Decomposition, Problem
from repro.fem import (
    FunctionSpace,
    assemble_load,
    assemble_stiffness,
    channels_and_inclusions,
    restrict_to_free,
)
from repro.fem.forms import ConvectionDiffusionForm, HelmholtzForm
from repro.mesh import unit_square
from repro.mpi import run_spmd
from repro.partition import partition_mesh
from repro.solvers import (
    BACKENDS,
    DistributedCholesky,
    SparseLDL,
    bandwidth,
    elimination_tree,
    factorize,
    reverse_cuthill_mckee,
)


@pytest.fixture(scope="module")
def spd_system():
    m = unit_square(8)
    V = FunctionSpace(m, 2)
    A = assemble_stiffness(V)
    b = assemble_load(V, 1.0)
    Aff, bf, _ = restrict_to_free(A, b, V.boundary_dofs())
    xref = spla.spsolve(Aff.tocsc(), bf)
    return Aff.tocsr(), bf, xref


class TestBackends:
    @pytest.mark.parametrize("method", BACKENDS)
    def test_solve_vector(self, spd_system, method):
        A, b, xref = spd_system
        f = factorize(A, method)
        x = f.solve(b)
        assert np.linalg.norm(x - xref) <= 1e-10 * np.linalg.norm(xref)

    @pytest.mark.parametrize("method", BACKENDS)
    def test_solve_block(self, spd_system, method):
        A, b, xref = spd_system
        f = factorize(A, method)
        X = f.solve(np.column_stack([b, -b, 2 * b]))
        assert np.allclose(X[:, 1], -xref, atol=1e-8 * abs(xref).max())
        assert np.allclose(X[:, 2], 2 * xref, atol=1e-8 * abs(xref).max())

    @pytest.mark.parametrize("method", BACKENDS)
    def test_nnz_factor_positive(self, spd_system, method):
        A, _, _ = spd_system
        assert factorize(A, method).nnz_factor > 0

    @pytest.mark.parametrize("method", BACKENDS)
    def test_spd_flag_solves(self, spd_system, method):
        """Every backend accepts the SPD claim; only SuperLU acts on it."""
        A, b, xref = spd_system
        x = factorize(A, method, spd=True).solve(b)
        assert np.linalg.norm(x - xref) <= 1e-10 * np.linalg.norm(xref)

    def test_spd_superlu_is_ldlt(self, spd_system):
        """Symmetric mode on an SPD FEM matrix: diagonal pivots only,
        fewer factor nonzeros than a COLAMD LU, an exact solve."""
        A, b, _ = spd_system
        f = factorize(A, "superlu", spd=True)
        assert f.symmetric
        assert np.array_equal(f._lu.perm_r, f._lu.perm_c)
        colamd = spla.splu(A.tocsc())
        assert f.nnz_factor < colamd.L.nnz + colamd.U.nnz
        x = f.solve(b)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("kind", ["helmholtz", "convdiff"])
    def test_wrong_spd_claim_falls_back_to_lu(self, kind):
        """A false claim costs the LDLᵀ attempt, never accuracy: the
        symmetric-indefinite Helmholtz A_dir fails the pivot test, the
        nonsymmetric (positive-real) convection–diffusion A_dir the
        symmetry probe; both keep the general LU.  The ``compiled``
        kernel backend honours the decomposition's own ``spd=`` verdict
        the same way: no unpivoted LDLᵀ of an indefinite local.  The
        general LU orders these symmetric-pattern locals on Aᵀ + A —
        never more fill than COLAMD — and the ``compiled`` backend
        exports it to its own L/U arrays, matching the reference
        solve."""
        from repro.kernels import get_backend
        from repro.kernels.csrc import load_library
        from repro.kernels.factor import (
            ExportedLUFactorization,
            SymmetricLDLFactorization,
        )
        compiled = (get_backend("compiled") if load_library() is not None
                    else None)
        mesh = unit_square(10)
        kappa = channels_and_inclusions(mesh, seed=4)
        if kind == "helmholtz":
            form = HelmholtzForm(degree=1, kappa=kappa, k=80.0, epsilon=0.1)
        else:
            form = ConvectionDiffusionForm(degree=2, kappa=0.02 * kappa,
                                           beta=np.array([60.0, 24.0]))
        dec = Decomposition(Problem(mesh, form, scaling="jacobi"),
                            partition_mesh(mesh, 4, seed=0), delta=1)
        assert not dec.is_spd
        for s in dec.subdomains:
            f = factorize(s.A_dir, "superlu", spd=True)
            assert not f.symmetric
            ref = factorize(s.A_dir, "superlu")
            assert f.nnz_factor == ref.nnz_factor
            colamd = spla.splu(sp.csc_matrix(s.A_dir))
            assert ref.nnz_factor <= colamd.L.nnz + colamd.U.nnz
            b = np.ones(f.n)
            for g in (f, ref):
                r = s.A_dir @ g.solve(b) - b
                assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(b)
            if compiled is None:
                continue
            f = compiled.factorize_local(s.A_dir, spd=dec.is_spd)
            assert not isinstance(f, SymmetricLDLFactorization)
            assert isinstance(f, ExportedLUFactorization)
            assert f.nnz_factor == ref.nnz_factor
            x = f.solve(b)
            r = s.A_dir @ x - b
            assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(b)
            x_ref = ref.solve(b)
            assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    def test_unsymmetric_pattern_solves(self):
        """A structurally nonsymmetric matrix is no FEM local, but the
        general LU still solves it exactly, through the reference factor
        and the ``compiled`` export alike."""
        from repro.kernels import get_backend
        from repro.kernels.csrc import load_library
        from repro.kernels.factor import ExportedLUFactorization
        A = sp.csc_matrix(sp.random(60, 60, density=0.05, random_state=0)
                          + 4.0 * sp.eye(60))
        assert ((A != 0) != (A.T != 0)).nnz > 0
        facts = [factorize(A, "superlu")]
        if load_library() is not None:
            facts.append(get_backend("compiled").factorize_local(A))
            assert isinstance(facts[-1], ExportedLUFactorization)
        b = np.ones(60)
        for f in facts:
            r = A @ f.solve(b) - b
            assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(b)

    def test_spd_ldlt_accepts_shifted_neumann(self):
        """The GenEO shift-invert matrix A_neu + σI of a floating
        (pure-Neumann, singular) stiffness matrix is SPD and keeps
        its LDLᵀ factor."""
        V = FunctionSpace(unit_square(8), 2)
        A = assemble_stiffness(V).tocsr()
        assert np.abs(A @ np.ones(A.shape[0])).max() < 1e-12
        sigma = DEFAULT_SHIFT_REL * float(np.mean(np.abs(A.diagonal())))
        f = factorize(A, "superlu", shift=sigma, spd=True)
        assert f.symmetric
        b = np.random.default_rng(0).standard_normal(f.n)
        r = A @ f.solve(b) + sigma * f.solve(b) - b
        assert np.linalg.norm(r) <= 1e-6 * np.linalg.norm(b)

    def test_unknown_backend(self, spd_system):
        A, _, _ = spd_system
        with pytest.raises(SolverError):
            factorize(A, "mumps")

    def test_shift_regularises_singular(self):
        """A singular Neumann-like matrix factorises once shifted."""
        n = 10
        A = sp.diags([np.full(n - 1, -1.0), np.full(n, 2.0),
                      np.full(n - 1, -1.0)], [-1, 0, 1]).tocsr()
        A = A.tolil()
        A[0, 0] = 1.0
        A[-1, -1] = 1.0              # 1D pure-Neumann Laplacian: singular
        A = A.tocsr()
        with pytest.raises(SolverError):
            factorize(A, "ldl")
        f = factorize(A, "ldl", shift=1e-8)
        x = f.solve(np.ones(n))
        assert np.isfinite(x).all()


class TestSparseLDL:
    def test_matches_dense(self, rng):
        n = 40
        M = rng.standard_normal((n, n))
        A = sp.csr_matrix(M @ M.T + n * np.eye(n))
        ldl = SparseLDL(A)
        b = rng.standard_normal(n)
        assert np.allclose(ldl.solve(b), np.linalg.solve(A.toarray(), b))

    def test_inertia_spd(self, spd_system):
        A, _, _ = spd_system
        ldl = SparseLDL(A)
        pos, neg, zero = ldl.inertia()
        assert (pos, neg, zero) == (A.shape[0], 0, 0)

    def test_inertia_indefinite(self):
        A = sp.csr_matrix(np.diag([2.0, -3.0, 1.0]))
        pos, neg, zero = SparseLDL(A).inertia()
        assert (pos, neg) == (2, 1)

    def test_permutation_improves_fill(self, spd_system):
        A, _, _ = spd_system
        plain = SparseLDL(A)
        rcm = SparseLDL(A, perm=reverse_cuthill_mckee(A))
        # arrow-free FEM matrix: RCM should not *hurt* much
        assert rcm.nnz_factor <= 3 * plain.nnz_factor

    def test_zero_pivot_raises(self):
        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SolverError):
            SparseLDL(A)

    def test_elimination_tree_chain(self):
        # tridiagonal matrix: etree is a path
        n = 6
        A = sp.diags([np.ones(n - 1), 3 * np.ones(n), np.ones(n - 1)],
                     [-1, 0, 1]).tocsc()
        parent = elimination_tree(sp.triu(A, format="csc"))
        assert parent.tolist() == [1, 2, 3, 4, 5, -1]

    @given(st.integers(min_value=2, max_value=25), st.integers(0, 10))
    @settings(max_examples=15, deadline=None)
    def test_random_spd_property(self, n, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, n))
        dense = M @ M.T + n * np.eye(n)
        # sparsify: drop small entries symmetrically, keep diagonal dominance
        dense[np.abs(dense) < 0.5] = 0.0
        dense += n * np.eye(n)
        A = sp.csr_matrix(dense)
        b = rng.standard_normal(n)
        x = SparseLDL(A).solve(b)
        assert np.allclose(A @ x, b, atol=1e-8 * max(1, abs(b).max()))


class TestOrderings:
    def test_rcm_is_permutation(self, spd_system):
        A, _, _ = spd_system
        p = reverse_cuthill_mckee(A)
        assert np.array_equal(np.sort(p), np.arange(A.shape[0]))

    def test_rcm_reduces_bandwidth(self, spd_system):
        A, _, _ = spd_system
        p = reverse_cuthill_mckee(A)
        assert bandwidth(A[p][:, p]) < bandwidth(A)

    def test_rcm_disconnected(self):
        A = sp.block_diag([np.array([[2.0, 1], [1, 2]])] * 3).tocsr()
        p = reverse_cuthill_mckee(A)
        assert np.array_equal(np.sort(p), np.arange(6))

    def test_bandwidth_diagonal(self):
        assert bandwidth(sp.eye(5, format="csr")) == 0


class TestDistributedCholesky:
    def _reference(self, n, seed=0):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, n))
        E = M @ M.T + n * np.eye(n)
        b = rng.standard_normal(n)
        return E, b, np.linalg.solve(E, b)

    @pytest.mark.parametrize("P", [1, 2, 3, 5])
    def test_matches_numpy(self, P):
        n = 29
        E, b, xref = self._reference(n)
        rs = np.linspace(0, n, P + 1).astype(np.int64)

        def fn(comm):
            p = comm.rank
            f = DistributedCholesky(comm, rs, E[rs[p]:rs[p + 1]])
            return f.solve(b[rs[p]:rs[p + 1]])

        x = np.concatenate(run_spmd(P, fn))
        assert np.linalg.norm(x - xref) <= 1e-10 * np.linalg.norm(xref)

    def test_uneven_blocks(self):
        n = 17
        E, b, xref = self._reference(n, seed=3)
        rs = np.array([0, 2, 11, 17])

        def fn(comm):
            p = comm.rank
            f = DistributedCholesky(comm, rs, E[rs[p]:rs[p + 1]])
            return f.solve(b[rs[p]:rs[p + 1]])

        x = np.concatenate(run_spmd(3, fn))
        assert np.allclose(x, xref)

    def test_empty_block(self):
        n = 8
        E, b, xref = self._reference(n, seed=5)
        rs = np.array([0, 4, 4, 8])       # middle master owns nothing

        def fn(comm):
            p = comm.rank
            f = DistributedCholesky(comm, rs, E[rs[p]:rs[p + 1]])
            return f.solve(b[rs[p]:rs[p + 1]])

        parts = run_spmd(3, fn)
        assert np.allclose(np.concatenate(parts), xref)

    def test_not_spd_raises(self):
        E = -np.eye(4)
        rs = np.array([0, 2, 4])

        def fn(comm):
            p = comm.rank
            DistributedCholesky(comm, rs, E[rs[p]:rs[p + 1]])

        with pytest.raises(SolverError):
            run_spmd(2, fn)

    def test_shape_validation(self):
        def fn(comm):
            DistributedCholesky(comm, np.array([0, 2, 4]), np.zeros((3, 4)))

        with pytest.raises(SolverError):
            run_spmd(2, fn)

    def test_multiple_solves_reuse_factorization(self):
        n = 12
        E, b, xref = self._reference(n, seed=7)
        rs = np.array([0, 6, 12])

        def fn(comm):
            p = comm.rank
            f = DistributedCholesky(comm, rs, E[rs[p]:rs[p + 1]])
            x1 = f.solve(b[rs[p]:rs[p + 1]])
            x2 = f.solve(2 * b[rs[p]:rs[p + 1]])
            return x1, x2

        parts = run_spmd(2, fn)
        x1 = np.concatenate([p[0] for p in parts])
        x2 = np.concatenate([p[1] for p in parts])
        assert np.allclose(x1, xref)
        assert np.allclose(x2, 2 * xref)
