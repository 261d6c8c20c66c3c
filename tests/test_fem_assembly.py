"""Assembly tests: convergence orders, algebraic identities, BCs."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.common.errors import FEMError
from repro.fem import (
    FunctionSpace,
    apply_dirichlet,
    assemble_elasticity,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    lame_parameters,
    restrict_to_free,
)
from repro.mesh import unit_cube, unit_square


def solve_poisson(mesh, k, f, exact):
    V = FunctionSpace(mesh, k)
    A = assemble_stiffness(V)
    b = assemble_load(V, f)
    Aff, bf, free = restrict_to_free(A, b, V.boundary_dofs())
    u = np.zeros(V.num_dofs)
    u[free] = spla.spsolve(Aff.tocsc(), bf)
    e = u - V.interpolate(exact)
    M = assemble_mass(V)
    return float(np.sqrt(e @ (M @ e)))


class TestPoissonConvergence:
    @pytest.mark.parametrize("k,expected", [(1, 2), (2, 3), (3, 4)])
    def test_2d_l2_rates(self, k, expected):
        def exact(x):
            return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])

        def f(x):
            return 2 * np.pi ** 2 * exact(x)

        e1 = solve_poisson(unit_square(4), k, f, exact)
        e2 = solve_poisson(unit_square(8), k, f, exact)
        rate = np.log2(e1 / e2)
        assert rate > expected - 0.4

    def test_3d_p2_rate(self):
        def exact(x):
            return (np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]) *
                    np.sin(np.pi * x[:, 2]))

        def f(x):
            return 3 * np.pi ** 2 * exact(x)

        e1 = solve_poisson(unit_cube(2), 2, f, exact)
        e2 = solve_poisson(unit_cube(4), 2, f, exact)
        assert np.log2(e1 / e2) > 2.5


class TestStiffness:
    def test_symmetric(self):
        V = FunctionSpace(unit_square(4), 3)
        A = assemble_stiffness(V)
        assert abs(A - A.T).max() < 1e-12 * abs(A).max()

    def test_constant_in_kernel(self):
        """∇(const) = 0: stiffness times the all-ones vector vanishes."""
        V = FunctionSpace(unit_square(4), 2)
        A = assemble_stiffness(V)
        assert np.abs(A @ np.ones(V.num_dofs)).max() < 1e-10

    def test_linear_patch(self):
        """A acting on a linear interpolant equals the boundary flux only:
        interior rows vanish (patch test)."""
        m = unit_square(4)
        V = FunctionSpace(m, 2)
        A = assemble_stiffness(V)
        u = V.interpolate(lambda x: 3 * x[:, 0] + 2 * x[:, 1])
        r = A @ u
        interior = np.setdiff1d(np.arange(V.num_dofs), V.boundary_dofs())
        assert np.abs(r[interior]).max() < 1e-10

    def test_per_cell_coefficient(self):
        m = unit_square(4)
        V = FunctionSpace(m, 1)
        kap = np.full(m.num_cells, 2.0)
        A1 = assemble_stiffness(V, 1.0)
        A2 = assemble_stiffness(V, kap)
        assert abs(A2 - 2 * A1).max() < 1e-12

    def test_callable_coefficient(self):
        m = unit_square(4)
        V = FunctionSpace(m, 1)
        A1 = assemble_stiffness(V, lambda x: np.full(len(x), 3.0))
        A2 = assemble_stiffness(V, 3.0)
        assert abs(A1 - A2).max() < 1e-12

    def test_rejects_vector_space(self):
        V = FunctionSpace(unit_square(2), 1, ncomp=2)
        with pytest.raises(FEMError):
            assemble_stiffness(V)

    def test_rejects_bad_coefficient_shape(self):
        V = FunctionSpace(unit_square(2), 1)
        with pytest.raises(FEMError):
            assemble_stiffness(V, np.ones(7))

    @pytest.mark.parametrize("kappa", [
        np.where(np.arange(8) == 3, np.nan, 1.0),
        np.inf,
        lambda x: np.full(len(x), np.nan),
    ], ids=["nan-per-cell", "inf-scalar", "nan-callable"])
    def test_rejects_nonfinite_coefficient(self, kappa):
        V = FunctionSpace(unit_square(2), 1)
        with pytest.raises(FEMError, match="kappa has non-finite"):
            assemble_stiffness(V, kappa)


class TestMass:
    def test_total_mass_is_volume(self):
        V = FunctionSpace(unit_square(4), 2)
        M = assemble_mass(V)
        ones = np.ones(V.num_dofs)
        assert ones @ (M @ ones) == pytest.approx(1.0)

    def test_vector_mass_block_structure(self):
        V = FunctionSpace(unit_square(3), 1, ncomp=2)
        M = assemble_mass(V).toarray()
        # no coupling between components
        assert np.abs(M[0::2, 1::2]).max() == 0

    def test_spd(self):
        V = FunctionSpace(unit_square(3), 2)
        M = assemble_mass(V).toarray()
        w = np.linalg.eigvalsh(M)
        assert w.min() > 0


class TestElasticity:
    def test_symmetric(self):
        m = unit_square(3)
        V = FunctionSpace(m, 2, ncomp=2)
        lam, mu = lame_parameters(1.0, 0.3)
        K = assemble_elasticity(V, lam, mu)
        assert abs(K - K.T).max() < 1e-10 * abs(K).max()

    def test_rigid_modes_in_kernel_2d(self):
        """Translations and the infinitesimal rotation must be in the
        kernel of the free-floating elasticity operator."""
        m = unit_square(3)
        V = FunctionSpace(m, 2, ncomp=2)
        lam, mu = lame_parameters(1.0, 0.3)
        K = assemble_elasticity(V, lam, mu)
        c = V.scalar_dof_coordinates
        tx = np.zeros(V.num_dofs)
        tx[0::2] = 1.0
        ty = np.zeros(V.num_dofs)
        ty[1::2] = 1.0
        rot = np.zeros(V.num_dofs)
        rot[0::2] = -c[:, 1]
        rot[1::2] = c[:, 0]
        scale = abs(K).max()
        for v in (tx, ty, rot):
            assert np.abs(K @ v).max() < 1e-10 * scale

    def test_rigid_modes_in_kernel_3d(self):
        m = unit_cube(2)
        V = FunctionSpace(m, 1, ncomp=3)
        lam, mu = lame_parameters(1.0, 0.25)
        K = assemble_elasticity(V, lam, mu)
        c = V.scalar_dof_coordinates
        scale = abs(K).max()
        # one translation + one rotation suffice as smoke kernel checks
        t = np.zeros(V.num_dofs)
        t[2::3] = 1.0
        rot = np.zeros(V.num_dofs)
        rot[0::3] = -c[:, 1]
        rot[1::3] = c[:, 0]
        for v in (t, rot):
            assert np.abs(K @ v).max() < 1e-9 * scale

    def test_spd_after_clamping(self):
        m = unit_square(3)
        V = FunctionSpace(m, 1, ncomp=2)
        lam, mu = lame_parameters(1.0, 0.3)
        K = assemble_elasticity(V, lam, mu)
        bd = V.boundary_dofs(lambda x: x[:, 0] < 1e-12)
        Kff, _, _ = restrict_to_free(K, np.zeros(V.num_dofs), bd)
        w = np.linalg.eigvalsh(Kff.toarray())
        assert w.min() > 0

    def test_rejects_scalar_space(self):
        V = FunctionSpace(unit_square(2), 1)
        with pytest.raises(FEMError):
            assemble_elasticity(V, 1.0, 1.0)


class TestLoad:
    def test_constant_load_total(self):
        V = FunctionSpace(unit_square(4), 2)
        b = assemble_load(V, 3.0)
        # Σ_i (f, φ_i) = ∫ f = 3 |Ω|
        assert b.sum() == pytest.approx(3.0)

    def test_vector_load(self):
        V = FunctionSpace(unit_square(3), 1, ncomp=2)
        b = assemble_load(V, np.array([0.0, -1.0]))
        assert b[0::2].sum() == pytest.approx(0.0)
        assert b[1::2].sum() == pytest.approx(-1.0)

    def test_bad_constant_vector(self):
        V = FunctionSpace(unit_square(2), 1, ncomp=2)
        with pytest.raises(FEMError):
            assemble_load(V, np.array([1.0, 2.0, 3.0]))


class TestDirichlet:
    def test_apply_dirichlet_symmetric(self):
        m = unit_square(3)
        V = FunctionSpace(m, 1)
        A = assemble_stiffness(V)
        b = assemble_load(V, 1.0)
        Abc, bbc = apply_dirichlet(A, b, V.boundary_dofs(), 0.0)
        assert abs(Abc - Abc.T).max() < 1e-14

    def test_apply_dirichlet_nonzero_values(self):
        m = unit_square(4)
        V = FunctionSpace(m, 1)
        A = assemble_stiffness(V)
        b = assemble_load(V, 0.0)
        g = V.interpolate(lambda x: x[:, 0])          # harmonic
        bd = V.boundary_dofs()
        Abc, bbc = apply_dirichlet(A, b, bd, g[bd])
        u = spla.spsolve(Abc.tocsc(), bbc)
        assert np.allclose(u, g, atol=1e-10)

    def test_restrict_matches_apply(self):
        m = unit_square(3)
        V = FunctionSpace(m, 2)
        A = assemble_stiffness(V)
        b = assemble_load(V, 1.0)
        bd = V.boundary_dofs()
        Abc, bbc = apply_dirichlet(A, b, bd, 0.0)
        Aff, bf, free = restrict_to_free(A, b, bd)
        u1 = spla.spsolve(Abc.tocsc(), bbc)
        u2 = np.zeros(V.num_dofs)
        u2[free] = spla.spsolve(Aff.tocsc(), bf)
        assert np.allclose(u1, u2, atol=1e-10)


class TestBlockedKernels:
    """Element kernels run in blocks of ``CELL_BLOCK`` cells; the block
    size must not change a single bit, and the global matrices must stay
    what one all-cell batch with the unoptimised gradient einsum gave."""

    @staticmethod
    def _kernels(mesh):
        from repro.fem import assembly as asm
        nc = mesh.num_cells
        kappa = 1.0 + np.arange(nc) % 5
        beta = np.array([3.0, -1.0])
        scalar, vector = FunctionSpace(mesh, 3), FunctionSpace(mesh, 2, 2)
        return {
            "stiffness": lambda c: asm.stiffness_elements(scalar, c, kappa),
            "mass": lambda c: asm.mass_elements(vector, c, kappa),
            "elasticity": lambda c: asm.elasticity_elements(
                vector, c, kappa, 2.0 * kappa),
            "advection": lambda c: asm.advection_elements(scalar, c, beta),
            "streamline": lambda c: asm.streamline_diffusion_elements(
                scalar, c, beta, 0.1 / kappa),
        }

    @pytest.mark.parametrize("kernel", ["stiffness", "mass", "elasticity",
                                        "advection", "streamline"])
    def test_blocked_equals_single_batch(self, kernel, monkeypatch):
        from repro.fem import assembly as asm
        mesh = unit_square(15)                     # 450 cells: 256 + 194
        assert mesh.num_cells > asm.CELL_BLOCK
        run = self._kernels(mesh)[kernel]
        blocked = run(None)
        subset = np.arange(3, mesh.num_cells, 7)
        monkeypatch.setattr(asm, "CELL_BLOCK", 10 ** 9)
        single = run(None)
        assert np.array_equal(blocked, single)
        assert np.array_equal(run(subset), single[subset])

    @pytest.mark.parametrize("mesh, degree", [(unit_square(12), 4),
                                              (unit_cube(3), 2)],
                             ids=["2d-P4", "3d-P2"])
    def test_global_matrix_matches_unblocked_formula(self, mesh, degree):
        import scipy.sparse as sp
        from repro.fem.assembly import _cell_geometry
        from repro.fem.quadrature import simplex_quadrature
        V = FunctionSpace(mesh, degree)
        kappa = 1.0 + np.arange(mesh.num_cells) % 3
        qpts, qw = simplex_quadrature(mesh.dim, 2 * (degree - 1))
        _, Jinv, detJ = _cell_geometry(V)
        g = np.einsum("ced,qie->cqid", Jinv, V.ref.eval_basis_grads(qpts))
        scale = kappa[:, None] * (qw[None, :] * detJ[:, None])
        Ke = np.einsum("cq,cqid,cqjd->cij", scale, g, g, optimize=True)
        nd = Ke.shape[1]
        rows = np.repeat(V.cell_dofs, nd, axis=1).ravel()
        cols = np.tile(V.cell_dofs, (1, nd)).ravel()
        ref = sp.coo_matrix((Ke.ravel(), (rows, cols)),
                            shape=(V.num_dofs,) * 2).tocsr()
        from repro.fem.forms import DiffusionForm
        A = DiffusionForm(degree=degree, kappa=kappa).assemble_matrix(V)
        assert spla.norm(A - ref) <= 1e-14 * spla.norm(ref)
