"""The fast deflated apply path: cached A·Z blocks, parallel RAS
application, vectorized Z products and the per-phase solve profiler."""

import numpy as np
import pytest

from repro.common.errors import KrylovError
from repro.core import (
    CoarseOperator,
    DeflationSpace,
    OneLevelRAS,
    TwoLevelADEF1,
    TwoLevelBNN,
    compute_deflation,
)
from repro.krylov import SolveProfiler, cg, fgmres, gmres, p1_gmres
from repro.krylov.gmres import _as_operator
from repro.parallel import ParallelConfig


# ----------------------------------------------------------------------
# Oracles: the uncached, per-block paths the fast path must reproduce
# ----------------------------------------------------------------------

def correction_blocks(coarse, u):
    """Z E⁻¹ Zᵀ u through the per-block Z products (the distributed
    semantics)."""
    y = coarse.solve(coarse.space.zt_dot_blocks(u))
    return coarse.space.z_dot_blocks(y)


def az_dot_blocks(coarse, y):
    """A Z y in distributed form: per-subdomain gemvs ``T_i y_i``
    followed by the overlap sum Σ_i R_iᵀ(T_i y_i)."""
    off = coarse.space.offsets
    t_list = [Ti @ y[off[i]:off[i + 1]] for i, Ti in enumerate(coarse.T)]
    return coarse.space.dec.combine_raw(t_list)


def apply_reference(pre, u):
    """A-DEF1 without the cached A·Z: recompute ``A (Z y)`` with a
    global SpMV (one extra overlap exchange)."""
    w = correction_blocks(pre.coarse, u)
    v = u - pre.dec.matvec(w)
    return pre.ras.apply(v) + w


@pytest.fixture(scope="module")
def diffusion_stack(diffusion_decomposition):
    dec = diffusion_decomposition
    ras = OneLevelRAS(dec)
    Ws = [compute_deflation(s, nev=4, seed=s.index).W
          for s in dec.subdomains]
    space = DeflationSpace(dec, Ws)
    return dec, ras, space, CoarseOperator(space)


@pytest.fixture(scope="module")
def elasticity_stack(elasticity_decomposition):
    dec = elasticity_decomposition
    ras = OneLevelRAS(dec)
    Ws = [compute_deflation(s, nev=4, seed=s.index).W
          for s in dec.subdomains]
    space = DeflationSpace(dec, Ws)
    return dec, ras, space, CoarseOperator(space)


STACKS = ["diffusion_stack", "elasticity_stack"]


class TestCachedAZ:
    """T_i = A_i W_i cached at setup ≡ the explicit A·Z product."""

    @pytest.mark.parametrize("stack_name", STACKS)
    def test_az_matches_explicit(self, stack_name, request, rng):
        dec, _, space, coarse = request.getfixturevalue(stack_name)
        A = dec.problem.matrix()
        y = rng.standard_normal(space.m)
        ref = A @ (space.Z @ y)
        got = coarse.az_dot(y)
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("stack_name", STACKS)
    def test_az_blocks_matches_explicit(self, stack_name, request, rng):
        """The distributed form (per-subdomain gemvs + overlap sum)."""
        dec, _, space, coarse = request.getfixturevalue(stack_name)
        A = dec.problem.matrix()
        y = rng.standard_normal(space.m)
        ref = A @ (space.Z @ y)
        got = az_dot_blocks(coarse, y)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_az_sparsity_matches_z(self, diffusion_stack):
        """A·Z inherits the block sparsity of Z (fig. 3): block column i
        lives on subdomain i's rows."""
        _, _, space, coarse = diffusion_stack
        assert coarse.AZ.shape == space.Z.shape
        # column supports stay inside the Z column supports
        Zb = space.Z.tocsc()
        AZb = coarse.AZ.tocsc()
        for j in range(space.m):
            zi = Zb.indices[Zb.indptr[j]:Zb.indptr[j + 1]]
            ai = AZb.indices[AZb.indptr[j]:AZb.indptr[j + 1]]
            assert set(ai) <= set(zi)


class TestFastADEF1:
    @pytest.mark.parametrize("stack_name", STACKS)
    def test_apply_matches_reference(self, stack_name, request, rng):
        """Fast path ≤ 1e-14 relative to the pre-cache reference path."""
        dec, ras, space, coarse = request.getfixturevalue(stack_name)
        pre = TwoLevelADEF1(ras, coarse)
        for trial in range(3):
            u = rng.standard_normal(dec.problem.num_free)
            fast = pre.apply(u)
            ref = apply_reference(pre, u)
            # intermediates are O(‖u‖), so scale the bound by the larger
            # of input and output norms (the output can be much smaller)
            scale = max(np.linalg.norm(ref), np.linalg.norm(u))
            assert np.linalg.norm(fast - ref) <= 1e-14 * scale

    def test_zero_global_spmvs(self, diffusion_stack, rng):
        """The A Z E⁻¹ Zᵀ u term must not perform any global SpMV."""
        dec, ras, space, coarse = diffusion_stack
        pre = TwoLevelADEF1(ras, coarse)
        u = rng.standard_normal(dec.problem.num_free)
        before = dec.matvecs
        pre.apply(u)
        assert dec.matvecs == before

    def test_reference_pays_one_spmv(self, diffusion_stack, rng):
        dec, ras, space, coarse = diffusion_stack
        pre = TwoLevelADEF1(ras, coarse)
        u = rng.standard_normal(dec.problem.num_free)
        before = dec.matvecs
        apply_reference(pre, u)
        assert dec.matvecs == before + 1

    def test_one_coarse_solve(self, diffusion_stack, rng):
        dec, ras, space, coarse = diffusion_stack
        pre = TwoLevelADEF1(ras, coarse)
        before = coarse.solves
        pre.apply(rng.standard_normal(dec.problem.num_free))
        assert coarse.solves - before == 1

    def test_bnn_first_factor_cached(self, diffusion_stack, rng):
        """BNN's (I − AQ) factor also rides the cached A·Z: only the
        (I − QA) factor still needs a global SpMV."""
        dec, ras, space, coarse = diffusion_stack
        pre = TwoLevelBNN(ras, coarse)
        u = rng.standard_normal(dec.problem.num_free)
        before = dec.matvecs
        pre.apply(u)
        assert dec.matvecs == before + 1


class TestVectorizedZ:
    @pytest.mark.parametrize("stack_name", STACKS)
    def test_zt_dot_matches_blocks(self, stack_name, request, rng):
        dec, _, space, _ = request.getfixturevalue(stack_name)
        u = rng.standard_normal(dec.problem.num_free)
        fast = space.zt_dot(u)
        ref = space.zt_dot_blocks(u)
        assert np.linalg.norm(fast - ref) \
            <= 1e-14 * max(np.linalg.norm(ref), 1e-300)

    @pytest.mark.parametrize("stack_name", STACKS)
    def test_z_dot_matches_blocks(self, stack_name, request, rng):
        _, _, space, _ = request.getfixturevalue(stack_name)
        y = rng.standard_normal(space.m)
        fast = space.z_dot(y)
        ref = space.z_dot_blocks(y)
        assert np.linalg.norm(fast - ref) \
            <= 1e-13 * max(np.linalg.norm(ref), 1e-300)

    def test_explicit_z_is_cached(self, diffusion_stack):
        _, _, space, _ = diffusion_stack
        assert space.explicit_z() is space.Z
        assert space.explicit_z() is space.explicit_z()


class TestParallelRAS:
    def test_apply_bitwise_identical(self, diffusion_stack, rng):
        dec, ras_serial, *_ = diffusion_stack
        ras_par = OneLevelRAS(dec,
                              parallel=ParallelConfig("threads", workers=4))
        for _ in range(3):
            r = rng.standard_normal(dec.problem.num_free)
            assert np.array_equal(ras_serial.apply(r), ras_par.apply(r))

    def test_apply_block_bitwise_identical(self, diffusion_stack, rng):
        dec, ras_serial, *_ = diffusion_stack
        ras_par = OneLevelRAS(dec,
                              parallel=ParallelConfig("threads", workers=4))
        R = rng.standard_normal((dec.problem.num_free, 5))
        assert np.array_equal(ras_serial.apply_block(R),
                              ras_par.apply_block(R))

    def test_apply_block_accumulation_unchanged(self, diffusion_stack, rng):
        """Micro-assert for the fancy-index accumulation: identical to
        the np.add.at reference (subdomain dofs are unique)."""
        dec, ras, *_ = diffusion_stack
        R = rng.standard_normal((dec.problem.num_free, 3))
        got = ras.apply_block(R)
        ref = np.zeros_like(got)
        for f, s in zip(ras.factorizations, dec.subdomains):
            sols = f.solve(R[s.dofs, :])
            np.add.at(ref, s.dofs, s.d[:, None] * sols)
        assert np.array_equal(got, ref)

    def test_apply_block_matches_columnwise(self, diffusion_stack, rng):
        dec, ras, *_ = diffusion_stack
        R = rng.standard_normal((dec.problem.num_free, 3))
        block = ras.apply_block(R)
        for k in range(R.shape[1]):
            assert np.allclose(block[:, k], ras.apply(R[:, k]),
                               rtol=0, atol=1e-13)


class TestAsOperator:
    def test_matrix_shape_validated(self):
        import scipy.sparse as sp
        bad = sp.eye(5, format="csr")
        with pytest.raises(KrylovError, match=r"M has shape \(5, 5\)"):
            _as_operator(bad, 7, "M")

    def test_dense_shape_validated(self):
        with pytest.raises(KrylovError, match="A has shape"):
            _as_operator(np.eye(3), 4, "A")

    def test_gmres_rejects_mismatched_matrix(self):
        import scipy.sparse as sp
        A = sp.eye(6, format="csr")
        with pytest.raises(KrylovError, match="A has shape"):
            gmres(A, np.ones(4))

    def test_valid_operands_pass(self):
        A = np.diag([2.0, 3.0])
        mul = _as_operator(A, 2, "A")
        assert np.allclose(mul(np.ones(2)), [2.0, 3.0])
        assert _as_operator(None, 2, "M")(np.ones(2)) is not None


class TestSolveProfiler:
    @pytest.mark.parametrize("method", [gmres, fgmres, p1_gmres])
    def test_gmres_family_profiles(self, method, rng):
        A = np.diag(rng.uniform(1.0, 2.0, 40))
        b = rng.standard_normal(40)
        res = method(A, b, tol=1e-10, restart=10, maxiter=100)
        assert "matvec" in res.profile
        assert "apply" in res.profile
        assert "orthogonalization" in res.profile
        assert all(v >= 0 for v in res.profile.values())

    def test_cg_profiles(self, rng):
        A = np.diag(rng.uniform(1.0, 2.0, 40))
        b = rng.standard_normal(40)
        res = cg(A, b, tol=1e-10, maxiter=100)
        assert "matvec" in res.profile and "apply" in res.profile

    def test_shared_profiler_sees_coarse_solve(self, diffusion_stack, rng):
        dec, ras, space, coarse = diffusion_stack
        pre = TwoLevelADEF1(ras, coarse)
        prof = SolveProfiler()
        coarse.profiler = prof
        try:
            A = dec.problem.matrix()
            b = dec.problem.rhs()
            res = gmres(A, b, M=pre.apply, tol=1e-8, restart=40,
                        maxiter=100, profiler=prof)
        finally:
            coarse.profiler = None
        assert res.converged
        assert "coarse_solve" in res.profile
        assert prof.calls["coarse_solve"] >= res.iterations
        # coarse solves happen inside the preconditioner application
        assert res.profile["coarse_solve"] <= res.profile["apply"] + 1e-9

    def test_schwarz_solver_surfaces_profile(self):
        from repro import SchwarzSolver
        from repro.fem import channels_and_inclusions
        from repro.fem.forms import DiffusionForm
        from repro.mesh import unit_square
        mesh = unit_square(12)
        form = DiffusionForm(degree=2,
                             kappa=channels_and_inclusions(mesh, seed=3))
        solver = SchwarzSolver(mesh, form, num_subdomains=4, nev=4)
        report = solver.solve(tol=1e-8)
        assert report.converged
        prof = report.krylov.profile
        for key in ("apply", "coarse_solve", "matvec", "orthogonalization"):
            assert key in prof, f"missing profiler phase {key}"


class TestEndToEnd:
    def test_gmres_converges_same_with_fast_path(self, diffusion_stack):
        """Iteration counts with the cached path match the reference
        path through an entire GMRES solve."""
        dec, ras, space, coarse = diffusion_stack
        pre = TwoLevelADEF1(ras, coarse)
        A = dec.problem.matrix()
        b = dec.problem.rhs()
        fast = gmres(A, b, M=pre.apply, tol=1e-8, restart=60, maxiter=200)
        ref = gmres(A, b, M=lambda u: apply_reference(pre, u), tol=1e-8,
                    restart=60, maxiter=200)
        assert fast.converged and ref.converged
        assert fast.iterations == ref.iterations
        assert np.linalg.norm(fast.x - ref.x) \
            <= 1e-8 * max(np.linalg.norm(ref.x), 1e-300)
