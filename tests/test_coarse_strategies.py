"""The one coarse solve: E pinned bitwise against the historical COO
assembly (an oracle kept here), its solve against a factorization of
that oracle E, the harness-only ``get_strategy`` shim, and the degrade
chain kernel mirror → fp64 factor → pseudo-inverse."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro import FaultPlan, FaultSpec, SchwarzSolver
from repro.common.errors import ReproError
from repro.core import (
    CoarseOperator,
    DeflationSpace,
    coarse_blocks,
    compute_deflation,
)
from repro.core.coarse import robust_direct
from repro.core.coarse_strategies import get_strategy
from repro.fem import channels_and_inclusions
from repro.fem.forms import DiffusionForm
from repro.kernels import get_backend
from repro.mesh import unit_square


def coo_from_blocks(space, blocks) -> sp.csr_matrix:
    """The historical COO route to E: every block entry becomes a
    triplet, duplicates summed by scipy."""
    off = space.offsets
    rows, cols, vals = [], [], []
    for (i, j), blk in blocks.items():
        rows.append(np.repeat(np.arange(off[i], off[i + 1]), blk.shape[1]))
        cols.append(np.tile(np.arange(off[j], off[j + 1]), blk.shape[0]))
        vals.append(blk.ravel())
    E = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.m, space.m))
    E.sum_duplicates()
    return E


def _space(dec, nev=4):
    Ws = [compute_deflation(s, nev=nev, seed=s.index).W
          for s in dec.subdomains]
    return DeflationSpace(dec, Ws)


@pytest.fixture(scope="module")
def space(diffusion_decomposition):
    return _space(diffusion_decomposition)


@pytest.fixture(scope="module")
def convdiff_space():
    """The extended (nonsymmetric-safe) coarse space of a SUPG
    convection–diffusion operator."""
    from repro.fem.forms import ConvectionDiffusionForm
    mesh = unit_square(12)
    kappa = 0.02 * channels_and_inclusions(mesh, seed=3)
    form = ConvectionDiffusionForm(degree=1, kappa=kappa,
                                   beta=60.0 * np.array([1.0, 0.4]))
    return SchwarzSolver(mesh, form, num_subdomains=4, nev=4).deflation


def _solver(**kw):
    mesh = unit_square(16)
    form = DiffusionForm(degree=1,
                         kappa=channels_and_inclusions(mesh, seed=3))
    kw.setdefault("num_subdomains", 6)
    kw.setdefault("nev", 4)
    return SchwarzSolver(mesh, form, **kw)


# ----------------------------------------------------------------------
# The harness shim
# ----------------------------------------------------------------------

class TestRegistry:
    def test_instance_passthrough(self, space):
        strat = get_strategy(None)
        assert strat.name == "sparse"
        assert get_strategy(strat) is strat
        assert get_strategy("sparse") is strat
        # the harness hands the resolved value back to the operator
        assert CoarseOperator(space, strategy=strat).dim == space.m

    def test_unknown_raises(self, space):
        for name in ("nope", "dense", "multilevel"):
            with pytest.raises(ReproError, match="unknown coarse strategy"):
                get_strategy(name)
            with pytest.raises(ReproError, match="unknown coarse strategy"):
                CoarseOperator(space, strategy=name)


# ----------------------------------------------------------------------
# Bitwise against the COO oracle
# ----------------------------------------------------------------------

class TestAgreement:
    @pytest.fixture(scope="class")
    def ops(self, space):
        numpy = get_backend("numpy")
        op = CoarseOperator(space, kernels=numpy)
        ref = robust_direct(coo_from_blocks(space, coarse_blocks(space)),
                            "superlu", 1e-10)
        return op, ref

    def test_sparse_assembly_bitwise_matches_dense(
            self, space, elasticity_decomposition, convdiff_space):
        """CSR E equals the COO oracle — same floats, same canonical
        layout — on a diffusion, an elasticity and a nonsymmetric
        convection–diffusion decomposition."""
        for sp_ in (space, _space(elasticity_decomposition),
                    convdiff_space):
            E = CoarseOperator(sp_).E
            ref = coo_from_blocks(sp_, coarse_blocks(sp_))
            ref.sort_indices()
            assert np.array_equal(E.indptr, ref.indptr)
            assert np.array_equal(E.indices, ref.indices)
            assert np.array_equal(E.data, ref.data)

    def test_sparse_solve_bitwise_matches_dense(self, ops, rng):
        op, ref = ops
        w = rng.standard_normal(op.dim)
        assert np.array_equal(op.solve(w), ref.solve(w))

    def test_block_solve_bitwise_dense_vs_sparse(self, ops, rng):
        op, ref = ops
        W = rng.standard_normal((op.dim, 3))
        assert np.array_equal(op.solve(W), ref.solve(W))


# ----------------------------------------------------------------------
# Telemetry, kernel mirror, degrade chain
# ----------------------------------------------------------------------

class TestSolverPlumbing:
    def test_gauges_recorded(self, space):
        from repro.obs import Recorder
        rec = Recorder()
        op = CoarseOperator(space, recorder=rec)
        assert rec.gauges["coarse.dim"] == op.dim
        assert rec.gauges["coarse.nnz"] == op.E.nnz
        assert rec.gauges["coarse.nnz_factor"] == op.nnz_factor()


class TestKernelGuard:
    def test_reference_backend_never_mirrors(self, space):
        op = CoarseOperator(space, kernels=get_backend("numpy"))
        assert op._kernel_solve is None


class TestDegradeChain:
    def test_fallback_event_recorded(self):
        """Without a kernel mirror, a non-finite solve goes straight to
        the pseudo-inverse, and the solve still converges."""
        from repro.obs import Recorder
        rec = Recorder()
        plan = FaultPlan([FaultSpec("nan", "coarse_solve", nth=0)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            solver = _solver(faults=plan, recovery="degrade",
                             recorder=rec, kernel_backend="numpy")
            report = solver.solve(tol=1e-8)
        assert report.converged
        ev = [e for e in rec.events if e.name == "recovery.coarse_fallback"]
        assert [e.attrs.get("to") for e in ev] == ["pseudo_inverse"]
