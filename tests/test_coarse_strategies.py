"""Coarse-solve strategies: registry, bitwise reference, agreement,
kernel-mirror guard, and the strategy-aware resilience degrade chain."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import FaultPlan, FaultSpec, SchwarzSolver
from repro.common.errors import CoarseSolveError, ReproError
from repro.core import (
    CoarseOperator,
    DeflationSpace,
    DenseStrategy,
    MultilevelCoarseSolve,
    MultilevelStrategy,
    SparseStrategy,
    compute_deflation,
    get_strategy,
    strategy_names,
)
from repro.core.coarse_strategies import ENV_VAR
from repro.fem import channels_and_inclusions
from repro.fem.forms import DiffusionForm
from repro.mesh import unit_square


@pytest.fixture(scope="module")
def space(diffusion_decomposition):
    dec = diffusion_decomposition
    Ws = [compute_deflation(s, nev=4, seed=s.index).W
          for s in dec.subdomains]
    return DeflationSpace(dec, Ws)


def _solver(**kw):
    mesh = unit_square(16)
    form = DiffusionForm(degree=1,
                         kappa=channels_and_inclusions(mesh, seed=3))
    kw.setdefault("num_subdomains", 6)
    kw.setdefault("nev", 4)
    return SchwarzSolver(mesh, form, **kw)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_builtin_names(self):
        assert strategy_names() == ["dense", "multilevel", "sparse"]

    def test_default_is_dense(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert isinstance(get_strategy(None), DenseStrategy)

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "sparse")
        assert isinstance(get_strategy(None), SparseStrategy)

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "sparse")
        assert isinstance(get_strategy("multilevel"), MultilevelStrategy)

    def test_instance_passthrough(self):
        strat = MultilevelStrategy(inner_iters=4)
        assert get_strategy(strat) is strat

    def test_unknown_raises(self):
        with pytest.raises(ReproError, match="unknown coarse strategy"):
            get_strategy("nope")

    def test_describe(self):
        assert get_strategy("dense").describe() == {"name": "dense",
                                                    "exact": True}
        row = get_strategy("multilevel").describe()
        assert row["name"] == "multilevel" and row["exact"] is False


# ----------------------------------------------------------------------
# Agreement across strategies
# ----------------------------------------------------------------------

class TestAgreement:
    @pytest.fixture(scope="class")
    def ops(self, space):
        return {name: CoarseOperator(space, strategy=name)
                for name in ("dense", "sparse", "multilevel")}

    def test_sparse_assembly_bitwise_matches_dense(self, ops):
        Ed, Es = ops["dense"].E, ops["sparse"].E
        assert np.array_equal(Ed.toarray(), Es.toarray())
        # canonical CSR form too: same floats through a different route
        Ed = Ed.copy()
        Ed.sort_indices()
        assert np.array_equal(Ed.indptr, Es.indptr)
        assert np.array_equal(Ed.indices, Es.indices)
        assert np.array_equal(Ed.data, Es.data)

    def test_sparse_solve_bitwise_matches_dense(self, ops, rng):
        w = rng.standard_normal(ops["dense"].dim)
        assert np.array_equal(ops["dense"].solve(w), ops["sparse"].solve(w))

    def test_block_solve_bitwise_dense_vs_sparse(self, ops, rng):
        W = rng.standard_normal((ops["dense"].dim, 3))
        assert np.array_equal(ops["dense"].solve(W), ops["sparse"].solve(W))

    def test_multilevel_solve_agrees_to_tolerance(self, ops, rng):
        w = rng.standard_normal(ops["dense"].dim)
        ref = ops["dense"].solve(w)
        y = ops["multilevel"].solve(w)
        assert np.linalg.norm(y - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_multilevel_block_solve_agrees(self, ops, rng):
        W = rng.standard_normal((ops["dense"].dim, 3))
        ref = ops["dense"].solve(W)
        Y = ops["multilevel"].solve(W)
        assert Y.shape == ref.shape
        assert np.linalg.norm(Y - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_multilevel_handle_is_inexact(self, ops):
        fact = ops["multilevel"].factorization
        assert isinstance(fact, MultilevelCoarseSolve)
        assert fact.exact is False
        assert fact.inner_iterations > 0
        assert ops["multilevel"].nnz_factor() == fact.nnz_factor

    def test_too_few_subdomains_raises(self, space):
        import scipy.sparse as sp
        E = sp.identity(6, format="csr")
        with pytest.raises(CoarseSolveError, match=">= 4"):
            MultilevelCoarseSolve(E, [0, 2, 4, 6], [[1], [0, 2], [1]])


# ----------------------------------------------------------------------
# Solver plumbing
# ----------------------------------------------------------------------

class TestSolverPlumbing:
    def test_outer_iterations_within_five_of_dense(self):
        its = {}
        for strat, kry in (("dense", "gmres"), ("sparse", "gmres"),
                           ("multilevel", "fgmres")):
            s = _solver(coarse_strategy=strat, krylov=kry)
            r = s.solve(tol=1e-8)
            assert r.converged
            its[strat] = r.iterations
        assert its["sparse"] == its["dense"]       # bitwise same solve
        assert its["multilevel"] <= its["dense"] + 5

    def test_inexact_with_rigid_krylov_warns(self):
        with pytest.warns(RuntimeWarning, match="flexible"):
            _solver(coarse_strategy="multilevel", krylov="gmres")

    def test_env_var_reaches_solver(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "sparse")
        s = _solver()
        assert s.coarse_strategy.name == "sparse"
        assert s.coarse.strategy.name == "sparse"

    def test_gauges_recorded(self, space):
        from repro.obs import Recorder
        rec = Recorder()
        op = CoarseOperator(space, strategy="sparse", recorder=rec)
        assert rec.gauges["coarse.dim"] == op.dim
        assert rec.gauges["coarse.nnz"] == op.E.nnz
        assert rec.gauges["coarse.nnz_factor"] == op.nnz_factor()
        ev = [e for e in rec.events if e.name == "coarse.strategy"]
        assert ev and ev[0].attrs["name"] == "sparse"

    def test_multilevel_level2_gauges(self, space):
        from repro.obs import Recorder
        rec = Recorder()
        op = CoarseOperator(space, strategy="multilevel", recorder=rec)
        assert rec.gauges["coarse.l2_parts"] >= 2
        assert rec.gauges["coarse.l2_dim"] >= rec.gauges["coarse.l2_parts"]
        op.solve(np.ones(op.dim))
        assert rec.counters["coarse.l2_inner_iterations"] > 0


# ----------------------------------------------------------------------
# Kernel-mirror guard: inexact strategies never get an LDLᵀ mirror
# ----------------------------------------------------------------------

class TestKernelGuard:
    def test_ldl_mirror_refused_for_inexact_strategy(self, space):
        from repro.kernels.compiled import make_ldl_coarse_solve
        op = CoarseOperator(space, strategy="multilevel")
        # returns None before even touching the compiled library
        assert make_ldl_coarse_solve(None, op) is None

    def test_reference_backend_never_mirrors(self, space):
        op = CoarseOperator(space, strategy="multilevel")
        assert op._kernel_solve is None


# ----------------------------------------------------------------------
# Strategy-aware resilience degrade chain
# ----------------------------------------------------------------------

class TestDegradeChain:
    def test_level2_fault_degrades_to_sparse_direct(self):
        """A nan fault inside the level-2 inner solve must walk the
        chain multilevel → sparse-direct and converge anyway."""
        plan = FaultPlan([FaultSpec("nan", "coarse_level2", nth=0)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            solver = _solver(coarse_strategy="multilevel", krylov="fgmres",
                             faults=plan, recovery="degrade")
            report = solver.solve(tol=1e-8)
        assert report.converged
        assert solver.coarse.fallbacks >= 1
        # the inexact handle was replaced by an exact sparse-direct one
        fact = solver.coarse.factorization
        assert not isinstance(fact, MultilevelCoarseSolve)
        assert getattr(fact, "exact", True)

    def test_level2_fault_without_recovery_raises(self):
        plan = FaultPlan([FaultSpec("nan", "coarse_level2", nth=0)])
        solver = _solver(coarse_strategy="multilevel", krylov="fgmres",
                         faults=plan)
        with pytest.raises(CoarseSolveError):
            solver.solve(tol=1e-8)

    def test_fallback_event_recorded(self):
        from repro.obs import Recorder
        rec = Recorder()
        plan = FaultPlan([FaultSpec("nan", "coarse_level2", nth=0)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            solver = _solver(coarse_strategy="multilevel", krylov="fgmres",
                             faults=plan, recovery="degrade", recorder=rec)
            solver.solve(tol=1e-8)
        ev = [e for e in rec.events if e.name == "recovery.coarse_fallback"]
        assert any(e.attrs.get("to") == "sparse_direct" for e in ev)
