"""Batched multi-RHS solving, Krylov registry, warm starts and the
shared zero-RHS semantics."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro import SchwarzSolver, SolveSession
from repro.common.errors import ReproError
from repro.fem import channels_and_inclusions
from repro.fem.forms import DiffusionForm
from repro.mesh import unit_square
from repro.obs import Recorder, column_iterations
from repro.resilience import FaultPlan, FaultSpec

DRIVERS = ["gmres", "p1-gmres", "cg", "fgmres", "sstep", "deflated-cg"]


def _pre(krylov: str) -> str:
    return "bnn" if krylov in ("cg", "deflated-cg") else "adef1"


def _make_solver(krylov="gmres", recorder=None, faults=None,
                 recovery=None, **kw):
    mesh = unit_square(12)
    form = DiffusionForm(degree=1,
                         kappa=channels_and_inclusions(mesh, seed=3))
    kw.setdefault("num_subdomains", 4)
    kw.setdefault("nev", 4)
    kw.setdefault("preconditioner", _pre(krylov))
    return SchwarzSolver(mesh, form, krylov=krylov, recorder=recorder,
                         faults=faults, recovery=recovery, **kw)


@pytest.fixture(scope="module")
def solver():
    return _make_solver()


@pytest.fixture(scope="module")
def exact(solver):
    A = solver.problem.matrix().tocsc()
    b = solver.problem.rhs()
    return b, spla.spsolve(A, b)


# ----------------------------------------------------------------------
# Krylov registry (satellite 1)
# ----------------------------------------------------------------------

class TestRegistry:
    @pytest.mark.parametrize("krylov", DRIVERS)
    def test_all_six_selectable(self, krylov):
        s = _make_solver(krylov)
        report = s.solve(tol=1e-8)
        assert report.converged
        assert report.krylov.final_residual <= 1e-8

    def test_deflated_cg_needs_two_level(self):
        with pytest.raises(ReproError, match="deflation basis"):
            _make_solver("deflated-cg", levels=1, preconditioner="ras")

    def test_restart_reaches_fgmres(self):
        # a tiny restart forces extra cycles — the kwarg must be plumbed
        s_small = _make_solver("fgmres")
        few = s_small.solve(tol=1e-10, restart=3)
        many = _make_solver("fgmres").solve(tol=1e-10, restart=40)
        assert few.converged
        assert few.krylov.global_syncs != many.krylov.global_syncs

    def test_sstep_gets_block_size(self):
        report = _make_solver("sstep").solve(tol=1e-8, restart=4)
        assert report.converged


# ----------------------------------------------------------------------
# Warm starts (satellite 4)
# ----------------------------------------------------------------------

class TestWarmStart:
    @pytest.mark.parametrize("krylov", DRIVERS)
    def test_nonzero_x0_converges(self, krylov):
        s = _make_solver(krylov)
        b = s.problem.rhs()
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal(b.shape[0])
        report = s.solve(b, tol=1e-8, x0=x0)
        assert report.converged
        A = s.problem.matrix()
        res = np.linalg.norm(b - A @ report.krylov.x)
        assert res <= 1e-7 * np.linalg.norm(b)

    @pytest.mark.parametrize("krylov", DRIVERS)
    def test_exact_x0_zero_iterations(self, krylov):
        s = _make_solver(krylov)
        A = s.problem.matrix().tocsc()
        b = s.problem.rhs()
        xstar = spla.spsolve(A, b)
        report = s.solve(b, tol=1e-6, x0=xstar)
        assert report.converged
        assert report.iterations == 0


# ----------------------------------------------------------------------
# Shared zero-RHS early return (satellite 3)
# ----------------------------------------------------------------------

class TestZeroRhs:
    @pytest.mark.parametrize("krylov", DRIVERS)
    def test_zero_rhs_semantics(self, krylov):
        s = _make_solver(krylov)
        n = s.problem.num_free
        calls = []
        report = s.solve(np.zeros(n), tol=1e-8,
                         x0=np.ones(n),    # discarded: exact answer known
                         callback=lambda k, r: calls.append((k, r)))
        assert report.iterations == 0
        assert report.converged
        assert np.all(report.krylov.x == 0.0)
        assert report.residuals == [0.0]
        # the callback fires exactly once (it used to be skipped)
        assert calls == [(0, 0.0)]


# ----------------------------------------------------------------------
# Block drivers (tentpole)
# ----------------------------------------------------------------------

class TestSolveMany:
    @pytest.mark.parametrize("krylov", ["gmres", "cg"])
    def test_matches_single_solves(self, krylov):
        s = _make_solver(krylov)
        n = s.problem.num_free
        rng = np.random.default_rng(2)
        B = rng.standard_normal((n, 5))
        rep = s.session().solve_many(B, tol=1e-9)
        assert rep.converged
        assert rep.driver == ("block-cg" if krylov == "cg"
                              else "block-gmres")
        for j in range(5):
            single = s.solve(B[:, j], tol=1e-11)
            err = (np.linalg.norm(rep.X[:, j] - single.x)
                   / np.linalg.norm(single.x))
            assert err < 1e-6

    def test_column_deflation_with_exact_column(self, solver, exact):
        b, xstar = exact
        n = solver.problem.num_free
        rng = np.random.default_rng(3)
        B = np.column_stack([b, rng.standard_normal(n)])
        X0 = np.zeros((n, 2))
        X0[:, 0] = xstar          # column 0 starts at its solution
        rec = Recorder()
        s = _make_solver(recorder=rec)
        rep = s.session().solve_many(B, tol=1e-6, X0=X0)
        assert rep.converged
        assert rep.column_iterations[0] == 0      # deflated immediately
        assert rep.column_iterations[1] > 0
        # the trace carries the same per-column map
        assert column_iterations(rec) == {
            0: 0, 1: int(rep.column_iterations[1])}

    def test_zero_column_in_block(self, solver):
        n = solver.problem.num_free
        rng = np.random.default_rng(4)
        B = np.column_stack([np.zeros(n), rng.standard_normal(n)])
        rep = solver.session().solve_many(B, tol=1e-8)
        assert rep.converged
        assert np.all(rep.X[:, 0] == 0.0)
        assert rep.column_iterations[0] == 0

    def test_fewer_block_iterations_than_singles(self, solver):
        n = solver.problem.num_free
        rng = np.random.default_rng(6)
        B = rng.standard_normal((n, 8))
        rep = solver.session().solve_many(B, tol=1e-8)
        single_iters = max(solver.solve(B[:, j], tol=1e-8).iterations
                           for j in range(8))
        assert rep.iterations <= single_iters


# ----------------------------------------------------------------------
# Health monitoring across every registered driver
# ----------------------------------------------------------------------

class TestHealthAllDrivers:
    @pytest.mark.parametrize("krylov", DRIVERS)
    def test_nan_fault_surfaces_typed(self, krylov):
        plan = FaultPlan([FaultSpec("nan", "local_solve", rank=1, nth=2)])
        s = _make_solver(krylov, faults=plan)
        with pytest.raises(ReproError):
            s.solve(tol=1e-10)


# ----------------------------------------------------------------------
# Session plumbing
# ----------------------------------------------------------------------

class TestSessionApi:
    def test_factory_and_export(self, solver):
        session = solver.session()
        assert isinstance(session, SolveSession)
        assert session.solver is solver

    def test_counters(self):
        rec = Recorder()
        s = _make_solver(recorder=rec)
        n = s.problem.num_free
        B = np.random.default_rng(0).standard_normal((n, 3))
        s.session().solve_many(B, tol=1e-8)
        assert rec.counters["batch.batches"] == 1
        assert rec.counters["batch.columns"] == 3
        assert rec.counters["batch.block_iterations"] >= 1

    def test_invalid_inputs(self, solver):
        session = solver.session()
        with pytest.raises(ReproError):
            session.solve_many(np.zeros(5))          # 1-D
        with pytest.raises(ReproError):
            session.solve_many(np.zeros((5, 2)), driver="bogus")
