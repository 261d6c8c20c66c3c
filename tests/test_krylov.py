"""Tests for the Krylov methods, including p1-GMRES equivalence."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConvergenceError, KrylovError
from repro.fem import FunctionSpace, assemble_load, assemble_stiffness, restrict_to_free
from repro.krylov import cg, fgmres, gmres, p1_gmres
from repro.mesh import unit_square


@pytest.fixture(scope="module")
def system():
    m = unit_square(10)
    V = FunctionSpace(m, 2)
    A = assemble_stiffness(V)
    b = assemble_load(V, 1.0)
    Aff, bf, _ = restrict_to_free(A, b, V.boundary_dofs())
    import scipy.sparse.linalg as spla
    return Aff.tocsr(), bf, spla.spsolve(Aff.tocsc(), bf)


class TestGMRES:
    def test_solves(self, system):
        A, b, xref = system
        r = gmres(A, b, tol=1e-10, restart=80, maxiter=400)
        assert r.converged
        assert np.linalg.norm(r.x - xref) < 1e-8 * np.linalg.norm(xref)

    def test_residuals_monotone_within_cycle(self, system):
        A, b, _ = system
        r = gmres(A, b, tol=1e-8, restart=200, maxiter=400)
        res = np.array(r.residuals)
        assert np.all(np.diff(res) <= 1e-12)

    def test_restart_path(self, system):
        A, b, xref = system
        r = gmres(A, b, tol=1e-8, restart=5, maxiter=600)
        assert r.converged

    def test_zero_rhs(self, system):
        A, _, _ = system
        r = gmres(A, np.zeros(A.shape[0]))
        assert r.iterations == 0
        assert np.all(r.x == 0)

    def test_maxiter_stall(self, system):
        A, b, _ = system
        r = gmres(A, b, tol=1e-14, maxiter=3, restart=2)
        assert not r.converged
        assert r.iterations <= 3

    @pytest.mark.parametrize("method", [gmres, fgmres])
    def test_raise_on_stall(self, system, method):
        A, b, _ = system
        with pytest.raises(ConvergenceError) as exc:
            method(A, b, tol=1e-14, maxiter=3, restart=2,
                   raise_on_stall=True)
        assert exc.value.x is not None
        assert len(exc.value.residuals) > 0

    def test_callback_invoked(self, system):
        A, b, _ = system
        seen = []
        gmres(A, b, tol=1e-6, restart=40, maxiter=100,
              callback=lambda it, res: seen.append((it, res)))
        assert len(seen) > 2
        assert seen[0][0] == 0

    def test_callable_operator(self, system):
        A, b, xref = system
        r = gmres(lambda v: A @ v, b, tol=1e-8, restart=60, maxiter=200)
        assert np.allclose(r.x, xref, atol=1e-6 * abs(xref).max())

    def test_right_preconditioning_counts_syncs(self, system):
        A, b, _ = system
        r = gmres(A, b, tol=1e-8, restart=60, maxiter=200)
        # 2 syncs per inner iteration plus restarts' residual norms
        assert r.global_syncs >= 2 * r.iterations

    def test_invalid_restart(self, system):
        A, b, _ = system
        with pytest.raises(KrylovError):
            gmres(A, b, restart=0)

    def test_x0(self, system):
        A, b, xref = system
        r = gmres(A, b, x0=xref, tol=1e-8)
        assert r.iterations == 0


class TestCG:
    def test_solves(self, system):
        A, b, xref = system
        r = cg(A, b, tol=1e-10, maxiter=500)
        assert r.converged
        assert np.linalg.norm(r.x - xref) < 1e-8 * np.linalg.norm(xref)

    def test_jacobi_preconditioner_helps(self, system):
        A, b, _ = system
        plain = cg(A, b, tol=1e-8, maxiter=1000)
        M = sp.diags(1.0 / A.diagonal())
        pre = cg(A, b, M=M, tol=1e-8, maxiter=1000)
        assert pre.converged
        assert pre.iterations <= plain.iterations + 5

    def test_breakdown_on_indefinite(self):
        A = sp.csr_matrix(np.diag([1.0, -1.0]))
        with pytest.raises(KrylovError):
            cg(A, np.ones(2), maxiter=10)

    def test_zero_rhs(self, system):
        A, _, _ = system
        assert cg(A, np.zeros(A.shape[0])).iterations == 0


class TestP1GMRES:
    def test_matches_gmres_iterations(self, system):
        """Exact-arithmetic equivalence: same iteration count (±1) and
        same converged solution."""
        A, b, xref = system
        r1 = gmres(A, b, tol=1e-9, restart=100, maxiter=300)
        r2 = p1_gmres(A, b, tol=1e-9, restart=100, maxiter=300)
        assert r2.converged
        assert abs(r1.iterations - r2.iterations) <= 2
        assert np.linalg.norm(r2.x - xref) < 1e-7 * np.linalg.norm(xref)

    def test_preconditioned(self, system):
        A, b, xref = system
        M = sp.diags(1.0 / A.diagonal())
        r = p1_gmres(A, b, M=M, tol=1e-8, restart=60, maxiter=300)
        assert r.converged
        assert np.linalg.norm(r.x - xref) < 1e-5 * np.linalg.norm(xref)

    def test_fewer_blocking_syncs(self, system):
        A, b, _ = system
        r1 = gmres(A, b, tol=1e-8, restart=100, maxiter=300)
        r2 = p1_gmres(A, b, tol=1e-8, restart=100, maxiter=300)
        assert r2.global_syncs < r1.global_syncs / 5
        assert r2.overlapped_reductions >= r2.iterations

    def test_restart_cycles(self, system):
        A, b, xref = system
        r = p1_gmres(A, b, tol=1e-8, restart=12, maxiter=600)
        assert r.converged

    def test_zero_rhs(self, system):
        A, _, _ = system
        assert p1_gmres(A, np.zeros(A.shape[0])).iterations == 0

    def test_invalid_restart(self, system):
        A, b, _ = system
        with pytest.raises(KrylovError):
            p1_gmres(A, b, restart=0)


class TestPropertyBased:
    @given(st.integers(min_value=2, max_value=20), st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_gmres_random_spd(self, n, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, n))
        A = M @ M.T + n * np.eye(n)
        b = rng.standard_normal(n)
        r = gmres(A, b, tol=1e-10, restart=n + 2, maxiter=10 * n)
        assert np.linalg.norm(A @ r.x - b) <= 1e-7 * np.linalg.norm(b)

    @given(st.integers(min_value=2, max_value=15), st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_p1_random_spd(self, n, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, n))
        A = M @ M.T + n * np.eye(n)
        b = rng.standard_normal(n)
        r = p1_gmres(A, b, tol=1e-9, restart=n + 3, maxiter=10 * n)
        assert np.linalg.norm(A @ r.x - b) <= 1e-5 * np.linalg.norm(b)


class TestIterationEvents:
    """Per-iteration telemetry events must reconstruct the residual
    history of every driver exactly (restart fixups included)."""

    def _events_match(self, driver, system, **kw):
        from repro.obs import Recorder, iteration_residuals
        A, b, _ = system
        rec = Recorder()
        r = driver(A, b, recorder=rec, **kw)
        assert iteration_residuals(rec) == r.residuals
        return rec, r

    def test_gmres(self, system):
        self._events_match(gmres, system, tol=1e-8, restart=80,
                           maxiter=400)

    def test_gmres_restarted(self, system):
        rec, r = self._events_match(gmres, system, tol=1e-8, restart=5,
                                    maxiter=600)
        restarts = [e for e in rec.events if e.name == "restart"]
        assert len(restarts) >= 1
        assert restarts[0].attrs["cycle"] == 1

    def test_p1_gmres(self, system):
        rec, r = self._events_match(p1_gmres, system, tol=1e-8,
                                    restart=5, maxiter=600)
        assert any(e.name == "restart" for e in rec.events)

    def test_cg(self, system):
        self._events_match(cg, system, tol=1e-8, maxiter=600)

    def test_fgmres(self, system):
        from repro.krylov import fgmres
        self._events_match(fgmres, system, tol=1e-8, restart=5,
                           maxiter=600)

    def test_s_step_gmres(self, system):
        from repro.krylov import s_step_gmres
        self._events_match(s_step_gmres, system, tol=1e-6, s=6,
                           maxiter=600)

    def test_no_recorder_emits_nothing(self, system, monkeypatch):
        """Without a recorder the drivers stay telemetry-free: no event,
        no span and not one clock read."""
        import time

        from repro.obs import NULL_RECORDER

        def no_clock():
            raise AssertionError("un-instrumented solve read the clock")

        A, b, _ = system
        monkeypatch.setattr(time, "perf_counter", no_clock)
        for driver, kw in ((gmres, dict(restart=5)), (cg, {}),
                           (p1_gmres, dict(restart=5))):
            r = driver(A, b, tol=1e-8, maxiter=600, **kw)
            assert r.converged
        assert not NULL_RECORDER.events and not NULL_RECORDER.spans
