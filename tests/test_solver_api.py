"""Tests for the high-level SchwarzSolver API and the perfmodel."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro import SchwarzSolver
from repro.common.errors import ReproError
from repro.fem import channels_and_inclusions, layered_elasticity
from repro.fem.forms import DiffusionForm, ElasticityForm
from repro.mesh import rectangle, unit_cube, unit_square
from repro.obs import Recorder
from repro.perfmodel import (
    CURIE,
    MachineModel,
    coarse_operator_report,
    measure_row,
    speedup,
    weak_efficiency,
)


@pytest.fixture(scope="module")
def small_setup():
    mesh = unit_square(20)
    kappa = channels_and_inclusions(mesh, seed=3)
    return mesh, DiffusionForm(degree=2, kappa=kappa)


class TestSchwarzSolver:
    def test_solution_matches_direct(self, small_setup):
        mesh, form = small_setup
        s = SchwarzSolver(mesh, form, num_subdomains=6, nev=6)
        r = s.solve(tol=1e-8)
        assert r.converged
        xref = spla.spsolve(s.problem.matrix().tocsc(), s.problem.rhs())
        xref = s.problem.extend(xref)
        assert np.linalg.norm(r.x - xref) <= 1e-5 * np.linalg.norm(xref)

    def test_one_level_more_iterations(self, small_setup):
        mesh, form = small_setup
        two = SchwarzSolver(mesh, form, num_subdomains=8, nev=6, seed=1)
        one = SchwarzSolver(mesh, form, num_subdomains=8, levels=1, seed=1)
        r2 = two.solve(tol=1e-8, maxiter=300)
        r1 = one.solve(tol=1e-8, maxiter=300)
        assert r2.converged
        assert r2.iterations < r1.iterations

    @pytest.mark.parametrize("pre", ["adef1", "adef2", "bnn", "ras", "asm"])
    def test_preconditioner_choices(self, small_setup, pre):
        mesh, form = small_setup
        s = SchwarzSolver(mesh, form, num_subdomains=4, nev=4,
                          preconditioner=pre)
        r = s.solve(tol=1e-6, maxiter=300)
        assert r.converged

    @pytest.mark.parametrize("krylov", ["gmres", "p1-gmres", "cg"])
    def test_krylov_choices(self, small_setup, krylov):
        mesh, form = small_setup
        pre = "bnn" if krylov == "cg" else "adef1"
        s = SchwarzSolver(mesh, form, num_subdomains=4, nev=4,
                          krylov=krylov, preconditioner=pre)
        r = s.solve(tol=1e-6, maxiter=300)
        assert r.converged

    def test_nicolaides_coarse_space(self, small_setup):
        mesh, form = small_setup
        s = SchwarzSolver(mesh, form, num_subdomains=6, nev=0)
        assert s.coarse_dim == 6      # one constant per subdomain
        r = s.solve(tol=1e-6, maxiter=400)
        assert r.iterations > 0

    def test_tau_threshold(self, small_setup):
        mesh, form = small_setup
        s = SchwarzSolver(mesh, form, num_subdomains=6, nev=10, tau=0.5)
        assert s.coarse_dim <= 60
        for g in s.geneo_results:
            finite = g.eigenvalues[np.isfinite(g.eigenvalues)]
            assert np.all(finite < 0.5) or g.nu == 1

    def test_timer_phases(self, small_setup):
        mesh, form = small_setup
        rec = Recorder()
        s = SchwarzSolver(mesh, form, num_subdomains=4, nev=4, recorder=rec)
        s.solve(tol=1e-6)
        t = rec.totals()
        for phase in ("decomposition", "factorization", "deflation",
                      "coarse", "solution"):
            assert t[phase]["count"] == 1

    def test_explicit_part(self, small_setup):
        mesh, form = small_setup
        part = (mesh.cell_centroids()[:, 0] > 0.5).astype(int)
        s = SchwarzSolver(mesh, form, num_subdomains=2, nev=3, part=part)
        assert s.decomposition.num_subdomains == 2

    def test_elasticity_3d(self):
        mesh = unit_cube(3)
        lam, mu = layered_elasticity(mesh)
        form = ElasticityForm(degree=1, lam=lam, mu=mu)
        s = SchwarzSolver(mesh, form, num_subdomains=4, nev=8,
                          dirichlet=lambda x: x[:, 2] < 1e-9)
        r = s.solve(tol=1e-6, maxiter=200)
        assert r.converged

    def test_errors(self, small_setup):
        mesh, form = small_setup
        with pytest.raises(ReproError):
            SchwarzSolver(mesh, form, num_subdomains=4, levels=3)
        with pytest.raises(ReproError):
            SchwarzSolver(mesh, form, num_subdomains=4, krylov="bicgstab")
        with pytest.raises(ReproError):
            SchwarzSolver(mesh, form, num_subdomains=4,
                          preconditioner="amg")

    def test_scaling_off(self, small_setup):
        mesh, form = small_setup
        s = SchwarzSolver(mesh, form, num_subdomains=4, nev=4, scaling=None)
        r = s.solve(tol=1e-6, maxiter=300)
        assert r.converged

    def test_custom_rhs(self, small_setup):
        mesh, form = small_setup
        s = SchwarzSolver(mesh, form, num_subdomains=4, nev=4)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(s.problem.num_free)
        r = s.solve(b, tol=1e-6, maxiter=300)
        xref = spla.spsolve(s.problem.matrix().tocsc(), b)
        assert np.allclose(r.x[s.problem.free],
                           s.problem.scale * xref if s.problem.scale
                           is not None else xref,
                           atol=1e-4 * abs(xref).max())


class TestPerfModel:
    def test_collective_costs_log_vs_linear(self):
        m = MachineModel()
        # gatherv is O(P); allreduce is O(log P): for large P they diverge
        assert m.collective("gatherv", 64, 1024) > \
            m.collective("allreduce", 64, 1024) * 10

    def test_p2p_monotone_in_bytes(self):
        m = MachineModel()
        assert m.p2p(1000) < m.p2p(100000)

    def test_measure_row(self, small_setup):
        mesh, form = small_setup
        s = SchwarzSolver(mesh, form, num_subdomains=4, nev=4)
        row = measure_row(s, tol=1e-6)
        assert row.N == 4
        assert row.total > 0
        assert row.iterations > 0

    def test_speedup_and_efficiency(self):
        from repro.perfmodel import ScalingRow
        rows = [ScalingRow(4, 4.0, 4.0, 2.0, 10, 1000),
                ScalingRow(8, 2.0, 2.0, 1.0, 10, 1000)]
        sp_ = speedup(rows)
        assert sp_[0] == 1.0 and sp_[1] == pytest.approx(2.0)
        wrows = [ScalingRow(4, 4.0, 4.0, 2.0, 10, 1000),
                 ScalingRow(8, 4.0, 4.0, 2.0, 10, 2000)]
        eff = weak_efficiency(wrows)
        assert eff[1] == pytest.approx(1.0)

    def test_coarse_operator_report(self, small_setup):
        mesh, form = small_setup
        s = SchwarzSolver(mesh, form, num_subdomains=6, nev=4)
        rep = coarse_operator_report(s, num_masters=2)
        assert rep.dim_e == s.coarse_dim
        assert rep.avg_neighbors > 0
        assert rep.nnz_factor > 0
        assert rep.time > 0
