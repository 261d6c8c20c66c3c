"""Tests for the Picard nonlinear solver."""

import numpy as np
import pytest

from repro.common.errors import ReproError
from repro.mesh import unit_square
from repro.nonlinear import PicardSolver


def linear_kappa(u_cells, c):
    """Solution-independent: Picard must converge in exactly 2 steps
    (second step reproduces the first solve)."""
    return np.ones(len(c))


def mild_kappa(u_cells, c):
    return 1.0 + 10.0 * u_cells ** 2


def contrast_kappa(u_cells, c):
    base = np.where(np.abs(c[:, 1] - 0.5) < 0.1, 1e3, 1.0)
    return base * (1.0 + 20.0 * u_cells ** 2)


@pytest.fixture(scope="module")
def mesh():
    return unit_square(16)


class TestPicard:
    def test_linear_problem_two_steps(self, mesh):
        solver = PicardSolver(mesh, linear_kappa, f=1.0,
                              num_subdomains=4, nev=4)
        rep = solver.solve(picard_tol=1e-10, max_picard=5)
        assert rep.converged
        assert rep.picard_iterations == 2
        assert rep.updates[-1] < 1e-10

    def test_nonlinear_converges(self, mesh):
        solver = PicardSolver(mesh, mild_kappa, f=10.0,
                              num_subdomains=4, nev=4)
        rep = solver.solve(picard_tol=1e-8, max_picard=40)
        assert rep.converged
        assert rep.picard_iterations > 2
        # updates decrease monotonically (contraction)
        ups = rep.updates
        assert ups[-1] < ups[0]

    def test_solution_satisfies_fixed_point(self, mesh):
        """Re-solving with the converged coefficient reproduces x."""
        solver = PicardSolver(mesh, mild_kappa, f=10.0,
                              num_subdomains=4, nev=4)
        rep = solver.solve(picard_tol=1e-10, max_picard=50)
        from repro import SchwarzSolver
        from repro.fem.forms import DiffusionForm
        u_cells = rep.x[:mesh.num_vertices][mesh.cells].mean(axis=1)
        kap = mild_kappa(u_cells, mesh.cell_centroids())
        lin = SchwarzSolver(mesh, DiffusionForm(degree=2, kappa=kap,
                                                f=10.0),
                            num_subdomains=4, nev=4)
        ref = lin.solve(tol=1e-10, maxiter=400)
        err = np.linalg.norm(rep.x - ref.x) / np.linalg.norm(ref.x)
        assert err < 1e-6

    @pytest.mark.parametrize("strategy", ["rebuild", "reuse", "freeze"])
    def test_coarse_strategies_agree(self, mesh, strategy):
        solver = PicardSolver(mesh, contrast_kappa, f=5.0,
                              num_subdomains=4, nev=6, coarse=strategy)
        rep = solver.solve(picard_tol=1e-8, max_picard=40)
        assert rep.converged
        assert np.isfinite(rep.x).all()

    def test_reuse_skips_eigensolves(self, mesh):
        reb = PicardSolver(mesh, mild_kappa, f=10.0, num_subdomains=4,
                           nev=4, coarse="rebuild")
        r1 = reb.solve(picard_tol=1e-8, max_picard=40)
        reu = PicardSolver(mesh, mild_kappa, f=10.0, num_subdomains=4,
                           nev=4, coarse="reuse")
        r2 = reu.solve(picard_tol=1e-8, max_picard=40)
        # rebuild pays #picard-many deflation phases, reuse pays one
        assert r1.recorder.totals()["deflation"]["count"] == \
            r1.picard_iterations
        assert r2.recorder.totals()["deflation"]["count"] == 1
        # same fixed point
        assert np.allclose(r1.x, r2.x, atol=1e-5 * abs(r1.x).max())

    def test_not_converged_flag(self, mesh):
        solver = PicardSolver(mesh, mild_kappa, f=10.0,
                              num_subdomains=4, nev=4)
        rep = solver.solve(picard_tol=1e-14, max_picard=2)
        assert not rep.converged

    def test_errors(self, mesh):
        with pytest.raises(ReproError):
            PicardSolver(mesh, mild_kappa, coarse="adaptive")
        bad = PicardSolver(mesh, lambda u, c: np.ones(3),
                           num_subdomains=4)
        with pytest.raises(ReproError):
            bad.solve(max_picard=1)
        neg = PicardSolver(mesh, lambda u, c: -np.ones(len(c)),
                           num_subdomains=4)
        with pytest.raises(ReproError):
            neg.solve(max_picard=1)
