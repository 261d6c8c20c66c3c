"""Ablation: GenEO coarse-space reuse across nonlinear (Picard) steps.

The paper's conclusion targets nonlinear solid mechanics; the expensive
ingredient of each frozen-coefficient linear solve is the *deflation*
column (local eigensolves).  This bench measures the trade-off between
rebuilding the GenEO space every Picard step, reusing the first step's
vectors (E re-assembled), and freezing the entire first preconditioner.
"""

import numpy as np
import pytest

from common import write_result
from repro.common.asciiplot import table
from repro.mesh import unit_square
from repro.nonlinear import PicardSolver


def kappa_of_u(u_cells, c):
    base = np.where(np.abs(c[:, 1] - 0.5) < 0.08, 1e4, 1.0)
    return base * (1.0 + 100.0 * u_cells ** 2)


@pytest.fixture(scope="module")
def strategies():
    mesh = unit_square(24)
    out = {}
    rows = []
    for strategy in ("rebuild", "reuse", "freeze"):
        solver = PicardSolver(mesh, kappa_of_u, f=10.0,
                              num_subdomains=8, nev=8, coarse=strategy)
        rep = solver.solve(picard_tol=1e-8, max_picard=40)
        out[strategy] = rep
        deflation = rep.recorder.totals().get(
            "deflation", {"seconds": 0.0, "count": 0})
        rows.append([strategy, rep.picard_iterations,
                     rep.total_linear_iterations,
                     deflation["count"],
                     f"{deflation['seconds']:.2f}",
                     rep.converged])
    txt = table(["strategy", "Picard steps", "Σ linear its",
                 "GenEO solves", "GenEO time (s)", "converged"], rows,
                title="ABLATION — coarse-space reuse across Picard steps "
                      "(nonlinear heterogeneous diffusion)")
    write_result("ablation_nonlinear", txt)
    return out


def test_all_strategies_converge_to_same_fixed_point(strategies):
    xr = strategies["rebuild"].x
    for s in ("reuse", "freeze"):
        x = strategies[s].x
        assert strategies[s].converged
        assert np.linalg.norm(x - xr) <= 1e-4 * np.linalg.norm(xr)


def test_reuse_pays_one_deflation(strategies):
    def deflations(rep):
        return rep.recorder.totals()["deflation"]["count"]

    assert deflations(strategies["reuse"]) == 1
    assert deflations(strategies["rebuild"]) == \
        strategies["rebuild"].picard_iterations


def test_reuse_linear_iterations_stay_flat(strategies):
    """The reused coarse space keeps working across Picard steps (the
    spectral content drifts slowly): no blow-up of linear iterations."""
    its = strategies["reuse"].linear_iterations
    assert max(its) <= min(its) + 6


def test_bench_picard_step(strategies, benchmark):
    mesh = unit_square(16)
    solver = PicardSolver(mesh, kappa_of_u, f=10.0,
                          num_subdomains=4, nev=4, coarse="reuse")

    def run():
        return solver.solve(picard_tol=1e-6, max_picard=10)

    benchmark.pedantic(run, rounds=3, iterations=1)
