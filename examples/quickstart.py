#!/usr/bin/env python3
"""Quickstart: solve a heterogeneous diffusion problem with the two-level
GenEO-Schwarz preconditioner and compare against the one-level method.

This is figure 1 of the paper in miniature: the "basic" preconditioner
(one-level RAS) is oblivious to the κ contrast and crawls; the "advanced"
one (A-DEF1 with a GenEO coarse space) converges in a few tens of
iterations regardless of the 3·10⁶ coefficient jump.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import SchwarzSolver
from repro.common.asciiplot import semilogy
from repro.fem import channels_and_inclusions
from repro.fem.forms import DiffusionForm
from repro.mesh import unit_square
from repro.obs import Recorder


def main():
    # -- problem: -∇·(κ∇u) = 1 on the unit square, u = 0 on the boundary,
    #    κ jumping between 1 and 3e6 (channels + inclusions, fig. 9)
    mesh = unit_square(48)
    kappa = channels_and_inclusions(mesh, seed=42)
    form = DiffusionForm(degree=2, kappa=kappa, f=1.0)
    print(f"mesh: {mesh.num_cells} triangles, "
          f"contrast κ_max/κ_min = {kappa.max() / kappa.min():.1e}")

    # -- "advanced" two-level solver: 16 subdomains, 8 GenEO vectors each
    rec = Recorder()
    solver = SchwarzSolver(mesh, form, num_subdomains=16, delta=2, nev=8,
                           recorder=rec)
    report = solver.solve(tol=1e-8)
    print(f"\ntwo-level A-DEF1 : {report.iterations:3d} iterations "
          f"(converged={report.converged}, dim(E)={report.coarse_dim})")
    totals = rec.totals()
    for phase in ("decomposition", "factorization", "deflation", "coarse",
                  "solution"):
        print(f"   {phase:<14s} {totals[phase]['seconds']:6.2f} s")

    # -- "basic" one-level RAS on the same decomposition
    basic = SchwarzSolver(mesh, form, num_subdomains=16, delta=2, levels=1)
    report1 = basic.solve(tol=1e-8, maxiter=200)
    print(f"one-level RAS    : {report1.iterations:3d} iterations "
          f"(converged={report1.converged})")

    print("\n" + semilogy({
        '"Basic" preconditioning (RAS)': report1.residuals,
        '"Advanced" preconditioning (A-DEF1/GenEO)': report.residuals,
    }, ylabel="relative residual"))

    # -- sanity: compare with a direct solve
    import scipy.sparse.linalg as spla
    xref = solver.problem.extend(
        spla.spsolve(solver.problem.matrix().tocsc(), solver.problem.rhs()))
    err = np.linalg.norm(report.x - xref) / np.linalg.norm(xref)
    print(f"\n‖x − x_direct‖/‖x_direct‖ = {err:.2e}")


if __name__ == "__main__":
    main()
