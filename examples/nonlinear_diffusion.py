#!/usr/bin/env python3
"""Nonlinear heterogeneous diffusion (the paper's outlook, §4).

Solves the quasilinear problem −∇·(κ(x,u)∇u) = f with κ(x,u) =
κ₀(x)(1 + β u²) — a solution-dependent conductivity on top of a
high-contrast background — by Picard iteration, reusing the two-level
GenEO machinery for every frozen-coefficient linear solve.

Compares the three coarse-space strategies across Picard steps:
rebuild (GenEO every step), reuse (GenEO once, re-assemble E), freeze
(keep the whole first preconditioner).

Run:  python examples/nonlinear_diffusion.py
"""

import numpy as np

from repro.common.asciiplot import table
from repro.mesh import unit_square
from repro.nonlinear import PicardSolver


def kappa_of_u(u_cells, centroids):
    """High-contrast channel + solution-dependent enhancement."""
    base = np.where(np.abs(centroids[:, 1] - 0.5) < 0.08, 1e4, 1.0)
    return base * (1.0 + 100.0 * u_cells ** 2)


def main():
    mesh = unit_square(32)
    rows = []
    for strategy in ("rebuild", "reuse", "freeze"):
        solver = PicardSolver(mesh, kappa_of_u, f=10.0,
                              num_subdomains=8, nev=8, coarse=strategy)
        rep = solver.solve(picard_tol=1e-8, max_picard=40)
        geneo_s = rep.recorder.totals()["deflation"]["seconds"]
        rows.append([strategy, rep.picard_iterations,
                     rep.total_linear_iterations, f"{geneo_s:.2f} s",
                     rep.converged])
        print(f"{strategy:8s}: {rep.picard_iterations} Picard steps, "
              f"linear its/step = {rep.linear_iterations}")
    print()
    print(table(["coarse strategy", "Picard steps", "total linear its",
                 "GenEO time", "converged"], rows,
                title="nonlinear diffusion: reuse of the GenEO coarse "
                      "space across Picard steps"))
    print("\n'reuse' pays the eigensolves once and keeps the linear "
          "iteration counts\nessentially flat — the workflow the paper's "
          "conclusion anticipates for\nnonlinear mechanics.")


if __name__ == "__main__":
    main()
