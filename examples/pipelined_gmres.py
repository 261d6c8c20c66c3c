#!/usr/bin/env python3
"""§3.5: communication-avoiding multilevel preconditioning.

Runs the same two-level solve three ways over the simulated MPI and
counts *blocking global synchronisations* on the critical path:

1. classical GMRES — one dot-batch + one norm reduction per iteration;
2. sequential p1-GMRES — reductions posted non-blocking (overlappable);
3. the paper's **fused** p1-GMRES — the reduction contributions ride the
   coarse-correction Gather/Scatter and one Iallreduce between the
   masters overlaps the coarse solve: zero extra global syncs/iteration.

Run:  python examples/pipelined_gmres.py
"""

from repro import SchwarzSolver
from repro.common.asciiplot import table
from repro.core.spmd import solve_spmd
from repro.fem import channels_and_inclusions
from repro.fem.forms import DiffusionForm
from repro.mesh import unit_square
from repro.mpi import Meter
from repro.obs import Recorder, gantt


def main():
    mesh = unit_square(32)
    form = DiffusionForm(degree=2,
                         kappa=channels_and_inclusions(mesh, seed=5))
    solver = SchwarzSolver(mesh, form, num_subdomains=8, nev=8)
    b = solver.problem.rhs()
    dec, space = solver.decomposition, solver.deflation

    rows = []
    for label, method in (("classical GMRES", "gmres"),
                          ("fused p1-GMRES (paper §3.5)", "fused-p1")):
        # the rank spans land on the meter's recorder (tracks rank0..)
        rec = Recorder()
        meter = Meter(dec.num_subdomains, recorder=rec)
        _, its, res, _ = solve_spmd(dec, space, b, num_masters=2,
                                    method=method, tol=1e-8, maxiter=100,
                                    meter=meter)
        stats = meter.summary()
        rows.append([label, its, f"{res[-1]:.1e}",
                     stats["max_global_syncs"], stats["messages"]])
    print(table(["method", "#it", "final residual",
                 "blocking global syncs", "p2p messages"], rows,
                title="Two-level solve over simulated MPI "
                      "(8 ranks, 2 masters)"))
    print("\nThe fused pipeline performs the same Krylov iterations but "
          "replaces per-iteration\nblocking reductions with values "
          "piggybacked on the coarse-solve Gather/Scatter\nplus one "
          "overlapped Iallreduce on masterComm (paper §3.5).")
    print("\nper-rank execution timeline of the fused run "
          "(masters show coarse solves):")
    print(gantt(rec, width=70, max_tracks=8))


if __name__ == "__main__":
    main()
