"""Batched multi-RHS solve: block Krylov session vs looped single solves.

The paper's workloads re-solve one decomposed operator for many right-
hand sides (scaling sweeps, nonlinear/porous-media cases).  The looped
baseline pays per solve: a full Krylov iteration history where every
iteration does N single-vector local solves, one coarse solve and one
distributed matvec.  The :class:`repro.batch.SolveSession` batch path
pays per *block* iteration: one blocked local solve per subdomain
(BLAS-3 columns instead of BLAS-2 vectors), **one** coarse solve for
the whole block and one block matvec — and block GMRES needs fewer
iterations than the worst single column because all columns share the
Krylov information.

This benchmark times both paths on the same set-up solver for a 16-RHS
batch and asserts the ≥ 2× wall-clock speedup; both timings land in
``benchmarks/results/BENCH_batch_solve.json``.

Run directly (CI smoke mode)::

    PYTHONPATH=src python benchmarks/bench_batch_solve.py --smoke
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import write_json, write_result  # noqa: E402

from repro import SchwarzSolver  # noqa: E402
from repro.common.asciiplot import table  # noqa: E402
from repro.fem import channels_and_inclusions  # noqa: E402
from repro.fem.forms import DiffusionForm  # noqa: E402
from repro.mesh import unit_square  # noqa: E402

MIN_SPEEDUP = 2.0
RHS = 16


def build_solver(smoke: bool) -> tuple[SchwarzSolver, float]:
    mesh_n = 20 if smoke else 32
    degree = 2 if smoke else 3
    nsub = 12 if smoke else 16
    nev = 6 if smoke else 8
    mesh = unit_square(mesh_n)
    kappa = channels_and_inclusions(mesh, seed=9)
    form = DiffusionForm(degree=degree, kappa=kappa)
    t0 = time.perf_counter()
    solver = SchwarzSolver(mesh, form, num_subdomains=nsub, delta=1,
                           nev=nev, seed=0, partition_method="rcb")
    return solver, time.perf_counter() - t0


def make_rhs(solver: SchwarzSolver, k: int) -> np.ndarray:
    """The assembled load plus perturbed companions — a multi-load-case
    batch with realistic column-to-column similarity."""
    b = solver.problem.rhs()
    rng = np.random.default_rng(3)
    cols = [b]
    for _ in range(k - 1):
        cols.append(b + 0.1 * np.linalg.norm(b)
                    * rng.standard_normal(b.shape[0]))
    return np.column_stack(cols)


def run(smoke: bool) -> int:
    tol = 1e-8
    solver, setup_s = build_solver(smoke)
    B = make_rhs(solver, RHS)

    # best-of-2 on both paths to keep CI timing noise out of the ratio
    looped_s = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        looped_iters = []
        for j in range(RHS):
            rep = solver.solve(B[:, j], tol=tol)
            assert rep.converged
            looped_iters.append(rep.iterations)
        looped_s = min(looped_s, time.perf_counter() - t0)

    # batched: one SolveSession block solve
    session = solver.session()
    batched_s = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        batch = session.solve_many(B, tol=tol)
        batched_s = min(batched_s, time.perf_counter() - t0)
    assert batch.converged
    speedup = looped_s / batched_s

    rows = [
        ["dofs", solver.problem.space.num_dofs],
        ["subdomains", solver.decomposition.num_subdomains],
        ["coarse dim", solver.coarse_dim],
        ["right-hand sides", RHS],
        ["setup once", f"{setup_s:.3f} s"],
        ["looped 16 solves", f"{looped_s:.3f} s"],
        ["looped iterations", f"{min(looped_iters)}–{max(looped_iters)}"],
        ["batched solve_many", f"{batched_s:.3f} s"],
        ["block iterations", batch.iterations],
        ["speedup", f"{speedup:.2f}x (need >= {MIN_SPEEDUP:.1f}x)"],
    ]
    write_result("BENCH_batch_solve",
                 table(["quantity", "value"], rows,
                       title="batched multi-RHS solve vs looped baseline"))
    write_json("BENCH_batch_solve", {
        "rhs": RHS,
        "tol": tol,
        "smoke": smoke,
        "setup_seconds": setup_s,
        "looped_seconds": looped_s,
        "looped_iterations": looped_iters,
        "batched_seconds": batched_s,
        "block_iterations": int(batch.iterations),
        "column_iterations": [int(v) for v in batch.column_iterations],
        "speedup": speedup,
        "min_speedup": MIN_SPEEDUP,
    })

    if speedup < MIN_SPEEDUP:
        print(f"FAIL: batched speedup {speedup:.2f}x below the "
              f"{MIN_SPEEDUP:.1f}x floor", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--smoke", action="store_true",
                    help="small problem for CI")
    args = ap.parse_args()
    return run(args.smoke)


if __name__ == "__main__":
    sys.exit(main())
