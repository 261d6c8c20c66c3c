"""Coarse-solve strategy shoot-out: dense vs sparse vs multilevel.

The scaling wall of §3.4 is the coarse solve: at paper N the dense
distributed Cholesky on the masters serialises in its panel broadcasts.
This benchmark measures all three registered strategies on the same
coarse operators and extends the table to the paper's N with the α–β
cost models (:mod:`repro.perfmodel.coarse_costs`):

* **dense** is measured in its at-scale realisation — the block-row
  :class:`~repro.solvers.distributed.DistributedCholesky` over the
  simulated MPI masterComm, with the panel/substitution bytes metered;
* **sparse** is measured as the sequential solve handle the strategy
  actually builds (the MUMPS-regime masters would divide that work);
* **multilevel** is measured sequentially and reported as its SPMD
  wall-clock estimate — sequential time / P₂ plus the modelled inner
  reductions — the same convention the figure-8/10 harness uses for
  every concurrent phase (``measure_row``: solution = t_seq / N +
  modelled communication).  The raw sequential seconds are kept in the
  JSON;
* outer-iteration parity is checked by solving the full problem at
  tol 1e-8 under every strategy (inexact coarse solves must not cost
  more than a handful of extra outer iterations);
* the measured rows are extended to simulated N ≥ 1024 with the
  per-strategy cost models and per-strategy power-law fits of the
  measured times.

Run directly (CI runs ``--smoke``)::

    PYTHONPATH=src python benchmarks/bench_coarse_strategies.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from common import diffusion_2d, write_result, write_json  # noqa: E402
from repro import SchwarzSolver  # noqa: E402
from repro.common.asciiplot import table  # noqa: E402
from repro.core.coarse_strategies import MultilevelCoarseSolve  # noqa: E402
from repro.mpi import Meter, run_spmd  # noqa: E402
from repro.perfmodel import CURIE, fit_power_law, strategy_cost  # noqa: E402
from repro.solvers import factorize  # noqa: E402
from repro.solvers.distributed import DistributedCholesky  # noqa: E402

NEV = 8
STRATEGIES = ("dense", "sparse", "multilevel")
#: modelled scale-out decompositions (the paper's range)
MODEL_NS = (128, 256, 512, 1024, 2048)


def measure_dense_distributed(E, P: int, repeats: int):
    """Factorise + solve E with the at-scale dense realisation: the
    block-row distributed Cholesky over P simulated masters.  Returns
    (t_factorize, t_solve, bytes_factorize, bytes_solve_per_rhs)."""
    dim = E.shape[0]
    Ed = E.toarray()
    row_starts = (np.arange(P + 1) * dim) // P
    rng = np.random.default_rng(0)
    b = rng.standard_normal(dim)
    meter = Meter(P)

    def rank_main(comm):
        p = comm.rank
        r0, r1 = int(row_starts[p]), int(row_starts[p + 1])
        comm.barrier()
        t0 = time.perf_counter()
        dc = DistributedCholesky(comm, row_starts, Ed[r0:r1])
        comm.barrier()
        t1 = time.perf_counter()
        for _ in range(repeats):
            dc.solve(b[r0:r1])
        comm.barrier()
        t2 = time.perf_counter()
        return (t1 - t0, (t2 - t1) / repeats,
                dc.bytes_factorize, dc.bytes_solve / repeats)

    out = run_spmd(P, rank_main, meter=meter)
    t_fact = max(r[0] for r in out)
    t_solve = max(r[1] for r in out)
    bytes_fact = sum(r[2] for r in out)
    bytes_solve = sum(r[3] for r in out)
    return t_fact, t_solve, bytes_fact, bytes_solve


def measure_sequential(build, repeats: int, dim: int):
    """Time build() + repeated solves of the handle it returns."""
    rng = np.random.default_rng(0)
    b = rng.standard_normal(dim)
    t0 = time.perf_counter()
    handle = build()
    t1 = time.perf_counter()
    for _ in range(repeats):
        handle.solve(b)
    t2 = time.perf_counter()
    return handle, t1 - t0, (t2 - t1) / repeats


def run(smoke: bool) -> dict:
    NS = (8, 16, 32) if smoke else (8, 16, 32, 64)
    repeats = 5 if smoke else 20
    mesh, form, clamp = diffusion_2d(n=32 if smoke else 48,
                                     degree=2 if smoke else 3)

    rows = []          # measured table rows
    iters = {}         # strategy -> [outer iterations per N]
    measured = {s: {"N": [], "t_solve": [], "t_fact": [], "bytes": []}
                for s in STRATEGIES}
    for N in NS:
        per_n = {}
        for strat in STRATEGIES:
            kry = "fgmres" if strat == "multilevel" else "gmres"
            solver = SchwarzSolver(mesh, form, num_subdomains=N, delta=1,
                                   nev=NEV, dirichlet=clamp, seed=0,
                                   krylov=kry, coarse_strategy=strat)
            report = solver.solve(tol=1e-8, maxiter=400)
            iters.setdefault(strat, []).append(report.iterations)
            coarse = solver.coarse
            E = coarse.E
            dim = E.shape[0]
            P = max(2, N // 8)
            if strat == "dense":
                t_fact, t_solve, b_fact, b_solve = \
                    measure_dense_distributed(E, P, repeats)
            elif strat == "sparse":
                _, t_fact, t_solve = measure_sequential(
                    lambda E=E: factorize(E.tocsc(), "superlu"),
                    repeats, dim)
                b_fact = 0
                b_solve = 2.0 * 8.0 * dim      # gather/scatter plumbing
            else:
                space = solver.deflation
                nbrs = [list(s.neighbors)
                        for s in space.dec.subdomains]
                handle, t_fact, t_seq = measure_sequential(
                    lambda E=E, sp=space, nb=nbrs: MultilevelCoarseSolve(
                        E, sp.offsets, nb), repeats, dim)
                # SPMD wall-clock: the level-2 parts run concurrently
                # (fig. 8/10 convention: sequential time / ranks +
                # modelled communication of the inner iterations)
                parts = handle.num_parts
                t_solve = t_seq / parts + handle.inner_iters * (
                    CURIE.collective("allreduce", 64, parts)
                    + CURIE.p2p(8.0 * NEV, messages=2))
                measured[strat].setdefault("t_seq", []).append(t_seq)
                b_fact = 0
                b_solve = strategy_cost("multilevel", N, NEV).bytes_solve
            per_n[strat] = (t_solve, report.iterations)
            measured[strat]["N"].append(N)
            measured[strat]["t_solve"].append(t_solve)
            measured[strat]["t_fact"].append(t_fact)
            measured[strat]["bytes"].append(b_fact + b_solve)
            modelled = strategy_cost(strat, N, NEV)
            rows.append([strat, N, P, dim, int(E.nnz),
                         int(coarse.nnz_factor()),
                         report.iterations,
                         f"{t_fact * 1e3:.2f}", f"{t_solve * 1e6:.0f}",
                         f"{modelled.t_solve * 1e6:.0f}",
                         f"{(b_fact + b_solve) / 1e3:.1f}"])
        print(f"[N={N}] solve us/iter: " + ", ".join(
            f"{s}={per_n[s][0] * 1e6:.0f}" for s in STRATEGIES))

    txt_measured = table(
        ["strategy", "N", "P", "dim(E)", "nnz(E)", "nnz(fact)", "outer it",
         "t_fact ms", "t_solve us", "model us", "KB moved"],
        rows, title="COARSE STRATEGIES (measured, simulated MPI)")

    # -- scale-out: power-law fits of the measured solves + cost model --
    fits = {s: fit_power_law(measured[s]["N"], measured[s]["t_solve"])
            for s in STRATEGIES}
    model_rows = []
    for N in MODEL_NS:
        for s in STRATEGIES:
            c = strategy_cost(s, N, NEV)
            model_rows.append([s, N, c.P, c.dim,
                               f"{fits[s](N) * 1e3:.2f}",
                               f"{c.t_solve * 1e3:.3f}",
                               f"{c.t_factorize:.3f}",
                               f"{c.bytes_solve / 1e3:.1f}"])
    txt_model = table(
        ["strategy", "N", "P", "dim(E)", "fit ms", "model ms",
         "model fact s", "model KB/solve"],
        model_rows,
        title="COARSE STRATEGIES (weak scale-out to paper N, modelled)")

    largest = NS[-1]
    dense_t = measured["dense"]["t_solve"][-1]
    winners = {s: measured[s]["t_solve"][-1] for s in ("sparse",
                                                       "multilevel")}
    # acceptance: at the largest benched N the multilevel strategy beats
    # the dense distributed solve, with outer iterations within +5
    assert winners["multilevel"] < dense_t, (
        f"multilevel did not beat dense at N={largest}: "
        f"dense={dense_t:.2e}s, multilevel={winners['multilevel']:.2e}s")
    assert min(winners.values()) < dense_t, (
        f"no strategy beat dense at N={largest}: dense={dense_t:.2e}s, "
        f"others={winners}")
    for s in STRATEGIES:
        assert iters[s][-1] <= iters["dense"][-1] + 5, (
            f"{s} outer iterations {iters[s][-1]} exceed dense "
            f"{iters['dense'][-1]} + 5 at N={largest}")
    verdict = min(winners, key=winners.get)
    summary = (f"at N={largest}: dense={dense_t * 1e6:.0f}us, "
               + ", ".join(f"{s}={t * 1e6:.0f}us"
                           for s, t in winners.items())
               + f" -> {verdict} wins; outer iterations "
               + str({s: iters[s][-1] for s in STRATEGIES}))
    print(summary)

    payload = {
        "workload": "diffusion_2d", "nev": NEV, "smoke": smoke,
        "Ns": list(NS), "model_Ns": list(MODEL_NS),
        "measured": measured,
        "iterations": iters,
        "powerlaw_fits": {s: {"a": fits[s].a, "b": fits[s].b}
                          for s in STRATEGIES},
        "modelled": [
            {"strategy": s, "N": N,
             **{k: getattr(strategy_cost(s, N, NEV), k)
                for k in ("P", "dim", "nnz", "nnz_factor", "t_factorize",
                          "t_solve", "bytes_solve")}}
            for N in MODEL_NS for s in STRATEGIES],
        "winner_at_largest_N": verdict,
        "summary": summary,
    }
    write_result("coarse_strategies", txt_measured + "\n\n" + txt_model
                 + "\n\n" + summary)
    write_json("BENCH_coarse_strategies", payload)
    return payload


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized run (N up to 32, fewer repeats)")
    args = ap.parse_args(argv)
    run(args.smoke)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
