"""What leaving telemetry on costs: ``SchwarzSolver(recorder=Recorder())``
against ``recorder=None`` on the ``elasticity2d_manyrhs`` pipeline of
``benchmarks/e2e`` (set-up plus 16 solves, the Krylov-dominated
workload, where the per-iteration spans and events are densest).

Each pair runs both variants back to back, alternating which goes first;
the report gives per-pair ratios (recorder / none) and their median and
quartiles.  Nothing is asserted — the numbers go to
``docs/observability.md``.

Run::

    PYTHONPATH=src python benchmarks/bench_telemetry_cost.py --pairs 7
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "e2e"))

from workloads import BY_NAME, RESTART, perturbed_rhs  # noqa: E402

from repro import SchwarzSolver  # noqa: E402
from repro.obs import Recorder  # noqa: E402


def run_once(instrumented: bool, smoke: bool) -> tuple[float, float]:
    """Seconds of (set-up, 16 solves) for one variant."""
    w = BY_NAME["elasticity2d_manyrhs"]
    mesh, form, cfg = w.build(smoke)
    gc.collect()
    t0 = time.perf_counter()
    solver = SchwarzSolver(mesh, form,
                           recorder=Recorder() if instrumented else None,
                           **cfg)
    t1 = time.perf_counter()
    b = solver.problem.rhs()
    rng = np.random.default_rng([0, 0])
    for k in range(w.solves):
        rhs = b if k == 0 else perturbed_rhs(b, rng)
        solver.solve(rhs, tol=w.tol, restart=RESTART, maxiter=1000)
    return t1 - t0, time.perf_counter() - t1


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--pairs", type=int, default=7)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    run_once(False, True)                 # warm imports and caches
    rows = {"none": [], "recorder": []}
    for p in range(args.pairs):
        order = (False, True) if p % 2 == 0 else (True, False)
        for instrumented in order:
            setup, solve = run_once(instrumented, args.smoke)
            rows["recorder" if instrumented else "none"].append(
                (setup, solve))
        print(f"pair {p}: none setup {rows['none'][-1][0]:.3f} s "
              f"solve {rows['none'][-1][1]:.3f} s | recorder setup "
              f"{rows['recorder'][-1][0]:.3f} s solve "
              f"{rows['recorder'][-1][1]:.3f} s", flush=True)
    for i, name in enumerate(("setup", "solve")):
        ratios = [r[i] / n[i] for n, r in zip(rows["none"],
                                              rows["recorder"])]
        q1, med, q3 = quartiles(ratios)
        print(f"{name}: none median "
              f"{statistics.median(n[i] for n in rows['none']):.3f} s, "
              f"recorder median "
              f"{statistics.median(r[i] for r in rows['recorder']):.3f} s,"
              f" ratio median {med:.3f} (quartiles {q1:.3f}–{q3:.3f})")
    totals = [sum(r) / sum(n) for n, r in zip(rows["none"],
                                              rows["recorder"])]
    q1, med, q3 = quartiles(totals)
    print(f"setup+solves: ratio median {med:.3f} "
          f"(quartiles {q1:.3f}–{q3:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
