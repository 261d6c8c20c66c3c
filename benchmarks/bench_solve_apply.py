"""Solve-phase fast path: cached A·Z vs the pre-cache apply loop.

One A-DEF1 application used to cost, per iteration:

* a serial per-subdomain solve loop with ``np.add.at`` combines (RAS),
* per-block Python list comprehensions for ``Zᵀu`` and ``Zy`` with a
  full neighbour ``exchange_sum`` inside ``z_dot``,
* a **global SpMV** ``dec.matvec(Zy)`` to form ``A Z E⁻¹ Zᵀ u``.

The fast path caches ``T_i = A_i W_i`` (already computed for the E
assembly) as a sparse ``A·Z`` at setup, assembles a CSR ``Z`` once, and
runs the RAS loop under the parallel engine with fancy-index combines.
Per iteration that deletes one global SpMV and one overlap exchange and
replaces every per-block Python loop with a single spmv.

This benchmark times one preconditioner application both ways — the
reference is a line-for-line replica of the pre-cache code path (seed
revision), kept inline so the production kernels can keep improving —
and asserts the ≥ 2× per-iteration apply speedup on the fig-10 style
problem at N = 64 subdomains.  It also counts global SpMVs per apply
(fast path: zero) and reports the per-phase solve profile of a full
GMRES solve.

Run directly (CI smoke mode)::

    PYTHONPATH=src python benchmarks/bench_solve_apply.py --smoke

Numbers land in ``benchmarks/results/BENCH_solve_apply.{txt,json}``.
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


def build_solver(smoke: bool) -> SchwarzSolver:
    """Fig-10 style 2D heterogeneous diffusion; many subdomains so the
    deflated-correction term carries realistic weight per iteration."""
    mesh_n = 12 if smoke else 16
    degree = 3 if smoke else 4
    nsub = 32 if smoke else 64
    nev = 8 if smoke else 16
    mesh = unit_square(mesh_n)
    kappa = channels_and_inclusions(mesh, seed=9)
    form = DiffusionForm(degree=degree, kappa=kappa)
    return SchwarzSolver(mesh, form, num_subdomains=nsub, delta=1,
                         nev=nev, seed=0, partition_method="rcb")


class PrePRApply:
    """Faithful replica of the pre-cache A-DEF1 application.

    Serial per-subdomain loops, ``np.add.at`` combines, the neighbour
    ``exchange_sum`` inside ``z_dot``, and the global ``dec.matvec`` for
    the ``A Z E⁻¹ Zᵀ u`` term — exactly the seed-revision code path,
    inlined here so the production kernels can keep changing underneath.
    """

    def __init__(self, solver: SchwarzSolver):
        self.dec = solver.decomposition
        self.ras = solver.one_level
        self.coarse = solver.coarse
        self.space = solver.deflation

    def _combine(self, u_list, weighted=True):
        out = np.zeros(self.dec.problem.num_free)
        for s, u in zip(self.dec.subdomains, u_list):
            np.add.at(out, s.dofs, s.d * u if weighted else u)
        return out

    def ras_apply(self, r):
        sols = [f.solve(r[s.dofs])
                for f, s in zip(self.ras.factorizations,
                                self.dec.subdomains)]
        return self._combine(sols)

    def zt_dot(self, u):
        return np.concatenate([W.T @ u[s.dofs]
                               for W, s in zip(self.space.W,
                                               self.dec.subdomains)])

    def z_dot(self, y):
        off = self.space.offsets
        z_list = [W @ y[off[i]:off[i + 1]]
                  for i, W in enumerate(self.space.W)]
        return self._combine(self.dec.exchange_sum(z_list))

    def apply(self, u):
        w = self.zt_dot(u)
        y = self.coarse.factorization.solve(w)
        zy = self.z_dot(y)
        v = u - self.dec.matvec(zy)            # the deleted global SpMV
        return self.ras_apply(v) + zy


def best_seconds(fn, arg, repeats: int, inner: int) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn(arg)
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def run(smoke: bool, telemetry: str = "") -> dict:
    solver = build_solver(smoke)
    dec, pre = solver.decomposition, solver.preconditioner
    ref = PrePRApply(solver)
    repeats = 3 if smoke else 5
    inner = 10 if smoke else 20

    rng = np.random.default_rng(0)
    u = rng.standard_normal(dec.problem.num_free)

    # correctness + SpMV accounting before any timing
    mv0 = dec.matvecs
    fast = pre.apply(u)
    fast_spmvs = dec.matvecs - mv0
    mv0 = dec.matvecs
    slow = ref.apply(u)
    ref_spmvs = dec.matvecs - mv0
    rel_err = float(np.linalg.norm(fast - slow)
                    / max(np.linalg.norm(slow), 1e-300))

    t_fast = best_seconds(pre.apply, u, repeats, inner)
    t_ref = best_seconds(ref.apply, u, repeats, inner)
    t_ras_fast = best_seconds(solver.one_level.apply, u, repeats, inner)
    t_ras_ref = best_seconds(ref.ras_apply, u, repeats, inner)
    speedup = t_ref / t_fast

    # the z-product kernels in isolation
    space, coarse = solver.deflation, solver.coarse
    y = rng.standard_normal(space.m)
    t_zt = best_seconds(space.zt_dot, u, repeats, inner)
    t_zt_ref = best_seconds(ref.zt_dot, u, repeats, inner)
    t_az = best_seconds(coarse.AZ.dot, y, repeats, inner)
    t_az_ref = best_seconds(lambda v: dec.matvec(ref.z_dot(v)), y,
                            repeats, inner)

    # one full solve for the per-phase profile.  The timing loops above
    # ran un-instrumented; the recorder is attached only now, so the
    # payload's telemetry section covers the full solve without touching
    # the kernel timings.
    from repro.obs import Recorder, summary, write_trace
    recorder = Recorder()
    for obj in (solver, solver.timer, solver.decomposition, solver.coarse):
        obj.recorder = recorder
    report = solver.solve(tol=1e-8, restart=60, maxiter=300)

    n, m = dec.problem.num_free, space.m
    body = [
        ["ADEF1 apply", f"{t_ref * 1e3:.3f}", f"{t_fast * 1e3:.3f}",
         f"{speedup:.2f}x"],
        ["RAS apply", f"{t_ras_ref * 1e3:.3f}", f"{t_ras_fast * 1e3:.3f}",
         f"{t_ras_ref / t_ras_fast:.2f}x"],
        ["Z^T u", f"{t_zt_ref * 1e3:.3f}", f"{t_zt * 1e3:.3f}",
         f"{t_zt_ref / t_zt:.2f}x"],
        ["A Z y", f"{t_az_ref * 1e3:.3f}", f"{t_az * 1e3:.3f}",
         f"{t_az_ref / t_az:.2f}x"],
    ]
    txt = table(["kernel", "pre-PR (ms)", "cached (ms)", "speedup"],
                body,
                title=f"SOLVE APPLY (2D diffusion, n={n}, "
                      f"N={dec.num_subdomains}, m={m}, "
                      f"cpus={os.cpu_count()}, smoke={smoke})")
    txt += (f"\n\nglobal SpMVs per apply: fast={fast_spmvs} "
            f"pre-PR={ref_spmvs}; fast vs pre-PR rel err {rel_err:.1e}; "
            f"GMRES converged={report.converged} in "
            f"{report.iterations} iterations")
    txt += "\nsolve profile: " + ", ".join(
        f"{k}={v:.3f}s" for k, v in report.krylov.profile.items())
    write_result("BENCH_solve_apply", txt)

    payload = {
        "problem": {"figure": "fig10-2d", "n_free": n,
                    "num_subdomains": dec.num_subdomains,
                    "coarse_dim": m, "smoke": smoke,
                    "cpu_count": os.cpu_count()},
        "apply_ms": {"fast": t_fast * 1e3, "pre_pr": t_ref * 1e3},
        "apply_speedup": speedup,
        "ras_apply_ms": {"fast": t_ras_fast * 1e3,
                         "pre_pr": t_ras_ref * 1e3},
        "zt_dot_ms": {"fast": t_zt * 1e3, "pre_pr": t_zt_ref * 1e3},
        "az_dot_ms": {"fast": t_az * 1e3, "pre_pr": t_az_ref * 1e3},
        "global_spmvs_per_apply": {"fast": int(fast_spmvs),
                                   "pre_pr": int(ref_spmvs)},
        "rel_err_fast_vs_pre_pr": rel_err,
        "gmres": {"converged": bool(report.converged),
                  "iterations": int(report.iterations),
                  "profile": report.krylov.profile},
        "min_speedup_required": MIN_SPEEDUP,
        "telemetry": summary(recorder),
    }
    write_json("BENCH_solve_apply", payload)
    if telemetry:
        write_trace(recorder, telemetry, format="chrome")
        print(f"chrome trace written to {telemetry}")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized problem, fewer timing repeats")
    parser.add_argument("--telemetry", default="",
                        help="also write a chrome trace of the full "
                             "solve to this path")
    args = parser.parse_args(argv)
    smoke = args.smoke or bool(int(os.environ.get("BENCH_SMOKE", "0")))
    payload = run(smoke, telemetry=args.telemetry)

    failures = []
    if payload["global_spmvs_per_apply"]["fast"] != 0:
        failures.append("fast apply performed a global SpMV")
    if payload["rel_err_fast_vs_pre_pr"] > 1e-12:
        failures.append(f"fast apply diverged from the pre-PR path "
                        f"({payload['rel_err_fast_vs_pre_pr']:.1e})")
    if payload["apply_speedup"] < MIN_SPEEDUP:
        failures.append(f"apply speedup {payload['apply_speedup']:.2f}x "
                        f"< {MIN_SPEEDUP}x")
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
