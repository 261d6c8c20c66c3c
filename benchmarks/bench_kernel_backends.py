"""Kernel backends head-to-head: apply-phase speedup vs the reference.

The seed revision ran every preconditioner application through fp64
scipy kernels.  The kernel-backend registry (``repro.kernels``) lets the
hot apply path run through the ``compiled`` backend: the same fp64
factors, exported once and applied by fused compiled
gather→solve→scatter kernels.

This benchmark times one full A-DEF1 application per backend on the
fig-10-style 2D heterogeneous diffusion problem, records iteration and
final-residual deltas of a complete GMRES solve per backend, and asserts
the headline ≥ 2× apply-phase speedup of ``compiled`` over the
reference ``numpy`` backend at full scale.

Run directly::

    PYTHONPATH=src python benchmarks/bench_kernel_backends.py [--smoke]

The smoke mode (CI) runs a small problem and skips the machine-speed
assertion, but still fails when ``compiled`` changes the iteration
count or its apply differs from the reference by more than
:data:`MAX_APPLY_REL_ERR` — the accuracy regression guards.  Numbers
land in ``benchmarks/results/BENCH_kernel_backends.{txt,json}``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import write_result, write_json  # noqa: E402

from repro import SchwarzSolver  # noqa: E402
from repro.common.asciiplot import table  # noqa: E402
from repro.fem import channels_and_inclusions  # noqa: E402
from repro.fem.forms import DiffusionForm  # noqa: E402
from repro.kernels import available_backends  # noqa: E402
from repro.mesh import unit_square  # noqa: E402
from repro.obs import Recorder  # noqa: E402

#: headline requirement at full scale: the compiled backend must apply
#: the preconditioner at least this much faster than numpy
MIN_SPEEDUP = 2.0
#: the compiled apply applies the same fp64 factors as the reference;
#: only the summation order of the triangular sweeps may differ
MAX_APPLY_REL_ERR = 1e-12

BACKENDS = ("numpy", "compiled")


def build_solver(backend: str, smoke: bool,
                 recorder: Recorder | None = None) -> SchwarzSolver:
    mesh_n = 16 if smoke else 64
    degree = 3 if smoke else 4
    nsub = 16 if smoke else 48
    nev = 6 if smoke else 8
    mesh = unit_square(mesh_n)
    kappa = channels_and_inclusions(mesh, seed=9)
    form = DiffusionForm(degree=degree, kappa=kappa)
    return SchwarzSolver(mesh, form, num_subdomains=nsub, delta=1,
                         nev=nev, seed=0, partition_method="rcb",
                         kernel_backend=backend, recorder=recorder)


def best_seconds(fn, arg, repeats: int, inner: int) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn(arg)
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def bench_backend(name: str, smoke: bool, u: np.ndarray,
                  ref_apply: np.ndarray | None) -> dict:
    rec = Recorder()
    solver = build_solver(name, smoke, recorder=rec)
    if solver.kernels.name != name:
        # get_backend degraded (e.g. no C toolchain for "compiled")
        return {"backend": name, "available": False,
                "notes": list(solver.kernels.notes)}
    pre = solver.preconditioner
    out = pre.apply(u)
    rel_err = None if ref_apply is None else float(
        np.linalg.norm(out - ref_apply)
        / max(np.linalg.norm(ref_apply), 1e-300))
    repeats, inner = (3, 5) if smoke else (5, 15)
    t_apply = best_seconds(pre.apply, u, repeats, inner)
    t_ras = best_seconds(solver.one_level.apply, u, repeats, inner)
    report = solver.solve(tol=1e-8, restart=60, maxiter=300)
    kernel_counters = {k: int(v) for k, v in sorted(rec.counters.items())
                       if k.startswith("kernel.")}
    return {
        "backend": name,
        "available": True,
        "precision": solver.kernels.precision,
        "compiled": bool(solver.kernels.compiled),
        "apply_ms": t_apply * 1e3,
        "ras_apply_ms": t_ras * 1e3,
        "apply_rel_err_vs_numpy": rel_err,
        "iterations": int(report.iterations),
        "converged": bool(report.converged),
        "final_residual": float(report.krylov.final_residual),
        "counters": kernel_counters,
        "apply_out": out,
    }


def run(smoke: bool) -> dict:
    probe = build_solver("numpy", smoke)
    n = probe.problem.num_free
    nsub = probe.decomposition.num_subdomains
    m = probe.coarse_dim
    del probe

    rng = np.random.default_rng(0)
    u = rng.standard_normal(n)

    rows = []
    results: dict[str, dict] = {}
    ref = None
    for name in BACKENDS:
        r = bench_backend(name, smoke, u, ref)
        if r.get("available"):
            if name == "numpy":
                ref = r.pop("apply_out")
            else:
                r.pop("apply_out", None)
        results[name] = r

    base = results["numpy"]
    for name in BACKENDS:
        r = results[name]
        if not r.get("available"):
            rows.append([name, "UNAVAILABLE", "-", "-", "-", "-"])
            continue
        speedup = base["apply_ms"] / r["apply_ms"]
        r["apply_speedup_vs_numpy"] = speedup
        r["iteration_delta_vs_numpy"] = \
            r["iterations"] - base["iterations"]
        rows.append([
            name, f"{r['apply_ms']:.3f}", f"{speedup:.2f}x",
            f"{r['iterations']} ({r['iteration_delta_vs_numpy']:+d})",
            f"{r['final_residual']:.2e}",
            "-" if r["apply_rel_err_vs_numpy"] is None
            else f"{r['apply_rel_err_vs_numpy']:.1e}"])

    txt = table(
        ["backend", "apply (ms)", "speedup", "iterations (Δ)",
         "final resid", "apply rel err"],
        rows,
        title=f"KERNEL BACKENDS (2D diffusion, n_free={n}, N={nsub}, "
              f"m={m}, cpus={os.cpu_count()}, smoke={smoke})")
    speedup = results["compiled"].get("apply_speedup_vs_numpy", 0.0)
    txt += (f"\n\ncompiled apply speedup: {speedup:.2f}x "
            f"(required at full scale: {MIN_SPEEDUP}x); "
            f"apply rel err bound: {MAX_APPLY_REL_ERR:.0e}")
    write_result("BENCH_kernel_backends", txt)

    for r in results.values():
        r.pop("apply_out", None)
    payload = {
        "problem": {"workload": "diffusion2d", "n_free": n,
                    "num_subdomains": nsub, "coarse_dim": m,
                    "smoke": smoke, "cpu_count": os.cpu_count()},
        "backends": results,
        "compiled_apply_speedup": speedup,
        "min_speedup_required": MIN_SPEEDUP,
        "max_apply_rel_err": MAX_APPLY_REL_ERR,
        "capability_table": {
            k: {kk: vv for kk, vv in v.items() if kk != "notes"}
            for k, v in available_backends().items()},
    }
    write_json("BENCH_kernel_backends", payload)
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized problem; skip the machine-speed "
                             "assertion, keep the accuracy guards")
    args = parser.parse_args(argv)
    smoke = args.smoke or bool(int(os.environ.get("BENCH_SMOKE", "0")))
    payload = run(smoke)

    failures = []
    backends = payload["backends"]
    base = backends["numpy"]
    if not base["converged"]:
        failures.append("reference numpy solve did not converge")
    comp = backends["compiled"]
    if comp.get("available"):
        if not comp["converged"]:
            failures.append("compiled solve did not converge")
        if comp["iterations"] > base["iterations"] + 2:
            failures.append("compiled backend changed the iteration count")
        if comp["apply_rel_err_vs_numpy"] > MAX_APPLY_REL_ERR:
            failures.append(
                f"compiled apply rel err "
                f"{comp['apply_rel_err_vs_numpy']:.1e} > "
                f"{MAX_APPLY_REL_ERR:.0e}")
        if not smoke and payload["compiled_apply_speedup"] < MIN_SPEEDUP:
            failures.append(
                f"compiled apply speedup "
                f"{payload['compiled_apply_speedup']:.2f}x "
                f"< {MIN_SPEEDUP}x")
    else:
        # skip-with-notice: a missing toolchain is an environment limit,
        # not a regression
        print("NOTICE: compiled backend unavailable "
              f"({'; '.join(comp.get('notes', []) or ['no C toolchain'])})"
              "; accuracy and speedup checks skipped", file=sys.stderr)
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
