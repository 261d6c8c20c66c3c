"""Command-line interface: ``python -m repro.cli``.

Solve the paper's benchmark problems from a shell, without writing a
script::

    python -m repro.cli solve --problem diffusion2d --n 48 \\
        --subdomains 16 --nev 8 --tol 1e-8
    python -m repro.cli solve --problem elasticity2d --levels 1
    python -m repro.cli info --problem diffusion3d --n 6

Subcommands
-----------
``solve``
    Build the problem, run the configured solver, print the report (and
    optionally export the solution as VTK).
``info``
    Print mesh/space/decomposition statistics without solving.
``trace``
    Render a telemetry trace (written by ``solve --telemetry``) as an
    ASCII Gantt chart plus phase/counter/event tables.
``report``
    One-page analysis of a trace: critical path, per-phase/per-rank
    load imbalance, rank-to-rank comm matrix, convergence forensics
    (``repro.obs.analysis``; ASCII or markdown).
``metrics``
    OpenMetrics/Prometheus text exposition (or JSON snapshot) of a
    trace's counters, gauges and span totals (``repro.obs.metrics``).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import ParallelConfig, SchwarzSolver
from .common.asciiplot import semilogy, table
from .common.errors import ReproError
from .fem import channels_and_inclusions, layered_elasticity
from .fem.forms import (
    ConvectionDiffusionForm,
    DiffusionForm,
    ElasticityForm,
    HelmholtzForm,
)
from .mesh import cantilever_2d, unit_cube, unit_square
from .partition import imbalance, partition_mesh

PROBLEMS = ("diffusion2d", "diffusion3d", "elasticity2d", "elasticity3d",
            "convdiff2d", "helmholtz2d")


def build_problem(args):
    """(mesh, form, dirichlet) for the requested benchmark problem."""
    if args.problem == "diffusion2d":
        mesh = unit_square(args.n)
        form = DiffusionForm(degree=args.degree or 2,
                             kappa=channels_and_inclusions(mesh,
                                                           seed=args.seed))
        return mesh, form, None
    if args.problem == "diffusion3d":
        mesh = unit_cube(args.n)
        form = DiffusionForm(degree=args.degree or 2,
                             kappa=channels_and_inclusions(mesh,
                                                           seed=args.seed))
        return mesh, form, None
    if args.problem == "elasticity2d":
        mesh = cantilever_2d(max(2, args.n // 6), length=8.0)
        lam, mu = layered_elasticity(mesh, n_layers=8)
        form = ElasticityForm(degree=args.degree or 2, lam=lam, mu=mu,
                              f=np.array([0.0, -9.81]))
        return mesh, form, (lambda x: x[:, 0] < 1e-9)
    if args.problem == "elasticity3d":
        mesh = unit_cube(args.n)
        lam, mu = layered_elasticity(mesh, n_layers=4, axis=2)
        form = ElasticityForm(degree=args.degree or 1, lam=lam, mu=mu,
                              f=np.array([0.0, 0.0, -9.81]))
        return mesh, form, (lambda x: x[:, 2] < 1e-9)
    if args.problem == "convdiff2d":
        # heterogeneous convection–diffusion; --peclet scales the
        # advection strength relative to the (contrasted) diffusivity
        mesh = unit_square(args.n)
        kappa = channels_and_inclusions(mesh, seed=args.seed)
        peclet = getattr(args, "peclet", 0.0) or 100.0
        beta = peclet * np.array([1.0, 0.35])
        form = ConvectionDiffusionForm(degree=args.degree or 2,
                                       kappa=kappa, beta=beta)
        return mesh, form, None
    if args.problem == "helmholtz2d":
        # Helmholtz with absorption (real shifted formulation);
        # --wavenumber sets k, fixed 20% absorption keeps the shifted
        # operator solvable by the two-level method
        mesh = unit_square(args.n)
        k = getattr(args, "wavenumber", 0.0) or 10.0
        form = HelmholtzForm(degree=args.degree or 2, k=k, epsilon=0.2)
        return mesh, form, None
    raise SystemExit(f"unknown problem {args.problem!r}; "
                     f"choose from {PROBLEMS}")


def cmd_solve(args) -> int:
    mesh, form, clamp = build_problem(args)
    try:
        parallel = ParallelConfig(args.parallel,
                                  workers=args.workers or None)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    recorder = None
    if args.telemetry:
        from .obs import Recorder
        recorder = Recorder(ring=args.flight_recorder or None)
    elif args.flight_recorder:
        from .obs import Recorder
        recorder = Recorder(ring=args.flight_recorder)
    faults = None
    if args.faults:
        from .resilience import FaultPlan
        faults = FaultPlan.load(args.faults)
    try:
        solver = SchwarzSolver(
            mesh, form, num_subdomains=args.subdomains, delta=args.delta,
            nev=args.nev, levels=args.levels, krylov=args.krylov,
            partition_method=args.partitioner, dirichlet=clamp,
            seed=args.seed, parallel=parallel, recorder=recorder,
            faults=faults, recovery=args.recovery,
            kernel_backend=args.backend or None,
            coarse_space=args.coarse_space or None)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    if args.rhs_batch > 1 or args.recycle:
        return _solve_batched(args, solver, recorder)
    report = solver.solve(tol=args.tol, restart=args.restart,
                          maxiter=args.maxiter)
    rows = [["problem", args.problem],
            ["dofs", solver.problem.space.num_dofs],
            ["subdomains", args.subdomains],
            ["coarse dim", solver.coarse_dim],
            ["coarse space", solver.coarse_space_name],
            ["kernel backend", solver.kernels.name],
            ["iterations", report.iterations],
            ["converged", report.converged],
            ["final residual", f"{report.krylov.final_residual:.3e}"]]
    res = report.resilience
    if res:
        rows.append(["recovery mode", res.get("mode", "off")])
        rows.append(["restarts", res.get("restarts", 0)])
        faults_by_kind = res.get("faults", {})
        rows.append(["faults injected",
                     ", ".join(f"{k}:{v}" for k, v in
                               sorted(faults_by_kind.items())) or "none"])
        if res.get("degraded_subdomains"):
            rows.append(["degraded subdomains",
                         ", ".join(map(str, res["degraded_subdomains"]))])
        if res.get("coarse_fallbacks"):
            rows.append(["coarse fallbacks", res["coarse_fallbacks"]])
        if res.get("eigensolve_fallbacks"):
            rows.append(["eigensolve fallbacks",
                         ", ".join(map(str,
                                       res["eigensolve_fallbacks"]))])
        if res.get("one_level_only"):
            rows.append(["one-level only", True])
        if res.get("flight_recorder"):
            fl = res["flight_recorder"]
            rows.append(["flight recorder",
                         f"last {len(fl['spans'])} spans / "
                         f"{len(fl['events'])} events "
                         f"(ring {fl['ring']}, "
                         f"{fl['spans_total']} spans total)"])
    for phase, secs in solver.timer.as_dict().items():
        rows.append([f"time: {phase}", f"{secs:.2f} s"])
    for phase, secs in report.krylov.profile.items():
        rows.append([f"solve: {phase}", f"{secs:.3f} s"])
    print(table(["quantity", "value"], rows, title="repro solve report"))
    if args.plot:
        print()
        print(semilogy({"residual": report.residuals}))
    if args.vtk:
        from .mesh import write_vtk
        space = solver.problem.space
        if space.ncomp == 1:
            pd = {"u": report.x[:mesh.num_vertices]}
        else:
            pd = {"u": report.x.reshape(-1, space.ncomp)
                  [:mesh.num_vertices]}
        write_vtk(mesh, args.vtk, point_data=pd,
                  cell_data={"partition": solver.decomposition.part
                             .astype(float)})
        print(f"\nsolution written to {args.vtk}")
    if recorder is not None and args.telemetry:
        from .obs import write_trace
        write_trace(recorder, args.telemetry,
                    format=args.telemetry_format)
        print(f"\ntelemetry ({args.telemetry_format}) written to "
              f"{args.telemetry}; view with `repro trace "
              f"{args.telemetry}` or load the chrome format in "
              f"ui.perfetto.dev")
    return 0 if report.converged else 1


def _solve_batched(args, solver, recorder) -> int:
    """The ``--rhs-batch`` / ``--recycle`` paths: one SolveSession."""
    session = solver.session()
    b = solver.problem.rhs()
    k = max(1, args.rhs_batch)
    rng = np.random.default_rng(args.seed)
    if k > 1:
        # the assembled load plus perturbed companions — the shape of a
        # multi-load-case / time-stepping workload
        B = np.column_stack(
            [b] + [b + 0.1 * np.linalg.norm(b)
                   * rng.standard_normal(b.shape[0])
                   for _ in range(k - 1)])
    else:
        B = b[:, None]
    rows = [["problem", args.problem],
            ["dofs", solver.problem.space.num_dofs],
            ["subdomains", args.subdomains],
            ["coarse dim", solver.coarse_dim],
            ["rhs batch", k]]
    if args.recycle:
        # sequential recycled solves: each harvests Ritz vectors that
        # deflate the next (two passes of b when K == 1, to show the
        # recycling effect on a repeated load)
        cols = list(range(B.shape[1])) if k > 1 else [0, 0]
        iters = []
        ok = True
        for j in cols:
            rep = session.solve(B[:, j], tol=args.tol,
                                restart=args.restart,
                                maxiter=args.maxiter)
            iters.append(rep.iterations)
            ok = ok and rep.converged
        rows += [["mode", "recycled sequential"],
                 ["iterations per solve",
                  ", ".join(map(str, iters))],
                 ["recycled coarse dim", session.coarse_dim],
                 ["converged", ok]]
        print(table(["quantity", "value"], rows,
                    title="repro batched solve report"))
        return 0 if ok else 1
    report = session.solve_many(B, tol=args.tol, restart=args.restart,
                                maxiter=args.maxiter)
    rows += [["mode", f"block ({report.driver})"],
             ["block iterations", report.iterations],
             ["column iterations",
              ", ".join(map(str, report.column_iterations))],
             ["converged", report.converged]]
    print(table(["quantity", "value"], rows,
                title="repro batched solve report"))
    if recorder is not None:
        from .obs import write_trace
        write_trace(recorder, args.telemetry, format=args.telemetry_format)
        print(f"\ntelemetry ({args.telemetry_format}) written to "
              f"{args.telemetry}")
    return 0 if report.converged else 1


def cmd_backends(args) -> int:
    from .kernels import ENV_VAR, available_backends, get_backend
    import os
    selected = get_backend(None).name
    rows = []
    for name, cap in available_backends().items():
        rows.append([name,
                     "yes" if cap["available"] else "NO",
                     cap.get("precision", "-"),
                     "yes" if cap.get("compiled") else "no",
                     "; ".join(cap.get("notes", [])) or
                     ("default" if name == selected else "")])
    print(table(["backend", "available", "precision", "compiled", "notes"],
                rows, title="repro kernel backends"))
    print(f"\nselection: --backend flag > ${ENV_VAR} "
          f"(currently {os.environ.get(ENV_VAR) or 'unset'}) > compiled "
          f"if its C library builds > numpy; resolved: {selected}")
    return 0


def cmd_trace(args) -> int:
    from .obs import load_trace, render_trace
    trace = load_trace(args.path)
    try:
        print(render_trace(trace, width=args.width,
                           max_tracks=args.max_tracks))
    except BrokenPipeError:            # piped into head/less and closed
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def cmd_report(args) -> int:
    from .obs import analyze, load_trace
    report = analyze(load_trace(args.path))
    try:
        if args.format == "md":
            print(report.to_markdown())
        else:
            print(report.render(width=args.width,
                                max_ranks=args.max_ranks))
    except BrokenPipeError:
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def cmd_metrics(args) -> int:
    import json

    from .obs import (load_trace, snapshot, to_openmetrics,
                      validate_openmetrics)
    trace = load_trace(args.path)
    if args.json:
        print(json.dumps(snapshot(trace), indent=2, sort_keys=True))
        return 0
    text = to_openmetrics(trace, prefix=args.prefix)
    if args.check:
        validate_openmetrics(text)
    sys.stdout.write(text)
    return 0


def cmd_chaos(args) -> int:
    import json
    from pathlib import Path

    from .obs import Recorder
    from .resilience.chaos import ChaosConfig, run_campaign

    cfg = ChaosConfig(
        solves=args.solves, nranks=args.ranks, seed=args.seed,
        kill_rate=args.kill_rate, drop_rate=args.drop_rate,
        delay_rate=args.delay_rate, corrupt_rate=args.corrupt_rate,
        storm_rate=args.storm_rate, spares=args.spares,
        checkpoint_every=args.checkpoint_every, timeout=args.timeout,
        mesh_n=args.n, tol=args.tol)
    recorder = Recorder(ring=args.flight_recorder) \
        if args.flight_recorder else None

    def progress(s, record):
        status = "ok" if record["survived"] else "FAILED"
        extras = []
        if record["planned_faults"]:
            kinds = sorted({f["kind"] for f in record["planned_faults"]})
            extras.append("+".join(kinds))
        if record["repairs"]:
            extras.append(f"{record['repairs']} repair(s)")
        if record["error"]:
            extras.append(record["error"][:60])
        print(f"  solve {s:3d}: {status:6s} {' '.join(extras)}")

    print(f"chaos campaign: {cfg.solves} solves x {cfg.nranks} ranks, "
          f"seed {cfg.seed}, {cfg.spares} spare(s), survival floor "
          f"{args.floor:.0%}")
    report = run_campaign(cfg, recorder=recorder,
                          progress=progress if args.verbose else None)
    d = report.to_dict()
    ttr = d["time_to_recover"]
    print(f"survival: {d['survived']}/{d['solves']} "
          f"({d['survival_rate']:.1%}), {d['faulted_solves']} faulted "
          f"solves, {d['repairs']} repairs, faults {d['fault_totals']}")
    if ttr["count"]:
        print(f"time-to-recover: mean {ttr['mean'] * 1e3:.1f} ms, "
              f"max {ttr['max'] * 1e3:.1f} ms over {ttr['count']} "
              f"repair(s)")
    if args.out:
        d["config"] = {
            "solves": cfg.solves, "nranks": cfg.nranks, "seed": cfg.seed,
            "spares": cfg.spares, "checkpoint_every": cfg.checkpoint_every,
            "rates": {"kill": cfg.kill_rate, "drop": cfg.drop_rate,
                      "delay": cfg.delay_rate, "corrupt": cfg.corrupt_rate,
                      "storm": cfg.storm_rate}}
        Path(args.out).write_text(json.dumps(d, indent=2, sort_keys=True)
                                  + "\n")
        print(f"campaign report written to {args.out}")
    if recorder is not None and args.flight_out:
        Path(args.flight_out).write_text(
            json.dumps(recorder.flight_dump(), indent=2) + "\n")
        print(f"flight-recorder dump written to {args.flight_out}")
    if d["survival_rate"] < args.floor:
        print(f"FAIL: survival {d['survival_rate']:.1%} below the "
              f"{args.floor:.0%} floor")
        return 1
    return 0


def cmd_info(args) -> int:
    mesh, form, clamp = build_problem(args)
    space = form.make_space(mesh)
    part = partition_mesh(mesh, args.subdomains,
                          method=args.partitioner, seed=args.seed)
    rows = [["dim", mesh.dim],
            ["cells", mesh.num_cells],
            ["vertices", mesh.num_vertices],
            ["h_max", f"{mesh.h_max():.4f}"],
            ["degree", space.degree],
            ["dofs", space.num_dofs],
            ["subdomains", args.subdomains],
            ["partition imbalance", f"{imbalance(part):.3f}"]]
    print(table(["quantity", "value"], rows, title="repro problem info"))
    if args.decomposition:
        from .dd import Decomposition, Problem, decomposition_report
        problem = Problem(mesh, form, dirichlet=clamp)
        dec = Decomposition(problem, part, delta=args.delta)
        print()
        print(decomposition_report(dec).render())
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro", description="Two-level GenEO-Schwarz solver (SC13 "
                                  "reproduction)")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--problem", default="diffusion2d",
                        choices=PROBLEMS)
        sp.add_argument("--n", type=int, default=32,
                        help="mesh resolution parameter")
        sp.add_argument("--degree", type=int, default=0,
                        help="FE degree (0 = problem default)")
        sp.add_argument("--subdomains", "-N", type=int, default=8)
        sp.add_argument("--partitioner", default="multilevel",
                        choices=("multilevel", "rcb", "spectral"))
        sp.add_argument("--seed", type=int, default=0)

    ps = sub.add_parser("solve", help="run the two-level solver")
    common(ps)
    ps.add_argument("--delta", type=int, default=1, help="overlap width")
    ps.add_argument("--nev", type=int, default=8,
                    help="GenEO vectors per subdomain (0 = Nicolaides)")
    ps.add_argument("--levels", type=int, default=2, choices=(1, 2))
    ps.add_argument("--krylov", default="gmres",
                    choices=("gmres", "p1-gmres", "cg", "fgmres",
                             "sstep", "deflated-cg"))
    ps.add_argument("--tol", type=float, default=1e-6)
    ps.add_argument("--restart", type=int, default=40)
    ps.add_argument("--maxiter", type=int, default=400)
    ps.add_argument("--parallel", default="serial",
                    choices=("serial", "threads"),
                    help="executor for the per-subdomain setup loops")
    ps.add_argument("--workers", type=int, default=0,
                    help="thread count for --parallel threads "
                         "(0 = auto-size to the machine)")
    ps.add_argument("--plot", action="store_true",
                    help="print the ASCII convergence curve")
    ps.add_argument("--vtk", default="",
                    help="write the solution to this VTK file")
    ps.add_argument("--telemetry", default="",
                    help="record a telemetry trace of the whole run and "
                         "write it to this path")
    ps.add_argument("--telemetry-format", default="chrome",
                    choices=("chrome", "jsonl"),
                    help="trace format: chrome (Perfetto-loadable "
                         "trace-event JSON) or jsonl (one event per "
                         "line)")
    ps.add_argument("--flight-recorder", type=int, default=0,
                    metavar="K",
                    help="bounded black-box telemetry: keep only the "
                         "last K spans/events in ring buffers (cheap "
                         "enough to leave on); on a breakdown the ring "
                         "is dumped into the solve report's resilience "
                         "section (0 = off)")
    ps.add_argument("--faults", default="",
                    help="JSON fault plan to inject during the solve "
                         "(see docs/resilience.md)")
    ps.add_argument("--recovery", default="off",
                    choices=("off", "restart", "degrade"),
                    help="recovery policy for injected/organic failures: "
                         "off = raise typed errors, restart = "
                         "checkpoint/rollback-restart, degrade = restart "
                         "+ structural degradation")
    ps.add_argument("--rhs-batch", type=int, default=1, metavar="K",
                    help="solve K right-hand sides through one "
                         "SolveSession (K > 1: block Krylov, or "
                         "sequential recycled solves with --recycle)")
    ps.add_argument("--recycle", action="store_true",
                    help="recycle harmonic Ritz vectors between "
                         "successive solves (GCRO-DR-style deflation "
                         "augmentation)")
    ps.add_argument("--backend", default="",
                    help="kernel backend for the solve-phase hot loops "
                         "(numpy, compiled; empty = "
                         "$REPRO_KERNEL_BACKEND, else compiled if its "
                         "C library builds, else numpy — see "
                         "`repro backends` and docs/performance.md)")
    ps.add_argument("--coarse-space", default="",
                    help="which coarse space is built (geneo, extended, "
                         "nicolaides; empty = $REPRO_COARSE_SPACE, or "
                         "auto: geneo for SPD operators, extended for "
                         "nonsymmetric/indefinite ones — see docs/api.md)")
    ps.add_argument("--peclet", type=float, default=0.0,
                    help="convdiff2d: advection strength |beta| "
                         "(0 = default 100)")
    ps.add_argument("--wavenumber", type=float, default=0.0,
                    help="helmholtz2d: wavenumber k (0 = default 10)")
    ps.set_defaults(fn=cmd_solve)

    pi = sub.add_parser("info", help="print problem statistics")
    common(pi)
    pi.add_argument("--decomposition", action="store_true",
                    help="also build the decomposition and report "
                         "overlap/neighbour statistics")
    pi.add_argument("--delta", type=int, default=1)
    pi.set_defaults(fn=cmd_info)

    pb = sub.add_parser("backends", help="probe the kernel backends and "
                                         "print the capability table")
    pb.set_defaults(fn=cmd_backends)

    pt = sub.add_parser("trace", help="render a telemetry trace "
                                      "(chrome or jsonl) as ASCII")
    pt.add_argument("path", help="trace file written by "
                                 "`solve --telemetry`")
    pt.add_argument("--width", type=int, default=78,
                    help="gantt chart width in characters")
    pt.add_argument("--max-tracks", type=int, default=16,
                    help="show at most this many tracks")
    pt.set_defaults(fn=cmd_trace)

    pr = sub.add_parser("report", help="one-page run analysis of a "
                                       "telemetry trace (critical path, "
                                       "imbalance, comm matrix, "
                                       "convergence)")
    pr.add_argument("path", help="trace file written by "
                                 "`solve --telemetry`")
    pr.add_argument("--format", default="ascii", choices=("ascii", "md"),
                    help="output format (md = GitHub-flavoured "
                         "markdown)")
    pr.add_argument("--width", type=int, default=78)
    pr.add_argument("--max-ranks", type=int, default=16,
                    help="show at most this many ranks in the comm "
                         "matrix")
    pr.set_defaults(fn=cmd_report)

    pm = sub.add_parser("metrics", help="OpenMetrics exposition of a "
                                        "telemetry trace's counters, "
                                        "gauges and span totals")
    pm.add_argument("path", help="trace file written by "
                                 "`solve --telemetry`")
    pm.add_argument("--json", action="store_true",
                    help="emit the JSON snapshot instead of OpenMetrics "
                         "text")
    pm.add_argument("--prefix", default="repro",
                    help="metric-name prefix (default: repro)")
    pm.add_argument("--check", action="store_true",
                    help="validate the exposition before printing")
    pm.set_defaults(fn=cmd_metrics)

    pc = sub.add_parser("chaos", help="seeded chaos soak campaign over "
                                      "many fault-tolerant SPMD solves "
                                      "(exit 1 below the survival "
                                      "floor)")
    pc.add_argument("--solves", type=int, default=50,
                    help="number of campaign solves (default: 50)")
    pc.add_argument("--ranks", type=int, default=6,
                    help="SPMD ranks per solve (default: 6)")
    pc.add_argument("--seed", type=int, default=2013,
                    help="campaign seed; the whole fault sequence is a "
                         "pure function of it (default: 2013)")
    pc.add_argument("--kill-rate", type=float, default=0.35,
                    help="per-solve probability of a rank kill")
    pc.add_argument("--drop-rate", type=float, default=0.35,
                    help="per-solve probability of a transient message "
                         "drop")
    pc.add_argument("--delay-rate", type=float, default=0.25,
                    help="per-solve probability of a message delay")
    pc.add_argument("--corrupt-rate", type=float, default=0.10,
                    help="per-solve probability of a payload "
                         "corruption")
    pc.add_argument("--storm-rate", type=float, default=0.05,
                    help="per-solve probability of a retry-budget-"
                         "exceeding drop burst")
    pc.add_argument("--spares", type=int, default=2,
                    help="warm spare ranks per solve (default: 2)")
    pc.add_argument("--checkpoint-every", type=int, default=1,
                    help="replicate an iterate checkpoint every k "
                         "restart cycles; 0 disables checkpointing "
                         "(default: 1)")
    pc.add_argument("--timeout", type=float, default=5.0,
                    help="failure-detection timeout per solve "
                         "(default: 5.0 s)")
    pc.add_argument("--floor", type=float, default=0.95,
                    help="required survival rate (default: 0.95)")
    pc.add_argument("--n", type=int, default=12,
                    help="smoke-problem mesh resolution (default: 12)")
    pc.add_argument("--tol", type=float, default=1e-6,
                    help="solver tolerance (default: 1e-6)")
    pc.add_argument("--out", default="",
                    help="write the campaign report JSON here")
    pc.add_argument("--flight-recorder", type=int, default=0,
                    metavar="RING",
                    help="attach a flight recorder with this ring size")
    pc.add_argument("--flight-out", default="",
                    help="write the flight-recorder dump JSON here "
                         "(requires --flight-recorder)")
    pc.add_argument("--verbose", action="store_true",
                    help="print a line per solve")
    pc.set_defaults(fn=cmd_chaos)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
