"""Chaos soak: survival rate, checkpoint overhead, time-to-recover.

At the paper's scales (N = 256-8192 subdomains on Curie) the mean time
between node failures drops below a solve's wall clock, so fault
tolerance has to be demonstrated statistically, not anecdotally.  This
benchmark gates three claims about the fault-tolerant SPMD driver
(:func:`repro.core.spmd_ft.solve_spmd_ft`):

* **survival** — a seeded randomized campaign (kill / drop / delay /
  corrupt / drop-storm faults, rank- and time-pinned) over >= 50 smoke
  solves reaches at least a 95 % survival rate, and every survivor
  converged to tolerance;
* **checkpoint overhead** — the diskless neighbor checkpointing
  (``checkpoint_every=1``) costs at most 10 % of the fault-free solve
  time relative to running with checkpointing off;
* **transient absorption** — message drops below the retry budget
  complete with zero ``RankFailure`` raised and zero communicator
  repairs: the sender-side retry path absorbs them transparently.

Per-failure time-to-recover (communicator repair + state restore) is
recorded in the JSON payload alongside the campaign's fault totals.
A bounded flight-recorder dump of the campaign's last spans/events is
written next to the text artefact for CI upload.

Run directly (CI runs ``--smoke``)::

    PYTHONPATH=src python benchmarks/bench_chaos_soak.py --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from common import RESULTS, write_result, write_json  # noqa: E402
from repro.common.asciiplot import table  # noqa: E402
from repro.core.spmd_ft import solve_spmd_ft  # noqa: E402
from repro.mpi.meter import Meter  # noqa: E402
from repro.obs import Recorder  # noqa: E402
from repro.resilience import (  # noqa: E402
    ChaosConfig, FaultPlan, FaultSpec, RetryPolicy, build_problem,
    run_campaign)

SURVIVAL_FLOOR = 0.95
OVERHEAD_CEILING = 0.10
#: on/off pairs of the checkpoint-overhead measurement
OVERHEAD_PAIRS = 101


def measure_checkpoint_overhead(cfg: ChaosConfig, pairs: int) -> dict:
    """Fault-free solve time with checkpointing on vs off, paired.

    Each of *pairs* pairs runs one solve with checkpointing on and one
    with it off back to back, alternating which goes first; the
    overhead is the median of the paired (on − off) differences over
    the median off time, clamped at 0 (on a noisy machine "on" can
    measure faster than "off").  One 6-rank smoke solve swings by
    ±20 % from run to run, so it takes ~100 pairs to resolve the 10 %
    ceiling: a difference of medians over 5 runs each passed or failed
    on noise.
    """
    dec, space, b = build_problem(cfg)
    times = {0: [], 1: []}
    iters = {}
    ticks = 0
    for r in range(pairs):
        for every in ((1, 0) if r % 2 == 0 else (0, 1)):
            t0 = time.perf_counter()
            rep = solve_spmd_ft(
                dec, space, b, num_masters=cfg.num_masters, tol=cfg.tol,
                restart=cfg.restart, maxiter=cfg.maxiter,
                two_level=cfg.two_level, spares=0, checkpoint_every=every)
            times[every].append(time.perf_counter() - t0)
            iters[every] = rep.iterations
            assert rep.converged, \
                f"fault-free solve (checkpoint_every={every}) diverged"
            if every == 1:
                ticks = rep.checkpoint_ticks
    t_off = float(np.median(times[0]))
    t_on = float(np.median(times[1]))
    delta = float(np.median(np.subtract(times[1], times[0])))
    overhead = max(0.0, delta / t_off)
    assert iters[0] == iters[1], (
        f"checkpointing changed the iteration count: "
        f"off={iters[0]}, on={iters[1]}")
    return {"t_off_s": t_off, "t_on_s": t_on, "delta_s": delta,
            "overhead": overhead, "checkpoint_ticks": ticks,
            "pairs": pairs, "iterations": iters[1]}


def measure_transients(cfg: ChaosConfig, ndrops: int) -> dict:
    """Drops below the retry budget must be invisible: no RankFailure,
    no repair, bitwise-same answer as the fault-free run."""
    dec, space, b = build_problem(cfg)
    retry = RetryPolicy(max_retries=3, backoff=1e-4, max_backoff=2e-3)
    rng = np.random.default_rng(cfg.seed)
    # non-consecutive nth values on distinct ranks: each drop is a lone
    # transient, recovered by the first resend
    specs = [FaultSpec(kind="drop", op="send",
                       rank=int(r), nth=int(10 + 37 * i))
             for i, r in enumerate(
                 rng.choice(cfg.nranks, size=ndrops, replace=False))]
    plan = FaultPlan(faults=specs, seed=cfg.seed, timeout=cfg.timeout,
                     retry=retry)
    ref = solve_spmd_ft(dec, space, b, num_masters=cfg.num_masters,
                        tol=cfg.tol, restart=cfg.restart,
                        maxiter=cfg.maxiter, two_level=cfg.two_level,
                        spares=0, checkpoint_every=1)
    meter = Meter(dec.num_subdomains)
    rep = solve_spmd_ft(dec, space, b, num_masters=cfg.num_masters,
                        tol=cfg.tol, restart=cfg.restart,
                        maxiter=cfg.maxiter, two_level=cfg.two_level,
                        spares=1, checkpoint_every=1, faults=plan,
                        meter=meter)
    assert rep.converged, "transient-drop solve diverged"
    assert not rep.recoveries, (
        f"transient drops escalated to {len(rep.recoveries)} repair(s)")
    assert meter.repairs == 0 and meter.rank_deaths == 0
    assert meter.faults_by_kind().get("drop", 0) == ndrops
    assert meter.retries_recovered == ndrops, (
        f"expected {ndrops} recovered retries, got "
        f"{meter.retries_recovered}")
    assert meter.retries_exhausted == 0
    assert np.allclose(rep.x, ref.x), \
        "transient drops changed the solution"
    return {"drops": ndrops, "retries": meter.total_retries(),
            "retries_recovered": meter.retries_recovered,
            "iterations": rep.iterations}


def run(smoke: bool) -> dict:
    cfg = ChaosConfig(
        solves=50 if smoke else 120,
        nranks=6, seed=2013, spares=2, checkpoint_every=1,
        timeout=5.0, mesh_n=12 if smoke else 16)
    recorder = Recorder(ring=256)

    t0 = time.perf_counter()
    report = run_campaign(cfg, recorder=recorder)
    campaign_s = time.perf_counter() - t0
    d = report.to_dict()
    ttr = report.time_to_recover()

    failed = [r for r in report.records if not r["survived"]]
    for r in failed:
        print(f"  solve {r['solve']}: FAILED "
              f"({r['error'] or 'did not converge'}) "
              f"faults={[f['kind'] for f in r['planned_faults']]}")
    assert d["survival_rate"] >= SURVIVAL_FLOOR, (
        f"survival {d['survival_rate']:.1%} below the "
        f"{SURVIVAL_FLOOR:.0%} floor ({len(failed)} failed solves)")
    # survivors must be *converged* survivors, not merely "returned"
    for r in report.records:
        if r["survived"]:
            assert r["converged"], \
                f"solve {r['solve']} survived without converging"

    overhead = measure_checkpoint_overhead(cfg, pairs=OVERHEAD_PAIRS)
    assert overhead["overhead"] <= OVERHEAD_CEILING, (
        f"checkpoint overhead {overhead['overhead']:.1%} exceeds "
        f"{OVERHEAD_CEILING:.0%} (median on-off "
        f"{overhead['delta_s'] * 1e3:.1f}ms over {OVERHEAD_PAIRS} pairs, "
        f"off={overhead['t_off_s'] * 1e3:.1f}ms)")

    transients = measure_transients(cfg, ndrops=3)

    rows = [
        ["solves", d["solves"], ""],
        ["survived", d["survived"], f"{d['survival_rate']:.1%}"],
        ["faulted solves", d["faulted_solves"], ""],
        ["repairs", d["repairs"], ""],
        ["faults injected",
         sum(d["fault_totals"].values()),
         " ".join(f"{k}={v}"
                  for k, v in sorted(d["fault_totals"].items()))],
        ["TTR mean", f"{np.mean(ttr) * 1e3:.2f} ms" if ttr else "-",
         f"max {np.max(ttr) * 1e3:.2f} ms" if ttr else ""],
        ["ckpt overhead", f"{overhead['overhead']:.1%}",
         f"on={overhead['t_on_s'] * 1e3:.0f}ms "
         f"off={overhead['t_off_s'] * 1e3:.0f}ms"],
        ["transient drops", transients["drops"],
         f"{transients['retries_recovered']} recovered, 0 repairs"],
        ["campaign wall", f"{campaign_s:.1f} s", ""],
    ]
    txt = table(["metric", "value", "detail"], rows,
                title=f"CHAOS SOAK ({cfg.solves} solves x {cfg.nranks} "
                      f"ranks, seed {cfg.seed})")
    summary = (f"survival {d['survival_rate']:.1%} "
               f"(floor {SURVIVAL_FLOOR:.0%}), checkpoint overhead "
               f"{overhead['overhead']:.1%} (ceiling "
               f"{OVERHEAD_CEILING:.0%}), {d['repairs']} repairs over "
               f"{d['faulted_solves']} faulted solves")
    print(summary)

    payload = {
        "smoke": smoke,
        "config": {"solves": cfg.solves, "nranks": cfg.nranks,
                   "seed": cfg.seed, "spares": cfg.spares,
                   "checkpoint_every": cfg.checkpoint_every,
                   "mesh_n": cfg.mesh_n,
                   "rates": {"kill": cfg.kill_rate,
                             "drop": cfg.drop_rate,
                             "delay": cfg.delay_rate,
                             "corrupt": cfg.corrupt_rate,
                             "storm": cfg.storm_rate}},
        "survival": {"floor": SURVIVAL_FLOOR,
                     "solves": d["solves"],
                     "survived": d["survived"],
                     "rate": d["survival_rate"],
                     "faulted_solves": d["faulted_solves"],
                     "repairs": d["repairs"],
                     "fault_totals": d["fault_totals"]},
        "time_to_recover": d["time_to_recover"],
        "checkpoint_overhead": {**overhead,
                                "ceiling": OVERHEAD_CEILING},
        "transients": transients,
        "summary": summary,
    }
    write_result("chaos_soak", txt + "\n" + summary)
    write_json("BENCH_chaos_soak", payload)

    RESULTS.mkdir(exist_ok=True)
    flight = RESULTS / "chaos_flight.json"
    flight.write_text(json.dumps(recorder.flight_dump(), indent=2)
                      + "\n")
    print(f"[flight-recorder dump written to {flight}]")
    return payload


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized run (50 solves on a 12x12 mesh)")
    args = ap.parse_args(argv)
    run(args.smoke)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
