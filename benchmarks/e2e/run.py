"""``bench-e2e``: time-to-solution on five fixed workloads, with a
per-layer breakdown measured from outside.

    python3 benchmarks/e2e/run.py                  # all workloads, end to end
    python3 benchmarks/e2e/run.py --trace          # ... plus the per-layer pass
    python3 benchmarks/e2e/run.py --workload diffusion3d --seed 3 \
            --seconds 24 --trace 0                 # what the pipeline runs
    python3 benchmarks/e2e/run.py --compare A.json B.json

Each workload runs in its own subprocess, in a clean room: every
``REPRO_*`` variable is removed (so the *defaults* are what is
measured) and the BLAS/OpenMP thread counts are pinned to 1.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero if
any op failed.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
#: a workload subprocess is killed after this long (pipeline limit 180 s)
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
from metrics import (  # noqa: E402
    EXACT_UNITS,
    LAYER_BY_NAME,
    spread,
)


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Child: one workload, one pass, inside the clean room
# ----------------------------------------------------------------------

def child_main(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    import measure
    from repro.core.coarse_strategies import get_strategy
    from repro.kernels import get_backend
    from repro.obs import to_chrome_trace
    from workloads import BY_NAME

    w = BY_NAME[args.workload[0]]
    if args.trace == "1":
        out = measure.run_trace(w, args.seed, smoke=args.smoke,
                                maxiter=args.maxiter)
        RESULTS.mkdir(exist_ok=True)
        trace_path = RESULTS / f"TRACE_{w.name}.json"
        trace_path.write_text(
            json.dumps(to_chrome_trace(out.pop("recorder"))) + "\n")
        metrics = {
            name: {"value": value, "unit": LAYER_BY_NAME[name].unit}
            for name, value in out["metrics"].items()}
    else:
        out = measure.run_end_to_end(w, args.seed, args.seconds,
                                     smoke=args.smoke, maxiter=args.maxiter)
        metrics = out["metrics"]
    ops = out["ops"]
    backend = get_backend(None)
    result = {
        "workload": w.name,
        "ops_attempted": ops.attempted, "ops_failed": ops.failed,
        "failures": ops.failures,
        "metrics": metrics, "info": out["info"],
        "provenance": {
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "kernel_backend": backend.name,
            "precision": backend.precision,
            "coarse_strategy": get_strategy(None).name,
            "coarse_space": out["info"].get("coarse_space"),
            "seed": args.seed, "smoke": args.smoke,
        },
    }
    print(json.dumps(result))
    return 0


def clean_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    # glibc's defaults hand every array above 128 KiB to mmap and give
    # freed heap back to the kernel, so each numpy temporary is paid
    # for in page faults: a fifth of a run is system time, and what a
    # page fault costs is the shared host's business, not the program's.
    # Pinned to the largest threshold glibc accepts, and never trimming,
    # temporaries are recycled inside the heap: system time falls to
    # 3 % and set-up by a tenth — the same on every commit.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 * 1024 * 1024)
    env["MALLOC_TRIM_THRESHOLD_"] = str(2 ** 31)
    env.pop("PYTHONPATH", None)     # the child finds src/ on its own
    return env


def run_child(workload: str, trace: str, args) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--child",
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", trace,
           "--maxiter", str(args.maxiter)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env=clean_env(), cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"bench-e2e: workload {workload!r} "
                         f"(trace={trace}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Parent: orchestrate, print, write
# ----------------------------------------------------------------------

def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_workload(name: str, entry: dict) -> None:
    print(f"\n== {name} ==")
    for metric, s in entry.get("end_to_end", {}).items():
        extra = f"  p75={_fmt(s['p75'])}" if "p75" in s else ""
        print(f"  {metric:<24} {_fmt(s['value']):>12} {s['unit']:<3} "
              f"(median of n={s['n']}, min={_fmt(s['min'])}, "
              f"max={_fmt(s['max'])}){extra}")
    for metric, s in entry.get("per_layer", {}).items():
        print(f"  {metric:<34} {_fmt(s['value']):>14} {s['unit']}")
    print(f"  ops_attempted = {entry['ops_attempted']}, "
          f"ops_failed = {entry['ops_failed']}")
    if entry["info"].get("disturbed_repeats"):
        print(f"  {entry['info']['disturbed_repeats']} repeat(s) left out: "
              "the hypervisor withheld CPU while they ran")
    for failure in entry["failures"]:
        print(f"  FAILED: {failure}")


def run_workload(name: str, why: str, passes: list[str], args) -> dict:
    entry = {"why": why, "ops_attempted": 0, "ops_failed": 0,
             "failures": [], "info": {}, "provenance": {}}
    for trace in passes:
        res = run_child(name, trace, args)
        entry["end_to_end" if trace == "0" else "per_layer"] = \
            res["metrics"]
        entry["ops_attempted"] += res["ops_attempted"]
        entry["ops_failed"] += res["ops_failed"]
        entry["failures"] += res["failures"]
        entry["info"].update(res["info"])
        entry["provenance"].update(res["provenance"])
    return entry


def contract_line(entry: dict, contract: dict, passes: list[str]) -> str:
    """The pipeline's result object: every declared metric of the
    passes that ran, nothing else."""
    metrics = {}
    if "0" in passes:
        for m in contract["end_to_end"]:
            s = entry["end_to_end"][m["name"]]
            metrics[m["name"]] = {"value": s["value"], "unit": s["unit"]}
    if "1" in passes:
        for m in contract["per_layer"]:
            metrics[m["name"]] = entry["per_layer"][m["name"]]
    return json.dumps({"correct": entry["ops_failed"] == 0,
                       "attempted": entry["ops_attempted"],
                       "failed": entry["ops_failed"], "metrics": metrics})


def bench_main(args) -> int:
    contract = load_contract()
    why = {w["name"]: w["why"] for w in contract["workloads"]}
    names = args.workload or list(why)
    unknown = [n for n in names if n not in why]
    if unknown:
        raise SystemExit(f"bench-e2e: unknown workload(s) {unknown}; "
                         f"expected some of {list(why)}")
    passes = {"0": ["0"], "1": ["1"], "both": ["0", "1"]}[args.trace]
    payload = {
        "benchmark": "bench-e2e",
        "provenance": {"git_sha": git_sha(), "nproc": os.cpu_count(),
                       "seed": args.seed, "seconds": args.seconds},
        "workloads": {},
    }
    for name in names:
        entry = run_workload(name, why[name], passes, args)
        payload["workloads"][name] = entry
        print_workload(name, entry)
    if "1" in passes:
        payload["per_layer_moves"] = {
            name: lm.moves for name, lm in LAYER_BY_NAME.items()}
    attempted = sum(e["ops_attempted"]
                    for e in payload["workloads"].values())
    failed = sum(e["ops_failed"] for e in payload["workloads"].values())
    print(f"\nbench-e2e: {len(names)} workload(s), "
          f"ops_attempted = {attempted}, ops_failed = {failed}")
    out = args.out
    if out is None and not args.workload and not args.smoke:
        out = RESULTS / "BENCH_e2e.json"
    if out is not None:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(json.dumps(payload, indent=1) + "\n")
        print(f"[written to {out}]")
    if len(names) == 1:
        print(contract_line(payload["workloads"][names[0]], contract,
                            passes))
    return 1 if failed else 0


# ----------------------------------------------------------------------
# --compare: the declared schema decides, never a name fragment
# ----------------------------------------------------------------------

def compare_main(path_a: str, path_b: str) -> int:
    contract = load_contract()
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    bad = 0
    print(f"{'workload':<22} {'metric':<20} {'A':>11} {'B':>11} "
          f"{'change':>8} {'bound':>6} {'spread':>7}  verdict")
    for name in a:
        if name not in b:
            continue
        for m in contract["end_to_end"]:
            sa = a[name]["end_to_end"][m["name"]]
            sb = b[name]["end_to_end"][m["name"]]
            change = (sb["value"] - sa["value"]) / sa["value"]
            worse = change if m["better"] == "lower" else -change
            own = max(spread(sa["samples"]), spread(sb["samples"]))
            if own > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "regressed"
                bad += 1
            else:
                verdict = "ok"
            print(f"{name:<22} {m['name']:<20} {sa['value']:>11.5g} "
                  f"{sb['value']:>11.5g} {change:>+8.1%} "
                  f"{m['bound']:>6.0%} {own:>7.1%}  {verdict}")
        la = a[name].get("per_layer", {})
        lb = b[name].get("per_layer", {})
        for metric in la:
            if metric in lb and la[metric]["unit"] in EXACT_UNITS \
                    and la[metric]["value"] != lb[metric]["value"]:
                print(f"{name:<22} {metric}: count mismatch "
                      f"{la[metric]['value']} != {lb[metric]['value']}")
                bad += 1
    print("compare: " + ("FAILED" if bad else "ok")
          + f" ({bad} regressed or mismatched)")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="+", metavar="W",
                    help="workload name(s); default: all five")
    ap.add_argument("--seed", type=int, default=0,
                    help="feeds the right-hand-side perturbations; the "
                         "operators are fixed")
    ap.add_argument("--seconds", type=float, default=24.0,
                    help="measurement budget of one end-to-end run: "
                         "the minimum repeat counts always run, further "
                         "repeats are added while they fit")
    ap.add_argument("--trace", nargs="?", const="both", default="0",
                    choices=["0", "1", "both"],
                    help="0: end-to-end pass only (default); 1: "
                         "per-layer trace pass only; bare --trace: both")
    ap.add_argument("--out", help="write the full result JSON here "
                    "(default for an all-workload run: "
                    "results/BENCH_e2e.json)")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="compare two result files against the bounds "
                         "declared in BENCHMARK.json")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny variant of each workload (self-test only)")
    ap.add_argument("--maxiter", type=int, default=1000,
                    help="Krylov iteration cap (the self-test forces "
                         "failures with 1)")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.compare:
        return compare_main(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"bench-e2e: {ROOT / 'src' / 'repro'} not found; "
                         "run from a checkout of the repository")
    if args.child:
        return child_main(args)
    return bench_main(args)


if __name__ == "__main__":
    sys.exit(main())
