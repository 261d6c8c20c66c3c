"""Self-test of the ``bench-e2e`` harness on smoke-sized workloads.

    python -m pytest benchmarks/e2e -q
"""

import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for p in (ROOT / "src", HERE):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import measure  # noqa: E402
import run  # noqa: E402
from metrics import EXACT_UNITS, LAYER_METRICS  # noqa: E402
from workloads import BY_NAME, WORKLOADS  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
NAMES = [w.name for w in WORKLOADS]


@functools.cache
def traced(name: str, seed: int, attempt: int = 0) -> dict:
    """One smoke-sized trace pass (*attempt* only defeats the cache)."""
    return measure.run_trace(BY_NAME[name], seed, smoke=True)


def cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0",
         *argv], capture_output=True, text=True, timeout=120)


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------

def test_contract_schema():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert CONTRACT["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(CONTRACT["run_seconds"], int)
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    for w in CONTRACT["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    for m in CONTRACT["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    for m in CONTRACT["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    declared = (CONTRACT["workloads"] + CONTRACT["end_to_end"]
                + CONTRACT["per_layer"])
    names = [d["name"] for d in declared]
    assert len(set(names)) == len(names)
    for d in declared:
        assert NAME.fullmatch(d["name"]), d["name"]
        if "unit" in d:
            assert UNIT.fullmatch(d["unit"]), d
            assert d["better"] in ("lower", "higher")
    setup = {m["name"]: m for m in CONTRACT["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"]
                                 for m in CONTRACT["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_contract_matches_the_harness():
    assert [w["name"] for w in CONTRACT["workloads"]] == NAMES
    assert CONTRACT["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in LAYER_METRICS if m.contract]
    for m in LAYER_METRICS:
        assert m.moves


# ----------------------------------------------------------------------
# The command the pipeline runs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", NAMES)
def test_run_prints_every_declared_metric(name, trace):
    proc = cli("--workload", name, "--seed", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = CONTRACT["end_to_end" if trace == "0" else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if trace == "0":
            assert got["value"] > 0
    # the human-readable part names every metric with its unit
    for m in declared:
        assert re.search(rf"{re.escape(m['name'])}\s+\S+ {m['unit']}\b",
                         proc.stdout), m["name"]
    assert "ops_failed = 0" in proc.stdout
    if trace == "1":
        assert (HERE / "results" / f"TRACE_{name}.json").exists()


def test_forced_single_iteration_is_counted_as_failed():
    w = BY_NAME["elasticity2d_manyrhs"]
    out = measure.run_end_to_end(w, 0, 0.0, smoke=True, maxiter=1)
    ops = out["ops"]
    solves = ops.attempted - measure.REPEATS       # one setup per repeat
    assert solves >= measure.REPEATS * w.solves
    assert ops.failed == solves
    proc = cli("--workload", w.name, "--maxiter", "1")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == ops.failed


def test_a_repeat_the_hypervisor_disturbed_is_run_again(monkeypatch):
    # a steal counter that jumps by 10 s across the first cold repeat
    # and stands still afterwards
    readings = iter([0.0, 10.0])
    monkeypatch.setattr(measure, "stolen_s", lambda: next(readings, 10.0))
    w = BY_NAME["diffusion2d"]
    out = measure.run_end_to_end(w, 0, 0.0, smoke=True)
    assert out["info"]["disturbed_repeats"] == 1
    assert out["metrics"]["setup_s"]["n"] == measure.REPEATS
    # four repeats ran: a setup, the cold solve and the warm ones in each
    assert out["ops"].attempted == \
        (measure.REPEATS + 1) * (2 + measure.SAMPLES_PER_SOLVER)
    assert out["ops"].failed == 0


# ----------------------------------------------------------------------
# The trace pass
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_and_the_seed_changes_the_inputs(name):
    first, again = traced(name, 0), traced(name, 0, attempt=1)
    assert first is not again
    exact = [m.name for m in LAYER_METRICS if m.unit in EXACT_UNITS
             and m.name in first["metrics"]]
    assert len(exact) >= 25
    for metric in exact:
        assert first["metrics"][metric] == again["metrics"][metric], metric
    assert first["info"]["digest"] == again["info"]["digest"]
    assert traced(name, 1)["info"]["digest"] != first["info"]["digest"]


@pytest.mark.parametrize("name", NAMES)
def test_layer_spans_cover_the_traced_wall(name):
    out = traced(name, 0)
    assert out["ops"].failed == 0, out["ops"].failures
    assert out["metrics"]["trace.unattributed_frac"] < 0.05
    spans = {s.name for s in out["recorder"].spans}
    assert {"pipeline", "mesh.build", "fem.problem", "partition.partition",
            "dd.decomposition", "solvers.factorize", "geneo.eigensolve",
            "geneo.deflation_space", "coarse.build", "fem.rhs",
            "krylov.solve"} <= spans


@pytest.mark.parametrize("name", [w.name for w in WORKLOADS if not w.spmd])
def test_trace_pass_rebuilds_what_the_user_api_builds(name):
    w = BY_NAME[name]
    e2e = measure.run_end_to_end(w, 0, 0.0, smoke=True)
    layers = traced(name, 0)["metrics"]
    assert e2e["ops"].failed == 0, e2e["ops"].failures
    assert layers["coarse.dim"] == e2e["info"]["coarse_dim"]
    assert layers["fem.n_free"] == e2e["info"]["n_free"]
    assert layers["krylov.iterations"] == \
        sum(e2e["info"]["iterations"][0][:w.solves])
    assert traced(name, 0)["info"]["digest"] == e2e["info"]["digest"]


def test_spmd_trace_carries_the_section_3_5_counts():
    m = traced("diffusion2d_spmd", 0)["metrics"]
    assert m["mpi.fused_p1.global_syncs_per_iter"] == 0
    assert m["mpi.gmres.global_syncs_per_iter"] >= 2
    assert m["mpi.fused_p1.messages_per_iter"] > 0
    assert m["mpi.overhead_ratio"] > 0 and m["mpi.gmres.wall_s"] > 0


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------

def _result_file(tmp_path, label, *, tts=2.0, jitter=0.01, dim=16):
    def stat(value, unit):
        samples = [value * (1 - jitter), value, value * (1 + jitter)]
        return {"value": value, "unit": unit, "n": 3, "samples": samples}

    entry = {
        "end_to_end": {
            "time_to_solution_s": stat(tts, "s"),
            "setup_s": stat(1.5, "s"), "solve_s": stat(0.5, "s"),
            "peak_rss_mb": stat(100.0, "MB")},
        "per_layer": {"coarse.dim": {"value": dim, "unit": "count"},
                      "coarse.build_s": {"value": 0.1 * tts, "unit": "s"}},
    }
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps({"workloads": {"diffusion2d": entry}}))
    return str(path)


def test_compare_applies_the_declared_bounds(tmp_path, capsys):
    base = _result_file(tmp_path, "a")
    assert run.compare_main(base, _result_file(tmp_path, "b", tts=2.1)) == 0
    assert " ok" in capsys.readouterr().out
    assert run.compare_main(base, _result_file(tmp_path, "c", tts=3.0)) == 1
    assert "regressed" in capsys.readouterr().out
    # an improvement is never a regression
    assert run.compare_main(base, _result_file(tmp_path, "d", tts=1.0)) == 0
    capsys.readouterr()
    noisy = _result_file(tmp_path, "e", tts=3.0, jitter=0.5)
    assert run.compare_main(base, noisy) == 0
    assert "unresolved" in capsys.readouterr().out
    # counts must match exactly; timings among the layers are not gated
    assert run.compare_main(base, _result_file(tmp_path, "f", dim=17)) == 1
    assert "count mismatch" in capsys.readouterr().out
