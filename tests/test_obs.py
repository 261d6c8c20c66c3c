"""Tests for the unified telemetry subsystem (repro.obs)."""

import json
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.obs import (NULL_RECORDER, EventRecord, NullRecorder, Recorder,
                       SpanRecord, iteration_residuals, load_trace,
                       render_trace, summary, to_chrome_trace, to_jsonl,
                       write_trace)


class TestRecorder:
    def test_span_records_times(self):
        rec = Recorder()
        with rec.span("work"):
            pass
        (s,) = rec.spans
        assert s.name == "work"
        assert 0 <= s.start <= s.end
        assert s.duration >= 0
        assert s.parent is None
        assert s.track == "main"

    def test_nesting_assigns_parents(self):
        rec = Recorder()
        with rec.span("outer"):
            with rec.span("inner"):
                with rec.span("leaf"):
                    pass
            with rec.span("sibling"):
                pass
        leaf = rec.find("leaf")[0]
        assert [a.name for a in rec.ancestors_of(leaf)] == ["inner",
                                                            "outer"]
        assert rec.nested_within("leaf", "outer")
        assert rec.nested_within("sibling", "outer")
        assert not rec.nested_within("sibling", "inner")
        assert not rec.nested_within("missing", "outer")

    def test_sequential_spans_do_not_nest(self):
        rec = Recorder()
        with rec.span("a"):
            pass
        with rec.span("b"):
            pass
        assert rec.find("b")[0].parent is None

    def test_exception_closes_span(self):
        rec = Recorder()
        with pytest.raises(RuntimeError):
            with rec.span("boom"):
                raise RuntimeError()
        assert len(rec.find("boom")) == 1
        # the per-thread stack is clean: the next span is a root
        with rec.span("after"):
            pass
        assert rec.find("after")[0].parent is None

    def test_counters_and_gauges(self):
        rec = Recorder()
        rec.add("matvecs")
        rec.add("matvecs", 2)
        rec.add("bytes", 100)
        rec.gauge("dim", 5)
        rec.gauge("dim", 7)
        assert rec.counters == {"matvecs": 3, "bytes": 100}
        assert rec.gauges == {"dim": 7}

    def test_events(self):
        rec = Recorder()
        rec.event("iteration", attrs={"k": 0, "residual": 1.0})
        (e,) = rec.events
        assert e.name == "iteration"
        assert e.attrs["residual"] == 1.0
        assert e.time >= 0

    def test_totals(self):
        rec = Recorder()
        for _ in range(3):
            with rec.span("p"):
                pass
        t = rec.totals()["p"]
        assert t["count"] == 3
        assert t["seconds"] >= 0

    def test_thread_safety_and_tracks(self):
        rec = Recorder()

        def worker(i):
            for _ in range(50):
                with rec.span(f"task{i}"):
                    rec.add("done")

        threads = [threading.Thread(target=worker, args=(i,),
                                    name=f"w{i}") for i in range(4)]
        with rec.span("main_work"):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert rec.counters["done"] == 200
        assert len(rec.spans) == 201
        # worker spans land on their own tracks and don't nest inside
        # the main thread's open span
        for i in range(4):
            s = rec.find(f"task{i}")[0]
            assert s.track == f"w{i}"
            assert s.parent is None
        assert set(rec.tracks()) == {"main", "w0", "w1", "w2", "w3"}

    def test_explicit_track(self):
        rec = Recorder()
        with rec.span("exchange", track="rank3"):
            pass
        assert rec.find("exchange")[0].track == "rank3"


class TestNullRecorder:
    def test_disabled_and_inert(self):
        rec = NullRecorder()
        assert not rec.enabled
        with rec.span("x"):
            rec.add("c")
            rec.gauge("g", 1)
            rec.event("e")
        assert not rec.spans and not rec.events
        assert not rec.counters and not rec.gauges

    def test_shared_instance(self):
        assert not NULL_RECORDER.enabled
        # reentrant: the same no-op span handle can nest
        with NULL_RECORDER.span("a"):
            with NULL_RECORDER.span("b"):
                pass


class TestIterationResiduals:
    def test_corrected_replaces_last(self):
        rec = Recorder()
        rec.event("iteration", attrs={"k": 0, "residual": 1.0})
        rec.event("iteration", attrs={"k": 1, "residual": 0.5})
        rec.event("iteration", attrs={"k": 1, "residual": 0.4,
                                      "corrected": True})
        rec.event("restart", attrs={"cycle": 1, "k": 1})
        assert iteration_residuals(rec) == [1.0, 0.4]


@pytest.fixture
def sample_recorder():
    rec = Recorder()
    with rec.span("setup"):
        with rec.span("factorize", attrs={"nsub": 2}):
            pass
    with rec.span("solve"):
        with rec.span("apply", track="main"):
            with rec.span("coarse_solve"):
                pass
    rec.event("iteration", attrs={"k": 0, "residual": 1.0})
    rec.add("matvecs", 4)
    rec.gauge("coarse_dim", 8)
    return rec


class TestExporters:
    def test_chrome_structure(self, sample_recorder):
        doc = to_chrome_trace(sample_recorder)
        evs = doc["traceEvents"]
        phases = {e["ph"] for e in evs}
        assert {"M", "X", "i", "C"} <= phases
        meta = [e for e in evs if e["ph"] == "M"]
        assert {"thread_name"} == {e["name"] for e in meta}
        spans = [e for e in evs if e["ph"] == "X"]
        assert {"setup", "factorize", "solve", "apply",
                "coarse_solve"} == {e["name"] for e in spans}
        # parent linkage survives in args
        cs = next(e for e in spans if e["name"] == "coarse_solve")
        assert cs["args"]["parent"] is not None
        assert doc["otherData"]["counters"] == {"matvecs": 4}
        json.dumps(doc)                     # fully serialisable

    def test_jsonl_lines_parse(self, sample_recorder):
        lines = to_jsonl(sample_recorder).splitlines()
        objs = [json.loads(ln) for ln in lines]
        kinds = [o["type"] for o in objs]
        assert kinds.count("span") == 5
        assert kinds.count("event") == 1
        assert kinds[-2:] == ["counters", "gauges"]

    def test_summary(self, sample_recorder):
        s = summary(sample_recorder)
        assert s["spans"]["apply"]["count"] == 1
        assert s["counters"] == {"matvecs": 4}
        assert s["gauges"] == {"coarse_dim": 8}
        assert s["num_events"] == 1
        json.dumps(s)

    @pytest.mark.parametrize("fmt", ["chrome", "jsonl"])
    def test_round_trip(self, sample_recorder, fmt, tmp_path):
        path = tmp_path / f"trace.{fmt}"
        write_trace(sample_recorder, path, format=fmt)
        trace = load_trace(path)
        assert {s.name for s in trace.spans} == \
            {s.name for s in sample_recorder.spans}
        assert len(trace.events) == 1
        assert trace.counters == {"matvecs": 4}
        assert trace.gauges == {"coarse_dim": 8}
        # span times survive to microsecond precision
        orig = {s.name: s for s in sample_recorder.spans}
        for s in trace.spans:
            assert s.start == pytest.approx(orig[s.name].start, abs=1e-5)
            assert s.duration == pytest.approx(orig[s.name].duration,
                                               abs=1e-5)
        # hierarchy survives: coarse_solve still points at apply
        by_index = {s.index: s for s in trace.spans}
        cs = next(s for s in trace.spans if s.name == "coarse_solve")
        assert by_index[cs.parent].name == "apply"

    def test_unknown_format_rejected(self, sample_recorder, tmp_path):
        with pytest.raises(ValueError):
            write_trace(sample_recorder, tmp_path / "t", format="xml")

    def test_render(self, sample_recorder, tmp_path):
        path = tmp_path / "t.json"
        write_trace(sample_recorder, path)
        out = render_trace(load_trace(path), width=50, max_tracks=4)
        assert "coarse_solve" in out
        assert "phase totals" in out
        assert "matvecs" in out

    def test_render_empty(self):
        from repro.obs import TraceData
        assert "(no spans" in render_trace(TraceData())


class TestAdapters:
    def test_phase_timer_mirrors_spans(self):
        """The solver's phase timing is spans: setup phases once, one
        ``solution`` span per solve."""
        from repro import SchwarzSolver
        from repro.fem.forms import DiffusionForm
        from repro.mesh import unit_square
        rec = Recorder()
        s = SchwarzSolver(unit_square(8), DiffusionForm(degree=1),
                          num_subdomains=2, nev=2, recorder=rec)
        s.solve(tol=1e-8)
        s.solve(tol=1e-8)
        totals = rec.totals()
        for phase in ("decomposition", "factorization", "deflation",
                      "coarse"):
            assert totals[phase]["count"] == 1
        assert totals["solution"]["count"] == 2

    def test_solve_profiler_mirrors_phases(self):
        """The solve profile is spans: a driver given a recorder spans
        each operator call, and a span opened inside the preconditioner
        nests inside ``apply``."""
        from repro.krylov import gmres
        rec = Recorder()
        A = np.diag(np.arange(1.0, 9.0))

        def M(x):
            with rec.span("coarse_solve"):
                return x / np.diag(A)

        r = gmres(A, np.ones(8), M=M, tol=1e-10, recorder=rec)
        totals = rec.totals()
        assert totals["apply"]["count"] == totals["coarse_solve"]["count"]
        assert totals["matvec"]["count"] >= r.iterations
        assert rec.nested_within("coarse_solve", "apply")

    def test_timed_map_labels_tasks(self):
        from repro.parallel import ParallelConfig, timed_map
        rec = Recorder()
        out, secs = timed_map(lambda x: x * x, [1, 2, 3],
                              ParallelConfig("threads", workers=2),
                              recorder=rec, label="sq")
        assert out == [1, 4, 9]
        assert len(secs) == 3
        assert sorted(s.name for s in rec.spans) == \
            ["sq[0]", "sq[1]", "sq[2]"]
        # the returned seconds are the spans' durations
        by_name = {s.name: s.duration for s in rec.spans}
        assert secs == [by_name[f"sq[{i}]"] for i in range(3)]

    def test_meter_feeds_counters(self):
        from repro.mpi import Meter
        rec = Recorder()
        m = Meter(2, recorder=rec)
        m.on_send(0, 80)
        m.on_recv(1, 80)
        m.on_collective(0, "allreduce", 8, is_global_sync=True)
        assert rec.counters["mpi.sends"] == 1
        assert rec.counters["mpi.send_bytes"] == 80
        assert rec.counters["mpi.recvs"] == 1
        assert rec.counters["mpi.collective.allreduce"] == 1
        assert rec.counters["mpi.global_syncs"] == 1
        # per-rank stats unchanged by the adapter
        assert m.stats(0).sends == 1

    def test_run_spmd_records_traffic(self):
        from repro.mpi import run_spmd
        rec = Recorder()

        def fn(comm):
            nxt = (comm.rank + 1) % comm.size
            comm.send(np.arange(4, dtype=np.float64), dest=nxt, tag=0)
            src = (comm.rank - 1) % comm.size
            comm.recv(source=src, tag=0)
            return comm.rank

        out = run_spmd(3, fn, recorder=rec)
        assert out == [0, 1, 2]
        assert rec.counters["mpi.sends"] == 3
        assert rec.counters["mpi.send_bytes"] == 3 * 32


class TestOneClock:
    def test_perf_counter_only_in_recorder(self):
        """The Recorder is the package's only clock: no other module of
        ``src/repro`` reads ``perf_counter``.  (The ``time.monotonic``
        deadlines of ``mpi/simmpi.py`` and ``core/spmd_ft.py`` are
        timeouts, not telemetry, and stay.)"""
        from pathlib import Path

        import repro
        root = Path(repro.__file__).parent
        readers = sorted(str(p.relative_to(root))
                         for p in root.rglob("*.py")
                         if "perf_counter" in p.read_text())
        assert readers == [str(Path("obs") / "recorder.py")]


class TestPayloadBytes:
    def test_sparse_matrices_counted_exactly(self):
        from repro.mpi.meter import payload_bytes
        A = sp.random(40, 40, density=0.1, format="csr",
                      random_state=0)
        expected = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
        assert payload_bytes(A) == expected
        assert payload_bytes(A) > 64           # not the opaque fallback
        coo = A.tocoo()
        assert payload_bytes(coo) == (coo.data.nbytes + coo.row.nbytes
                                      + coo.col.nbytes)

    def test_other_payloads_unchanged(self):
        from repro.mpi.meter import payload_bytes
        assert payload_bytes(None) == 0
        assert payload_bytes(np.zeros(3)) == 24
        assert payload_bytes(b"abcd") == 4
        assert payload_bytes(3.14) == 8
        assert payload_bytes([np.zeros(2), np.zeros(2)]) == 32
        assert payload_bytes(object()) == 64


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def solved(self):
        from repro import SchwarzSolver
        from repro.fem import channels_and_inclusions
        from repro.fem.forms import DiffusionForm
        from repro.mesh import unit_square

        mesh = unit_square(12)
        form = DiffusionForm(degree=1,
                             kappa=channels_and_inclusions(mesh))
        rec = Recorder()
        solver = SchwarzSolver(mesh, form, num_subdomains=4, nev=4,
                               recorder=rec)
        report = solver.solve(tol=1e-8)
        return rec, solver, report

    def test_setup_spans_nest(self, solved):
        rec, _, _ = solved
        for phase in ("decomposition", "factorization", "deflation",
                      "coarse"):
            assert rec.nested_within(phase, "setup")
        assert rec.nested_within("factorize_E", "coarse")
        assert rec.nested_within("geneo[0]", "deflation")

    def test_coarse_solve_nests_inside_apply(self, solved):
        rec, _, _ = solved
        assert rec.nested_within("coarse_solve", "apply")
        assert rec.nested_within("apply", "solution")
        assert rec.nested_within("matvec", "solution")

    def test_iteration_events_match_residuals(self, solved):
        rec, _, report = solved
        assert iteration_residuals(rec) == report.residuals

    def test_counters_and_gauges(self, solved):
        rec, solver, report = solved
        assert rec.counters["coarse_solves"] == solver.coarse.solves
        assert rec.counters["matvecs"] >= report.iterations
        assert rec.gauges["coarse_dim"] == solver.coarse_dim
        assert rec.gauges["iterations"] == report.iterations

    def test_trace_exports_and_renders(self, solved, tmp_path):
        rec, _, _ = solved
        path = tmp_path / "solve.json"
        write_trace(rec, path)
        out = render_trace(load_trace(path))
        assert "coarse_solve" in out and "geneo[0]" in out

    def test_default_solver_stays_uninstrumented(self, monkeypatch):
        import time

        from repro import SchwarzSolver
        from repro.fem.forms import DiffusionForm
        from repro.mesh import unit_square

        s = SchwarzSolver(unit_square(8), DiffusionForm(degree=1),
                          num_subdomains=2, nev=2)
        assert not s.recorder.enabled

        def no_clock():
            raise AssertionError("un-instrumented solve read the clock")

        # an un-instrumented solve reads no clock at all
        monkeypatch.setattr(time, "perf_counter", no_clock)
        r = s.solve(tol=1e-8)
        assert r.converged
        assert not s.recorder.spans


class TestCLI:
    def test_solve_telemetry_then_trace(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "run.json"
        rc = main(["solve", "--problem", "diffusion2d", "--n", "12",
                   "--subdomains", "4", "--nev", "4", "--tol", "1e-8",
                   "--telemetry", str(path)])
        assert rc == 0
        assert path.exists()
        doc = json.loads(path.read_text())
        assert doc["otherData"]["format"] == "repro-telemetry"
        capsys.readouterr()
        assert main(["trace", str(path), "--width", "50"]) == 0
        out = capsys.readouterr().out
        assert "phase totals" in out and "coarse_solve" in out

    def test_solve_telemetry_jsonl(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "run.jsonl"
        rc = main(["solve", "--problem", "diffusion2d", "--n", "12",
                   "--subdomains", "4", "--nev", "4", "--tol", "1e-8",
                   "--telemetry", str(path),
                   "--telemetry-format", "jsonl"])
        assert rc == 0
        capsys.readouterr()
        assert main(["trace", str(path)]) == 0
        assert "phase totals" in capsys.readouterr().out

    def test_report_and_metrics_subcommands(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "run.json"
        main(["solve", "--problem", "diffusion2d", "--n", "12",
              "--subdomains", "4", "--nev", "4", "--tol", "1e-8",
              "--telemetry", str(path)])
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out and "convergence" in out
        assert main(["metrics", str(path), "--check"]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("# EOF")


class TestTraceFidelity:
    """Counters/gauges/events survive both formats bit-for-bit."""

    @pytest.mark.parametrize("fmt", ["chrome", "jsonl"])
    def test_counters_and_gauges_round_trip(self, sample_recorder, fmt,
                                            tmp_path):
        sample_recorder.add("mpi.pair_msgs.0->1", 3)
        sample_recorder.gauge("coarse.dim", 32.5)
        path = tmp_path / f"t.{fmt}"
        write_trace(sample_recorder, path, format=fmt)
        trace = load_trace(path)
        assert trace.counters == sample_recorder.counters
        assert trace.gauges == sample_recorder.gauges

    def test_chrome_without_otherdata_still_loads_counters(
            self, sample_recorder, tmp_path):
        # a trace post-processed by chrome tooling may lose the
        # otherData block; the "C" samples alone must reconstruct
        # counters and gauges
        doc = to_chrome_trace(sample_recorder)
        del doc["otherData"]["counters"]
        del doc["otherData"]["gauges"]
        path = tmp_path / "stripped.json"
        path.write_text(json.dumps(doc))
        trace = load_trace(path)
        assert trace.counters == {"matvecs": 4}
        assert trace.gauges == {"coarse_dim": 8}

    def test_render_shows_counter_and_event_tables(self,
                                                   sample_recorder):
        out = render_trace(sample_recorder)
        assert "counters and gauges" in out
        assert "matvecs" in out and "coarse_dim" in out
        assert "events (1 total)" in out
        assert "iteration" in out


class TestFlightRecorder:
    def test_ring_bounds_spans_and_events(self):
        rec = Recorder(ring=4)
        for i in range(10):
            with rec.span(f"s{i}"):
                pass
            rec.event(f"e{i}")
        assert [s.name for s in rec.spans] == ["s6", "s7", "s8", "s9"]
        assert [e.name for e in rec.events] == ["e6", "e7", "e8", "e9"]
        dump = rec.flight_dump()
        assert dump["ring"] == 4
        assert dump["spans_total"] == 10
        assert dump["events_total"] == 10
        assert len(dump["spans"]) == 4
        json.dumps(dump)                    # serialisable as-is

    def test_unbounded_recorder_dump(self):
        rec = Recorder()
        with rec.span("a"):
            pass
        assert rec.ring is None
        dump = rec.flight_dump()
        assert dump["spans_total"] == 1

    def test_null_recorder_ring_is_none(self):
        assert NULL_RECORDER.ring is None
        assert NULL_RECORDER.flight_dump() == {}

    def test_dump_attached_on_injected_kill(self):
        from repro import SchwarzSolver
        from repro.common.errors import RankFailure
        from repro.fem.forms import DiffusionForm
        from repro.mesh import unit_square
        from repro.resilience import FaultPlan, FaultSpec

        plan = FaultPlan(faults=[FaultSpec(kind="kill", op="local_solve",
                                           rank=1, nth=2)])
        rec = Recorder(ring=32)
        solver = SchwarzSolver(unit_square(10), DiffusionForm(degree=1),
                               num_subdomains=4, nev=2, recorder=rec,
                               faults=plan)
        with pytest.raises(RankFailure) as excinfo:
            solver.solve(tol=1e-8)
        flight = excinfo.value.flight
        assert flight is not None
        assert flight["ring"] == 32
        assert flight["spans"], "black box must carry recent spans"
        assert len(flight["spans"]) <= 32

    def test_dump_lands_in_resilience_report(self):
        from repro import SchwarzSolver
        from repro.fem.forms import DiffusionForm
        from repro.mesh import unit_square
        from repro.resilience import FaultPlan, FaultSpec

        plan = FaultPlan(faults=[FaultSpec(kind="kill", op="local_solve",
                                           rank=1, nth=2)])
        rec = Recorder(ring=32)
        solver = SchwarzSolver(unit_square(10), DiffusionForm(degree=1),
                               num_subdomains=4, nev=2, recorder=rec,
                               faults=plan, recovery="restart")
        report = solver.solve(tol=1e-8)
        assert report.converged
        flight = report.resilience.get("flight_recorder")
        assert flight is not None
        assert flight["ring"] == 32
        # the dump is from the moment of the (recovered) failure
        assert flight["spans_total"] <= rec.flight_dump()["spans_total"]


class TestOverhead:
    def test_disabled_paths_stay_cheap(self):
        # the NullRecorder fast path and the flight ring must both be
        # cheap enough to leave on: generous 5x bound on a hot loop
        # (CI machines are noisy; this guards against accidental
        # O(trace-size) work per operation, not percentage points)
        import timeit

        null = NULL_RECORDER
        ring = Recorder(ring=64)

        def loop(rec):
            for _ in range(200):
                with rec.span("op"):
                    pass
                rec.add("n")

        t_null = min(timeit.repeat(lambda: loop(null), number=5,
                                   repeat=5))
        t_ring = min(timeit.repeat(lambda: loop(ring), number=5,
                                   repeat=5))
        t_base = min(timeit.repeat(lambda: None, number=1000, repeat=5))
        assert t_null < 50 * t_base + 1e-3, \
            "NullRecorder span must be near-free"
        # ring mode does real work but must stay O(1) per span
        assert t_ring < 100 * max(t_null, 1e-6) + 0.05

    def test_ring_memory_stays_bounded(self):
        rec = Recorder(ring=16)
        for i in range(5000):
            with rec.span("s"):
                pass
            rec.event("e")
        assert len(rec.spans) == 16
        assert len(rec.events) == 16
