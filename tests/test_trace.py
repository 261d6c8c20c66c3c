"""Tests for the SPMD rank timeline: ``rank{r}`` spans on the run's
recorder and their ASCII Gantt chart (:func:`repro.obs.gantt`)."""

import time

import pytest

from repro.mpi import Meter, run_spmd
from repro.obs import Recorder, gantt
from repro.obs.recorder import SpanRecord


def _span(rec, track, name, start, end):
    """Append a closed span with given times (the Gantt only reads
    ``spans`` and ``tracks()``)."""
    rec.spans.append(SpanRecord(name, track, start, end, len(rec.spans)))


class TestTracer:
    def test_records_spans(self):
        rec = Recorder()
        with rec.span("work", track="rank0"):
            time.sleep(0.002)
        with rec.span("other", track="rank1"):
            pass
        work = rec.find("work")
        assert len(work) == 1 and work[0].track == "rank0"
        assert work[0].duration >= 0.002
        assert rec.tracks() == ["rank0", "rank1"]

    def test_totals_accumulate(self):
        rec = Recorder()
        for _ in range(3):
            with rec.span("a", track="rank0"):
                time.sleep(0.001)
        assert rec.totals()["a"]["seconds"] >= 0.003
        assert rec.totals()["a"]["count"] == 3

    def test_summary_max_over_ranks(self):
        """The critical-path view of a phase: the slowest rank's total."""
        rec = Recorder()
        _span(rec, "rank0", "a", 0.0, 1.0)
        _span(rec, "rank1", "a", 0.0, 3.0)
        per_rank = {}
        for s in rec.find("a"):
            per_rank[s.track] = per_rank.get(s.track, 0.0) + s.duration
        assert max(per_rank.values()) == pytest.approx(3.0)

    def test_gantt_renders(self):
        rec = Recorder()
        _span(rec, "rank0", "compute", 0.0, 0.5)
        _span(rec, "rank1", "exchange", 0.3, 0.9)
        _span(rec, "rank2", "compute", 0.1, 0.2)
        out = gantt(rec, width=40)
        assert "rank0 |" in out and "rank2 |" in out
        assert "compute" in out and "exchange" in out

    def test_gantt_empty(self):
        assert "(no spans" in gantt(Recorder())

    def test_gantt_caps_ranks(self):
        rec = Recorder()
        for r in range(20):
            _span(rec, f"rank{r}", "x", 0, 1)
        out = gantt(rec, max_tracks=4)
        assert "more tracks" in out

    def test_exception_still_closes_span(self):
        rec = Recorder()
        with pytest.raises(ValueError):
            with rec.span("boom", track="rank0"):
                raise ValueError()
        assert len(rec.find("boom")) == 1


class TestGanttEdgeCases:
    def test_empty_rows_still_render(self):
        """A track with events but no spans gets an (empty) row, not an
        exception."""
        rec = Recorder()
        rec.event("tick", track="rank0")
        _span(rec, "rank1", "mid", 0.0, 1.0)
        rec.event("tick", track="rank2")
        lines = gantt(rec, width=30).splitlines()
        assert any(ln.startswith("rank0 |") for ln in lines)
        assert any(ln.startswith("rank2 |") for ln in lines)
        row0 = next(ln for ln in lines if ln.startswith("rank0 |"))
        assert set(row0.split("|")[1]) <= {" "}

    def test_zero_duration_span(self):
        """A zero-length span paints at least one cell and the horizon
        stays positive (no division by zero)."""
        rec = Recorder()
        _span(rec, "rank0", "instant", 0.5, 0.5)
        out = gantt(rec, width=30)
        assert "[#] instant" in out
        row = next(ln for ln in out.splitlines()
                   if ln.startswith("rank0 |"))
        assert row.count("#") == 1

    def test_truncation_line_counts_hidden_ranks(self):
        rec = Recorder()
        for r in range(20):
            _span(rec, f"rank{r:02d}", "x", 0, 1)
        out = gantt(rec, max_tracks=16)
        assert "... (4 more tracks)" in out
        assert "rank15 |" in out and "rank16 |" not in out

    def test_glyph_reuse_past_ten_labels(self):
        """The glyph alphabet has 10 symbols; label 11 wraps around to
        the first glyph rather than failing."""
        rec = Recorder()
        for i in range(12):
            _span(rec, "rank0", f"lab{i}", float(i), float(i) + 0.5)
        out = gantt(rec, width=60)
        assert "[#] lab0" in out and "[#] lab10" in out
        assert "[*] lab1" in out and "[*] lab11" in out

    def test_recorder_mirroring(self):
        """A rank span of an instrumented run lands on the run's
        recorder under the rank's track."""
        from repro.core.spmd import SpmdRank
        rec = Recorder()

        def fn(comm):
            rank = SpmdRank(comm, None, comm.rank, None, None, None, None)
            with rank._span("exchange"):
                pass

        run_spmd(2, fn, recorder=rec)
        spans = rec.find("exchange")
        assert sorted(s.track for s in spans) == ["rank0", "rank1"]


class TestTracerIntegration:
    def test_spmd_solve_records_phases(self):
        from repro import SchwarzSolver
        from repro.core.spmd import solve_spmd
        from repro.fem.forms import DiffusionForm
        from repro.mesh import unit_square

        mesh = unit_square(12)
        s = SchwarzSolver(mesh, DiffusionForm(degree=2),
                          num_subdomains=4, nev=3)
        rec = Recorder()
        b = s.problem.rhs()
        solve_spmd(s.decomposition, s.deflation, b, num_masters=2,
                   tol=1e-6, maxiter=60, meter=Meter(4, recorder=rec))
        totals = rec.totals()
        assert "matvec" in totals
        assert "local solve" in totals
        assert "coarse solve" in totals     # recorded on the masters
        # only masters solve the coarse system
        solvers = {s.track for s in rec.find("coarse solve")}
        assert len(solvers) == 2
        assert {s.track for s in rec.find("matvec")} == \
            {f"rank{r}" for r in range(4)}

    def test_uninstrumented_run_records_nothing(self):
        from repro import SchwarzSolver
        from repro.core.spmd import solve_spmd
        from repro.fem.forms import DiffusionForm
        from repro.mesh import unit_square

        s = SchwarzSolver(unit_square(8), DiffusionForm(degree=1),
                          num_subdomains=2, nev=2)
        meter = Meter(2)
        solve_spmd(s.decomposition, s.deflation, s.problem.rhs(),
                   num_masters=1, tol=1e-6, maxiter=30, meter=meter)
        assert not meter.recorder.enabled
        assert not meter.recorder.spans
