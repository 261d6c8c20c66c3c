"""The telemetry core: one recorder for spans, counters and events.

The :class:`Recorder` is the package's only clock.  Every timing the
package reports — the per-phase times of figs. 8/10, the Krylov cost
centres, the per-subdomain setup tasks, the SPMD rank timelines — is a
span on the recorder the caller passed; the §3.3 message counts arrive
as counters fed by :class:`repro.mpi.meter.Meter`.  It records:

* **hierarchical spans** — every span opened on a thread nests inside
  the span currently open on that thread, so ``coarse_solve`` sits
  inside ``apply`` *structurally*, not by naming convention;
* **counters and gauges** — monotone tallies (matvecs, coarse solves,
  bytes exchanged — fed by :class:`repro.mpi.meter.Meter`) and
  last-value gauges;
* **instant events** — per-iteration convergence records from the
  Krylov drivers (residual, restart boundary, orthogonality loss).

All times share one ``time.perf_counter`` origin (:attr:`Recorder.t0`),
so spans from SPMD rank threads, setup workers and the driver thread
land on a common timeline and can be exported together
(:mod:`repro.obs.export`).

Un-instrumented solves read no clock at all: every instrumented call
site holds a :class:`NullRecorder` by default and guards on
:attr:`enabled` before doing any work.  (The per-subdomain set-up times
of :func:`repro.parallel.timed_map` are spans on a recorder local to
the call.)
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field


@dataclass
class SpanRecord:
    """One closed span on the shared timeline (seconds since ``t0``)."""

    name: str
    track: str
    start: float
    end: float
    #: unique id, assigned at open time (ordering of *opens*)
    index: int
    #: :attr:`index` of the enclosing span on the same thread, or None
    parent: int | None = None
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class EventRecord:
    """An instant (zero-duration) event."""

    name: str
    track: str
    time: float
    attrs: dict = field(default_factory=dict)


class _SpanHandle:
    """Context manager for one live span (single use)."""

    __slots__ = ("_rec", "_name", "_track", "_attrs", "_start", "_index",
                 "_parent", "record")

    def __init__(self, rec: "Recorder", name: str, track: str | None,
                 attrs: dict | None):
        self._rec = rec
        self._name = name
        self._track = track
        self._attrs = attrs

    def __enter__(self) -> "_SpanHandle":
        rec = self._rec
        stack = rec._stack()
        self._parent = stack[-1] if stack else None
        self._index = rec._next_index()
        stack.append(self._index)
        self._start = rec.now()
        return self

    def __exit__(self, *exc) -> bool:
        rec = self._rec
        end = rec.now()
        rec._stack().pop()
        record = SpanRecord(
            name=self._name,
            track=self._track if self._track is not None
            else rec._default_track(),
            start=self._start, end=end, index=self._index,
            parent=self._parent, attrs=self._attrs)
        #: the closed span, kept on the handle for callers that need its
        #: duration even after a ring buffer has dropped it
        self.record = record
        with rec._lock:
            rec.spans.append(record)
            t = rec._totals.setdefault(record.name,
                                       {"seconds": 0.0, "count": 0})
            t["seconds"] += record.duration
            t["count"] += 1
        return False


class _NullSpan:
    """Reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The do-nothing recorder: every un-instrumented run's default.

    All methods are O(1) no-ops and :attr:`enabled` is False, so hot
    loops can skip even the call with ``if recorder.enabled: ...``.
    """

    enabled = False
    ring = None
    spans: tuple = ()
    events: tuple = ()
    counters: dict = {}
    gauges: dict = {}

    def span(self, name: str, *, track: str | None = None,
             attrs: dict | None = None):
        return _NULL_SPAN

    def event(self, name: str, *, track: str | None = None,
              attrs: dict | None = None) -> None:
        pass

    def add(self, name: str, value: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def flight_dump(self) -> dict:
        return {}


#: module-wide shared no-op instance (stateless, safe to share)
NULL_RECORDER = NullRecorder()


class Recorder:
    """Thread-safe telemetry sink: spans, events, counters, gauges.

    Usage::

        rec = Recorder()
        with rec.span("apply"):
            with rec.span("coarse_solve"):   # parent = the apply span
                ...
        rec.add("matvecs")
        rec.event("iteration", attrs={"k": 0, "residual": 1.0})

    Spans nest per thread: the span most recently opened (and not yet
    closed) on the current thread is the parent of the next one.  Spans
    opened on other threads (setup workers, SPMD ranks) start their own
    stacks and render as separate tracks.

    Passing ``ring=K`` turns the recorder into a **flight recorder**:
    spans and events live in bounded ring buffers holding only the last
    *K* records each (counters and gauges stay exact — they are bounded
    by construction).  Memory stays O(K) no matter how long the run, so
    the mode is cheap enough to leave on; when a breakdown fires,
    :meth:`flight_dump` snapshots the buffers into a JSON-ready black
    box that lands in ``SolveReport.resilience["flight_recorder"]``.
    """

    enabled = True

    def __init__(self, *, ring: int | None = None):
        #: perf_counter origin — all recorded times are relative to this
        self.t0 = time.perf_counter()
        #: flight-recorder capacity (None = unbounded, the default)
        self.ring = None if ring is None else max(int(ring), 1)
        if self.ring is None:
            self.spans: list[SpanRecord] = []
            self.events: list[EventRecord] = []
        else:
            self.spans = deque(maxlen=self.ring)
            self.events = deque(maxlen=self.ring)
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        #: per-name seconds and counts of every span closed, exact in
        #: flight-recorder mode too (the ring drops the spans themselves)
        self._totals: dict[str, dict] = {}
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._index = 0
        self._num_events = 0

    # -- recording -----------------------------------------------------
    def now(self) -> float:
        """Seconds since this recorder's origin (the shared clock)."""
        return time.perf_counter() - self.t0

    def span(self, name: str, *, track: str | None = None,
             attrs: dict | None = None) -> _SpanHandle:
        """Open a span; use as ``with rec.span("name"): ...``.

        ``track`` labels the timeline row in exports (default: "main"
        for the main thread, the thread name otherwise — SPMD ranks pass
        ``rank{r}``, workers inherit their pool-thread name).
        """
        return _SpanHandle(self, name, track, attrs)

    def event(self, name: str, *, track: str | None = None,
              attrs: dict | None = None) -> None:
        """Record an instant event (e.g. one Krylov iteration)."""
        rec = EventRecord(name, track if track is not None
                          else self._default_track(), self.now(),
                          attrs if attrs is not None else {})
        with self._lock:
            self.events.append(rec)
            self._num_events += 1

    def add(self, name: str, value: float = 1) -> None:
        """Increment counter *name* by *value* (thread-safe)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to its latest *value*."""
        with self._lock:
            self.gauges[name] = value

    # -- internals -----------------------------------------------------
    def _stack(self) -> list[int]:
        try:
            return self._tls.stack
        except AttributeError:
            st = self._tls.stack = []
            return st

    def _next_index(self) -> int:
        with self._lock:
            i = self._index
            self._index += 1
        return i

    def _default_track(self) -> str:
        t = threading.current_thread()
        return "main" if t is threading.main_thread() else t.name

    # -- queries (tests, exporters, reports) ---------------------------
    def find(self, name: str) -> list[SpanRecord]:
        """All closed spans called *name*."""
        return [s for s in self.spans if s.name == name]

    def parent_of(self, span: SpanRecord) -> SpanRecord | None:
        """The enclosing span, or None for a root span."""
        if span.parent is None:
            return None
        by_index = {s.index: s for s in self.spans}
        return by_index.get(span.parent)

    def ancestors_of(self, span: SpanRecord) -> list[SpanRecord]:
        """Chain of enclosing spans, innermost first."""
        by_index = {s.index: s for s in self.spans}
        out = []
        cur = span
        while cur.parent is not None:
            cur = by_index.get(cur.parent)
            if cur is None:
                break
            out.append(cur)
        return out

    def nested_within(self, child: str, parent: str) -> bool:
        """True iff every span named *child* has an ancestor named
        *parent* (and at least one *child* span exists)."""
        children = self.find(child)
        if not children:
            return False
        return all(any(a.name == parent for a in self.ancestors_of(c))
                   for c in children)

    def totals(self) -> dict[str, dict]:
        """Per-name accumulated seconds and counts over every span
        closed, including those a flight recorder's ring has dropped."""
        with self._lock:
            return {name: dict(t) for name, t in self._totals.items()}

    def flight_dump(self) -> dict:
        """Snapshot the black box: the last ``ring`` spans/events (or
        everything, when unbounded) plus the exact counters and gauges,
        as a JSON-ready dict.

        ``spans_total`` / ``events_total`` count every record *ever*
        made, so a reader can tell how much the ring dropped.
        """
        with self._lock:
            spans = list(self.spans)
            events = list(self.events)
            counters = dict(self.counters)
            gauges = dict(self.gauges)
            spans_total = self._index
            events_total = self._num_events
        return {
            "ring": self.ring,
            "spans_total": spans_total,
            "events_total": events_total,
            "spans": [{"name": s.name, "track": s.track,
                       "start": s.start, "end": s.end,
                       "index": s.index, "parent": s.parent,
                       "attrs": s.attrs or {}} for s in spans],
            "events": [{"name": e.name, "track": e.track,
                        "time": e.time, "attrs": dict(e.attrs)}
                       for e in events],
            "counters": counters,
            "gauges": gauges,
        }

    def tracks(self) -> list[str]:
        """Track names in order of first appearance (spans, then
        event-only tracks)."""
        seen: list[str] = []
        for s in sorted(self.spans, key=lambda s: s.index):
            if s.track not in seen:
                seen.append(s.track)
        for e in self.events:
            if e.track not in seen:
                seen.append(e.track)
        return seen


def iteration_residuals(recorder) -> list[float]:
    """Reconstruct a Krylov residual history from ``iteration`` events.

    Drivers emit one ``iteration`` event per entry appended to
    ``KrylovResult.residuals``; when a restart loop replaces the last
    estimate with the true residual it emits a correcting event with
    ``corrected=True``.  Applying the same semantics here makes the
    event stream reproduce ``KrylovResult.residuals`` exactly (asserted
    in ``tests/test_krylov.py``).
    """
    out: list[float] = []
    for e in recorder.events:
        if e.name != "iteration":
            continue
        if e.attrs.get("corrected") and out:
            out[-1] = e.attrs["residual"]
        else:
            out.append(e.attrs["residual"])
    return out


def column_iterations(recorder) -> dict[int, int]:
    """Per-column convergence map from ``batch.column_converged`` events.

    Block drivers emit one event per right-hand side when its column
    reaches the target; the returned dict maps column index → block
    iteration at which it was deflated (mirrors
    ``BlockKrylovResult.column_iterations`` for columns that converged).
    """
    out: dict[int, int] = {}
    for e in recorder.events:
        if e.name != "batch.column_converged":
            continue
        col = int(e.attrs["col"])
        if col not in out:
            out[col] = int(e.attrs["k"])
    return out
