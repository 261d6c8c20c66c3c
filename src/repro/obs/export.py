"""Exporters and renderers for recorded telemetry.

Three interchangeable views of one :class:`~repro.obs.Recorder`:

* **Chrome trace-event JSON** (:func:`to_chrome_trace`) — loads directly
  in Perfetto / ``chrome://tracing``; one named track (tid) per
  rank/worker/thread, spans as complete ("X") events, iteration events
  as instants, counters as a final counter sample.
* **JSONL** (:func:`to_jsonl`) — one self-describing JSON object per
  line (``span`` / ``event`` / ``counters`` / ``gauges``), the format
  to diff between runs or feed to ad-hoc scripts.
* **flat summary dict** (:func:`summary`) — per-span-name totals plus
  the counters/gauges, the shape a bench stores next to its results.

:func:`write_trace` / :func:`load_trace` round-trip either file format;
:func:`render_trace` turns a loaded file back into the ASCII Gantt +
phase table that ``python -m repro.cli trace <path>`` prints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .recorder import EventRecord, Recorder, SpanRecord

#: recognised on-disk formats
FORMATS = ("chrome", "jsonl")


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------

def to_chrome_trace(rec) -> dict:
    """The Chrome trace-event representation (a JSON-serialisable dict).

    Timestamps are microseconds on the recorder's shared clock; tracks
    map to tids of a single pid, with thread-name metadata so Perfetto
    labels each row by rank/worker name.
    """
    tracks = list(rec.tracks())
    tid = {t: i for i, t in enumerate(tracks)}
    events: list[dict] = []
    for t, i in tid.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 0,
                       "tid": i, "args": {"name": t}})
    for s in rec.spans:
        ev = {"name": s.name, "cat": "span", "ph": "X", "pid": 0,
              "tid": tid[s.track], "ts": s.start * 1e6,
              "dur": s.duration * 1e6,
              "args": dict(s.attrs or {}, parent=s.parent, index=s.index)}
        events.append(ev)
    for e in rec.events:
        events.append({"name": e.name, "cat": "event", "ph": "i", "s": "t",
                       "pid": 0, "tid": tid.get(e.track, 0),
                       "ts": e.time * 1e6, "args": dict(e.attrs)})
    t_end = max([s.end for s in rec.spans] or [0.0])
    for name, value in sorted(rec.counters.items()):
        events.append({"name": name, "cat": "counter", "ph": "C",
                       "pid": 0, "tid": 0, "ts": t_end * 1e6,
                       "args": {name: value}})
    for name, value in sorted(rec.gauges.items()):
        events.append({"name": name, "cat": "gauge", "ph": "C",
                       "pid": 0, "tid": 0, "ts": t_end * 1e6,
                       "args": {name: value}})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "format": "repro-telemetry",
            "counters": dict(rec.counters),
            "gauges": dict(rec.gauges),
        },
    }


# ----------------------------------------------------------------------
# JSONL event stream
# ----------------------------------------------------------------------

def to_jsonl(rec) -> str:
    """One JSON object per line: spans (in open order), events,
    counters, gauges."""
    lines = []
    for s in sorted(rec.spans, key=lambda s: s.index):
        lines.append(json.dumps({
            "type": "span", "name": s.name, "track": s.track,
            "start": s.start, "end": s.end, "index": s.index,
            "parent": s.parent, "attrs": s.attrs or {}}))
    for e in rec.events:
        lines.append(json.dumps({
            "type": "event", "name": e.name, "track": e.track,
            "time": e.time, "attrs": e.attrs}))
    lines.append(json.dumps({"type": "counters",
                             "values": dict(rec.counters)}))
    lines.append(json.dumps({"type": "gauges", "values": dict(rec.gauges)}))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Flat summary
# ----------------------------------------------------------------------

def summary(rec) -> dict:
    """Flat, JSON-ready digest: per-span-name seconds/counts, counters,
    gauges, event count — the benchmarks' ``telemetry`` section."""
    return {
        "spans": rec.totals() if hasattr(rec, "totals") else {},
        "counters": dict(rec.counters),
        "gauges": dict(rec.gauges),
        "num_events": len(rec.events),
    }


# ----------------------------------------------------------------------
# Files: write + load (round-trip)
# ----------------------------------------------------------------------

def write_trace(rec, path, format: str = "chrome") -> None:
    """Serialise *rec* to *path* in the requested on-disk *format*."""
    if format not in FORMATS:
        raise ValueError(f"unknown telemetry format {format!r}; "
                         f"expected one of {FORMATS}")
    path = Path(path)
    if format == "chrome":
        path.write_text(json.dumps(to_chrome_trace(rec), indent=1) + "\n")
    else:
        path.write_text(to_jsonl(rec))


@dataclass
class TraceData:
    """A loaded telemetry file (either format), renderable and queryable
    with the same span/event records the live :class:`Recorder` holds."""

    spans: list[SpanRecord] = field(default_factory=list)
    events: list[EventRecord] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)

    def tracks(self) -> list[str]:
        return Recorder.tracks(self)          # same first-appearance order

    def totals(self) -> dict[str, dict]:
        """Per-name seconds and counts over the spans in the file."""
        out: dict[str, dict] = {}
        for s in self.spans:
            t = out.setdefault(s.name, {"seconds": 0.0, "count": 0})
            t["seconds"] += s.duration
            t["count"] += 1
        return out


def _load_chrome(payload: dict) -> TraceData:
    out = TraceData()
    names = {}
    for ev in payload.get("traceEvents", []):
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            names[ev.get("tid", 0)] = ev["args"]["name"]
    for ev in payload.get("traceEvents", []):
        ph = ev.get("ph")
        track = names.get(ev.get("tid", 0), f"tid{ev.get('tid', 0)}")
        if ph == "X":
            args = dict(ev.get("args", {}))
            index = args.pop("index", len(out.spans))
            parent = args.pop("parent", None)
            start = ev["ts"] / 1e6
            out.spans.append(SpanRecord(
                name=ev["name"], track=track, start=start,
                end=start + ev.get("dur", 0.0) / 1e6, index=index,
                parent=parent, attrs=args or None))
        elif ph == "i":
            out.events.append(EventRecord(
                ev["name"], track, ev["ts"] / 1e6,
                dict(ev.get("args", {}))))
        elif ph == "C":
            # counter/gauge samples — the fidelity fallback for traces
            # whose otherData block was stripped (e.g. by trace tools
            # that only preserve traceEvents)
            target = out.gauges if ev.get("cat") == "gauge" \
                else out.counters
            for name, value in ev.get("args", {}).items():
                target[name] = value
    other = payload.get("otherData", {})
    # otherData is authoritative when present (exact, unsampled values)
    out.counters.update(other.get("counters", {}))
    out.gauges.update(other.get("gauges", {}))
    return out


def _load_jsonl(text: str) -> TraceData:
    out = TraceData()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        kind = obj.get("type")
        if kind == "span":
            out.spans.append(SpanRecord(
                name=obj["name"], track=obj["track"], start=obj["start"],
                end=obj["end"], index=obj.get("index", len(out.spans)),
                parent=obj.get("parent"), attrs=obj.get("attrs") or None))
        elif kind == "event":
            out.events.append(EventRecord(
                obj["name"], obj["track"], obj["time"],
                dict(obj.get("attrs", {}))))
        elif kind == "counters":
            out.counters.update(obj.get("values", {}))
        elif kind == "gauges":
            out.gauges.update(obj.get("values", {}))
    return out


def load_trace(path) -> TraceData:
    """Load a telemetry file, auto-detecting chrome vs jsonl format."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{") and '"traceEvents"' in text:
        return _load_chrome(json.loads(text))
    return _load_jsonl(text)


# ----------------------------------------------------------------------
# ASCII rendering (the ``repro trace`` subcommand)
# ----------------------------------------------------------------------

def gantt(trace, *, width: int = 78, max_tracks: int = 16) -> str:
    """ASCII Gantt chart of a live :class:`Recorder` or a loaded
    :class:`TraceData`: one row per track (``main``, workers,
    ``rank{r}``), one glyph per span name."""
    spans = trace.spans
    if not spans:
        return "(no spans recorded)"
    tracks = trace.tracks()
    t_begin = min(s.start for s in spans)
    t_end = max(s.end for s in spans)
    horizon = max(t_end - t_begin, 1e-12)
    labels: list[str] = []
    for s in sorted(spans, key=lambda s: s.index):
        if s.name not in labels:
            labels.append(s.name)
    glyphs = "#*+o=%@&x~"
    glyph = {lab: glyphs[i % len(glyphs)] for i, lab in enumerate(labels)}
    name_w = max(len(t) for t in tracks[:max_tracks])
    by_track: dict[str, list[SpanRecord]] = {t: [] for t in tracks}
    for s in spans:
        by_track[s.track].append(s)
    lines = []
    for t in tracks[:max_tracks]:
        chars = [" "] * width
        # deepest spans last so leaves paint over their parents
        for s in sorted(by_track[t], key=lambda s: s.duration,
                        reverse=True):
            c0 = int((s.start - t_begin) / horizon * (width - 1))
            c1 = max(c0, int((s.end - t_begin) / horizon * (width - 1)))
            for c in range(c0, c1 + 1):
                chars[c] = glyph[s.name]
        lines.append(f"{t:>{name_w}} |" + "".join(chars) + "|")
    if len(tracks) > max_tracks:
        lines.append(f"... ({len(tracks) - max_tracks} more tracks)")
    lines.append(" " * name_w + " 0" + " " * (width - 10)
                 + f"{horizon * 1e3:.1f} ms")
    legend = "   ".join(f"[{glyph[lab]}] {lab}" for lab in labels)
    lines.append("  " + legend)
    return "\n".join(lines)


def render_trace(trace: TraceData, *, width: int = 78,
                 max_tracks: int = 16) -> str:
    """The ASCII report of a loaded trace: Gantt, phase table, counters."""
    from ..common.asciiplot import table

    parts = [gantt(trace, width=width, max_tracks=max_tracks)]
    totals = trace.totals()
    if totals:
        rows = [[name, f"{t['seconds'] * 1e3:.3f}", str(t["count"])]
                for name, t in sorted(totals.items(),
                                      key=lambda kv: -kv[1]["seconds"])]
        parts.append(table(["span", "total (ms)", "count"], rows,
                           title="phase totals"))
    if trace.counters or trace.gauges:
        rows = [[k, "counter", f"{v:g}"]
                for k, v in sorted(trace.counters.items())]
        rows += [[k, "gauge", f"{v:g}"]
                 for k, v in sorted(trace.gauges.items())]
        parts.append(table(["name", "kind", "value"], rows,
                           title="counters and gauges"))
    if trace.events:
        by_name: dict[str, int] = {}
        for e in trace.events:
            by_name[e.name] = by_name.get(e.name, 0) + 1
        rows = [[name, str(n)] for name, n in
                sorted(by_name.items(), key=lambda kv: (-kv[1], kv[0]))]
        parts.append(table(["event", "count"], rows,
                           title=f"events ({len(trace.events)} total)"))
    return "\n\n".join(parts)
