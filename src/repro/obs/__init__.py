"""Unified telemetry: hierarchical spans, counters, exportable traces.

One :class:`Recorder` threads through setup (``SchwarzSolver`` →
``Decomposition``/``CoarseOperator``), the solve phase (every Krylov
driver), the parallel setup engine and the simulated MPI layer, and it
is the package's only clock: every reported time is one of its spans.
The MPI :class:`~repro.mpi.Meter` counts traffic and feeds its counters.
See ``docs/observability.md``.

On top of the capture layer sit two analysis surfaces:

* :mod:`repro.obs.analysis` — critical path, load imbalance, comm
  matrix, convergence forensics (the ``repro report`` subcommand);
* :mod:`repro.obs.metrics` — OpenMetrics exposition + JSON snapshot
  (the ``repro metrics`` subcommand / future daemon endpoint).
"""

from .analysis import (
    CommMatrix,
    ConvergenceDiagnostics,
    ImbalanceStat,
    PathStep,
    RunReport,
    analyze,
    comm_matrix,
    convergence_forensics,
    critical_path,
    critical_paths,
    fit_decay_rate,
    load_imbalance,
)
from .export import (
    FORMATS,
    TraceData,
    gantt,
    load_trace,
    render_trace,
    summary,
    to_chrome_trace,
    to_jsonl,
    write_trace,
)
from .metrics import (meter_counters, snapshot, to_openmetrics,
                      validate_openmetrics)
from .recorder import (
    NULL_RECORDER,
    EventRecord,
    NullRecorder,
    Recorder,
    SpanRecord,
    column_iterations,
    iteration_residuals,
)
__all__ = [
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "SpanRecord",
    "EventRecord",
    "iteration_residuals",
    "column_iterations",
    "FORMATS",
    "TraceData",
    "to_chrome_trace",
    "to_jsonl",
    "summary",
    "write_trace",
    "load_trace",
    "render_trace",
    "gantt",
    # analysis
    "analyze",
    "critical_path",
    "critical_paths",
    "load_imbalance",
    "comm_matrix",
    "convergence_forensics",
    "fit_decay_rate",
    "RunReport",
    "PathStep",
    "ImbalanceStat",
    "CommMatrix",
    "ConvergenceDiagnostics",
    # metrics
    "meter_counters",
    "snapshot",
    "to_openmetrics",
    "validate_openmetrics",
]
