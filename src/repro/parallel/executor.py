"""The parallel setup engine: executors for per-subdomain work.

The paper's setup phases — local factorizations, per-subdomain GenEO
eigensolves, coarse-operator assembly — are embarrassingly parallel:
every subdomain's work reads only its own data.  This module provides
the executor abstraction that drives those loops concurrently:

* ``"serial"``  — a plain ordered loop (the reference semantics);
* ``"threads"`` — :class:`concurrent.futures.ThreadPoolExecutor`.
  SuperLU, LAPACK and BLAS release the GIL inside factorizations and
  solves, so threads deliver real concurrency for exactly the kernels
  that dominate setup.

Determinism contract: an executor only changes *when* each subdomain's
task runs, never *what* it computes — tasks share no mutable state, each
derives its randomness from a per-subdomain seed, and results are
returned in submission order.  Parallel and serial runs are therefore
bitwise identical (asserted in ``tests/test_parallel.py``).

Timing contract: :func:`timed_map` records each task as its own span on
a :class:`repro.obs.Recorder`, so per-subdomain phase times survive
under any executor.  The SPMD wall-clock of a concurrently executed
phase (figs. 8/10) is the *max* over subdomains, not the sum — exactly
what :func:`repro.perfmodel.measure_row` computes from these arrays.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from ..common.errors import ReproError
from ..obs.recorder import Recorder

T = TypeVar("T")
R = TypeVar("R")

#: supported executor backends
BACKENDS = ("serial", "threads")


@dataclass(frozen=True)
class ParallelConfig:
    """How the setup loops are executed.

    Parameters
    ----------
    backend:
        ``"serial"`` (default) or ``"threads"``.
    workers:
        Thread count for the ``"threads"`` backend; ``None`` auto-sizes
        to ``min(8, CPUs this process may run on)``.  Ignored by
        ``"serial"``.
    """

    backend: str = "serial"
    workers: int | None = None

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ReproError(f"unknown parallel backend {self.backend!r}; "
                             f"expected one of {BACKENDS}")
        if self.workers is not None and self.workers < 1:
            raise ReproError(f"workers must be >= 1, got {self.workers}")

    @property
    def num_workers(self) -> int:
        """Effective worker count (1 for the serial backend)."""
        if self.backend == "serial":
            return 1
        if self.workers is not None:
            return self.workers
        return min(8, _usable_cpus())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParallelConfig({self.backend!r}, workers={self.num_workers})"


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS
    exposes one (``os.cpu_count()`` overstates an affinity-limited
    host), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


#: the module default used when callers pass ``parallel=None``
SERIAL = ParallelConfig("serial")


def resolve_parallel(parallel) -> ParallelConfig:
    """Normalise a user-facing ``parallel=`` argument.

    Accepts ``None`` (→ serial), a backend name string, or a
    :class:`ParallelConfig` (returned as-is).
    """
    if parallel is None:
        return SERIAL
    if isinstance(parallel, ParallelConfig):
        return parallel
    if isinstance(parallel, str):
        return ParallelConfig(parallel)
    raise ReproError(f"parallel must be None, a backend name, or a "
                     f"ParallelConfig; got {type(parallel).__name__}")


def parallel_map(fn: Callable[[T], R], items: Iterable[T],
                 parallel: ParallelConfig | str | None = None) -> list[R]:
    """Apply *fn* to every item, returning results in input order.

    The serial backend is a plain loop; the threads backend fans the
    items over a pool.  Either way the result list index matches the
    item index, so downstream code is executor-agnostic.
    """
    cfg = resolve_parallel(parallel)
    items = list(items)
    if cfg.backend == "serial" or cfg.num_workers == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=cfg.num_workers) as pool:
        return list(pool.map(fn, items))


def timed_map(fn: Callable[[T], R], items: Sequence[T],
              parallel: ParallelConfig | str | None = None,
              *, recorder=None, label: str | None = None,
              ) -> tuple[list[R], list[float]]:
    """:func:`parallel_map` that also times each task.

    Returns ``(results, seconds)`` aligned with *items*.  Task *i* runs
    inside the span ``{label}[{i}]`` on the worker thread that ran it,
    and ``seconds[i]`` is that span's duration — the per-subdomain phase
    times of figs. 8/10, valid under any executor (SPMD wall-clock of
    the phase = ``max(seconds)``).  The spans land on *recorder* (a
    :class:`repro.obs.Recorder`, so the executor's concurrency is
    visible in exported traces — one track per worker); without an
    enabled one they go to a recorder local to this call.
    """
    rec = recorder if recorder is not None and recorder.enabled \
        else Recorder()
    name = label if label is not None else "task"

    def run(ix: tuple[int, T]) -> tuple[R, float]:
        i, x = ix
        with rec.span(f"{name}[{i}]") as span:
            out = fn(x)
        return out, span.record.duration

    pairs = parallel_map(run, list(enumerate(items)), parallel)
    return [p[0] for p in pairs], [p[1] for p in pairs]
