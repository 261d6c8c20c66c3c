"""Traffic metering for the simulated MPI layer.

Every point-to-point message and collective is recorded per rank; the
performance model (:mod:`repro.perfmodel`) turns these counts into
modelled times, and the cost-analysis bench (§3.3 of the paper) asserts
the message-count/size formulas directly against them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..obs.recorder import NULL_RECORDER


def payload_bytes(obj) -> int:
    """Approximate wire size of a message payload."""
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if sp.issparse(obj):
        # sum the index/value arrays of whichever sparse layout this is
        # (CSR/CSC/BSR: data+indices+indptr, COO: data+row+col, DIA:
        # data+offsets) — the coarse-block payloads of §3.3 must count
        # as their wire size, not the 64-byte opaque fallback
        total = 0
        for attr in ("data", "indices", "indptr", "row", "col", "offsets"):
            arr = getattr(obj, attr, None)
            if isinstance(arr, np.ndarray):
                total += arr.nbytes
        return int(total)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (int, float, complex, np.integer, np.floating)):
        return 8
    if isinstance(obj, (list, tuple)):
        return sum(payload_bytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(payload_bytes(k) + payload_bytes(v) for k, v in obj.items())
    return 64  # opaque python object: flat estimate


@dataclass
class RankStats:
    """Per-rank communication counters."""

    sends: int = 0
    send_bytes: int = 0
    recvs: int = 0
    recv_bytes: int = 0
    collectives: dict[str, int] = field(default_factory=dict)
    collective_bytes: dict[str, int] = field(default_factory=dict)
    #: number of operations that synchronise the whole communicator
    global_syncs: int = 0
    #: injected faults observed on this rank, keyed by fault kind
    faults: dict[str, int] = field(default_factory=dict)
    #: sender-side retry attempts made by this rank (drop absorption)
    retries: int = 0
    #: point-to-point traffic by destination world rank (sends only —
    #: the matching recv is the destination's problem)
    peer_msgs: dict[int, int] = field(default_factory=dict)
    peer_bytes: dict[int, int] = field(default_factory=dict)

    def record_collective(self, kind: str, nbytes: int, *, is_global_sync: bool) -> None:
        self.collectives[kind] = self.collectives.get(kind, 0) + 1
        self.collective_bytes[kind] = (self.collective_bytes.get(kind, 0)
                                       + nbytes)
        if is_global_sync:
            self.global_syncs += 1


class Meter:
    """Thread-safe container of :class:`RankStats`, one per world rank.

    As an adapter over the unified telemetry layer, a meter constructed
    with a :class:`repro.obs.Recorder` additionally feeds the aggregate
    traffic counters ``mpi.sends`` / ``mpi.send_bytes`` / ``mpi.recvs``
    / ``mpi.recv_bytes`` / ``mpi.collective.<kind>`` /
    ``mpi.collective_bytes`` / ``mpi.global_syncs``; per-rank detail
    stays on :class:`RankStats`.
    """

    def __init__(self, world_size: int, *, recorder=None):
        self.world_size = world_size
        self._stats = [RankStats() for _ in range(world_size)]
        self._lock = threading.Lock()
        #: the run's recorder: traffic counters, and the ``rank{r}``
        #: spans of :meth:`repro.core.spmd.SpmdRank._span`
        self.recorder = NULL_RECORDER if recorder is None else recorder
        #: fault-tolerance aggregates (whole-run, not per-rank)
        self.rank_deaths = 0
        self.repairs = 0
        self.ranks_replaced = 0
        self.retries_recovered = 0
        self.retries_exhausted = 0

    def stats(self, world_rank: int) -> RankStats:
        return self._stats[world_rank]

    def on_send(self, world_rank: int, nbytes: int,
                dest: int | None = None) -> None:
        s = self._stats[world_rank]
        with self._lock:
            s.sends += 1
            s.send_bytes += nbytes
            if dest is not None:
                s.peer_msgs[dest] = s.peer_msgs.get(dest, 0) + 1
                s.peer_bytes[dest] = s.peer_bytes.get(dest, 0) + nbytes
        rec = self.recorder
        if rec.enabled:
            rec.add("mpi.sends", 1)
            rec.add("mpi.send_bytes", nbytes)
            if dest is not None:
                # pair counters let a trace file alone reconstruct the
                # rank-to-rank matrix (repro.obs.analysis.comm_matrix)
                rec.add(f"mpi.pair_msgs.{world_rank}->{dest}", 1)
                rec.add(f"mpi.pair_bytes.{world_rank}->{dest}", nbytes)

    def on_recv(self, world_rank: int, nbytes: int) -> None:
        s = self._stats[world_rank]
        with self._lock:
            s.recvs += 1
            s.recv_bytes += nbytes
        rec = self.recorder
        if rec.enabled:
            rec.add("mpi.recvs", 1)
            rec.add("mpi.recv_bytes", nbytes)

    def on_collective(self, world_rank: int, kind: str, nbytes: int,
                      *, is_global_sync: bool) -> None:
        with self._lock:
            self._stats[world_rank].record_collective(
                kind, nbytes, is_global_sync=is_global_sync)
        rec = self.recorder
        if rec.enabled:
            rec.add(f"mpi.collective.{kind}", 1)
            rec.add("mpi.collective_bytes", nbytes)
            if is_global_sync:
                rec.add("mpi.global_syncs", 1)

    def on_fault(self, world_rank: int, kind: str, op: str) -> None:
        """An injected fault fired on *world_rank* (see
        :mod:`repro.resilience.faults`)."""
        if not 0 <= world_rank < self.world_size:
            world_rank = 0
        s = self._stats[world_rank]
        with self._lock:
            s.faults[kind] = s.faults.get(kind, 0) + 1
        rec = self.recorder
        if rec.enabled:
            rec.add(f"mpi.fault.{kind}", 1)

    def on_retry(self, world_rank: int) -> None:
        """One sender-side retry attempt after an injected drop."""
        if not 0 <= world_rank < self.world_size:
            world_rank = 0
        with self._lock:
            self._stats[world_rank].retries += 1
        rec = self.recorder
        if rec.enabled:
            rec.add("mpi.retry_attempts", 1)

    def on_retry_outcome(self, world_rank: int, recovered: bool) -> None:
        """The retry loop for one dropped message finished: either a
        later attempt got through (*recovered*) or the budget ran out
        and the message was lost for good."""
        with self._lock:
            if recovered:
                self.retries_recovered += 1
            else:
                self.retries_exhausted += 1
        rec = self.recorder
        if rec.enabled:
            rec.add("mpi.retry_recovered" if recovered
                    else "mpi.retry_exhausted", 1)

    def on_rank_death(self, world_rank: int) -> None:
        """A rank died (injected kill absorbed by the FT registry)."""
        with self._lock:
            self.rank_deaths += 1
        rec = self.recorder
        if rec.enabled:
            rec.add("mpi.rank_deaths", 1)

    def on_repair(self, nreplaced: int) -> None:
        """A communicator repair completed, substituting *nreplaced*
        spares for dead ranks."""
        with self._lock:
            self.repairs += 1
            self.ranks_replaced += nreplaced
        rec = self.recorder
        if rec.enabled:
            rec.add("mpi.repairs", 1)
            if nreplaced:
                rec.add("mpi.ranks_replaced", nreplaced)

    # ------------------------------------------------------------------
    def total_messages(self) -> int:
        return sum(s.sends for s in self._stats)

    def total_bytes(self) -> int:
        return sum(s.send_bytes for s in self._stats)

    def total_collectives(self, kind: str | None = None) -> int:
        if kind is None:
            return sum(sum(s.collectives.values()) for s in self._stats)
        return sum(s.collectives.get(kind, 0) for s in self._stats)

    def max_global_syncs(self) -> int:
        """Max over ranks — the critical-path synchronisation count."""
        return max((s.global_syncs for s in self._stats), default=0)

    def total_faults(self) -> int:
        return sum(sum(s.faults.values()) for s in self._stats)

    def faults_by_kind(self) -> dict[str, int]:
        """Injected-fault counts aggregated over ranks, keyed by kind."""
        out: dict[str, int] = {}
        for s in self._stats:
            for kind, n in s.faults.items():
                out[kind] = out.get(kind, 0) + n
        return out

    def total_retries(self) -> int:
        return sum(s.retries for s in self._stats)

    def comm_matrix(self, weight: str = "bytes") -> np.ndarray:
        """Rank-to-rank point-to-point traffic matrix.

        ``M[i, j]`` is the bytes (``weight="bytes"``) or message count
        (``weight="messages"``) sent from world rank *i* to world rank
        *j*.  Collectives are metered separately (they are rendezvous
        operations, not pairwise messages) and do not appear here.
        """
        if weight not in ("bytes", "messages"):
            raise ValueError(f"unknown weight {weight!r}; expected "
                             f"'bytes' or 'messages'")
        M = np.zeros((self.world_size, self.world_size))
        for i, s in enumerate(self._stats):
            peers = s.peer_bytes if weight == "bytes" else s.peer_msgs
            for j, v in peers.items():
                if 0 <= j < self.world_size:
                    M[i, j] += v
        return M

    def summary(self) -> dict:
        out = {
            "messages": self.total_messages(),
            "bytes": self.total_bytes(),
            "collectives": self.total_collectives(),
            "max_global_syncs": self.max_global_syncs(),
        }
        nf = self.total_faults()
        if nf:
            out["faults"] = nf
        nr = self.total_retries()
        if nr:
            out["retries"] = nr
            out["retries_recovered"] = self.retries_recovered
            out["retries_exhausted"] = self.retries_exhausted
        if self.rank_deaths:
            out["rank_deaths"] = self.rank_deaths
        if self.repairs:
            out["repairs"] = self.repairs
            out["ranks_replaced"] = self.ranks_replaced
        return out
