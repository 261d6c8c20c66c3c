"""A simulated MPI: thread-per-rank SPMD execution with real messaging.

The paper's algorithms (the neighbour exchanges of eq. 5, the
master–slave coarse-operator assembly of algorithms 1–2, the fused
pipelined GMRES of §3.5) are written against message passing.  Running
them *literally* — each rank a thread, each message a queue transfer,
each rooted collective point-to-point to or from its root and every
other collective a barrier rendezvous — keeps this reproduction honest:
the communication schedule exercised here is the one the paper describes,
and the attached :class:`~repro.mpi.meter.Meter` counts exactly the
traffic the paper's cost analysis (§3.3) predicts.

The API mirrors mpi4py's lowercase, pickle-object methods (see the
mpi4py tutorial): ``send/recv/isend/irecv``, ``bcast``, ``gather(v)``,
``scatter(v)``, ``allgather``, ``allreduce``, ``alltoall``, ``split``,
plus the MPI-3 ``dist_graph_create_adjacent`` + ``ineighbor_alltoall``
used in algorithm 1.

Fault tolerance (ULFM-style)
----------------------------
``run_spmd(..., ft=True)`` (implied by ``spares=K``) arms the
user-level failure-mitigation surface modelled on MPI-ULFM:

* a rank whose function raises its *own* :class:`RankFailure` (an
  injected kill) is marked **dead** in a shared failure registry
  instead of aborting the whole run; every blocking primitive on the
  surviving ranks then raises a typed :class:`RankFailure` naming the
  dead peer;
* :meth:`Comm.agree` is the survivor-only agreement collective (it
  completes even while peers are dying), :meth:`Comm.shrink` builds a
  new communicator over the survivors;
* :meth:`Comm.repair` revokes the world communicator, rendezvouses
  every survivor, substitutes parked **spare** worker threads for the
  dead world ranks, purges all mailboxes/barriers and resumes — the
  substitute's ``fn`` starts with ``comm.repair_plan`` set so it can
  join the application-level recovery protocol
  (:mod:`repro.core.spmd_ft`);
* a :class:`~repro.resilience.faults.RetryPolicy` (``retry=`` or the
  fault plan's ``retry`` entry) absorbs injected ``drop`` faults on
  the sender side with exponential backoff before they can escalate
  to a receive timeout.
"""

from __future__ import annotations

import queue
import threading
import time
from functools import reduce as _functools_reduce

import numpy as np

from ..common.errors import CommunicatorError, RankFailure
from .meter import Meter, payload_bytes

#: barrier/recv timeout (seconds): a blown deadline means a deadlock bug
_TIMEOUT = 300.0
#: error-box poll period while blocked in recv — a peer's failure
#: surfaces within this many seconds, not after the blocking deadline
_ERR_POLL = 0.02
#: mailbox tag of the rooted collectives' internal transfers; no
#: point-to-point call can pass it, and every rank calls collectives
#: in the same order, so per-pair FIFO order matches calls to messages
_ROOTED = "rooted"


# ----------------------------------------------------------------------
# Reduction ops
# ----------------------------------------------------------------------

def _op_sum(a, b):
    return a + b


def _op_max(a, b):
    return np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b)


def _op_min(a, b):
    return np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b)


_OPS = {"sum": _op_sum, "max": _op_max, "min": _op_min}


def _resolve_op(op):
    if callable(op):
        return op
    try:
        return _OPS[op]
    except KeyError:
        raise CommunicatorError(
            f"unknown reduction op {op!r} (expected 'sum', 'max', 'min' "
            "or a callable)") from None


# ----------------------------------------------------------------------
# Error propagation between rank threads
# ----------------------------------------------------------------------

class _ErrorBox:
    """First-failure box shared by all rank threads.

    :meth:`set` doubles as the abort broadcast: every blocking
    primitive (:meth:`Comm._take`, :meth:`Comm._barrier_wait`) polls
    :meth:`check` while waiting, so one rank's failure surfaces on
    every surviving rank as a typed
    :class:`~repro.common.errors.RankFailure` instead of a deadlock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.error: tuple[int, BaseException] | None = None

    def set(self, rank: int, exc: BaseException) -> None:
        with self._lock:
            if self.error is None:
                self.error = (rank, exc)

    def check(self) -> None:
        if self.error is not None:
            rank, exc = self.error
            raise RankFailure(
                f"rank {rank} failed: {exc!r}", rank=rank) from exc


# ----------------------------------------------------------------------
# Fault tolerance: failure registry, spare ranks, communicator repair
# ----------------------------------------------------------------------

class _SpareSlot:
    """One parked spare worker waiting to adopt a dead world rank."""

    __slots__ = ("sid", "event", "rank", "plan", "shutdown")

    def __init__(self, sid: int):
        self.sid = sid
        self.event = threading.Event()
        self.rank: int | None = None      # adopted world rank
        self.plan: dict | None = None     # repair plan at adoption time
        self.shutdown = False


class _FtState:
    """Shared fault-tolerance state of one ``run_spmd(ft=True)`` run.

    Tracks the dead set (world rank → exception), the revoked flag, the
    parked spares and every :class:`_Context` of the run (world plus
    splits/shrinks) so :meth:`do_repair` can purge mailboxes and reset
    barriers across the whole communicator tree.  All rendezvous
    (``agree``/``shrink``/``repair``) run through condition-variable
    *gates* keyed per context whose membership is re-evaluated as ranks
    die, so a mid-rendezvous death cannot hang the collective.
    """

    def __init__(self, meter: Meter | None, recorder):
        self.lock = threading.RLock()
        self.cond = threading.Condition(self.lock)
        self.meter = meter
        self.recorder = recorder
        self.dead: dict[int, BaseException] = {}
        self.finished: set[int] = set()
        self.revoked = False
        self.epoch = 0
        self.gates: dict[tuple, dict] = {}
        self.contexts: list["_Context"] = []
        self.spares: list[_SpareSlot] = []
        self.repairs: list[dict] = []
        self._first_death_ts: float | None = None

    def register(self, ctx: "_Context") -> None:
        with self.lock:
            self.contexts.append(ctx)

    def _wake(self) -> None:
        """Abort every barrier of the run so blocked ranks re-check the
        registry (the ULFM revoke/death broadcast)."""
        with self.lock:
            contexts = list(self.contexts)
        for c in contexts:
            c.barrier.abort()

    def live(self, ctx: "_Context") -> set[int]:
        """World ranks of *ctx* currently expected at a rendezvous."""
        return {w for w in ctx.world_ranks
                if w not in self.dead and w not in self.finished}

    def mark_dead(self, world_rank: int, exc: BaseException) -> None:
        with self.cond:
            if world_rank not in self.dead:
                self.dead[world_rank] = exc
                if self._first_death_ts is None:
                    self._first_death_ts = time.monotonic()
                if self.meter is not None:
                    self.meter.on_rank_death(world_rank)
                rec = self.recorder
                if rec is not None and rec.enabled:
                    rec.event("recovery.rank_death", attrs={
                        "rank": int(world_rank),
                        "op": getattr(exc, "op", None) or ""})
            self.cond.notify_all()
        self._wake()

    def mark_finished(self, world_rank: int) -> None:
        with self.cond:
            self.finished.add(world_rank)
            self.cond.notify_all()

    def revoke(self) -> None:
        with self.cond:
            self.revoked = True
            self.cond.notify_all()
        self._wake()

    # -- the repair transaction (runs under self.lock) -----------------
    def do_repair(self) -> dict:
        dead = sorted(self.dead)
        self.epoch += 1
        plan = {"ok": True, "epoch": self.epoch, "dead": dead,
                "replaced": {}, "repair_seconds": 0.0, "reason": ""}
        if self.finished:
            plan["ok"] = False
            plan["reason"] = (f"ranks {sorted(self.finished)} already "
                              "returned; cannot rejoin a repair")
        free = [s for s in self.spares if s.rank is None and not s.shutdown]
        if plan["ok"] and len(free) < len(dead):
            plan["ok"] = False
            plan["reason"] = (f"{len(dead)} dead rank(s) but only "
                              f"{len(free)} spare(s) left")
        if not plan["ok"]:
            # dead/revoked stay set: every survivor's next op fails and
            # the run aborts with the repair failure
            self.repairs.append(plan)
            return plan
        assigned = list(zip(dead, free))
        for r, slot in assigned:
            slot.rank = r
            plan["replaced"][r] = slot.sid
        for c in list(self.contexts):
            c.reset_for_repair()
        self.dead.clear()
        self.revoked = False
        if self._first_death_ts is not None:
            plan["repair_seconds"] = time.monotonic() - self._first_death_ts
        self._first_death_ts = None
        if self.meter is not None:
            self.meter.on_repair(len(dead))
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.event("recovery.comm_repair", attrs={
                "epoch": self.epoch,
                "dead": ",".join(map(str, dead)),
                "spares_used": len(dead),
                "spares_left": len(free) - len(dead)})
        self.repairs.append(plan)
        for r, slot in assigned:
            slot.plan = plan
            slot.event.set()
        return plan


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------

class Request:
    """Handle for a non-blocking operation."""

    def wait(self):  # pragma: no cover - abstract
        raise NotImplementedError


class _DoneRequest(Request):
    """Already-complete request (buffered isend, eager iallreduce)."""

    def __init__(self, value=None):
        self._value = value

    def wait(self):
        return self._value


class _RecvRequest(Request):
    def __init__(self, comm: "Comm", source: int, tag: int,
                 metered: bool = True):
        self._comm = comm
        self._source = source
        self._tag = tag
        self._done = False
        self._value = None
        self._metered = metered

    def wait(self):
        if not self._done:
            self._value = self._comm._mailbox_get(
                self._source, self._tag, metered=self._metered)
            self._done = True
        return self._value


# ----------------------------------------------------------------------
# Communicator internals
# ----------------------------------------------------------------------

class _Context:
    """State shared by every rank of one communicator."""

    def __init__(self, world_ranks: tuple[int, ...], meter: Meter,
                 error_box: _ErrorBox, *, is_world: bool,
                 injector=None, timeout: float = _TIMEOUT,
                 ft: _FtState | None = None, poll: float = _ERR_POLL,
                 retry=None):
        self.world_ranks = world_ranks
        self.size = len(world_ranks)
        self.meter = meter
        self.error_box = error_box
        self.is_world = is_world
        #: optional :class:`repro.resilience.FaultInjector`
        self.injector = injector
        #: blocking-op deadline; tightened when a fault plan is active
        self.timeout = timeout
        #: shared fault-tolerance state (None on non-FT runs)
        self.ft = ft
        #: error-box/failure-registry poll period while blocked
        self.poll = poll
        #: optional :class:`repro.resilience.faults.RetryPolicy` for
        #: sender-side absorption of injected drops
        self.retry = retry
        self.barrier = threading.Barrier(self.size)
        self.slots: list = [None] * self.size
        self.lock = threading.Lock()
        self.mailboxes: dict[tuple[int, int, int], queue.SimpleQueue] = {}
        self.split_cache: dict = {}
        if ft is not None:
            ft.register(self)

    def reset_for_repair(self) -> None:
        """Purge in-flight state after a communicator repair: stale
        messages to/from the dead rank are discarded wholesale (the
        application-level recovery protocol re-sends what matters) and
        the barrier returns to its empty working state."""
        with self.lock:
            for q in self.mailboxes.values():
                while True:
                    try:
                        q.get_nowait()
                    except queue.Empty:
                        break
            self.slots = [None] * self.size
        self.barrier.reset()


class Comm:
    """One rank's handle on a communicator (the SPMD-visible object)."""

    def __init__(self, ctx: _Context, rank: int):
        self._ctx = ctx
        self.rank = rank
        self.size = ctx.size
        self._split_count = 0
        #: set on a substituted spare's world comm: the repair plan it
        #: was adopted under (None on original ranks)
        self.repair_plan: dict | None = None
        #: True when this rank is a spare that adopted a dead world rank
        self.adopted = False

    # -- identity ------------------------------------------------------
    @property
    def world_rank(self) -> int:
        """This rank's id in the world communicator (for metering)."""
        return self._ctx.world_ranks[self.rank]

    @property
    def meter(self) -> Meter:
        return self._ctx.meter

    def _check_rank(self, r: int, what: str) -> None:
        if not (0 <= r < self.size):
            raise CommunicatorError(
                f"{what} {r} out of range for communicator of size {self.size}")

    # -- fault tolerance -------------------------------------------------
    def _require_ft(self, what: str) -> _FtState:
        ft = self._ctx.ft
        if ft is None:
            raise CommunicatorError(
                f"{what} requires a fault-tolerant run "
                "(run_spmd(..., ft=True) or spares > 0)")
        return ft

    def _ft_check(self, *, peer: int | None = None) -> None:
        """Raise the typed failure when the communicator is revoked or a
        peer this operation depends on is dead (FT runs only)."""
        ft = self._ctx.ft
        if ft is None:
            return
        if ft.revoked:
            raise RankFailure(
                "communicator revoked for repair", rank=-1, op="revoked")
        if ft.dead:
            if peer is not None:
                wr = self._ctx.world_ranks[peer]
                if wr in ft.dead:
                    raise RankFailure(
                        f"peer world rank {wr} is dead", rank=wr, op="peer")
            else:
                wr = min(ft.dead)
                raise RankFailure(
                    f"world rank {wr} is dead", rank=wr, op="peer")

    # -- fault injection -------------------------------------------------
    def _fault(self, op: str, payload=None):
        """Fire the attached injector (if any) for one *op* call; may
        raise :class:`~repro.common.errors.RankFailure`, return a
        corrupted payload, or the DROP sentinel."""
        inj = self._ctx.injector
        if inj is None:
            return payload
        return inj.fire(op, self.world_rank, payload)

    def fault_point(self, op: str) -> None:
        """An explicit (payload-free) fault point — SPMD drivers tick
        ``comm.fault_point("iteration")`` once per Krylov iteration so
        *kill rank r at iteration k* plans apply."""
        self._fault(op)

    # -- point-to-point --------------------------------------------------
    def _mailbox(self, src: int, dst: int, tag) -> queue.SimpleQueue:
        key = (src, dst, tag)
        ctx = self._ctx
        q = ctx.mailboxes.get(key)
        if q is None:
            # the lock only guards creation: a lookup is one atomic
            # dict read, and a queue, once made, is never replaced
            with ctx.lock:
                q = ctx.mailboxes.setdefault(key, queue.SimpleQueue())
        return q

    def send(self, obj, dest: int, tag: int = 0, *,
             _metered: bool = True) -> None:
        """Blocking (buffered) send.

        With a :class:`~repro.resilience.faults.RetryPolicy` attached
        (``run_spmd(retry=...)`` or the fault plan's ``retry`` entry) an
        injected drop is absorbed on the sender side: the send is
        re-attempted with exponential backoff up to ``max_retries``
        times before the message is finally lost (each attempt passes
        through the injector again, so the retry sequence is as
        deterministic as the fault plan)."""
        self._check_rank(dest, "dest")
        ctx = self._ctx
        self._ft_check(peer=dest)
        if ctx.injector is not None:
            from ..resilience.faults import DROP
            out = self._fault("send", obj)
            if out is DROP:        # injected message loss
                rp = ctx.retry
                if rp is None:
                    return         # never delivered: peer recv times out
                recovered = False
                for attempt in range(rp.max_retries):
                    self.meter.on_retry(self.world_rank)
                    time.sleep(rp.delay(attempt))
                    out = self._fault("send", obj)
                    if out is not DROP:
                        recovered = True
                        break
                self.meter.on_retry_outcome(self.world_rank, recovered)
                if not recovered:
                    return         # retry budget exhausted: message lost
            obj = out
        if _metered:
            self.meter.on_send(self.world_rank, payload_bytes(obj),
                               dest=self._ctx.world_ranks[dest])
        self._mailbox(self.rank, dest, tag).put(obj)

    def isend(self, obj, dest: int, tag: int = 0) -> Request:
        """Non-blocking send (buffered: completes immediately)."""
        self.send(obj, dest, tag)
        return _DoneRequest()

    def _take(self, source: int, tag):
        """Block until the next message from *source* on *tag* arrives;
        no fault point, not metered."""
        q = self._mailbox(source, self.rank, tag)
        deadline = time.monotonic() + self._ctx.timeout
        while True:
            # honor the shared error box (and, on FT runs, the failure
            # registry) on every poll cycle: a peer's failure surfaces
            # within ctx.poll seconds even while this rank is blocked
            # waiting for a message that will never come
            self._ctx.error_box.check()
            self._ft_check(peer=source)
            try:
                return q.get(timeout=self._ctx.poll)
            except queue.Empty:
                if time.monotonic() > deadline:
                    # report the peer's WORLD rank: failure handlers
                    # compare against comm.world_rank (own-death check)
                    raise RankFailure(
                        f"recv(source={source}, tag={tag}) timed out on rank "
                        f"{self.rank} after {self._ctx.timeout:.1f}s "
                        f"(dropped message or dead peer?)",
                        rank=self._ctx.world_ranks[source], op="recv") \
                        from None

    def _mailbox_get(self, source: int, tag: int, *, metered: bool = True):
        obj = self._take(source, tag)
        if self._ctx.injector is not None:
            obj = self._fault("recv", obj)
        if metered:
            self.meter.on_recv(self.world_rank, payload_bytes(obj))
        return obj

    def recv(self, source: int, tag: int = 0):
        """Blocking receive from *source*."""
        self._check_rank(source, "source")
        return self._mailbox_get(source, tag)

    def irecv(self, source: int, tag: int = 0) -> Request:
        """Non-blocking receive."""
        self._check_rank(source, "source")
        return _RecvRequest(self, source, tag)

    # -- collectives -----------------------------------------------------
    def _barrier_wait(self) -> None:
        self._ctx.error_box.check()
        self._ft_check()
        try:
            self._ctx.barrier.wait(timeout=self._ctx.timeout)
        except threading.BrokenBarrierError:
            # the abort broadcast: a failed rank aborts the barrier so
            # survivors wake immediately and raise the typed failure
            self._ctx.error_box.check()
            self._ft_check()
            raise RankFailure("barrier broken (a rank died?)") from None

    def _exchange(self, value, op: str = "exchange"):
        """All ranks deposit *value*; returns the full slot list (shared,
        read-only by convention).  Two barriers protect slot reuse."""
        ctx = self._ctx
        if ctx.injector is not None:
            value = self._fault(op, value)
        ctx.slots[self.rank] = value
        self._barrier_wait()
        snapshot = list(ctx.slots)
        self._barrier_wait()
        return snapshot

    def _record(self, kind: str, nbytes: int) -> None:
        self.meter.on_collective(self.world_rank, kind, nbytes,
                                 is_global_sync=self._ctx.is_world)

    def barrier(self) -> None:
        self._record("barrier", 0)
        self._fault("barrier")
        self._barrier_wait()

    def bcast(self, obj, root: int = 0):
        self._check_rank(root, "root")
        self._record("bcast", payload_bytes(obj) if self.rank == root else 0)
        slots = self._exchange(obj if self.rank == root else None, "bcast")
        return slots[root]

    def _rooted(self, op: str, value):
        """Entry of a rooted collective: its own fault point, then the
        failure checks a barrier would make.  What follows is
        point-to-point to or from the root on the :data:`_ROOTED`
        mailboxes — MPI's rooted-collective semantics, where non-roots
        do not synchronise."""
        if self._ctx.injector is not None:
            value = self._fault(op, value)
        self._ctx.error_box.check()
        self._ft_check()
        return value

    def gather(self, obj, root: int = 0, *, kind: str = "gather"):
        """Gather objects to *root*; returns the list on root, None elsewhere."""
        self._check_rank(root, "root")
        self._record(kind, payload_bytes(obj))
        obj = self._rooted(kind, obj)
        if self.rank != root:
            self._mailbox(self.rank, root, _ROOTED).put(obj)
            return None
        return [obj if r == root else self._take(r, _ROOTED)
                for r in range(self.size)]

    def gatherv(self, obj, root: int = 0):
        """Variable-count gather (metered separately: scales as O(N))."""
        return self.gather(obj, root, kind="gatherv")

    def scatter(self, objs, root: int = 0, *, kind: str = "scatter"):
        self._check_rank(root, "root")
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise CommunicatorError(
                    f"scatter root must pass {self.size} items")
            self._record(kind, payload_bytes(objs))
        else:
            self._record(kind, 0)
        objs = self._rooted(kind, objs if self.rank == root else None)
        if self.rank != root:
            return self._take(root, _ROOTED)
        for r in range(self.size):
            if r != root:
                self._mailbox(root, r, _ROOTED).put(objs[r])
        return objs[root]

    def scatterv(self, objs, root: int = 0):
        return self.scatter(objs, root, kind="scatterv")

    def allgather(self, obj):
        self._record("allgather", payload_bytes(obj))
        return self._exchange(obj, "allgather")

    def allgatherv(self, obj):
        self._record("allgatherv", payload_bytes(obj))
        return self._exchange(obj, "allgatherv")

    def allreduce(self, obj, op="sum"):
        fn = _resolve_op(op)
        self._record("allreduce", payload_bytes(obj))
        slots = self._exchange(obj, "allreduce")
        return _functools_reduce(fn, slots)

    def iallreduce(self, obj, op="sum") -> Request:
        """Non-blocking allreduce.

        Executed eagerly at the rendezvous (all ranks of this communicator
        still reach the call site, as in algorithm §3.5 where every master
        posts it before the coarse solve); the result is delivered through
        the returned request, and the meter records it as overlappable.
        """
        fn = _resolve_op(op)
        self._record("iallreduce", payload_bytes(obj))
        slots = self._exchange(obj, "iallreduce")
        return _DoneRequest(_functools_reduce(fn, slots))

    def reduce(self, obj, root: int = 0, op="sum"):
        fn = _resolve_op(op)
        self._check_rank(root, "root")
        self._record("reduce", payload_bytes(obj))
        slots = self._exchange(obj, "reduce")
        return _functools_reduce(fn, slots) if self.rank == root else None

    def alltoall(self, objs):
        if objs is None or len(objs) != self.size:
            raise CommunicatorError(f"alltoall needs {self.size} items")
        self._record("alltoall", payload_bytes(objs))
        slots = self._exchange(objs, "alltoall")
        return [slots[src][self.rank] for src in range(self.size)]

    # -- communicator management ----------------------------------------
    def split(self, color, key: int | None = None) -> "Comm | None":
        """Split into sub-communicators by *color*; ``None`` color returns
        ``None`` (the MPI_COMM_NULL of the paper's slave-side masterComm).

        The split generation (cache key) is agreed as the max over the
        participants' local counters: after a communicator repair a
        substitute rank starts from generation 0 while survivors have
        advanced, and the max-sync realigns them on the first collective
        re-split (on fault-free runs all counters are equal and this is
        the identity)."""
        self._split_count += 1
        if key is None:
            key = self.rank
        self._record("split", 0)
        infos = self._exchange((color, key, self.rank, self._split_count),
                               "split")
        gen = max(g for _, _, _, g in infos)
        self._split_count = gen
        if color is None:
            return None
        members = sorted((k, r) for c, k, r, _ in infos if c == color)
        ranks = [r for _, r in members]
        new_rank = ranks.index(self.rank)
        ctx = self._ctx
        cache_key = (gen, color)
        with ctx.lock:
            sub = ctx.split_cache.get(cache_key)
            if sub is None:
                sub = _Context(
                    tuple(ctx.world_ranks[r] for r in ranks),
                    ctx.meter, ctx.error_box, is_world=False,
                    injector=ctx.injector, timeout=ctx.timeout,
                    ft=ctx.ft, poll=ctx.poll, retry=ctx.retry)
                ctx.split_cache[cache_key] = sub
        return Comm(sub, new_rank)

    # -- ULFM-style fault-tolerance collectives ---------------------------
    def _ft_gather(self, name: str, value, finalize=None):
        """Survivor-only rendezvous: deposit *value*, wait until every
        live member of this communicator has deposited, return the
        ``{world_rank: value}`` map (or, with *finalize*, the result of
        running ``finalize(values)`` exactly once under the registry
        lock).  Membership is re-evaluated as ranks die, so a
        mid-rendezvous death cannot hang the collective — the ULFM
        ``MPI_Comm_agree`` completion guarantee."""
        ft = self._require_ft(f"{name}()")
        ctx = self._ctx
        wr = self.world_rank
        deadline = time.monotonic() + ctx.timeout
        key = (id(ctx), name)
        with ft.cond:
            gate = ft.gates.setdefault(
                key, {"gen": 0, "vals": {}, "out": None, "result": None})
            mygen = gate["gen"]
            gate["vals"][wr] = value
            ft.cond.notify_all()
            while gate["gen"] == mygen:
                if set(gate["vals"]) >= ft.live(ctx):
                    gate["out"] = dict(gate["vals"])
                    gate["result"] = (None if finalize is None
                                      else finalize(gate["out"]))
                    gate["vals"] = {}
                    gate["gen"] = mygen + 1
                    ft.cond.notify_all()
                    break
                if time.monotonic() > deadline:
                    raise CommunicatorError(
                        f"{name} rendezvous timed out (deadlock?)")
                ft.cond.wait(ctx.poll)
                ctx.error_box.check()
            if finalize is not None:
                return gate["result"]
            return dict(gate["out"])

    def agree(self, value, op: str = "and"):
        """Fault-tolerant agreement over the surviving ranks (ULFM
        ``MPI_Comm_agree``): completes even while peers are dying and
        returns the same reduced value on every survivor.  ``op="and"``
        is the ULFM bitwise/logical AND; ``sum``/``min``/``max`` are
        accepted too.  Contributions of ranks that die mid-call may or
        may not be included (as in ULFM)."""
        if op == "and":
            fn = lambda a, b: a & b                       # noqa: E731
        else:
            fn = _resolve_op(op)
        vals = self._ft_gather("agree", value)
        items = [v for _, v in sorted(vals.items())]
        return _functools_reduce(fn, items)

    def shrink(self) -> "Comm":
        """Build a new communicator over the surviving ranks of this one
        (ULFM ``MPI_Comm_shrink``).  Rank order follows ascending world
        rank; the result is a fully functional communicator excluding
        the dead."""
        ctx = self._ctx

        def finalize(vals):
            members = sorted(vals)
            sub = _Context(tuple(members), ctx.meter, ctx.error_box,
                           is_world=False, injector=ctx.injector,
                           timeout=ctx.timeout, ft=ctx.ft,
                           poll=ctx.poll, retry=ctx.retry)
            return members, sub

        members, sub = self._ft_gather("shrink", self.world_rank,
                                       finalize=finalize)
        return Comm(sub, members.index(self.world_rank))

    def repair(self) -> dict:
        """Revoke, rendezvous every survivor, substitute parked spares
        for the dead world ranks, and reset the communicator tree.

        Returns the repair *plan*: ``{"ok", "epoch", "dead", "replaced"
        (world rank → spare id), "repair_seconds"}``.  Every survivor
        gets the same plan; each substituted spare starts ``fn`` with
        the plan attached as ``comm.repair_plan``.  When the repair
        cannot complete (spares exhausted, a rank already returned) a
        :class:`RankFailure` is raised on every survivor and the run
        aborts with it.  Must be called on the world communicator by
        every live rank (survivors typically funnel here from the typed
        failure their next blocking operation raised)."""
        ft = self._require_ft("repair()")
        if not self._ctx.is_world:
            raise CommunicatorError(
                "repair() must be called on the world communicator")
        ft.revoke()
        plan = self._ft_gather("repair", self.world_rank,
                               finalize=lambda vals: ft.do_repair())
        if not plan["ok"]:
            raise RankFailure(
                f"communicator repair failed: {plan['reason']}",
                rank=-1, op="repair")
        return plan

    def dist_graph_create_adjacent(self, neighbors) -> "NeighborComm":
        """Attach a distributed-graph topology (MPI-3) to this communicator."""
        neighbors = [int(x) for x in neighbors]
        for nb in neighbors:
            self._check_rank(nb, "neighbor")
        return NeighborComm(self, neighbors)


class NeighborComm:
    """Communicator with distributed-graph topology for neighbourhood
    collectives (``MPI_Dist_graph_create_adjacent`` in algorithm 1)."""

    def __init__(self, comm: Comm, neighbors: list[int]):
        self.comm = comm
        self.neighbors = list(neighbors)

    def ineighbor_alltoall(self, values, tag: int = 7001) -> Request:
        """Exchange one value with each neighbour; request yields the list
        of received values in neighbour order."""
        if len(values) != len(self.neighbors):
            raise CommunicatorError(
                f"ineighbor_alltoall needs {len(self.neighbors)} values")
        comm = self.comm
        # one neighbourhood collective, not |O_i| point-to-point
        # messages: internal transfers bypass the p2p meter
        comm._record("ineighbor_alltoall", payload_bytes(values))
        for nb, v in zip(self.neighbors, values):
            comm.send(v, nb, tag, _metered=False)
        reqs = [_RecvRequest(comm, nb, tag, metered=False)
                for nb in self.neighbors]

        class _Agg(Request):
            def __init__(self, reqs):
                self._reqs = reqs

            def wait(self):
                return [r.wait() for r in self._reqs]

        return _Agg(reqs)

    def neighbor_alltoall(self, values, tag: int = 7001):
        return self.ineighbor_alltoall(values, tag).wait()


# ----------------------------------------------------------------------
# SPMD driver
# ----------------------------------------------------------------------

def run_spmd(nranks: int, fn, *args, meter: Meter | None = None,
             recorder=None, faults=None, spares: int = 0,
             ft: bool | None = None, retry=None,
             poll_interval: float | None = None, **kwargs) -> list:
    """Run ``fn(comm, *args, **kwargs)`` on *nranks* simulated ranks.

    Each rank executes in its own thread against a shared world
    communicator.  Returns the list of per-rank return values.  The first
    rank failure is re-raised (other ranks are unblocked through the
    shared error box).

    Passing a :class:`repro.obs.Recorder` as *recorder* instruments the
    run end to end: the (possibly auto-created) meter feeds the ``mpi.*``
    traffic counters and carries the recorder to the ranks, whose spans
    land on the shared timeline as ``rank{r}`` tracks.

    Passing a :class:`repro.resilience.FaultPlan` (or a ready
    :class:`~repro.resilience.FaultInjector`) as *faults* arms
    deterministic fault injection on every communicator operation, and
    tightens the blocking-op deadline to ``plan.timeout`` so injected
    failures surface as typed
    :class:`~repro.common.errors.RankFailure` errors instead of
    deadlocks.

    Fault tolerance: ``spares=K`` parks K warm spare workers that can
    adopt a dead rank's world rank through :meth:`Comm.repair`;
    ``ft=True`` enables the failure registry without spares (shrink-only
    recovery).  ``retry`` (a
    :class:`~repro.resilience.faults.RetryPolicy`, a dict, or an int
    retry budget) arms sender-side retry/backoff absorption of injected
    drops; when omitted, an armed fault plan's own ``retry`` policy is
    used.  ``poll_interval`` overrides the 20 ms error-box poll period
    used while blocked in a communicator call; a fault plan's timeout
    must be at least 4x the poll period so short-timeout plans cannot
    race the poller.

    On a fault-tolerant run, ranks that died without being repaired do
    NOT abort the run once the survivors return: their slot in the
    result list is ``None`` and callers decide whether partial results
    are acceptable.  Errors other than an injected own-death (assertion
    failures, peer-observed failures the caller did not absorb) abort
    the run as before.
    """
    if nranks < 1:
        raise CommunicatorError(f"nranks must be >= 1, got {nranks}")
    if spares < 0:
        raise CommunicatorError(f"spares must be >= 0, got {spares}")
    ft_enabled = bool(spares) if ft is None else bool(ft)
    poll = _ERR_POLL if poll_interval is None else float(poll_interval)
    if poll <= 0:
        raise CommunicatorError(
            f"poll_interval must be > 0, got {poll_interval}")
    if meter is None:
        meter = Meter(nranks, recorder=recorder)
    elif recorder is not None and not meter.recorder.enabled:
        meter.recorder = recorder
    injector = None
    timeout = _TIMEOUT
    if faults is not None:
        from ..resilience.faults import as_injector
        injector = as_injector(faults, meter=meter, recorder=recorder)
        timeout = injector.timeout
        if timeout < 4 * poll:
            raise CommunicatorError(
                f"fault-plan timeout {timeout}s is below 4x the error "
                f"poll period {poll}s; blocked ranks could time out "
                "before ever polling the failure registry "
                "(raise plan.timeout or lower poll_interval)")
    if retry is None and injector is not None:
        retry = getattr(injector.plan, "retry", None)
    if retry is not None:
        from ..resilience.faults import as_retry
        retry = as_retry(retry)
    error_box = _ErrorBox()
    ftstate = _FtState(meter, recorder) if ft_enabled else None
    ctx = _Context(tuple(range(nranks)), meter, error_box, is_world=True,
                   injector=injector, timeout=timeout,
                   ft=ftstate, poll=poll, retry=retry)
    results: list = [None] * nranks

    def fail(rank: int, exc: BaseException) -> None:
        error_box.set(rank, exc)
        if ftstate is not None:
            ftstate._wake()
        else:
            ctx.barrier.abort()

    def worker(rank: int, slot: _SpareSlot | None = None):
        comm = Comm(ctx, rank)
        if slot is not None:
            comm.repair_plan = slot.plan
            comm.adopted = True
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - must unblock peers
            if (ftstate is not None and isinstance(exc, RankFailure)
                    and exc.rank == rank):
                # an injected kill of THIS rank: record the death and let
                # the survivors repair/shrink around it.  Peer-observed
                # failures carry the peer's rank (or -1) and fall through
                # to the error box as unrecovered errors.
                ftstate.mark_dead(rank, exc)
            else:
                fail(rank, exc)
        else:
            if ftstate is not None:
                ftstate.mark_finished(rank)

    def spare_worker(slot: _SpareSlot):
        while True:
            slot.event.wait()
            slot.event.clear()
            if slot.shutdown:
                return
            if slot.rank is not None:
                worker(slot.rank, slot)
                return

    threads = [threading.Thread(target=worker, args=(r,), daemon=True,
                                name=f"spmd-rank-{r}")
               for r in range(nranks)]
    spare_threads: list[threading.Thread] = []
    if ftstate is not None:
        for s in range(spares):
            slot = _SpareSlot(s)
            ftstate.spares.append(slot)
            t = threading.Thread(target=spare_worker, args=(slot,),
                                 daemon=True, name=f"spmd-spare-{s}")
            spare_threads.append(t)
    for t in threads:
        t.start()
    for t in spare_threads:
        t.start()
    try:
        for t in threads:
            t.join(timeout=_TIMEOUT)
            if t.is_alive():  # pragma: no cover - deadlock guard
                fail(-1, TimeoutError("rank thread failed to join"))
        if ftstate is not None:
            # adopted spares run the same fn and must finish too
            while True:
                with ftstate.lock:
                    active = [s for s in ftstate.spares
                              if s.rank is not None and not s.shutdown]
                busy = [t for s, t in zip(ftstate.spares, spare_threads)
                        if s.rank is not None and t.is_alive()]
                if not busy:
                    break
                for t in busy:
                    t.join(timeout=_TIMEOUT)
                    if t.is_alive():  # pragma: no cover - deadlock guard
                        fail(-1, TimeoutError(
                            "substituted spare failed to join"))
                        break
                else:
                    continue
                break
            del active
    finally:
        if ftstate is not None:
            with ftstate.lock:
                for s in ftstate.spares:
                    s.shutdown = True
                    s.event.set()
            for t in spare_threads:
                t.join(timeout=5.0)
    if error_box.error is not None:
        rank, exc = error_box.error
        raise exc
    return results
