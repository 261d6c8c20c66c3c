"""Fault-tolerant SPMD solve driver: survive rank death mid-solve.

:func:`solve_spmd_ft` is the resilient sibling of
:func:`repro.core.spmd.solve_spmd`.  It runs the same two-level
GenEO-Schwarz GMRES, but wires the three fault-tolerance mechanisms of
this layer together so an injected rank kill (or an unabsorbed drop
storm) heals in place instead of aborting:

1. **ULFM-style communicator repair** (:meth:`repro.mpi.simmpi.Comm.
   repair`): every survivor funnels the typed peer failure into one
   collective repair; a warm spare adopts the dead world rank.
2. **Diskless neighbor checkpointing**
   (:mod:`repro.resilience.checkpoint`): the substitute restores the
   dead rank's GenEO/coarse setup payload and its last cycle-boundary
   Krylov iterate from the dead rank's replication partner.
3. **Partition-of-unity reconstruction**: when the iterate replica is
   missing or stale, the substitute rebuilds a consistent local iterate
   from the overlap neighbors' PoU-weighted copies (interior dofs
   restart from zero); a missing setup replica degrades the local solve
   to the Jacobi surrogate, and a master that lost its coarse rows
   degrades the whole run to one-level RAS (agreed via
   :meth:`~repro.mpi.simmpi.Comm.agree`).

The solve itself is :func:`repro.core.spmd.spmd_gmres`; checkpointing
is its ``health=`` restart-boundary observer, and after a repair the
driver calls it again from the restored iterate with the remaining
iteration budget.

The recovery protocol is cycle-synchronous: checkpoints are taken at
GMRES restart-cycle boundaries, the convergence test is a global
reduction (so every rank takes the same boundary decisions), and cycle
skew between ranks is at most one — survivors that already passed the
recovery cycle roll back one boundary snapshot, never more.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..common.errors import RankFailure, ReproError
from ..dd.decomposition import Decomposition
from ..mpi.meter import Meter
from ..mpi.simmpi import Comm, run_spmd
from ..resilience.checkpoint import (CheckpointStore, IterateCheckpoint,
                                     jacobi_surrogate, partner_map,
                                     pou_reconstruct, pou_send_contribution,
                                     setup_payload, TAG_RESTORE_ITER)
from ..solvers import DistributedCholesky
from .deflation import DeflationSpace
from .spmd import (IterationTick, SpmdRank, assemble_coarse_spmd,
                   build_master_comms, rank_factor, spmd_gmres)


@dataclass
class _FtEnv:
    """Immutable per-run configuration shared by every rank thread."""

    dec: Decomposition
    space: DeflationSpace
    b_list: list
    partners: list[int]
    num_masters: int
    nonuniform: bool
    two_level: bool
    tol: float
    restart: int
    maxiter: int
    checkpoint_every: int
    factor_backend: str
    max_repairs: int


@dataclass
class _RankState:
    """One rank's mutable solve state (everything recovery touches)."""

    rank: SpmdRank
    store: CheckpointStore
    blob: dict
    two_level: bool
    x: np.ndarray
    k: int = 0
    residuals: list = field(default_factory=list)
    cycle: int = 0
    boundary: IterateCheckpoint | None = None
    prev_boundary: IterateCheckpoint | None = None


@dataclass
class SpmdFtReport:
    """Result of a fault-tolerant SPMD solve."""

    x: np.ndarray
    iterations: int
    residuals: list
    meter: Meter
    converged: bool
    #: one entry per communicator repair, merged across ranks
    recoveries: list
    #: was the run still two-level at the end?
    two_level: bool
    #: iterate-checkpoint rounds taken (max over ranks)
    checkpoint_ticks: int


# ----------------------------------------------------------------------
# Setup
# ----------------------------------------------------------------------

def _ft_setup(comm: Comm, env: _FtEnv) -> _RankState:
    """Collective setup: algorithms 1-2 with the pristine coarse rows
    retained, then the initial setup-payload replication round."""
    rank = assemble_coarse_spmd(comm, env.dec, env.space, env.num_masters,
                                nonuniform=env.nonuniform,
                                factor_backend=env.factor_backend,
                                keep_rows=True)
    store = CheckpointStore(comm, env.partners,
                            checkpoint_every=env.checkpoint_every)
    blob = setup_payload(rank)
    if env.checkpoint_every > 0:
        store.replicate_setup(blob)
    n = len(env.dec.subdomains[comm.rank].dofs)
    return _RankState(rank=rank, store=store, blob=blob,
                      two_level=env.two_level, x=np.zeros(n))


# ----------------------------------------------------------------------
# Checkpointing: the restart-boundary observer of the one GMRES loop
# ----------------------------------------------------------------------

class _BoundaryObserver(IterationTick):
    """``health=`` observer of one :func:`spmd_gmres` call (re)started
    from ``st``: when the loop hands over the iterate — a restart
    boundary — snapshot it and, when due, replicate it to the partner;
    then tick the ``iteration`` fault point, so a rank killed *at* a
    boundary has already replicated that boundary."""

    def __init__(self, st: _RankState):
        super().__init__(st.rank.comm)
        self.st, self.k0 = st, st.k

    def observe(self, k: int, residual: float, x=None) -> None:
        st = self.st
        st.k = self.k0 + k
        if x is not None:
            # boundary snapshot BEFORE appending this cycle's residual
            # so a rollback re-enters the loop and deterministically
            # re-appends
            st.prev_boundary = st.boundary
            st.boundary = IterateCheckpoint(st.cycle, st.k, x.copy(),
                                            list(st.residuals))
            if st.store.due(st.cycle):
                st.store.tick(st.boundary)
            st.cycle += 1
        st.residuals.append(residual)
        super().observe(k, residual, x)


# ----------------------------------------------------------------------
# Recovery protocol (runs on every rank after a communicator repair)
# ----------------------------------------------------------------------

def _ft_recover(comm: Comm, plan: dict, st: _RankState | None,
                env: _FtEnv):
    """Collective post-repair recovery: status exchange, survivor
    rollback, substitute restore (partner replica → PoU reconstruction
    → Jacobi surrogate), coarse refactorization, re-replication.

    Returns ``(st, recovery_info)``.  ``st=None`` in the result means a
    full collective setup redo is needed (a rank died during setup)."""
    t0 = time.monotonic()
    dec, partners = env.dec, env.partners
    comm.barrier()
    # ---- round A: everyone's recovery-relevant status ----------------
    if st is None:
        phase = "sub" if comm.adopted else "setup"
        status = {"rank": comm.rank, "phase": phase, "cycle": -1,
                  "held_setup": [], "held_iter": {}, "two_level": True}
    else:
        bcycle = st.boundary.cycle if st.boundary is not None else -1
        status = {"rank": comm.rank, "phase": "solve", "cycle": bcycle,
                  "held_setup": sorted(st.store.held_setup),
                  "held_iter": {c: ck.cycle
                                for c, ck in st.store.held_iter.items()},
                  "two_level": st.two_level}
    statuses = comm.allgather(status)
    rec = {"epoch": plan.get("epoch"), "dead": list(plan.get("dead", [])),
           "replaced": dict(plan.get("replaced", {})),
           "repair_seconds": float(plan.get("repair_seconds", 0.0)),
           "redo_setup": False, "two_level": None,
           "restored_from_ckpt": [], "restored_from_pou": [],
           "degraded_local": [], "restore_seconds": 0.0}
    if any(s["phase"] == "setup" for s in statuses):
        # a rank died inside the collective setup: the cheapest correct
        # recovery is a full collective redo (no iterates exist yet)
        rec["redo_setup"] = True
        rec["restore_seconds"] = time.monotonic() - t0
        return None, rec

    solve_cycles = [s["cycle"] for s in statuses if s["phase"] == "solve"]
    c_min = min(solve_cycles) if solve_cycles else -1
    R = sorted(s["rank"] for s in statuses if s["phase"] == "sub")
    Rset = set(R)
    by_rank = {s["rank"]: s for s in statuses}

    # ---- survivor rollback to the common boundary cycle --------------
    if st is not None:
        if c_min < 0:
            snap = IterateCheckpoint(0, 0, np.zeros_like(st.x), [])
        elif st.boundary.cycle == c_min:
            snap = st.boundary
        elif (st.prev_boundary is not None
              and st.prev_boundary.cycle == c_min):
            snap = st.prev_boundary
        else:  # pragma: no cover - cycle skew > 1 is a protocol bug
            raise ReproError(
                f"rank {comm.rank}: no boundary snapshot at cycle "
                f"{c_min} (have {st.boundary.cycle})")
        st.x = snap.x.copy()
        st.k = snap.k
        st.residuals = list(snap.residuals)
        st.cycle = snap.cycle
        st.boundary = None
        st.prev_boundary = None

    # ---- setup restore for the substitutes ---------------------------
    setup_ok = {}
    for i in R:
        p = partners[i]
        setup_ok[i] = (p not in Rset
                       and i in by_rank[p]["held_setup"])
    blob = None
    for i in R:
        if not setup_ok[i]:
            continue
        p = partners[i]
        if comm.rank == p:
            st.store.serve_setup(i)
        elif comm.rank == i:
            blob = CheckpointStore(comm, partners).fetch_setup()

    # ---- layout rebuild + coarse refactorization (collective) --------
    layout = build_master_comms(comm, env.num_masters, env.nonuniform)
    masters = {int(m) for m in layout.masters}
    survivor_flags = [s["two_level"] for s in statuses
                      if s["phase"] == "solve"]
    local_flag = (all(survivor_flags) if survivor_flags else env.two_level)
    # a master substitute without its coarse-row replica cannot rebuild
    # its block of E: agree() the two-level flag across survivors
    for i in R:
        if i in masters and not setup_ok[i]:
            local_flag = False
    if comm.rank in Rset and comm.rank in masters and blob is not None \
            and "rows" not in blob:
        local_flag = False
    two_level_next = bool(comm.agree(int(bool(local_flag))))
    rec["two_level"] = two_level_next

    if comm.rank in Rset:
        # build the substitute's rank state
        sub = dec.subdomains[comm.rank]
        if blob is not None:
            W = blob["W"]
            factor = rank_factor(dec, comm.rank, env.factor_backend)
            rec["restored_from_ckpt"].append(comm.rank)
        else:
            # no replica: Jacobi-surrogate local solve, basis re-read
            # from the in-process deflation space (models re-loading it
            # from its source so the coarse operator stays consistent)
            W = env.space.W[comm.rank]
            factor = jacobi_surrogate(sub)
            blob = {"index": comm.rank, "W": np.asarray(W).copy(),
                    "is_master": comm.rank in masters}
            rec["degraded_local"].append(comm.rank)
        W = np.asarray(W)
        rank = SpmdRank(comm=comm, dec=dec, index=comm.rank, W=W,
                        layout=layout, factor=factor, T=sub.A_dir @ W)
        if "rows" in blob:
            rank.rows = blob["rows"].copy()
            rank.row_starts = blob["row_starts"]
            rank.nu_all = blob["nu_all"]
        store = CheckpointStore(comm, partners,
                                checkpoint_every=env.checkpoint_every)
        n = len(sub.dofs)
        st = _RankState(rank=rank, store=store, blob=blob,
                        two_level=two_level_next, x=np.zeros(n))
    else:
        st.rank.layout = layout
        st.two_level = two_level_next
    st.rank.reset_tags()
    if two_level_next and layout.is_master:
        if st.rank.rows is None:  # pragma: no cover - agree() excludes it
            raise ReproError("master without coarse rows after agree()")
        st.rank.coarse = DistributedCholesky(
            layout.master_comm, st.rank.row_starts, st.rank.rows.copy())
    elif not two_level_next:
        st.rank.coarse = None

    # ---- iterate restore ---------------------------------------------
    donors = [s["rank"] for s in statuses if s["phase"] == "solve"]
    donor = min(donors) if donors else -1
    if c_min >= 0:
        for i in R:
            p = partners[i]
            iter_ok = (p not in Rset
                       and by_rank[p]["held_iter"].get(i) == c_min)
            if iter_ok:
                if comm.rank == p:
                    st.store.serve_iter(i)
                elif comm.rank == i:
                    ck = st.store.fetch_iter()
                    st.x, st.k = ck.x.copy(), ck.k
                    st.residuals = list(ck.residuals)
                    st.cycle = ck.cycle
                    rec["restored_from_ckpt"].append(comm.rank)
            else:
                # PoU reconstruction from the live overlap neighbors;
                # Krylov bookkeeping (global, identical on every rank)
                # comes from the lowest-rank survivor
                neigh = [j for j in dec.subdomains[i].neighbors
                         if j not in Rset]
                if comm.rank == donor:
                    comm.isend({"k": st.k, "residuals": list(st.residuals),
                                "cycle": st.cycle}, i, TAG_RESTORE_ITER)
                if comm.rank in neigh:
                    pou_send_contribution(comm, st.rank.sub, st.x, i)
                if comm.rank == i:
                    meta = comm.recv(donor, TAG_RESTORE_ITER)
                    st.x = pou_reconstruct(comm, st.rank.sub, neigh)
                    st.k = meta["k"]
                    st.residuals = list(meta["residuals"])
                    st.cycle = meta["cycle"]
                    rec["restored_from_pou"].append(comm.rank)

    # ---- re-replication + full iterate tick --------------------------
    if env.checkpoint_every > 0:
        st.store.replicate_setup(st.blob, affected=Rset)
        if c_min >= 0:
            st.store.tick(IterateCheckpoint(st.cycle, st.k, st.x.copy(),
                                            list(st.residuals)))
    rec["restore_seconds"] = time.monotonic() - t0
    return st, rec


# ----------------------------------------------------------------------
# Per-rank driver
# ----------------------------------------------------------------------

def _ft_rank_main(comm: Comm, env: _FtEnv):
    recoveries: list[dict] = []
    repairs = 0
    st: _RankState | None = None
    plan = comm.repair_plan          # non-None only on substituted spares
    while True:
        try:
            if plan is not None:
                st, rec = _ft_recover(comm, plan, st, env)
                recoveries.append(rec)
                plan = None
            if st is None:
                st = _ft_setup(comm, env)
            st.x, _, residuals = spmd_gmres(
                st.rank, env.b_list[comm.rank], tol=env.tol,
                restart=env.restart, maxiter=env.maxiter - st.k,
                two_level=st.two_level, x0=st.x,
                health=_BoundaryObserver(st))
            # the loop corrects its last estimate with the true residual
            st.residuals[-1] = residuals[-1]
            # kills can only fire at instrumented call sites: once this
            # barrier completes no rank makes another call, so no repair
            # can be needed after the first rank returns
            comm.barrier()
            return {"x": st.x, "iterations": st.k,
                    "residuals": st.residuals, "recoveries": recoveries,
                    "two_level": st.two_level,
                    "ticks": st.store.ticks, "adopted": comm.adopted}
        except RankFailure as exc:
            if exc.rank == comm.world_rank or exc.op == "repair":
                raise            # own injected death / failed repair
            repairs += 1
            if repairs > env.max_repairs:
                rec = comm.meter.recorder
                if rec.enabled:
                    rec.event("recovery.giveup", attrs={
                        "scope": "spmd", "rank": comm.rank,
                        "repairs": repairs - 1})
                raise
            plan = comm.repair()


# ----------------------------------------------------------------------
# Top-level driver
# ----------------------------------------------------------------------

def solve_spmd_ft(dec: Decomposition, space: DeflationSpace,
                  b: np.ndarray, *, num_masters: int = 2,
                  nonuniform: bool = False, tol: float = 1e-6,
                  restart: int = 40, maxiter: int = 200,
                  two_level: bool = True, spares: int = 1,
                  checkpoint_every: int = 1, retry=None, faults=None,
                  meter: Meter | None = None, recorder=None,
                  poll_interval: float | None = None,
                  max_repairs: int | None = None,
                  factor_backend: str = "superlu") -> SpmdFtReport:
    """Fault-tolerant SPMD solve: ``solve_spmd`` + warm spares +
    diskless neighbor checkpointing + communicator repair.

    Runs with ``spares`` parked spare workers; each injected rank kill
    triggers one collective repair and a substitute restore, bounded by
    ``max_repairs`` (default ``spares + 2``) per rank.
    ``checkpoint_every`` counts GMRES restart cycles between iterate
    replications (0 disables checkpointing — recovery then always goes
    through PoU reconstruction).  Raises
    :class:`~repro.common.errors.RankFailure` when the run cannot heal
    (spares exhausted, repair budget exhausted, death after a rank
    returned).
    """
    N = dec.num_subdomains
    if meter is None:
        meter = Meter(N, recorder=recorder)
    env = _FtEnv(dec=dec, space=space, b_list=dec.restrict(b),
                 partners=partner_map(dec), num_masters=num_masters,
                 nonuniform=nonuniform, two_level=two_level, tol=tol,
                 restart=restart, maxiter=maxiter,
                 checkpoint_every=checkpoint_every,
                 factor_backend=factor_backend,
                 max_repairs=(spares + 2 if max_repairs is None
                              else max_repairs))
    results = run_spmd(N, _ft_rank_main, env, meter=meter,
                       recorder=recorder, faults=faults, spares=spares,
                       ft=True, retry=retry, poll_interval=poll_interval)
    lost = [i for i, r in enumerate(results) if r is None]
    if lost:  # pragma: no cover - every loss path raises earlier
        raise RankFailure(f"ranks {lost} lost without repair",
                          rank=lost[0], op="lost")
    x = dec.combine([r["x"] for r in results])
    r0 = results[0]
    # merge per-rank recovery records by repair epoch (repair timing is
    # global; restore timing is the slowest rank's)
    merged: dict[int, dict] = {}
    for r in results:
        for rec in r["recoveries"]:
            m = merged.setdefault(rec["epoch"], dict(rec))
            m["restore_seconds"] = max(m["restore_seconds"],
                                       rec["restore_seconds"])
            for key in ("restored_from_ckpt", "restored_from_pou",
                        "degraded_local"):
                m[key] = sorted(set(m[key]) | set(rec[key]))
    recoveries = [merged[e] for e in sorted(merged)]
    residuals = r0["residuals"]
    converged = bool(residuals and residuals[-1] <= tol)
    return SpmdFtReport(
        x=x, iterations=r0["iterations"], residuals=residuals,
        meter=meter, converged=converged, recoveries=recoveries,
        two_level=all(r["two_level"] for r in results),
        checkpoint_ticks=max(r["ticks"] for r in results))
