"""SPMD execution of the paper's algorithms over the simulated MPI.

Everything in this module runs with one thread per subdomain against
:mod:`repro.mpi`:

* :func:`build_master_comms` — the communicator layout of §3.1.1
  (splitComm with the master at local rank 0, masterComm across masters,
  ``MPI_COMM_NULL`` on slaves) with uniform or non-uniform election;
* :func:`assemble_coarse_spmd` — **algorithm 1** (neighbourhood exchange
  of the overlap rows of T_i = A_iW_i, Isend then blocking receives in
  sorted-neighbour order) and
  **algorithm 2** (slaves pack ``[O_i | E_{i,i} | E_{i,j}…]`` into one
  double message to their master; masters compute all indices and
  assemble their distributed row block) followed by the cooperative
  factorization of E on masterComm;
* :meth:`SpmdRank.correction` — the §3.2 coarse correction:
  ``Gather(v)`` on splitComm, distributed solve, ``Scatter(v)``
  (:meth:`SpmdRank.coarse_solve`), then the eq. (12) overlap exchange;
* :func:`spmd_gmres` — classical right-preconditioned GMRES with
  distributed vectors: :func:`repro.krylov.gmres` with the rank as its
  ``kernels`` (dots via one ``allreduce`` batch per iteration);
* :func:`spmd_fused_p1_gmres` — **§3.5**: the pipelined p1-GMRES whose
  dot products ride along the coarse-correction Gather/Scatter, with a
  single overlapped ``Iallreduce`` between the masters and *zero*
  additional global synchronisations per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import ReproError
from ..dd.decomposition import Decomposition
from ..krylov.gmres import gmres
from ..krylov.pipelined import _lsq_residual, _lsq_solve
from ..mpi.meter import Meter
from ..mpi.simmpi import Comm, run_spmd
from ..solvers import DistributedCholesky
from .coarse import elect_masters_nonuniform, elect_masters_uniform
from .deflation import DeflationSpace

_TAG_T = 11_000        # algorithm 1 overlap-row exchange
_TAG_Z = 12_000        # eq. (12) correction exchange
_TAG_X = 13_000        # generic vector exchange (matvec / RAS)


# ----------------------------------------------------------------------
# Communicator layout (§3.1.1 / §3.1.2)
# ----------------------------------------------------------------------

@dataclass
class MasterLayout:
    masters: np.ndarray          # world ranks of the P masters
    group: int                   # which splitComm this rank belongs to
    split: Comm                  # my splitComm (master has rank 0)
    master_comm: Comm | None     # masterComm, None on slaves

    @property
    def is_master(self) -> bool:
        return self.master_comm is not None


def build_master_comms(comm: Comm, P: int,
                       nonuniform: bool = False) -> MasterLayout:
    """Create splitComm/masterComm with the chosen master election."""
    N = comm.size
    if nonuniform:
        masters = elect_masters_nonuniform(N, P)
    else:
        masters = elect_masters_uniform(N, P)
    group = int(np.searchsorted(masters, comm.rank, side="right") - 1)
    split = comm.split(group, key=comm.rank)
    is_master = split.rank == 0
    master_comm = comm.split(0 if is_master else None)
    return MasterLayout(masters=masters, group=group, split=split,
                        master_comm=master_comm)


# ----------------------------------------------------------------------
# Per-rank state
# ----------------------------------------------------------------------

@dataclass
class SpmdRank:
    """One rank's handles: local matrices, factorizations, communicators,
    and the distributed coarse solver."""

    comm: Comm
    dec: Decomposition
    index: int
    W: np.ndarray
    layout: MasterLayout
    factor: object                      # factorization of A_dir
    #: T_i = A_dir W_i (algorithm 1 line 3): A·Z·y is exchange(T_i y_i)
    T: np.ndarray
    coarse: DistributedCholesky | None = None
    row_starts: np.ndarray | None = None
    nu_all: np.ndarray | None = None
    #: pristine (unfactorized) coarse row block — only retained with
    #: ``assemble_coarse_spmd(..., keep_rows=True)`` so a repaired run
    #: can refactorize E without redoing algorithms 1-2
    rows: np.ndarray | None = None
    _tag_counter: int = field(default=0)

    @property
    def sub(self):
        return self.dec.subdomains[self.index]

    def reset_tags(self) -> None:
        """Re-align the rotating exchange tag counter (used after a
        communicator repair, where a substitute starts from 0)."""
        self._tag_counter = 0

    def _span(self, label: str):
        """A span on the run's recorder, on this rank's ``rank{r}``
        track (the shared no-op span when the run is un-instrumented)."""
        rec = self.comm.meter.recorder
        if not rec.enabled:
            return rec.span(label)
        return rec.span(label, track=f"rank{self.comm.world_rank}")

    # -- neighbour exchange (the matvec communication pattern) ----------
    def exchange(self, x: np.ndarray, tag_base: int) -> np.ndarray:
        """y = Σ_{j∈Ō_i} R_iR_jᵀ x_j via Isend/Recv with the neighbours.

        Contributions are added in sorted-neighbour order, as
        :meth:`~repro.dd.Decomposition.exchange_sum` adds them, so the
        sum is bitwise independent of message arrival order."""
        sub = self.sub
        comm = self.comm
        self._tag_counter = (self._tag_counter + 1) % 997
        tag = tag_base + self._tag_counter
        for j in sub.neighbors:
            comm.isend(x[sub.shared[j]], j, tag)
        out = x.copy()
        for j in sub.neighbors:
            out[sub.shared[j]] += comm.recv(j, tag)
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """(Ax)_i = Σ_j R_iR_jᵀ A_j D_j x_j (eq. 5)."""
        sub = self.sub
        with self._span("matvec"):
            return self.exchange(sub.A_dir @ (sub.d * x), _TAG_X)

    def ras(self, r: np.ndarray) -> np.ndarray:
        """(P⁻¹_RAS r)_i = Σ_j R_iR_jᵀ D_j A_j⁻¹ r_j."""
        sub = self.sub
        with self._span("local solve"):
            t = sub.d * self.factor.solve(r)
        return self.exchange(t, _TAG_X)

    def dot(self, u: np.ndarray, v: np.ndarray) -> float:
        """Global inner product via the partition of unity + allreduce."""
        local = float((self.sub.d * u) @ v)
        return float(self.comm.allreduce(local))

    def dots(self, pairs: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """Batched inner products — ONE allreduce for the whole batch."""
        local = np.array([(self.sub.d * u) @ v for u, v in pairs])
        return np.asarray(self.comm.allreduce(local))

    # -- the ``kernels=`` seam of :func:`repro.krylov.gmres` --------------
    def norm(self, v: np.ndarray) -> float:
        """Global 2-norm: one allreduce."""
        return float(np.sqrt(self.dot(v, v)))

    def ortho_step(self, V: np.ndarray, w: np.ndarray, H: np.ndarray,
                   j: int, scratch: np.ndarray) -> int:
        """:meth:`repro.kernels.KernelBackend.ortho_step` on distributed
        vectors: classical Gram–Schmidt, ONE batched allreduce for all
        j+1 dots and one for the norm."""
        hcol = self.dots([(w, V[:, k]) for k in range(j + 1)])
        H[:j + 1, j] = hcol
        np.subtract(w, V[:, :j + 1] @ hcol, out=w)
        H[j + 1, j] = self.norm(w)
        if H[j + 1, j] > 0:
            np.divide(w, H[j + 1, j], out=V[:, j + 1])
        return 2

    # -- coarse correction (§3.2) ---------------------------------------
    def coarse_solve(self, u: np.ndarray, h_local: np.ndarray | None = None):
        """y_i, this rank's block of y = E⁻¹ Zᵀ u.

        With *h_local* given, implements the §3.5 fused transfer: the
        local reduction contributions ride the Gather, the masters run a
        single overlapped Iallreduce while solving the coarse system, and
        the reduced values come back with the Scatter.  Returns
        ``(y_i, h_global)`` (``h_global`` is None in the plain mode).
        """
        split = self.layout.split
        w = self.W.T @ u                         # gemv (step 1)
        payload = w if h_local is None else (w, h_local)
        parts = split.gather(payload, root=0, kind="gatherv")
        if self.layout.is_master:
            mc = self.layout.master_comm
            if h_local is None:
                ws = parts
            else:
                ws = [p[0] for p in parts]
                h_sum = np.sum([p[1] for p in parts], axis=0)
                rq = mc.iallreduce(h_sum)        # overlapped with the solve
            wcat = np.concatenate(ws)
            with self._span("coarse solve"):
                y_block = self.coarse.solve(wcat)   # step 2: E⁻¹, masters
            if h_local is not None:
                h_global = rq.wait()
            # split y back into per-slave chunks
            sizes = [len(p) if h_local is None else len(p[0])
                     for p in parts]
            offs = np.concatenate([[0], np.cumsum(sizes)])
            chunks = [y_block[offs[k]:offs[k + 1]]
                      for k in range(len(parts))]
            if h_local is not None:
                chunks = [(c, h_global) for c in chunks]
            got = split.scatter(chunks, root=0, kind="scatterv")
        else:
            got = split.scatter(None, root=0, kind="scatterv")
        if h_local is None:
            return got, None
        return got

    def correction(self, u: np.ndarray, h_local: np.ndarray | None = None):
        """z_i = (Z E⁻¹ Zᵀ u)_i: :meth:`coarse_solve`, step 3 and the
        eq. (12) exchange.  Returns ``(z_i, h_global)``."""
        y, h_global = self.coarse_solve(u, h_local)
        return self.exchange(self.W @ y, _TAG_Z), h_global

    def adef1(self, u: np.ndarray, h_local: np.ndarray | None = None):
        """(P⁻¹_A-DEF1 u)_i — one coarse solve, reused in both terms:
        w = Z y as in :meth:`correction`, and A·w = A·Z·y from the cached
        T — the distributed form of
        :meth:`~repro.core.coarse.CoarseOperator.deflate`, one exchange
        and no local SpMV."""
        y, h_global = self.coarse_solve(u, h_local)
        w = self.exchange(self.W @ y, _TAG_Z)
        v = u - self.exchange(self.T @ y, _TAG_X)
        return self.ras(v) + w, h_global


# ----------------------------------------------------------------------
# Algorithms 1 & 2: distributed assembly of E
# ----------------------------------------------------------------------

def assemble_coarse_spmd(comm: Comm, dec: Decomposition,
                         space: DeflationSpace, P: int, *,
                         nonuniform: bool = False,
                         factor_backend: str = "superlu",
                         keep_rows: bool = False) -> SpmdRank:
    """Run algorithms 1 and 2 on this rank; returns the rank state with
    the distributed coarse factorization installed on the masters."""
    i = comm.rank
    sub = dec.subdomains[i]
    W = space.W[i]
    nu_i = W.shape[1]
    neighbors = sub.neighbors
    layout = build_master_comms(comm, P, nonuniform)
    split = layout.split

    # ---- algorithm 1 -------------------------------------------------
    graph = comm.dist_graph_create_adjacent(neighbors)
    rq_nu = graph.ineighbor_alltoall([nu_i] * len(neighbors))  # line 1
    split.gather(np.array([nu_i, len(neighbors)]), root=0)     # line 2
    T = sub.A_dir @ W                                          # line 3
    nu_neigh = rq_nu.wait()
    for j in neighbors:                                        # lines 4-7
        comm.isend(np.ascontiguousarray(T[sub.shared[j]]), j, _TAG_T)
    blocks: dict[int, np.ndarray] = {}
    blocks[i] = W.T @ T                                        # line 8
    for j in neighbors:                                        # lines 9-12
        U = comm.recv(j, _TAG_T)
        blocks[j] = np.ascontiguousarray(W[sub.shared[j]]).T @ U

    # ---- algorithm 2 -------------------------------------------------
    rank = SpmdRank(comm=comm, dec=dec, index=i, W=W, layout=layout,
                    factor=rank_factor(dec, i, factor_backend), T=T)
    if layout.is_master:
        mc = layout.master_comm
        # line 15: masters share every rank's ν to build the offsets r_i
        group_meta = _regather_group_meta(split, nu_i, len(neighbors))
        all_meta = mc.allgatherv(group_meta)
        nu_all = np.zeros(comm.size, dtype=np.int64)
        for meta in all_meta:
            for world_rank, nu, _ in meta:
                nu_all[world_rank] = nu
        offsets = np.concatenate([[0], np.cumsum(nu_all)])
        # my row block covers the ranks of my splitComm
        group_ranks = [comm.rank + k for k in range(split.size)]
        r0 = offsets[group_ranks[0]]
        r1 = offsets[group_ranks[-1] + 1]
        mdim = int(offsets[-1])
        rows = np.zeros((r1 - r0, mdim))
        # blocks local to the master (lines 20-23)
        _place_blocks(rows, r0, offsets, i, blocks)
        # messages from the slaves (lines 17-19, 25-31)
        for k in range(1, split.size):
            msg = split.recv(k, tag=_TAG_T + 500)
            _unpack_and_place(rows, r0, offsets, group_ranks[k], msg, nu_all)
        # numerical factorization (line 33) — cooperative on masterComm
        master_rows = np.array([offsets[layout.masters[p]]
                                for p in range(mc.size)] + [mdim])
        if keep_rows:
            rank.rows = rows.copy()
        rank.coarse = DistributedCholesky(mc, master_rows, rows)
        rank.row_starts = master_rows
        rank.nu_all = nu_all
    else:
        # lines 35-41: single double-typed message [O_i | E_ii | E_ij ...]
        _regather_group_meta(split, nu_i, len(neighbors))
        msg = np.concatenate(
            [np.asarray(neighbors, dtype=np.float64), blocks[i].ravel()]
            + [blocks[j].ravel() for j in neighbors])
        split.isend(msg, 0, tag=_TAG_T + 500)
    return rank


def rank_factor(dec: Decomposition, i: int, backend: str):
    """Rank *i*'s local factor: the call :class:`~repro.core.ras.OneLevelRAS`
    makes, on the decomposition's kernel backend."""
    return dec.kernels.factorize_local(dec.subdomains[i].A_dir, backend,
                                       spd=dec.is_spd)


def _regather_group_meta(split: Comm, nu_i: int, n_neigh: int):
    """Second gather of (world_rank, ν_i, |O_i|) on splitComm so the
    master can pre-allocate and later decode the slave messages."""
    triple = (split.world_rank, int(nu_i), int(n_neigh))
    return split.gather(triple, root=0)


def _place_blocks(rows, r0, offsets, i, blocks):
    ri = offsets[i]
    for j, blk in blocks.items():
        rows[ri - r0:ri - r0 + blk.shape[0],
             offsets[j]:offsets[j] + blk.shape[1]] = blk


def _unpack_and_place(rows, r0, offsets, slave_world, msg, nu_all):
    """Decode a slave message; the master computes all global indices
    (the slaves never allocate a single index — §3.1.1)."""
    nu = int(nu_all[slave_world])
    # the prefix length |O_i| is deduced from the message size:
    # len = |O| + ν² + ν·Σ_{j∈O} ν_j; read neighbours greedily
    # (we know them exactly from the second gather in practice; the
    # greedy scan reproduces the paper's prepend-O_i protocol)
    size = msg.size
    n_neigh = 0
    acc = nu * nu
    while n_neigh + acc < size:
        j = int(msg[n_neigh])
        acc += nu * int(nu_all[j])
        n_neigh += 1
    neighbors = [int(v) for v in msg[:n_neigh]]
    pos = n_neigh
    ri = offsets[slave_world]
    blk = msg[pos:pos + nu * nu].reshape(nu, nu)
    pos += nu * nu
    rows[ri - r0:ri - r0 + nu, ri:ri + nu] = blk
    for j in neighbors:
        nj = int(nu_all[j])
        blk = msg[pos:pos + nu * nj].reshape(nu, nj)
        pos += nu * nj
        rows[ri - r0:ri - r0 + nu, offsets[j]:offsets[j] + nj] = blk
    if pos != size:  # pragma: no cover - protocol corruption guard
        raise ReproError("slave coarse message decoded incorrectly")


# ----------------------------------------------------------------------
# SPMD Krylov drivers
# ----------------------------------------------------------------------

class IterationTick:
    """The ``health=`` observer of the SPMD solves: one
    ``fault_point("iteration")`` per appended residual, as
    :meth:`repro.resilience.HealthMonitor.observe` does in-process; the
    basis checks (local, unweighted) are not taken."""

    def __init__(self, comm: Comm):
        self.comm = comm

    def observe(self, k: int, residual: float, x=None) -> None:
        self.comm.fault_point("iteration")

    def check_vector(self, name: str, v: np.ndarray, k: int) -> None:
        pass

    def orthogonality(self, k: int, defect: float) -> None:
        pass


def spmd_gmres(rank: SpmdRank, b: np.ndarray, *, tol: float = 1e-6,
               restart: int = 40, maxiter: int = 200,
               two_level: bool = True, x0: np.ndarray | None = None,
               health=None):
    """Classical right-preconditioned GMRES on distributed vectors:
    :func:`repro.krylov.gmres` with the rank as its ``kernels``.

    Per iteration: one matvec + preconditioner, one batched dot allreduce
    and one norm allreduce (two blocking global synchronisations).
    Returns ``(x_i, iterations, residuals)`` on every rank.
    """
    res = gmres(rank.matvec, b, x0=x0, tol=tol, restart=restart,
                maxiter=maxiter, kernels=rank,
                M=(lambda u: rank.adef1(u)[0]) if two_level else rank.ras,
                health=health or IterationTick(rank.comm))
    return res.x, res.iterations, res.residuals


def spmd_fused_p1_gmres(rank: SpmdRank, b: np.ndarray, *, tol: float = 1e-6,
                        restart: int = 40, maxiter: int = 200):
    """The fused p1-GMRES of §3.5 (two-level, *left*-preconditioned:
    the paper's line 2 becomes ``w ← P⁻¹_A-DEF1 A v_i``).

    The dot-product batch produced at the end of iteration i−1 is NOT
    reduced with a blocking allreduce: its local contributions ride the
    coarse-correction Gather of iteration i, the masters reduce them and
    post one Iallreduce on masterComm overlapped with the coarse solve,
    and the reduced values return with the Scatter — zero additional
    global synchronisations per iteration.

    Residuals are preconditioned residuals (left preconditioning);
    convergence detection lags the basis by two iterations, which is
    intrinsic to the pipeline.
    """
    n = b.shape[0]
    x = np.zeros(n)
    d = rank.sub.d
    pb, _ = rank.adef1(b)                       # P⁻¹ b
    bnorm = np.sqrt(rank.dot(pb, pb))
    if bnorm == 0:
        return x, 0, [0.0]
    target = tol * bnorm
    residuals = []
    total_it = 0
    m = restart
    while True:
        rank.comm.fault_point("iteration")
        r, _ = rank.adef1(b - rank.matvec(x))   # P⁻¹(b − Ax)
        beta = np.sqrt(rank.dot(r, r))
        residuals.append(beta / bnorm)
        if beta <= target or total_it >= maxiter:
            break
        V = np.zeros((n, m + 2))
        Z = np.zeros((n, m + 2))
        H = np.zeros((m + 2, m + 1))
        V[:, 0] = r / beta
        Z[:, 0] = V[:, 0]
        finalized = 0
        batch = np.zeros(1)                     # lagged local contributions
        for i in range(m + 1):
            rank.comm.fault_point("iteration")
            # w = P⁻¹ A z_i; the previous batch reduces inside (fused)
            w, red = rank.adef1(rank.matvec(Z[:, i]), h_local=batch)
            # land the values posted at the end of iteration i−1:
            #   i == 1: red = [⟨z_1, v_0⟩]
            #   i >= 2: red = [‖v_{i-1}‖² , ⟨z_i, v_j⟩ j = 0..i−1]
            if i == 1:
                H[0, 0] = red[0]
            elif i > 1:
                H[i - 1, i - 2] = np.sqrt(max(red[0], 0.0))
                H[:i, i - 1] = red[1:i + 1]
            if i > 1:
                eta = H[i - 1, i - 2]
                if eta == 0.0:
                    break                       # lucky breakdown
                V[:, i - 1] /= eta
                Z[:, i] /= eta
                w /= eta
                H[i - 1, i - 1] /= eta * eta
                H[:i - 1, i - 1] /= eta
            if i > 0:
                Z[:, i + 1] = w - Z[:, 1:i + 1] @ H[:i, i - 1]
                V[:, i] = Z[:, i] - V[:, :i] @ H[:i, i - 1]
                total_it += 1
                finalized = i
            else:
                Z[:, i + 1] = w
            # post the next batch (local, non-reduced):
            #   [‖v_i‖²_loc | ⟨z_{i+1}, v_j⟩_loc j = 0..i] (norm absent at i=0)
            dots = (d[:, None] * V[:, :i + 1]).T @ Z[:, i + 1]
            if i == 0:
                batch = dots
            else:
                batch = np.concatenate([[(d * V[:, i]) @ V[:, i]], dots])
            # residual estimate on the fully-landed H̄ prefix (lag 2)
            if i >= 2:
                res = _lsq_residual(H, beta, i - 1)
                residuals.append(res / bnorm)
                if res <= target:
                    break
            if total_it >= maxiter:
                break
        # the trailing subdiagonal norm needs one final (blocking) reduction
        red = rank.dots([(V[:, finalized], V[:, finalized])])
        H[finalized, finalized - 1] = np.sqrt(max(float(red[0]), 0.0))
        k = finalized
        if k:
            # left preconditioning: no M on the update
            x = x + V[:, :k] @ _lsq_solve(H, beta, k)
        rp, _ = rank.adef1(b - rank.matvec(x))
        rtrue = np.sqrt(rank.dot(rp, rp))
        residuals.append(rtrue / bnorm)
        if rtrue <= target or total_it >= maxiter:
            break
    return x, total_it, residuals


# ----------------------------------------------------------------------
# Top-level driver
# ----------------------------------------------------------------------

def solve_spmd(dec: Decomposition, space: DeflationSpace, b: np.ndarray, *,
               num_masters: int = 2, nonuniform: bool = False,
               method: str = "gmres", tol: float = 1e-6, restart: int = 40,
               maxiter: int = 200, two_level: bool = True,
               meter: Meter | None = None, faults=None):
    """Run the full SPMD pipeline: communicator setup, algorithms 1–2,
    distributed factorization, Krylov solve.  Returns
    ``(x_reduced, iterations, residuals, meter)``.

    *faults* (a :class:`repro.resilience.FaultPlan`) arms deterministic
    fault injection on every communicator op and the per-iteration
    ``iteration`` tick of the SPMD Krylov drivers; injected failures
    surface as typed :class:`~repro.common.errors.RankFailure` on every
    surviving rank (never a deadlock).
    """
    N = dec.num_subdomains
    if meter is None:
        meter = Meter(N)
    b_list = dec.restrict(b)

    def rank_main(comm: Comm):
        rank = assemble_coarse_spmd(comm, dec, space, num_masters,
                                    nonuniform=nonuniform)
        bi = b_list[comm.rank]
        if method == "gmres":
            return spmd_gmres(rank, bi, tol=tol, restart=restart,
                              maxiter=maxiter, two_level=two_level)
        if method == "fused-p1":
            return spmd_fused_p1_gmres(rank, bi, tol=tol, restart=restart,
                                       maxiter=maxiter)
        raise ReproError(f"unknown SPMD method {method!r}")

    results = run_spmd(N, rank_main, meter=meter, faults=faults)
    x = dec.combine([res[0] for res in results])
    iterations = results[0][1]
    residuals = results[0][2]
    return x, iterations, residuals, meter
