"""Scaling harness: regenerates the rows of figures 8, 10 and 11.

Methodology (documented per experiment in EXPERIMENTS.md):

* *factorization* and *deflation* columns are **measured** — each
  subdomain's local factorization / GenEO eigensolve is timed separately
  and the SPMD wall-clock is the max over subdomains (all ranks run
  concurrently in the paper's setting);
* the *solution* column combines the measured per-subdomain iteration
  work (sequential time / N) with **modelled** communication from the
  decomposition's actual exchange sizes and the α–β machine model;
* figure 11's assembly time is modelled from the actual metered traffic
  of the SPMD run of algorithms 1–2 plus a dense-panel factorization
  flop model for the masters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.solver import SchwarzSolver
from .machine import CURIE, MachineModel


@dataclass
class ScalingRow:
    """One row of the figure-8/10 tables."""

    N: int
    factorization: float
    deflation: float
    solution: float
    iterations: int
    dofs: int

    @property
    def total(self) -> float:
        return self.factorization + self.deflation + self.solution

    def as_tuple(self):
        return (self.N, self.factorization, self.deflation, self.solution,
                self.iterations, self.total, self.dofs)


def iteration_comm_time(solver: SchwarzSolver, model: MachineModel,
                        num_masters: int) -> float:
    """Modelled communication seconds of ONE preconditioned iteration.

    A-DEF1 + GMRES: 4 overlap exchanges (operator matvec, correction
    prolongation, the matvec inside (I − AQ), RAS prolongation), the
    splitComm Gather(v)/Scatter(v) of the coarse solve, the masters'
    triangular solves, and two global reductions.
    """
    dec = solver.decomposition
    N = dec.num_subdomains
    P = max(1, num_masters)
    # worst-rank p2p volume of one exchange
    per_rank = []
    for s in dec.subdomains:
        nbytes = sum(8 * s.shared[j].size for j in s.neighbors)
        per_rank.append(model.p2p(nbytes, messages=len(s.neighbors)))
    exchange = max(per_rank) if per_rank else 0.0
    nu_max = int(solver.nu.max()) if solver.nu.size else 0
    split_size = max(1, N // P)
    gather = model.collective("gatherv", 8 * nu_max * split_size, split_size)
    scatter = model.collective("scatterv", 8 * nu_max * split_size, split_size)
    dim_e = solver.coarse_dim
    coarse_solve = model.compute(2.0 * dim_e * dim_e / P) \
        + P * model.latency          # pipelined block substitutions
    reductions = 2 * model.collective("allreduce", 64, N)
    n_exchanges = 4 if solver.coarse is not None else 2
    return n_exchanges * exchange + gather + scatter + coarse_solve \
        + reductions


def _robust_max(times) -> float:
    """SPMD wall-clock estimate of a concurrent phase.

    Ideally the max over ranks; on a single shared core the max of many
    small measurements is badly biased by scheduler noise, so beyond a
    handful of ranks we use the 90th percentile instead."""
    times = np.asarray(list(times), dtype=np.float64)
    if times.size <= 8:
        return float(times.max())
    return float(np.percentile(times, 90))


def measure_row(solver: SchwarzSolver, *, tol: float = 1e-6,
                restart: int = 40, maxiter: int = 400,
                model: MachineModel = CURIE,
                num_masters: int | None = None,
                repeats: int = 2) -> ScalingRow:
    """Solve and convert measurements into one table row.

    The local phases are re-timed *repeats* times and the best (minimum)
    is kept — the standard defence against single-core scheduler noise
    on measurements in the millisecond range.
    """
    from ..core.ras import OneLevelRAS
    from ..core.geneo import compute_deflation
    import time as _time

    N = solver.decomposition.num_subdomains
    if num_masters is None:
        num_masters = max(1, N // 8)
    report = solver.solve(tol=tol, restart=restart, maxiter=maxiter)
    fact_times = list(solver.one_level.factor_times)
    defl_times = list(getattr(solver, "deflation_times",
                              [0.0] * N)) or [0.0] * N
    nev = int(solver.nu.max()) if solver.nu.size else 0
    for _ in range(max(0, repeats - 1)):
        redo = OneLevelRAS(solver.decomposition,
                           backend=solver.one_level.backend)
        fact_times = np.minimum(fact_times, redo.factor_times).tolist()
        if nev:
            redo_defl = []
            for s in solver.decomposition.subdomains:
                t0 = _time.perf_counter()
                compute_deflation(s, nev=nev, seed=s.index)
                redo_defl.append(_time.perf_counter() - t0)
            defl_times = np.minimum(defl_times, redo_defl).tolist()
    fact = _robust_max(fact_times)
    defl = _robust_max(defl_times)
    t_seq = solver.timer.seconds("solution")
    comm = iteration_comm_time(solver, model, num_masters)
    solution = t_seq / N + report.iterations * comm
    return ScalingRow(N=N, factorization=fact, deflation=defl,
                      solution=solution, iterations=report.iterations,
                      dofs=solver.problem.space.num_dofs)


def speedup(rows: list[ScalingRow]) -> np.ndarray:
    """Total-time speedup relative to the smallest decomposition."""
    base = rows[0].total
    return np.array([base / r.total for r in rows])


def weak_efficiency(rows: list[ScalingRow]) -> np.ndarray:
    """The paper's weak-scaling metric:
    (t₀ · dof_N) / (t_N · dof₀ · (N/N₀))."""
    base = rows[0]
    out = []
    for r in rows:
        out.append((base.total * r.dofs) /
                   (r.total * base.dofs * (r.N / base.N)))
    return np.array(out)


# ----------------------------------------------------------------------
# Figure-11 report: the coarse operator
# ----------------------------------------------------------------------

@dataclass
class CoarseReport:
    """One row of the figure-11 table."""

    N: int
    P: int
    dim_e: int
    avg_neighbors: float
    nnz_factor: int
    time: float


def coarse_operator_report(solver: SchwarzSolver, *, num_masters: int,
                           nonuniform: bool = False,
                           strategy: str = "dense",
                           model: MachineModel = CURIE) -> CoarseReport:
    """Assemble E over the simulated MPI (algorithms 1–2) and report the
    figure-11 columns with a modelled assembly + factorization time.

    *strategy* selects the factorization cost model: ``dense`` prices
    the masters' fan-out Cholesky (dim³/(3P) on the critical path),
    ``sparse`` the MUMPS-regime sparse direct (Σ fill² ≈ nnz(L)²/dim).
    The assembly communication is metered, not modelled.
    """
    from ..core.spmd import assemble_coarse_spmd
    from ..mpi import Meter, run_spmd
    from ..solvers import SparseLDL, reverse_cuthill_mckee

    dec = solver.decomposition
    space = solver.deflation
    N = dec.num_subdomains
    meter = Meter(N)

    def rank_main(comm):
        assemble_coarse_spmd(comm, dec, space, num_masters,
                             nonuniform=nonuniform)
        return None

    run_spmd(N, rank_main, meter=meter)
    comm_time = model.model_meter(meter, nranks=max(2, N // num_masters))
    dim_e = solver.coarse_dim
    # fill of a *sparse* factorization of E (what MUMPS/PWSMP would store)
    E = solver.coarse.E
    ldl = SparseLDL(E, perm=reverse_cuthill_mckee(E),
                    shift=1e-12 * abs(E.diagonal()).max())
    if strategy == "dense":
        # masters factorize dense panels: ~ (dim_e)³/(3P) flops on the
        # critical path (fan-out Cholesky)
        fact_time = model.compute(dim_e ** 3 / (3.0 * num_masters))
    elif strategy == "sparse":
        fact_time = model.compute(
            2.0 * ldl.nnz_factor ** 2 / max(dim_e, 1) / num_masters)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return CoarseReport(
        N=N, P=num_masters, dim_e=dim_e,
        avg_neighbors=float(dec.neighbor_counts().mean()),
        nnz_factor=ldl.nnz_factor,
        time=comm_time + fact_time)
