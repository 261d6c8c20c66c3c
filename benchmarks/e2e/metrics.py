"""Declared per-layer metrics of ``bench-e2e`` and the statistics the
harness reports.

``BENCHMARK.json`` at the repo root is the contract the pipeline reads:
it names every gated end-to-end metric (unit, direction, regression
bound; ``solve_s`` is measured and printed but carries none) and
the per-layer metrics that exist on *every* workload.  Its schema has
no room for the interaction table, so that lives here: each layer metric
carries a ``moves`` line saying which end-to-end metric it should move,
on which workload, and where it should not.  The self-test checks that
``BENCHMARK.json`` ``per_layer`` is exactly the ``contract`` subset of
:data:`LAYER_METRICS`.

Units decide how ``run.py --compare`` treats a metric: ``count`` and
``B`` are exact (they must repeat bit-for-bit on the same seed), every
other unit is a measurement.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

#: units whose values must be identical across two same-seed runs
EXACT_UNITS = ("count", "B")

_SETUP_LAYER = ("setup_s on convdiff2d (~60 %) and diffusion2d (~35 %); "
                "not time_to_solution_s on elasticity2d_manyrhs beyond "
                "its ~10 % share")
_FACTOR_EIG = ("setup_s on diffusion3d (~60 % together with the other "
               "of factorize/eigensolve); not solve_s anywhere (unless "
               "factor_nnz changes, then solvers.ras_apply_s follows)")
_PARTITION = ("setup_s on diffusion2d and diffusion3d (~10 %); nothing "
              "on convdiff2d (rcb)")
_RHS = ("setup_s on diffusion2d / convdiff2d (~17-19 %: the global "
        "assembly behind problem.rhs()); not solve_s")
_COARSE = ("setup_s on elasticity2d_manyrhs (largest m / n_free); not "
           "diffusion3d (~1 %)")
_APPLY = ("solve_s on every in-process workload; time_to_solution_s "
          "only on elasticity2d_manyrhs; not time_to_solution_s on "
          "diffusion3d / convdiff2d (Krylov < 10 %)")
_ITER = "solve_s proportionally on the same workload; not setup_s"
_MPI_ITER = ("solve_s on diffusion2d_spmd; reported as 0 on every "
             "in-process workload, which sends no simulated-MPI traffic")
_MPI_SETUP = ("setup_s on diffusion2d_spmd; 0 on every in-process "
              "workload")
_SIZE = "input-size invariant: moves only if the workload itself changed"
_TRACE = "harness self-check, moves no end-to-end metric"


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: which end-to-end metric this should move, on which workload, and
    #: the no-change prediction
    moves: str
    #: listed in BENCHMARK.json (emitted for every workload); the rest
    #: exist on ``diffusion2d_spmd`` only and stay in BENCH_e2e.json
    contract: bool = True


def _mpi(method: str) -> list[LayerMetric]:
    p = f"mpi.{method}."
    return [
        LayerMetric(p + "wall_s", "s", "lower", _MPI_ITER, contract=False),
        LayerMetric(p + "iterations", "count", "lower", _MPI_ITER),
        LayerMetric(p + "messages_per_iter", "count", "lower", _MPI_ITER),
        LayerMetric(p + "bytes_per_iter", "B", "lower", _MPI_ITER),
        LayerMetric(p + "global_syncs_per_iter", "count", "lower",
                    _MPI_ITER),
        LayerMetric(p + "setup_messages", "count", "lower", _MPI_SETUP),
        LayerMetric(p + "setup_bytes", "B", "lower", _MPI_SETUP),
        LayerMetric(p + "setup_global_syncs", "count", "lower", _MPI_SETUP),
    ]


LAYER_METRICS: list[LayerMetric] = [
    LayerMetric("mesh.build_s", "s", "lower",
                "setup_s everywhere, by < 2 %"),
    LayerMetric("mesh.cells", "count", "lower", _SIZE),
    LayerMetric("fem.problem_s", "s", "lower",
                "setup_s everywhere, by a few %"),
    LayerMetric("fem.rhs_s", "s", "lower", _RHS),
    LayerMetric("fem.global_matrix_s", "s", "lower",
                "nothing end to end: the residual oracle is untimed"),
    LayerMetric("fem.n_free", "count", "lower", _SIZE),
    LayerMetric("fem.nnz_per_row", "1", "lower", _SIZE),
    LayerMetric("partition.partition_s", "s", "lower", _PARTITION),
    LayerMetric("partition.edge_cut", "count", "lower",
                "dd.local_dofs_total and coarse.nnz through |O_i|"),
    LayerMetric("partition.imbalance", "1", "lower",
                "solvers.factorize_max_s / geneo.eigensolve_max_s"),
    LayerMetric("dd.decomposition_s", "s", "lower", _SETUP_LAYER),
    LayerMetric("dd.local_dofs_total", "count", "lower", _SIZE),
    LayerMetric("dd.overlap_ratio", "1", "lower", _SIZE),
    LayerMetric("dd.matvec_s", "s", "lower", _APPLY),
    LayerMetric("solvers.factorize_s", "s", "lower", _FACTOR_EIG),
    LayerMetric("solvers.factorize_max_s", "s", "lower",
                "the SPMD reading of solvers.factorize_s (max over "
                "subdomains); setup_s on diffusion2d_spmd"),
    LayerMetric("solvers.factor_nnz", "count", "lower", _FACTOR_EIG),
    LayerMetric("solvers.ras_apply_s", "s", "lower", _APPLY),
    LayerMetric("geneo.eigensolve_s", "s", "lower",
                _FACTOR_EIG + "; also setup_s on diffusion2d (~26 %)"),
    LayerMetric("geneo.eigensolve_max_s", "s", "lower",
                "the SPMD reading of geneo.eigensolve_s"),
    LayerMetric("geneo.nu_total", "count", "lower",
                "coarse.dim; krylov.iterations inversely"),
    LayerMetric("geneo.lambda_kept_max", "1", "higher",
                "krylov.iterations (the kept spectrum bounds kappa)"),
    LayerMetric("geneo.deflation_space_s", "s", "lower",
                "setup_s everywhere, by < 1 %"),
    LayerMetric("coarse.build_s", "s", "lower", _COARSE),
    LayerMetric("coarse.dim", "count", "lower", _COARSE),
    LayerMetric("coarse.nnz", "count", "lower", _COARSE),
    LayerMetric("coarse.nnz_factor", "count", "lower", _COARSE),
    LayerMetric("coarse.solve_s", "s", "lower", _APPLY),
    LayerMetric("adef.apply_s", "s", "lower", _APPLY),
    LayerMetric("krylov.wall_s", "s", "lower",
                "time_to_solution_s minus setup_s, same workload"),
    LayerMetric("krylov.iterations", "count", "lower", _ITER),
    LayerMetric("krylov.matvecs", "count", "lower", _ITER),
    LayerMetric("krylov.applies", "count", "lower", _ITER),
    LayerMetric("krylov.matvec_s", "s", "lower", _APPLY),
    LayerMetric("krylov.apply_s", "s", "lower", _APPLY),
    LayerMetric("krylov.ortho_s", "s", "lower", _APPLY),
    LayerMetric("krylov.true_residual", "1", "lower",
                "the answer check: above 10 x tol the solve is a failed "
                "op"),
    *_mpi("gmres"),
    *_mpi("fused_p1"),
    LayerMetric("mpi.overhead_ratio", "1", "lower",
                "solve_s on diffusion2d_spmd (SPMD solve / in-process "
                "solve of the same system)", contract=False),
    LayerMetric("trace.unattributed_frac", "1", "lower", _TRACE),
    LayerMetric("trace.overhead_frac", "1", "lower", _TRACE),
]

LAYER_BY_NAME = {m.name: m for m in LAYER_METRICS}


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> float:
    """Inter-quartile distance as a share of the median — the measure
    the pipeline applies to the ten-run sets; 0 for fewer than two
    samples."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return float((q3 - q1) / med) if med else 0.0


def summarise(values, unit: str) -> dict:
    """Median, sample count, min/max and — from 40 samples on, where at
    least ten lie beyond it — the 75th percentile."""
    values = [float(v) for v in values]
    out = {"value": median(values), "unit": unit, "n": len(values),
           "min": min(values), "max": max(values), "samples": values}
    if len(values) >= 40:
        out["p75"] = float(statistics.quantiles(values, n=4)[2])
    return out
