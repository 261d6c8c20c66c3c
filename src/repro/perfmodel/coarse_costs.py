"""Cost models of the coarse solve at paper scale.

The substrate runs N = 8..64 subdomains; the paper runs N = 256..8192,
where the coarse dimension N·ν makes the factorization of E the scaling
story (§3.4's closing concern).  This module prices one coarse solve
(and the one-off factorization) on the α–β machine model for the two
direct solvers the paper's masters could run:

``dense``
    Fan-out block Cholesky over the P masters
    (:class:`repro.solvers.distributed.DistributedCholesky`): dim³/3
    flops spread over P, but every panel broadcast serialises — the
    O(P · log P) latency term is exactly why the paper's dense direct
    solvers stop scaling past ~hundreds of masters.
``sparse``
    Distributed sparse direct (the MUMPS-on-masterComm regime): the
    fill of the factors follows the subdomain connectivity graph, so
    factorization flops ≈ Σ_r fill(r)² ≈ nnz(L)²/dim and each solve is
    4·nnz(L) flops plus the same gather/scatter plumbing.

Both are models: absolute seconds inherit the CURIE calibration, and
only shape conclusions (crossovers, scaling exponents) are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .machine import CURIE, MachineModel


@dataclass
class CoarseCost:
    """Modelled cost of the coarse solve for one (strategy, N) point."""

    strategy: str
    N: int
    #: masters
    P: int
    dim: int
    nnz: int
    nnz_factor: int
    #: one-off factorization / setup seconds
    t_factorize: float
    #: seconds of ONE coarse solve E⁻¹w
    t_solve: float
    #: bytes moved per solve (critical-path, modelled)
    bytes_solve: float

    def as_row(self) -> list:
        return [self.strategy, self.N, self.P, self.dim, self.nnz,
                self.nnz_factor, self.t_factorize, self.t_solve,
                self.bytes_solve]


def strategy_cost(strategy: str, N: int, nev: int, *,
                  num_masters: int | None = None, neighbors: float = 6.0,
                  fill: float = 12.0,
                  model: MachineModel = CURIE) -> CoarseCost:
    """Price the coarse solve of *strategy* (``dense`` or ``sparse``)
    at decomposition size *N*.

    E has dim = N·ν and one ν×ν block per subdomain pair in contact
    (fig. 4 sparsity).  *fill* is nnz(L)/nnz(E) of the sparse
    factorization (measured values can be passed in to calibrate).
    """
    dim = N * nev
    nnz = int(round(N * (neighbors + 1.0) * nev * nev))
    P = num_masters if num_masters else max(1, N // 8)
    nnz_l = int(round(fill * nnz))
    if strategy == "dense":
        w = max(1.0, dim / P)
        # P serialised panel rounds: triangle bcast + panel allgather
        per_panel = (model.collective("bcast", 8.0 * w * w, P)
                     + model.collective("allgather", 8.0 * w * dim / P, P))
        t_fact = model.compute(dim ** 3 / (3.0 * P)) + P * per_panel
        t_solve = model.compute(2.0 * dim * dim / P) \
            + 2.0 * P * model.collective("bcast", 8.0 * w, P)
        bytes_solve = 2.0 * 8.0 * dim * np.log2(max(P, 2))
        return CoarseCost(strategy, N, P, dim, nnz, dim * dim,
                          t_fact, t_solve, bytes_solve)
    if strategy == "sparse":
        t_fact = model.compute(2.0 * nnz_l * nnz_l / max(dim, 1) / P) \
            + P * model.latency
        t_solve = model.compute(4.0 * nnz_l / P) \
            + 2.0 * P * model.latency \
            + model.collective("gatherv", 8.0 * dim / P, P) \
            + model.collective("scatterv", 8.0 * dim / P, P)
        bytes_solve = 2.0 * 8.0 * dim
        return CoarseCost(strategy, N, P, dim, nnz, nnz_l,
                          t_fact, t_solve, bytes_solve)
    raise ValueError(f"unknown strategy {strategy!r} "
                     f"(expected dense/sparse)")
