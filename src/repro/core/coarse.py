"""The coarse operator E = ZᵀAZ (paper §3.1) and its correction (§3.2).

E is assembled block-wise without ever forming A or Z:

* **step 1** (local):  T_i = A_i W_i  (csrmm)  and  E_{i,i} = W_iᵀ T_i (gemm);
* **step 2** (p2p):    exchange S_j = R_jR_iᵀ T_i with every neighbour —
  the cost of one global sparse matrix–vector product;
* **step 3** (local):  E_{i,j} = W_iᵀ U_j (gemm).

The block (i, j) is nonzero iff V_i^δ ∩ V_j^δ ≠ ∅, so the sparsity of E
mirrors the subdomain connectivity (fig. 4: blue diagonal blocks need no
communication, red off-diagonal blocks one neighbour transfer).

This module is the sequential driver (used by the high-level solver and
the tests); :mod:`repro.core.coarse_spmd` runs algorithms 1–2 literally
over the simulated MPI with the master–slave distribution.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp

from ..common.errors import CoarseSolveError, DecompositionError
from ..dd.decomposition import Decomposition
from ..parallel import ParallelConfig, parallel_map
from ..solvers import factorize
from .coarse_strategies import get_strategy
from .coarse_strategies.direct import _PseudoInverse, coo_from_blocks
from .deflation import DeflationSpace


def coarse_blocks_with_T(space: DeflationSpace,
                         parallel: ParallelConfig | str | None = None,
                         ) -> tuple[dict[tuple[int, int], np.ndarray],
                                    list[np.ndarray]]:
    """All blocks E_{i,j} (i row, j ∈ Ō_i) via the three-step algorithm,
    plus the intermediate ``T_i = A_i W_i`` blocks.

    Steps 1 and 3 are per-subdomain local gemms and run under the
    parallel setup engine; step 2 (the neighbour exchange) is index
    plumbing on the already-computed T blocks.  The T blocks are the
    columns of A·Z restricted to each subdomain — returning them lets
    :class:`CoarseOperator` cache A·Z for the solve-phase fast path
    instead of recomputing it with a global SpMV every iteration.
    """
    dec = space.dec
    subs = dec.subdomains
    # step 1: T_i = A_i W_i (csrmm), diagonal block E_{i,i} = W_iᵀ T_i

    def local_products(i: int) -> tuple[np.ndarray, np.ndarray]:
        Ti = subs[i].A_dir @ space.W[i]
        return Ti, space.W[i].T @ Ti

    step1 = parallel_map(local_products, range(len(subs)), parallel)
    T = [t for t, _ in step1]
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for s, (_, Eii) in zip(subs, step1):
        blocks[(s.index, s.index)] = Eii
    # steps 2+3: neighbour exchange of the overlap rows of T, then gemm.
    # E_{i,j} = W_iᵀ R_iR_jᵀ T_j = W_i[shared_ij]ᵀ T_j[shared_ji]

    def off_diag(s) -> list[tuple[tuple[int, int], np.ndarray]]:
        i = s.index
        out = []
        for j in s.neighbors:
            Wi_rows = space.W[i][s.shared[j]]
            Tj_rows = T[j][subs[j].shared[i]]
            out.append(((i, j), Wi_rows.T @ Tj_rows))
        return out

    for part in parallel_map(off_diag, subs, parallel):
        blocks.update(part)
    return blocks, T


def coarse_blocks(space: DeflationSpace,
                  parallel: ParallelConfig | str | None = None,
                  ) -> dict[tuple[int, int], np.ndarray]:
    """The E_{i,j} block dictionary (see :func:`coarse_blocks_with_T`)."""
    return coarse_blocks_with_T(space, parallel)[0]


#: historical COO assembly route, kept under its old private name (the
#: ``dense`` strategy's bitwise-reference path lives in
#: :mod:`repro.core.coarse_strategies.direct`)
_matrix_from_blocks = coo_from_blocks


def assemble_coarse_matrix(space: DeflationSpace,
                           parallel: ParallelConfig | str | None = None,
                           ) -> sp.csr_matrix:
    """Sparse E from the block dictionary (global CSR, the masters'
    distributed format in §3.1.1 — here sequential)."""
    return _matrix_from_blocks(space, coarse_blocks(space, parallel))


def assemble_az(space: DeflationSpace,
                T: list[np.ndarray]) -> sp.csr_matrix:
    """Sparse A·Z (n_free × m) from the cached T_i = A_i W_i blocks.

    Each W_i vanishes on the outermost layer of V_i^δ (the GenEO vectors
    carry the partition of unity), so A R_iᵀ W_i is supported inside
    V_i^δ and A Z = Σ_i R_iᵀ T_i exactly — block column i of A·Z is T_i
    scattered to subdomain i's rows.  Same sparsity as Z itself (fig. 3).
    """
    dec = space.dec
    rows, cols, vals = [], [], []
    for i, (Ti, s) in enumerate(zip(T, dec.subdomains)):
        r = np.repeat(s.dofs, Ti.shape[1])
        c = np.tile(np.arange(space.offsets[i], space.offsets[i + 1]),
                    s.size)
        rows.append(r)
        cols.append(c)
        vals.append(Ti.ravel())
    return sp.csr_matrix(
        (np.concatenate(vals),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(dec.problem.num_free, space.m))


# ----------------------------------------------------------------------
# Master election (§3.1.2, fig. 5)
# ----------------------------------------------------------------------

def elect_masters_uniform(N: int, P: int) -> np.ndarray:
    """Uniform contiguous distribution: masters at ranks i·N/P."""
    if not (1 <= P <= N):
        raise DecompositionError(f"need 1 <= P <= N, got P={P}, N={N}")
    return (np.arange(P) * N) // P


def elect_masters_nonuniform(N: int, P: int) -> np.ndarray:
    """The paper's non-uniform election for symmetric coarse operators:

    p₀ = 0,  p_i = ⌊N − sqrt((p_{i−1} − N)² − N²/P) + 0.5⌋

    chosen so each master's quadrilateral of upper-triangle values holds
    roughly the same count (fig. 5 right).
    """
    if not (1 <= P <= N):
        raise DecompositionError(f"need 1 <= P <= N, got P={P}, N={N}")
    p = np.zeros(P, dtype=np.int64)
    for i in range(1, P):
        val = (p[i - 1] - N) ** 2 - N * N / P
        if val < 0:
            val = 0.0
        p[i] = int(np.floor(N - np.sqrt(val) + 0.5))
        if p[i] <= p[i - 1]:          # guard against degenerate rounding
            p[i] = p[i - 1] + 1
    if p[-1] >= N:  # pragma: no cover - only for tiny N/P combinations
        p = np.minimum(p, np.arange(N - P, N))
    return p


def split_ranges(masters: np.ndarray, N: int) -> list[np.ndarray]:
    """Ranks of each splitComm: master p owns [masters[p], masters[p+1])."""
    bounds = np.concatenate([masters, [N]])
    return [np.arange(bounds[i], bounds[i + 1]) for i in range(len(masters))]


# ----------------------------------------------------------------------
# Coarse operator driver
# ----------------------------------------------------------------------

class CoarseOperator:
    """Assembled + factorised coarse operator with the §3.2 correction.

    Setup also caches the ``T_i = A_i W_i`` blocks already computed for
    the E assembly, both per subdomain (:attr:`T`) and as the assembled
    sparse :attr:`AZ` — so the solve phase computes ``A Z y`` with one
    spmv (or per-subdomain gemvs + overlap exchange in the distributed
    form, :meth:`az_dot_blocks`) instead of a global SpMV every
    iteration.

    Parameters
    ----------
    space:
        The deflation space (defines Z and the block structure of E).
    backend:
        Local factorization backend for E.
    parallel:
        Executor for the per-subdomain assembly gemms.
    recorder:
        Optional :class:`repro.obs.Recorder` — records the assembly
        steps as spans (``assemble_E``, ``assemble_AZ``,
        ``factorize_E``) and counts every coarse solve under the
        ``coarse_solves`` counter.
    kernels:
        Optional :class:`~repro.kernels.KernelBackend`.  The coarse
        solve routes through it — the ``compiled`` backend substitutes
        a probed compiled LDLᵀ mirror of a symmetric E (the strategy's
        factorization stays as the fallback and the resilience path).
    strategy:
        How E y = w is solved — a registry name (``"dense"``,
        ``"sparse"``, ``"multilevel"``) or a ready
        :class:`~repro.core.coarse_strategies.CoarseSolveStrategy`
        instance.  ``None`` resolves ``$REPRO_COARSE_STRATEGY`` and
        falls back to the bitwise-reference ``dense`` strategy.  See
        :mod:`repro.core.coarse_strategies`.
    """

    def __init__(self, space: DeflationSpace, *, backend: str = "superlu",
                 rank_tol: float = 1e-10,
                 parallel: ParallelConfig | str | None = None,
                 recorder=None, kernels=None, strategy=None):
        from ..kernels import default_backend
        from ..obs.recorder import NULL_RECORDER
        self.space = space
        self.kernels = default_backend() if kernels is None else kernels
        self.recorder = NULL_RECORDER if recorder is None else recorder
        #: the :class:`~repro.core.coarse_strategies.CoarseSolveStrategy`
        self.strategy = get_strategy(strategy)
        self._backend = backend
        with self.recorder.span("assemble_E"):
            blocks, T = coarse_blocks_with_T(space, parallel)
            self.E = self.strategy.assemble(space, blocks)
        #: cached T_i = A_i W_i blocks (block column i of A·Z)
        self.T = T
        with self.recorder.span("assemble_AZ"):
            #: assembled sparse A·Z — fixed once the deflation space is
            #: built
            self.AZ = assemble_az(space, T)
        self.rank_deficient = False
        self._rank_tol = rank_tol
        with self.recorder.span("factorize_E"):
            self.factorization = self.strategy.build(self, backend,
                                                     rank_tol)
        #: optional kernel mirror of the coarse solve from the kernel
        #: backend (``None`` → use :attr:`factorization` directly;
        #: inexact strategies never get a mirror)
        self._kernel_solve = self.kernels.make_coarse_solve(self)
        self.solves = 0
        if self.recorder.enabled:
            self.recorder.gauge("coarse.dim", self.E.shape[0])
            self.recorder.gauge("coarse.nnz", self.E.nnz)
            self.recorder.gauge("coarse.nnz_factor", self.nnz_factor())
            self.recorder.event("coarse.strategy", attrs={
                "name": self.strategy.name,
                "exact": bool(getattr(self.factorization, "exact", True))})
        #: optional :class:`~repro.krylov.SolveProfiler` — when attached,
        #: every coarse solve is timed under its ``coarse_solve`` phase
        self.profiler = None
        #: optional :class:`~repro.resilience.FaultInjector`; fires the
        #: ``coarse_solve`` op on every solve output
        self.injector = None
        #: when True, a non-finite coarse solve triggers the fallback
        #: chain (rebuild as pseudo-inverse, re-solve) instead of raising
        #: :class:`~repro.common.errors.CoarseSolveError` immediately
        self.resilient = False
        #: number of times the pseudo-inverse fallback was taken
        self.fallbacks = 0

    def _robust_factorize(self, backend: str, rank_tol: float):
        """Factorise E, falling back to a rank-revealing pseudo-inverse.

        Deflation vectors can be (numerically) linearly dependent — e.g.
        near-kernel clusters living inside an overlap are found by both
        neighbouring subdomains — which makes E singular.  The theory
        only needs E⁻¹ on range(Zᵀ·), so a truncated eigendecomposition
        is the correct and stable generalisation (what MUMPS' null-pivot
        detection provides the paper)."""
        try:
            fact = factorize(self.E, backend)
            # quick health check: a factorization of a singular E may
            # silently produce garbage — verify one solve
            rng = np.random.default_rng(0)
            w = rng.standard_normal(self.E.shape[0])
            y = fact.solve(w)
            resid = np.linalg.norm(self.E @ y - w)
            if np.isfinite(resid) and resid <= 1e-6 * np.linalg.norm(w):
                return fact
        except Exception:  # noqa: BLE001 - any backend failure → fallback
            pass
        self.rank_deficient = True
        return _PseudoInverse(self.E, rank_tol)

    @property
    def dim(self) -> int:
        return int(self.E.shape[0])

    def solve(self, w: np.ndarray) -> np.ndarray:
        """y = E⁻¹ w (forward elimination + back substitution, §3.2 step 2).

        *w* may be a vector or a column block ``(m, k)``: every
        factorization backend (and the pseudo-inverse fallback) solves
        the whole block through one forward/backward sweep, which is the
        "one coarse solve per iteration for the entire block" property
        the block Krylov drivers rely on — counted as a single solve.
        """
        self.solves += 1
        if self.recorder.enabled:
            self.recorder.add("coarse_solves", 1)
        if self.profiler is not None:
            with self.profiler.phase("coarse_solve"):
                return self._checked_solve(w)
        return self._checked_solve(w)

    def _checked_solve(self, w: np.ndarray) -> np.ndarray:
        if self.injector is not None and hasattr(self.factorization,
                                                 "injector"):
            # inexact handles run an inner iteration of their own — give
            # them the injector so level-2 faults land inside the solve
            self.factorization.injector = self.injector
        y = self.factorization.solve(w) if self._kernel_solve is None \
            else self._kernel_solve(w)
        if self.injector is not None:
            y = self.injector.fire("coarse_solve", 0, y)
        if np.all(np.isfinite(y)):
            return y
        # a non-finite coarse solve: a (numerically) singular E, a
        # garbage factorization, or an injected fault
        if not self.resilient:
            raise CoarseSolveError(
                "coarse solve produced non-finite values "
                "(singular E or corrupted factorization)")
        return self._fallback_solve(w)

    def _fallback_solve(self, w: np.ndarray) -> np.ndarray:
        """§resilience fallback chain, strategy-aware: drop the kernel
        mirror (if one produced the garbage) and retry the strategy's
        fp64 factorization; replace an inexact (multilevel)
        solve with a sparse-direct rebuild; then rebuild E's solve as a
        truncated pseudo-inverse; a still-broken solve raises
        :class:`~repro.common.errors.CoarseSolveError` so the solver can
        degrade to one-level-only mode."""
        if self._kernel_solve is not None:
            self.fallbacks += 1
            self._kernel_solve = None
            warnings.warn(
                "kernel mirror of the coarse solve produced non-finite "
                "values; dropping it and retrying fp64 on the "
                "strategy's factorization",
                RuntimeWarning, stacklevel=3)
            if self.recorder.enabled:
                self.recorder.event("recovery.coarse_fallback",
                                    attrs={"to": "fp64"})
            y = self.factorization.solve(w)
            if self.injector is not None:
                y = self.injector.fire("coarse_solve", 0, y)
            if np.all(np.isfinite(y)):
                return y
        if not getattr(self.factorization, "exact", True):
            # an inexact (multilevel) solve went bad — a killed level-2
            # rank or an unlucky inner breakdown; rebuild the coarse
            # solve as an exact sparse-direct factorization of the same E
            self.fallbacks += 1
            warnings.warn(
                "multilevel coarse solve produced non-finite values; "
                "rebuilding as a sparse-direct factorization",
                RuntimeWarning, stacklevel=3)
            if self.recorder.enabled:
                self.recorder.event("recovery.coarse_fallback",
                                    attrs={"to": "sparse_direct"})
            self.factorization = get_strategy("sparse").build(
                self, self._backend, self._rank_tol)
            y = self.factorization.solve(w)
            if self.injector is not None:
                y = self.injector.fire("coarse_solve", 0, y)
            if np.all(np.isfinite(y)):
                return y
        if not isinstance(self.factorization, _PseudoInverse):
            self.fallbacks += 1
            self.rank_deficient = True
            warnings.warn(
                "coarse solve produced non-finite values; rebuilding E's "
                "factorization as a truncated pseudo-inverse",
                RuntimeWarning, stacklevel=3)
            if self.recorder.enabled:
                self.recorder.event("recovery.coarse_fallback",
                                    attrs={"to": "pseudo_inverse"})
            self.factorization = _PseudoInverse(self.E, self._rank_tol)
            y = self.factorization.solve(w)
            if np.all(np.isfinite(y)):
                return y
        raise CoarseSolveError(
            "coarse solve non-finite even after the pseudo-inverse "
            "fallback; the coarse level is unusable")

    def correction(self, u: np.ndarray) -> np.ndarray:
        """Z E⁻¹ Zᵀ u — the coarse correction, one coarse solve."""
        w = self.space.zt_dot(u)
        y = self.solve(w)
        return self.space.z_dot(y)

    def correction_blocks(self, u: np.ndarray) -> np.ndarray:
        """Per-block (pre-assembly) form of :meth:`correction` — the
        distributed/SPMD semantics, kept as the reference path."""
        w = self.space.zt_dot_blocks(u)
        y = self.solve(w)
        return self.space.z_dot_blocks(y)

    def correction_block(self, U: np.ndarray) -> np.ndarray:
        """Z E⁻¹ Zᵀ U for a column block — still one coarse solve."""
        W = self.space.zt_dot_block(U)
        Y = self.solve(W)
        return self.space.z_dot_block(Y)

    def az_dot(self, y: np.ndarray) -> np.ndarray:
        """A Z y via the cached :attr:`AZ` — one spmv, zero global SpMVs
        and zero overlap exchanges (the A-DEF1 fast path)."""
        return self.AZ @ y

    def az_dot_blocks(self, y: np.ndarray) -> np.ndarray:
        """Distributed form of :meth:`az_dot`: per-subdomain gemvs
        ``T_i y_i`` followed by the overlap sum Σ_i R_iᵀ(T_i y_i) — the
        communication of one neighbour exchange, still no global SpMV."""
        off = self.space.offsets
        t_list = [Ti @ y[off[i]:off[i + 1]] for i, Ti in enumerate(self.T)]
        return self.space.dec.combine_raw(t_list)

    def nnz_factor(self) -> int:
        """Fill of the factors — the paper's nnz(E⁻¹) column (fig. 11)."""
        return int(self.factorization.nnz_factor)
