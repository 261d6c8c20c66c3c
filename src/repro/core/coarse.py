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
the tests); :func:`repro.core.spmd.assemble_coarse_spmd` runs algorithms
1–2 literally over the simulated MPI with the master–slave distribution.
E is solved exactly: a direct factorization (the paper's direct solve
on the masters), degrading to a truncated pseudo-inverse when the
deflation vectors make E singular.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp

from ..common.errors import CoarseSolveError, DecompositionError
from ..parallel import ParallelConfig, parallel_map
from ..solvers import factorize
from .coarse_strategies import get_strategy
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


def csr_from_blocks(space: DeflationSpace,
                    blocks: dict[tuple[int, int], np.ndarray],
                    ) -> sp.csr_matrix:
    """E in canonical CSR straight from the neighbour-block structure.

    Block (i, j) exists iff j ∈ Ō_i and the block keys are unique, so
    the rows are written in one pass: row block i holds the
    horizontally-stacked blocks of its sorted neighbour columns — no
    per-entry COO coordinates and no duplicate-summing pass.
    """
    off = space.offsets
    nu = space.nu
    by_row: dict[int, list[int]] = {}
    for (i, j) in blocks:
        by_row.setdefault(i, []).append(j)
    indptr = np.zeros(space.m + 1, dtype=np.int64)
    indices_parts: list[np.ndarray] = []
    data_parts: list[np.ndarray] = []
    for i in range(len(nu)):
        js = sorted(by_row.get(i, ()))
        if not js:                   # pragma: no cover - empty subdomain
            indptr[off[i] + 1:off[i + 1] + 1] = indptr[off[i]]
            continue
        cols = np.concatenate(
            [np.arange(off[j], off[j + 1]) for j in js])
        vals = np.hstack([blocks[(i, j)] for j in js])
        row_nnz = cols.size
        for r in range(int(nu[i])):
            indices_parts.append(cols)
            data_parts.append(vals[r])
            indptr[off[i] + r + 1] = indptr[off[i] + r] + row_nnz
    return sp.csr_matrix(
        (np.concatenate(data_parts), np.concatenate(indices_parts),
         indptr), shape=(space.m, space.m))


def assemble_coarse_matrix(space: DeflationSpace,
                           parallel: ParallelConfig | str | None = None,
                           ) -> sp.csr_matrix:
    """Sparse E from the block dictionary (global CSR, the masters'
    distributed format in §3.1.1 — here sequential)."""
    return csr_from_blocks(space, coarse_blocks(space, parallel))


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
# Factorization of E
# ----------------------------------------------------------------------

class _PseudoInverse:
    """Truncated-decomposition solve for (near-)singular E.

    Symmetric E goes through ``eigh``.  Nonsymmetric E — where an
    eigendecomposition with real ascending eigenvalues does not exist —
    goes through the SVD instead: ``E⁺ = V_k diag(1/s_k) U_kᵀ`` over the
    singular values above the rank cut.  For symmetric positive
    semi-definite E the two coincide.
    """

    def __init__(self, E, rank_tol: float):
        import scipy.linalg as sla
        from ..common.validation import matrix_is_symmetric
        self.n = E.shape[0]
        if matrix_is_symmetric(E):
            w, V = sla.eigh(E.toarray())
            cut = rank_tol * max(float(w.max()), 1e-300)
            keep = w > cut
            self.rank = int(keep.sum())
            self._U = self._V = V[:, keep]
            self._winv = 1.0 / w[keep]
        else:
            U, s, Vt = sla.svd(E.toarray())
            cut = rank_tol * max(float(s.max()), 1e-300)
            keep = s > cut
            self.rank = int(keep.sum())
            self._U = U[:, keep]
            self._V = Vt[keep].T
            self._winv = 1.0 / s[keep]
        self.nnz_factor = self.n * self.rank

    def solve(self, b):
        c = self._U.T @ b
        scaled = self._winv[:, None] * c if c.ndim == 2 else self._winv * c
        return self._V @ scaled


def robust_direct(E: sp.csr_matrix, backend: str, rank_tol: float):
    """Factorise E directly, falling back to a rank-revealing
    pseudo-inverse.

    Deflation vectors can be (numerically) linearly dependent — e.g.
    near-kernel clusters living inside an overlap are found by both
    neighbouring subdomains — which makes E singular.  A factorization
    of a singular E may silently produce garbage, so one probe solve
    checks it.  The theory only needs E⁻¹ on range(Zᵀ·), so a truncated
    decomposition is the correct and stable generalisation (what MUMPS'
    null-pivot detection provides the paper)."""
    try:
        fact = factorize(E, backend)
        w = np.random.default_rng(0).standard_normal(E.shape[0])
        resid = np.linalg.norm(E @ fact.solve(w) - w)
        if np.isfinite(resid) and resid <= 1e-6 * np.linalg.norm(w):
            return fact
    except Exception:  # noqa: BLE001 - any backend failure → fallback
        pass
    return _PseudoInverse(E, rank_tol)


# ----------------------------------------------------------------------
# Coarse operator driver
# ----------------------------------------------------------------------

class CoarseOperator:
    """Assembled + factorised coarse operator with the §3.2 correction.

    Setup also caches the ``T_i = A_i W_i`` blocks already computed for
    the E assembly (:attr:`T`), so the solve phase computes ``A Z y``
    from them instead of with a global SpMV every iteration: in one pass
    with ``Z y`` over the W_i and T_i blocks (:meth:`deflate`, compiled
    backend), or as one spmv with the sparse :attr:`AZ`, assembled on
    first use.

    Parameters
    ----------
    space:
        The deflation space (defines Z and the block structure of E).
    backend:
        Factorization method for E (see :func:`repro.solvers.factorize`).
    parallel:
        Executor for the per-subdomain assembly gemms.
    recorder:
        Optional :class:`repro.obs.Recorder` — records the assembly
        steps as spans (``assemble_E``, ``factorize_E``, and
        ``assemble_AZ`` when :attr:`AZ` is first used), and every coarse
        solve as a ``coarse_solve`` span counted under the
        ``coarse_solves`` counter.
    kernels:
        Optional :class:`~repro.kernels.KernelBackend`.  The coarse
        solve routes through it — the ``compiled`` backend substitutes
        a probed compiled LDLᵀ mirror of a symmetric E (the fp64
        factorization stays as the fallback and the resilience path) —
        and so do the A-DEF1 transfers (:meth:`zt_dot`, :meth:`deflate`).
    strategy:
        Accepted only so the benchmark harness (``benchmarks/e2e``)
        keeps running until its refresh (ROADMAP item 1): checked by
        :func:`repro.core.coarse_strategies.get_strategy`, then unread.
    """

    def __init__(self, space: DeflationSpace, *, backend: str = "superlu",
                 rank_tol: float = 1e-10,
                 parallel: ParallelConfig | str | None = None,
                 recorder=None, kernels=None, strategy=None):
        from ..kernels import default_backend
        from ..obs.recorder import NULL_RECORDER
        get_strategy(strategy)
        self.space = space
        self.kernels = default_backend() if kernels is None else kernels
        self.recorder = NULL_RECORDER if recorder is None else recorder
        with self.recorder.span("assemble_E"):
            blocks, T = coarse_blocks_with_T(space, parallel)
            self.E = csr_from_blocks(space, blocks)
        #: cached T_i = A_i W_i blocks (block column i of A·Z)
        self.T = T
        self._AZ: sp.csr_matrix | None = None
        #: the kernel backend's coarse transfers from the W_i and T_i
        #: blocks, or ``None`` for the assembled CSR Z, Zᵀ and A·Z
        self._transfers = self.kernels.fuse_deflation(space, T)
        self._rank_tol = rank_tol
        with self.recorder.span("factorize_E"):
            self.factorization = robust_direct(self.E, backend, rank_tol)
        self.rank_deficient = isinstance(self.factorization, _PseudoInverse)
        #: optional kernel mirror of the coarse solve from the kernel
        #: backend (``None`` → use :attr:`factorization` directly)
        self._kernel_solve = self.kernels.make_coarse_solve(self)
        self.solves = 0
        if self.recorder.enabled:
            self.recorder.gauge("coarse.dim", self.E.shape[0])
            self.recorder.gauge("coarse.nnz", self.E.nnz)
            self.recorder.gauge("coarse.nnz_factor", self.nnz_factor())
        #: optional :class:`~repro.resilience.FaultInjector`; fires the
        #: ``coarse_solve`` op on every solve output
        self.injector = None
        #: when True, a non-finite coarse solve triggers the fallback
        #: chain (rebuild as pseudo-inverse, re-solve) instead of raising
        #: :class:`~repro.common.errors.CoarseSolveError` immediately
        self.resilient = False
        #: number of times the pseudo-inverse fallback was taken
        self.fallbacks = 0

    @property
    def dim(self) -> int:
        return int(self.E.shape[0])

    @property
    def AZ(self) -> sp.csr_matrix:
        """Sparse A·Z, assembled from the T blocks on first use (the
        block applies, BNN and the reference transfers need it; the
        compiled A-DEF1 apply does not)."""
        if self._AZ is None:
            with self.recorder.span("assemble_AZ"):
                self._AZ = assemble_az(self.space, self.T)
        return self._AZ

    def solve(self, w: np.ndarray) -> np.ndarray:
        """y = E⁻¹ w (forward elimination + back substitution, §3.2 step 2).

        *w* may be a vector or a column block ``(m, k)``: every
        factorization backend (and the pseudo-inverse fallback) solves
        the whole block through one forward/backward sweep, which is the
        "one coarse solve per iteration for the entire block" property
        the block Krylov drivers rely on — counted as a single solve.
        """
        self.solves += 1
        rec = self.recorder
        if not rec.enabled:
            return self._checked_solve(w)
        rec.add("coarse_solves", 1)
        with rec.span("coarse_solve"):
            return self._checked_solve(w)

    def _checked_solve(self, w: np.ndarray) -> np.ndarray:
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
        """§resilience fallback chain: drop the kernel mirror (if one
        produced the garbage) and retry the fp64 factorization; then
        rebuild E's solve as a truncated pseudo-inverse; a still-broken
        solve raises :class:`~repro.common.errors.CoarseSolveError` so
        the solver can degrade to one-level-only mode."""
        if self._kernel_solve is not None:
            self.fallbacks += 1
            self._kernel_solve = None
            warnings.warn(
                "kernel mirror of the coarse solve produced non-finite "
                "values; dropping it and retrying fp64 on the "
                "factorization of E",
                RuntimeWarning, stacklevel=3)
            if self.recorder.enabled:
                self.recorder.event("recovery.coarse_fallback",
                                    attrs={"to": "fp64"})
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

    def correction_block(self, U: np.ndarray) -> np.ndarray:
        """Z E⁻¹ Zᵀ U for a column block — still one coarse solve."""
        W = self.space.zt_dot_block(U)
        Y = self.solve(W)
        return self.space.z_dot_block(Y)

    def zt_dot(self, u: np.ndarray) -> np.ndarray:
        """Zᵀu (§3.2 step 1) — the kernel backend's pass over the W_i
        blocks, bitwise the CSR product of the reference."""
        if self._transfers is None:
            return self.space.zt_dot(u)
        return self._transfers.zt_dot(u)

    def deflate(self, u: np.ndarray, y: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
        """``(Z y, u − A Z y)`` — the two coarse terms of A-DEF1 for a
        coarse solution *y*: one pass over the W_i and T_i blocks on a
        compiled backend, the CSR Z and A·Z on the reference."""
        if self._transfers is None:
            return self.space.z_dot(y), u - self.AZ @ y
        return self._transfers.deflate(u, y)

    def nnz_factor(self) -> int:
        """Fill of the factors — the paper's nnz(E⁻¹) column (fig. 11)."""
        return int(self.factorization.nnz_factor)
