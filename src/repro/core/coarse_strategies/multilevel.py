"""The multilevel coarse strategy: the method applied to itself.

At the paper's N = 256–8192 the coarse dimension N·ν makes any direct
factorisation of E the scaling wall (§3.4's closing concern).  The cure
is the multilevel design of Seelinger, Reinarz & Scheichl
(arXiv:1906.10944): treat E = ZᵀAZ as a *new* sparse assembled problem
whose unknowns are grouped by level-1 subdomain, and precondition its
solve with a second copy of the method —

* **partition** the level-1 subdomain-connectivity graph (the block
  sparsity of E, fig. 4) into P₂ second-level subdomains;
* **overlap** each part by one layer of neighbouring blocks (δ = 1 in
  the block graph) and factorise the local E-blocks → a level-2 RAS;
* **level-2 coarse space**: Nicolaides (the partition-of-unity
  indicator per part) optionally enriched with the lowest local
  eigenvectors (a small GenEO on E), giving E₂ = Z₂ᵀEZ₂ — tiny, dense;
* **solve inexactly**: a few FGMRES iterations on E preconditioned by
  the additive two-level (RAS + coarse) operator.

The outer correction then costs O(inner · nnz(E)) work instead of a
dim(E)³ factorization — the coarse solve scales like one more level of
the same algorithm.  Because the solve is inexact, the *outer* Krylov
method should be flexible (FGMRES); the solver warns otherwise.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ...common.errors import CoarseSolveError
from .base import CoarseSolveStrategy
from .direct import robust_direct


class MultilevelCoarseSolve:
    """Inexact E-solve: inner FGMRES + level-2 RAS/Nicolaides.

    Parameters
    ----------
    E:
        The assembled coarse matrix (CSR, block structure given by
        *offsets*).
    offsets:
        ``(N + 1,)`` column offsets of the level-1 subdomain blocks.
    neighbor_lists:
        Per level-1 subdomain, the indices of its overlap neighbours
        (the block sparsity of E).
    num_parts:
        P₂ — number of second-level subdomains (default ``max(2, N//8)``,
        the paper-style ~8× coarsening ratio).
    nev2:
        Extra GenEO-style eigenvectors per level-2 subdomain on top of
        the Nicolaides indicator (0 = pure Nicolaides).
    inner_iters:
        Inner FGMRES iteration budget per coarse solve (the
        inexactness knob).
    inner_tol:
        Inner relative-residual target (whichever of budget/tolerance
        is hit first stops the inner solve).
    """

    #: the solve is an inner Krylov iteration, not a fixed linear map
    exact = False

    def __init__(self, E: sp.csr_matrix, offsets: np.ndarray,
                 neighbor_lists, *, num_parts: int | None = None,
                 nev2: int = 0, inner_iters: int = 8,
                 inner_tol: float = 1e-8, local_backend: str = "superlu",
                 recorder=None, seed: int = 0):
        from ...obs.recorder import NULL_RECORDER
        from ...partition import partition_graph
        from ...solvers import factorize
        self.E = E
        self.recorder = NULL_RECORDER if recorder is None else recorder
        #: optional :class:`~repro.resilience.FaultInjector`; fires the
        #: ``coarse_level2`` op on every inner solve output (installed
        #: by :class:`~repro.core.coarse.CoarseOperator`)
        self.injector = None
        offsets = np.asarray(offsets, dtype=np.int64)
        N = offsets.size - 1
        m = int(offsets[-1])
        if N < 4:
            raise CoarseSolveError(
                f"multilevel coarse solve needs >= 4 level-1 subdomains, "
                f"got {N}")
        self.num_parts = int(num_parts) if num_parts \
            else max(2, N // 8)
        self.num_parts = max(2, min(self.num_parts, N // 2))
        self.inner_iters = int(inner_iters)
        self.inner_tol = float(inner_tol)
        #: total inner FGMRES iterations across every coarse solve
        self.inner_iterations = 0
        #: inner iteration count of the most recent solve
        self.last_inner = 0

        # -- level-2 partition of the block-connectivity graph ----------
        rows, cols = [], []
        for i, nbrs in enumerate(neighbor_lists):
            for j in nbrs:
                rows.append(i)
                cols.append(j)
        adj = sp.csr_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(N, N))
        adj = ((adj + adj.T) > 0).astype(np.float64).tocsr()
        self.part = partition_graph(adj, self.num_parts, seed=seed)

        # -- overlapping level-2 subdomains (δ = 1 in the block graph) --
        self._dofs: list[np.ndarray] = []       # E-row index sets
        self._weights: list[np.ndarray] = []    # Boolean PoU (owned rows)
        self._factors = []
        z2_cols: list[np.ndarray] = []          # dense columns of Z2
        z2_rows: list[np.ndarray] = []
        for p in range(self.num_parts):
            owned = np.flatnonzero(self.part == p)
            if owned.size == 0:         # pragma: no cover - degenerate part
                continue
            halo = set(owned.tolist())
            for i in owned:
                halo.update(int(j) for j in neighbor_lists[i])
            blocks = np.array(sorted(halo), dtype=np.int64)
            dofs = np.concatenate(
                [np.arange(offsets[i], offsets[i + 1]) for i in blocks])
            d = np.zeros(dofs.size)
            pos = 0
            for i in blocks:
                width = int(offsets[i + 1] - offsets[i])
                if self.part[i] == p:
                    d[pos:pos + width] = 1.0
                pos += width
            Eloc = E[np.ix_(dofs, dofs)].tocsc()
            self._factors.append(factorize(Eloc, local_backend))
            self._dofs.append(dofs)
            self._weights.append(d)
            # Nicolaides: the PoU indicator of this part, plus nev2
            # low-energy local eigenvectors (a small GenEO on E)
            vecs = [d / np.linalg.norm(d)]
            if nev2 > 0:
                import scipy.linalg as sla
                from ...common.validation import matrix_is_symmetric
                k = min(nev2, dofs.size - 1)
                if matrix_is_symmetric(Eloc):
                    w2, V2 = sla.eigh(Eloc.toarray())
                    low = V2[:, :k]
                else:
                    # nonsymmetric local block: eigh's "ascending real
                    # eigenvalues" contract does not exist — enrich with
                    # the smallest right singular vectors instead (the
                    # near-null directions an inexact solve misses)
                    _, s2, Vt2 = sla.svd(Eloc.toarray())
                    low = Vt2[::-1][:k].T
                for v in (low * d[:, None]).T:
                    nrm = np.linalg.norm(v)
                    if nrm > 0:
                        vecs.append(v / nrm)
            for v in vecs:
                z2_rows.append(dofs)
                z2_cols.append(v)

        # -- level-2 coarse operator E2 = Z2ᵀ E Z2 ----------------------
        m2 = len(z2_cols)
        rows = np.concatenate(z2_rows)
        cols = np.concatenate([np.full(r.size, k) for k, r in
                               enumerate(z2_rows)])
        vals = np.concatenate(z2_cols)
        self.Z2 = sp.csr_matrix((vals, (rows, cols)), shape=(m, m2))
        self.dim2 = m2
        E2 = np.asarray((self.Z2.T @ (E @ self.Z2)).todense())
        from ...common.validation import matrix_is_symmetric
        if matrix_is_symmetric(sp.csr_matrix(E2)):
            # symmetrise only actual round-off: for a genuinely
            # nonsymmetric E, E2 inherits the asymmetry and forcing
            # ½(E2 + E2ᵀ) would change the operator, not clean it
            E2 = 0.5 * (E2 + E2.T)
        from ...solvers.local import DenseFactorization
        self._e2 = DenseFactorization(
            E2, shift=1e-12 * max(float(np.abs(np.diag(E2)).max()), 1e-300))
        self.nnz_factor = int(
            sum(f.nnz_factor for f in self._factors) + m2 * m2)
        if self.recorder.enabled:
            self.recorder.gauge("coarse.l2_parts", self.num_parts)
            self.recorder.gauge("coarse.l2_dim", m2)

    # ------------------------------------------------------------------
    def _apply_m2(self, r: np.ndarray) -> np.ndarray:
        """Additive two-level preconditioner on E: level-2 RAS + the
        Nicolaides/GenEO coarse correction."""
        out = self.Z2 @ self._e2.solve(self.Z2.T @ r)
        for dofs, d, fact in zip(self._dofs, self._weights, self._factors):
            out[dofs] += d * fact.solve(r[dofs])
        return out

    def _solve_one(self, w: np.ndarray) -> np.ndarray:
        from ...krylov import fgmres
        E_mul = (lambda x: self.E @ x)
        res = fgmres(E_mul, w, M=self._apply_m2, tol=self.inner_tol,
                     restart=self.inner_iters, maxiter=self.inner_iters)
        self.inner_iterations += res.iterations
        self.last_inner = res.iterations
        if self.recorder.enabled:
            self.recorder.add("coarse.l2_inner_iterations", res.iterations)
        y = res.x
        if self.injector is not None:
            y = self.injector.fire("coarse_level2", 0, y)
        return y

    def solve(self, w: np.ndarray) -> np.ndarray:
        """Inexact E⁻¹w for a vector or a column block (column loop —
        the inner iteration is the cost knob, not the sweep count)."""
        if w.ndim == 1:
            return self._solve_one(w)
        out = np.empty_like(w, dtype=np.float64)
        for k in range(w.shape[1]):
            out[:, k] = self._solve_one(np.ascontiguousarray(w[:, k]))
        return out


class MultilevelStrategy(CoarseSolveStrategy):
    """Level-2 GenEO/RAS-preconditioned inexact coarse solve."""

    name = "multilevel"
    exact = False

    def __init__(self, *, num_parts: int | None = None, nev2: int = 0,
                 inner_iters: int = 8, inner_tol: float = 1e-8,
                 local_backend: str = "superlu", seed: int = 0):
        self.num_parts = num_parts
        self.nev2 = nev2
        self.inner_iters = inner_iters
        self.inner_tol = inner_tol
        self.local_backend = local_backend
        self.seed = seed

    def build(self, coarse, backend: str, rank_tol: float):
        space = coarse.space
        neighbor_lists = [list(s.neighbors)
                          for s in space.dec.subdomains]
        try:
            return MultilevelCoarseSolve(
                coarse.E, space.offsets, neighbor_lists,
                num_parts=self.num_parts, nev2=self.nev2,
                inner_iters=self.inner_iters, inner_tol=self.inner_tol,
                local_backend=self.local_backend,
                recorder=coarse.recorder, seed=self.seed)
        except Exception:  # noqa: BLE001 - tiny/singular E → direct
            # too few subdomains for a second level, or a local block
            # failed to factorise: degrade to the sparse-direct build
            return robust_direct(coarse, backend, rank_tol)

    def describe(self) -> dict:
        row = super().describe()
        row.update({"num_parts": self.num_parts, "nev2": self.nev2,
                    "inner_iters": self.inner_iters})
        return row
