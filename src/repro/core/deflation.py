"""The deflation matrix Z (paper fig. 3) — block-sparse, assembled once.

Z = [R₁ᵀW₁ R₂ᵀW₂ … R_NᵀW_N] is block-sparse: one dense ``n_i × ν_i``
block per subdomain, rows overlapping where dofs are duplicated.  The
space assembles Z (and its transpose) as CSR on first use, so every
``Zᵀu`` / ``Zy`` through it is a single spmv instead of an N-element
Python loop of gemvs.  The A-DEF1 apply of a compiled kernel backend
needs neither: it reads the W_i blocks in place
(:meth:`repro.core.coarse.CoarseOperator.deflate`), as each SPMD rank
does with its own block (:class:`repro.core.spmd.SpmdRank`).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..common.errors import DecompositionError
from ..common.validation import as_float64_block
from ..dd.decomposition import Decomposition


class DeflationSpace:
    """Per-subdomain deflation blocks W_i and the implicit Z operations.

    The assembled-CSR products (``zt_dot``/``z_dot`` and their block
    forms) are plain scipy spmv/csrmm.  The keyword-only *kernels* is
    accepted for callers that pass their kernel backend to every
    component; no product of the space depends on it, and nothing reads
    it back.
    """

    def __init__(self, dec: Decomposition, W_blocks: list[np.ndarray],
                 *, kernels=None):
        if len(W_blocks) != dec.num_subdomains:
            raise DecompositionError(
                f"expected {dec.num_subdomains} W blocks, got {len(W_blocks)}")
        for s, W in zip(dec.subdomains, W_blocks):
            if W.shape[0] != s.size:
                raise DecompositionError(
                    f"W block of subdomain {s.index} has {W.shape[0]} rows, "
                    f"expected {s.size}")
        self.dec = dec
        self.W = [np.ascontiguousarray(W, dtype=np.float64)
                  for W in W_blocks]
        #: ν_i per subdomain
        self.nu = np.array([W.shape[1] for W in self.W], dtype=np.int64)
        #: global column offsets r_i = Σ_{j<i} ν_j
        self.offsets = np.concatenate([[0], np.cumsum(self.nu)])
        self.m = int(self.offsets[-1])
        self._Z: sp.csr_matrix | None = None
        self._Zt: sp.csr_matrix | None = None

    # ------------------------------------------------------------------
    # Assembled sparse Z (sequential fast path)
    # ------------------------------------------------------------------
    @property
    def Z(self) -> sp.csr_matrix:
        """Sparse Z (n_free × m), assembled lazily and cached."""
        if self._Z is None:
            self._Z = self._assemble_z()
        return self._Z

    @property
    def Zt(self) -> sp.csr_matrix:
        """Cached CSR transpose of Z (row-major spmv for Zᵀu)."""
        if self._Zt is None:
            self._Zt = self.Z.T.tocsr()
        return self._Zt

    def _assemble_z(self) -> sp.csr_matrix:
        dec = self.dec
        rows, cols, vals = [], [], []
        for i, (W, s) in enumerate(zip(self.W, dec.subdomains)):
            r = np.repeat(s.dofs, W.shape[1])
            c = np.tile(np.arange(self.offsets[i], self.offsets[i + 1]),
                        s.size)
            rows.append(r)
            cols.append(c)
            vals.append(W.ravel())
        return sp.csr_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(dec.problem.num_free, self.m))

    # ------------------------------------------------------------------
    def zt_dot(self, u: np.ndarray) -> np.ndarray:
        """w = Zᵀu (§3.2 step 1) — one spmv with the cached Zᵀ."""
        return self.Zt @ u

    def z_dot(self, y: np.ndarray) -> np.ndarray:
        """z = Zy (§3.2 step 3) — one spmv with the cached Z."""
        if y.shape != (self.m,):
            raise DecompositionError(
                f"coarse vector must have shape ({self.m},), got {y.shape}")
        return self.Z @ y

    # ------------------------------------------------------------------
    # Multi-RHS (column-block) forms — one csrmm instead of k csrmvs
    # ------------------------------------------------------------------
    def zt_dot_block(self, U: np.ndarray) -> np.ndarray:
        """W = Zᵀ U for a column block ``U (n_free, k)`` — one csrmm."""
        U = as_float64_block(U, "zt_dot_block", DecompositionError)
        return self.Zt @ U

    def z_dot_block(self, Y: np.ndarray) -> np.ndarray:
        """Z Y for a coarse column block ``Y (m, k)`` — one csrmm."""
        Y = np.asarray(Y)
        if Y.ndim != 2 or Y.shape[0] != self.m:
            raise DecompositionError(
                f"coarse block must have shape ({self.m}, k), "
                f"got {Y.shape}")
        Y = as_float64_block(Y, "z_dot_block", DecompositionError)
        return self.Z @ Y

    # ------------------------------------------------------------------
    def explicit_z(self) -> sp.csr_matrix:
        """Assembled sparse Z — alias of :attr:`Z` (figure 3, tests)."""
        return self.Z
