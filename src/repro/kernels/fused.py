"""Whole-operator compiled passes of the solve phase.

Each class here applies one operator of a Krylov iteration with **one**
compiled call over every subdomain (:mod:`.csrc`): the RAS apply
(:class:`FusedRAS`), the matvec (:class:`FusedMatvec`) and the A-DEF1
coarse transfers (:class:`FusedDeflation`).  The call reads a table of
per-subdomain pointers into storage the Python objects already hold —
the subdomains' CSR matrices, dofs and partition of unity, the exported
local factors, the deflation blocks W_i and T_i — so building a pass
copies no per-subdomain array; it holds references to every array it
points into, which keeps the addresses valid for its lifetime.

The C loops walk the subdomains in index order and do, per subdomain,
the operations of the per-subdomain reference in the same order, so
each pass is bitwise equal to its reference (``tests/test_kernels.py``).
"""

from __future__ import annotations

import numpy as np

from .factor import ExportedLUFactorization, SymmetricLDLFactorization


def _address(arr: np.ndarray) -> int:
    return arr.ctypes.data


def _typed(arr: np.ndarray, dtype) -> bool:
    return arr.dtype == dtype and arr.flags.c_contiguous


def reads_in_place(subdomains) -> bool:
    """Whether the passes can read these subdomains in place: int64
    ``dofs`` and fp64 ``d``, contiguous (what
    :class:`~repro.dd.Decomposition` builds)."""
    return all(_typed(s.dofs, np.int64) and _typed(s.d, np.float64)
               for s in subdomains)


class _Pass:
    """A pointer table (``slots`` addresses per subdomain) and the
    arrays it points into."""

    def __init__(self, rows: list[list[np.ndarray]]):
        self._keep = [a for row in rows for a in row]
        self._table = np.array([[_address(a) for a in row] for row in rows],
                               dtype=np.uintp).reshape(len(rows), -1)
        self._tab = _address(self._table)


# ----------------------------------------------------------------------
# RAS: Σ_i R_iᵀ D_i A_i⁻¹ R_i r
# ----------------------------------------------------------------------

#: kind codes of ``ras_apply_f64``
_LDL, _LU = 0, 1


def _ras_row(fact, s) -> tuple[int, list[np.ndarray]]:
    head = [s.dofs, s.d, fact.piv_in, fact.piv_out]
    if isinstance(fact, SymmetricLDLFactorization):
        # the last two slots are unused by an LDLᵀ
        return _LDL, head + [fact.indptr, fact.rowind, fact.lval,
                             fact.dinv, fact.dinv, fact.dinv]
    return _LU, head + [fact.l_indptr, fact.l_rowind, fact.lval,
                        fact.u_indptr, fact.u_rowind, fact.uval]


class _RASRun(_Pass):
    """Consecutive subdomains with exported factors: one C call."""

    def __init__(self, lib, pairs):
        kinds, rows = zip(*(_ras_row(f, s) for f, s in pairs))
        super().__init__(list(rows))
        self._meta = np.array([[k, f.n] for k, (f, _) in zip(kinds, pairs)],
                              dtype=np.int32)
        self._meta_p = _address(self._meta)
        self._nsub = len(pairs)
        self._lib = lib

    def apply(self, r, out, z):
        self._lib.ras_apply_f64(self._nsub, self._meta_p, self._tab,
                                _address(r), _address(out), _address(z))

    def apply_block(self, R, out, Z):
        self._lib.ras_apply_block_f64(
            self._nsub, self._meta_p, self._tab, _address(R),
            _address(out), _address(Z), R.shape[1])


class _PlainRun:
    """A subdomain whose factor stayed the reference one (its export
    was rejected by the probe): the reference solve, in its place."""

    def __init__(self, fact, s):
        self.fact, self.dofs, self.d = fact, s.dofs, s.d

    def apply(self, r, out, z):
        out[self.dofs] += self.d * self.fact.solve(r[self.dofs])

    def apply_block(self, R, out, Z):
        out[self.dofs] += self.d[:, None] * self.fact.solve(R[self.dofs])


class FusedRAS:
    """The weighted RAS apply ``Σ_i R_iᵀ D_i A_i⁻¹ R_i`` as one compiled
    call over the exported local factors: per subdomain, gather
    ``r[dofs[piv_in]]``, LDLᵀ or LU solve in place, scatter-add
    ``d[piv_out] · z`` at ``dofs[piv_out]``.  A subdomain that kept a
    reference factor splits the call and is applied between the two
    halves, so the accumulation order is the subdomain order."""

    def __init__(self, lib, factorizations, subdomains, n_free: int):
        self.n_free = n_free
        exported = (SymmetricLDLFactorization, ExportedLUFactorization)
        self._runs, pending = [], []
        for fact, s in zip(factorizations, subdomains):
            if isinstance(fact, exported):
                pending.append((fact, s))
                continue
            if pending:
                self._runs.append(_RASRun(lib, pending))
                pending = []
            self._runs.append(_PlainRun(fact, s))
        if pending:
            self._runs.append(_RASRun(lib, pending))
        self._nmax = max((f.n for f in factorizations
                          if isinstance(f, exported)), default=0)

    def apply(self, r: np.ndarray) -> np.ndarray:
        r = np.ascontiguousarray(r, dtype=np.float64)
        out = np.zeros(self.n_free)
        z = np.empty(self._nmax)
        for run in self._runs:
            run.apply(r, out, z)
        return out

    def apply_block(self, R: np.ndarray) -> np.ndarray:
        """:meth:`apply` for an ``(n_free, m)`` block; each column
        bitwise equal to its vector apply."""
        R = np.ascontiguousarray(R, dtype=np.float64)
        out = np.zeros(R.shape)
        Z = np.empty((self._nmax, R.shape[1]))
        for run in self._runs:
            run.apply_block(R, out, Z)
        return out


# ----------------------------------------------------------------------
# Matvec: Σ_j R_jᵀ A_j D_j R_j x
# ----------------------------------------------------------------------

class FusedMatvec(_Pass):
    """``A x = Σ_j R_jᵀ A_j D_j R_j x`` in one compiled call: per
    subdomain ``t = d · x[dofs]``, then every CSR row of ``A_dir``
    summed from zero in storage order and added at its dof — the
    operations of ``out[s.dofs] += s.A_dir @ (s.d * x[s.dofs])``."""

    def __init__(self, lib, subdomains, n_free: int):
        super().__init__([[s.A_dir.indptr, s.A_dir.indices, s.A_dir.data,
                           s.dofs, s.d] for s in subdomains])
        self._meta = np.array([s.size for s in subdomains], dtype=np.int32)
        self._meta_p = _address(self._meta)
        self._nsub = len(subdomains)
        self._nmax = int(self._meta.max(initial=0))
        self.n_free = n_free
        self._lib = lib

    @staticmethod
    def supports(subdomains) -> bool:
        """The kernel reads int32 CSR and fp64 values."""
        return reads_in_place(subdomains) and all(
            s.A_dir.format == "csr"
            and _typed(s.A_dir.indptr, np.int32)
            and _typed(s.A_dir.indices, np.int32)
            and _typed(s.A_dir.data, np.float64) for s in subdomains)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        out = np.zeros(self.n_free)
        t = np.empty(self._nmax)
        self._lib.matvec_f64(self._nsub, self._meta_p, self._tab,
                             _address(x), _address(out), _address(t))
        return out

    def apply_block(self, X: np.ndarray) -> np.ndarray:
        """:meth:`apply` for an ``(n_free, m)`` block; each column
        bitwise equal to its vector matvec."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        m = X.shape[1]
        out = np.zeros(X.shape)
        T = np.empty((self._nmax, m))
        acc = np.empty(m)
        self._lib.matvec_block_f64(self._nsub, self._meta_p,
                                   self._tab, _address(X), _address(out),
                                   _address(T), _address(acc), m)
        return out


# ----------------------------------------------------------------------
# A-DEF1 coarse transfers from the W_i and T_i blocks
# ----------------------------------------------------------------------

class FusedDeflation(_Pass):
    """The coarse transfers of A-DEF1 from the dense per-subdomain
    blocks, as :class:`~repro.core.spmd.SpmdRank` computes them:
    ``Zᵀu`` (the W_iᵀ u_i concatenated) in one call, and ``Z y`` with
    ``u − A Z y`` (Σ_i R_iᵀ W_i y_i and Σ_i R_iᵀ T_i y_i) in a second —
    no assembled Z, Zᵀ or A·Z.  Per entry the sums run in the storage
    order of those CSR forms, so the results are bitwise theirs."""

    def __init__(self, lib, subdomains, W, T, offsets, n_free: int):
        W = [np.ascontiguousarray(w, dtype=np.float64) for w in W]
        T = [np.ascontiguousarray(t, dtype=np.float64) for t in T]
        super().__init__([[s.dofs, w, t]
                          for s, w, t in zip(subdomains, W, T)])
        self._meta = np.array(
            [[s.size, w.shape[1], off]
             for s, w, off in zip(subdomains, W, offsets[:-1])],
            dtype=np.int64).reshape(len(W), 3)
        self._meta_p = _address(self._meta)
        self._nsub = len(W)
        self.m = int(offsets[-1])
        self.n_free = n_free
        self._lib = lib

    def zt_dot(self, u: np.ndarray) -> np.ndarray:
        """Zᵀu."""
        u = np.ascontiguousarray(u, dtype=np.float64)
        out = np.empty(self.m)
        self._lib.zt_dot_f64(self._nsub, self._meta_p, self._tab,
                             _address(u), _address(out))
        return out

    def deflate(self, u: np.ndarray, y: np.ndarray):
        """``(Z y, u − A Z y)``."""
        u = np.ascontiguousarray(u, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        w = np.empty(self.n_free)
        v = np.empty(self.n_free)
        self._lib.deflate_f64(self._nsub, self._meta_p, self._tab,
                              _address(u), _address(y), _address(w),
                              _address(v), self.n_free)
        return w, v
