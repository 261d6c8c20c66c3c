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

Per subdomain the C code does the operations of the per-subdomain
reference in the same order, and the subdomains' contributions are
added in index order, so each pass is bitwise equal to its reference
(``tests/test_kernels.py``).  The RAS apply and the matvec run their
subdomains on the kernel library's thread pool, sized to the CPUs the
process may run on; their result does not depend on the thread count.
"""

from __future__ import annotations

import numpy as np

from .csrc import load_library
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


class _SlabPass(_Pass):
    """A pass that runs its subdomains on the kernel library's thread
    pool: subdomain *s* writes its weighted local result into a per-call
    slab at row ``soff[s]``, and the calling thread then adds the slab
    into the output in subdomain order.  ``meta`` holds (kind, n) per
    subdomain; slot 0 of every table row is the subdomain's dofs."""

    def __init__(self, fn, rows, kinds, sizes, n_free: int):
        super().__init__(rows)
        self._meta = np.array([kinds, sizes], dtype=np.int32).T.copy()
        self._meta_p = _address(self._meta)
        #: one int64 slab offset per subdomain, then the slab's rows
        self._soff = np.concatenate(([0], np.cumsum(sizes))).astype(
            np.int64)
        self._soff_p = _address(self._soff)
        self._nsub = len(rows)
        self._fn = fn
        self.n_free = n_free

    def _fill(self, x, slab):
        """Write the slab rows the C pass leaves to Python."""

    def _run(self, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        m = 1 if x.ndim == 1 else x.shape[1]
        out = np.zeros((self.n_free,) + x.shape[1:])
        slab = np.empty(int(self._soff[-1]) * m)
        self._fill(x, slab)
        if self._fn(self._nsub, self._meta_p, self._tab, self._soff_p,
                    _address(x), _address(out), _address(slab), m):
            raise MemoryError("no workspace for the compiled pass")
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._run(x)

    def apply_block(self, X: np.ndarray) -> np.ndarray:
        """:meth:`apply` for an ``(n_free, m)`` block; each column
        bitwise equal to its vector apply."""
        return self._run(X)


def _configure_pool(threads: int = 0, schedule: str = "any") -> None:
    """Test hook: size the kernel library's thread pool to *threads*
    (0: the affinity mask) and force its claim *schedule* — ``"any"``,
    ``"caller"`` (the workers claim nothing) or ``"workers"`` (the
    calling thread claims nothing).  Waits for a pass in flight."""
    load_library().pool_configure(
        threads, ("any", "caller", "workers").index(schedule))


# ----------------------------------------------------------------------
# RAS: Σ_i R_iᵀ D_i A_i⁻¹ R_i r
# ----------------------------------------------------------------------

#: kind codes of ``ras_apply_f64``; a _FILLED subdomain's slab rows are
#: written by Python before the call
_LDL, _LU, _FILLED = 0, 1, 2


def _ras_row(fact, s) -> tuple[int, list[np.ndarray]]:
    if isinstance(fact, SymmetricLDLFactorization):
        # the last two slots are unused by an LDLᵀ
        return _LDL, [s.dofs, s.d, fact.piv_in, fact.piv_out, fact.indptr,
                      fact.rowind, fact.lval, fact.dinv, fact.dinv,
                      fact.dinv]
    if isinstance(fact, ExportedLUFactorization):
        return _LU, [s.dofs, s.d, fact.piv_in, fact.piv_out,
                     fact.l_indptr, fact.l_rowind, fact.lval,
                     fact.u_indptr, fact.u_rowind, fact.uval]
    # a factor the probe rejected: only its dofs are read
    return _FILLED, [s.dofs] * 10


class FusedRAS(_SlabPass):
    """The weighted RAS apply ``Σ_i R_iᵀ D_i A_i⁻¹ R_i`` as one compiled
    pass over the exported local factors: per subdomain, gather
    ``r[dofs[piv_in]]``, LDLᵀ or LU solve in place, write
    ``d[piv_out] · z`` to the slab, then the ordered scatter.  A
    subdomain that kept a reference factor (its export was rejected by
    the probe) writes ``d · solve(r[dofs])`` into its own slab rows, so
    it keeps its place in the order."""

    def __init__(self, lib, factorizations, subdomains, n_free: int):
        kinds, rows = zip(*(_ras_row(f, s)
                            for f, s in zip(factorizations, subdomains)))
        super().__init__(lib.ras_apply_f64, list(rows), kinds,
                         [len(s.dofs) for s in subdomains], n_free)
        self._filled = [(int(self._soff[i]), f, s.dofs, s.d)
                        for i, (k, f, s) in enumerate(
                            zip(kinds, factorizations, subdomains))
                        if k == _FILLED]

    def _fill(self, r, slab):
        for off, fact, dofs, d in self._filled:
            sol = fact.solve(r[dofs])
            m = 1 if sol.ndim == 1 else sol.shape[1]
            np.multiply(d if sol.ndim == 1 else d[:, None], sol,
                        out=slab[off * m:(off + len(dofs)) * m].reshape(
                            sol.shape))


# ----------------------------------------------------------------------
# Matvec: Σ_j R_jᵀ A_j D_j R_j x
# ----------------------------------------------------------------------

class FusedMatvec(_SlabPass):
    """``A x = Σ_j R_jᵀ A_j D_j R_j x`` in one compiled pass: per
    subdomain ``t = d · x[dofs]``, then every CSR row of ``A_dir``
    summed from zero in storage order and added at its dof — the
    operations of ``out[s.dofs] += s.A_dir @ (s.d * x[s.dofs])``."""

    def __init__(self, lib, subdomains, n_free: int):
        super().__init__(lib.matvec_f64,
                         [[s.dofs, s.d, s.A_dir.indptr, s.A_dir.indices,
                           s.A_dir.data] for s in subdomains],
                         [0] * len(subdomains),
                         [s.size for s in subdomains], n_free)

    @staticmethod
    def supports(subdomains) -> bool:
        """The kernel reads int32 CSR and fp64 values."""
        return reads_in_place(subdomains) and all(
            s.A_dir.format == "csr"
            and _typed(s.A_dir.indptr, np.int32)
            and _typed(s.A_dir.indices, np.int32)
            and _typed(s.A_dir.data, np.float64) for s in subdomains)


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
