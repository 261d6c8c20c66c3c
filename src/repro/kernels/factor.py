"""Exported local factorizations.

The paper's local solves are "factorise once, apply thousands of times".
The ``compiled`` backend exploits two structural facts:

* every FEM local matrix has a symmetric sparsity pattern, so SuperLU
  orders it by minimum degree on ``Aᵀ + A`` — in **symmetric mode**
  (:data:`~repro.solvers.local.SYMMETRIC_OPTIONS`, diagonal pivots only)
  for an SPD matrix, giving an LDLᵀ-shaped factor, and in general mode
  (:func:`~repro.solvers.local.splu_general`) for a nonsymmetric one,
  giving an LU with about half the fill of COLAMD — the same factors
  the reference backend keeps;
* the factor can be exported to raw CSC arrays once and re-applied by a
  tight compiled loop (:mod:`.csrc`), with the permutations folded into
  the gather/scatter of the one-call RAS apply (:class:`~.fused.FusedRAS`):
  L plus D⁻¹ for an LDLᵀ (:class:`SymmetricLDLFactorization`), L and U
  for an LU (:class:`ExportedLUFactorization`), all in fp64.  Exporting
  drops SuperLU's supernodal storage, which holds explicit zeros.

An exported factor is validated by a probe solve before it is trusted
(:func:`probe_factorization`); callers fall back to the reference fp64
factorization when the probe fails, so accuracy regressions degrade to
the slow-but-exact path instead of corrupting the preconditioner.
"""

from __future__ import annotations

import ctypes as ct

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..common.errors import SolverError, SymmetryError
from ..solvers.local import (SYMMETRIC_OPTIONS, Factorization,
                             _probably_symmetric, splu_general)


def _ptr(arr: np.ndarray, ctype=ct.c_double):
    return arr.ctypes.data_as(ct.POINTER(ctype))


class _ExportedFactor(Factorization):
    """A factor held as raw arrays and applied by one compiled in-place
    pass: ``z = b[piv_in]``, solve on *z*, ``x[piv_out] = z``.
    Subclasses set ``piv_in``/``piv_out``, the kernels
    ``_solve_fn``/``_solve_block_fn`` and their leading ``_args`` (the
    factor arrays)."""

    def solve_permuted_inplace(self, z: np.ndarray) -> None:
        """In-place solve of the already-permuted workspace *z*
        (``z = b[piv_in]`` on entry, ``x[piv_out]`` on exit)."""
        self._solve_fn(*self._args, _ptr(z), ct.c_int32(self.n))

    def solve_block_permuted_inplace(self, Z: np.ndarray) -> None:
        """:meth:`solve_permuted_inplace` for a C-contiguous ``(n, m)``
        block: one sweep over the factor for all *m* columns, each
        column bitwise equal to its vector solve."""
        self._solve_block_fn(*self._args, _ptr(Z), ct.c_int32(self.n),
                             ct.c_int32(Z.shape[1]))

    def solve(self, b):
        b = np.asarray(b, dtype=np.float64)
        z = np.ascontiguousarray(b[self.piv_in])
        if b.ndim == 1:
            self.solve_permuted_inplace(z)
        else:
            self.solve_block_permuted_inplace(z)
        out = np.empty(b.shape)
        out[self.piv_out] = z
        return out


class SymmetricLDLFactorization(_ExportedFactor):
    """Symmetric-mode SuperLU factor exported to raw LDLᵀ-solve arrays.

    The factor L is stored once as CSC arrays — diagonal entry first per
    column, so the same arrays serve the forward sweep and, read as CSR
    of Lᵀ, the backward sweep — together with D⁻¹, the SuperLU object
    is dropped, and every solve is one compiled in-place pass
    (``ldl_solve_f64``) over *lib*, the compiled kernel library.
    """

    def __init__(self, A, lib=None):
        A = sp.csc_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise SolverError(f"matrix must be square, got {A.shape}")
        if not _probably_symmetric(A):
            # SuperLU symmetric mode (no pivoting, MMD on AᵀA + A) is
            # structurally wrong for nonsymmetric input; fail with a
            # typed error here instead of hoping a probe catches it —
            # the reference backend's symmetry rule, two SpMVs
            raise SymmetryError(
                "SymmetricLDLFactorization requires a symmetric matrix; "
                "use the general-mode LU (repro.solvers.factorize) for "
                "nonsymmetric operators")
        if lib is None:
            raise SolverError("SymmetricLDLFactorization needs the "
                              "compiled kernel library")
        self.n = A.shape[0]
        self._lib = lib
        try:
            lu = spla.splu(A, **SYMMETRIC_OPTIONS)
        except RuntimeError as exc:
            raise SolverError(
                f"symmetric-mode factorization failed: {exc}") from exc
        L = lu.L
        # the kernels need the diagonal first in every column, which is
        # how SuperLU emits L; a full sort would cost a fifth of the
        # factorization
        if not np.array_equal(L.indices[L.indptr[:-1]], np.arange(self.n)):
            L.sort_indices()
        self.piv_in = self.piv_out = np.argsort(lu.perm_r).astype(np.int64)
        self.indptr = np.ascontiguousarray(L.indptr, dtype=np.int32)
        self.rowind = np.ascontiguousarray(L.indices, dtype=np.int32)
        self.lval = np.ascontiguousarray(L.data, dtype=np.float64)
        self.dinv = np.ascontiguousarray(1.0 / lu.U.diagonal())
        self.nnz_factor = int(L.nnz) + self.n
        self._solve_fn = lib.ldl_solve_f64
        self._solve_block_fn = lib.ldl_solve_block_f64
        self._args = (_ptr(self.indptr, ct.c_int32),
                      _ptr(self.rowind, ct.c_int32),
                      _ptr(self.lval), _ptr(self.dinv))


class ExportedLUFactorization(_ExportedFactor):
    """General-mode SuperLU LU exported to raw CSC arrays.

    The factor of :func:`~repro.solvers.local.splu_general` (``Pr A Pc
    = L U``, ordered on ``Aᵀ + A``) is stored once as int32 CSC ``L`` —
    unit diagonal first in every column — and ``U`` — diagonal last —
    with ``Pr`` folded into the gather and ``Pc`` into the scatter, and
    the SuperLU object is dropped.  Every solve is one compiled forward
    + backward pass (``lu_solve_f64``) over *lib*, the compiled kernel
    library.
    """

    def __init__(self, A, lib):
        A = sp.csc_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise SolverError(f"matrix must be square, got {A.shape}")
        self.n = A.shape[0]
        self._lib = lib
        try:
            lu = splu_general(A)
        except RuntimeError as exc:
            raise SolverError(f"SuperLU factorization failed: {exc}") from exc
        L, U = lu.L, lu.U
        # the kernel needs L's diagonal first and U's last in every
        # column, which is how SuperLU emits them; sort only if not
        if not _lu_layout_ok(L, U):
            L.sort_indices()
            U.sort_indices()
            if not _lu_layout_ok(L, U):
                raise SolverError("LU factor is missing diagonal entries")
        self.piv_in = np.argsort(lu.perm_r).astype(np.int64)
        self.piv_out = np.argsort(lu.perm_c).astype(np.int64)
        self.nnz_factor = int(L.nnz + U.nnz)
        self.l_indptr = np.ascontiguousarray(L.indptr, dtype=np.int32)
        self.l_rowind = np.ascontiguousarray(L.indices, dtype=np.int32)
        self.lval = np.ascontiguousarray(L.data, dtype=np.float64)
        self.u_indptr = np.ascontiguousarray(U.indptr, dtype=np.int32)
        self.u_rowind = np.ascontiguousarray(U.indices, dtype=np.int32)
        self.uval = np.ascontiguousarray(U.data, dtype=np.float64)
        i32 = ct.c_int32
        self._args = (_ptr(self.l_indptr, i32), _ptr(self.l_rowind, i32),
                      _ptr(self.lval), _ptr(self.u_indptr, i32),
                      _ptr(self.u_rowind, i32), _ptr(self.uval))
        self._solve_fn = lib.lu_solve_f64
        self._solve_block_fn = lib.lu_solve_block_f64


def _lu_layout_ok(L: sp.csc_matrix, U: sp.csc_matrix) -> bool:
    diag = np.arange(L.shape[0])
    return bool(np.array_equal(L.indices[L.indptr[:-1]], diag)
                and np.array_equal(U.indices[U.indptr[1:] - 1], diag))


def probe_factorization(fact, A, tol: float) -> bool:
    """One deterministic solve against a random right-hand side: accept
    the factorization iff the relative residual is within *tol*.  The
    guard that keeps a wrong exported factor (symmetric no-pivot mode
    on the wrong matrix, a broken export) from silently corrupting the
    preconditioner."""
    rng = np.random.default_rng(0)
    b = rng.standard_normal(A.shape[0])
    try:
        x = fact.solve(b)
    except Exception:  # noqa: BLE001 - any solve failure → reject
        return False
    if not np.all(np.isfinite(x)):
        return False
    resid = float(np.linalg.norm(A @ x - b))
    return resid <= tol * float(np.linalg.norm(b))
