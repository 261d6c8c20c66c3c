"""Uniform factorization interface over the local direct-solver backends.

The paper swaps direct solvers freely (MUMPS, PaStiX, the two PARDISOs,
WSMP) behind one "factorise, then solve many times" contract.  We provide
the same contract with four backends:

* ``"superlu"`` — scipy's SuperLU (the fast production default; LDLᵀ
  in symmetric mode for matrices the caller declares SPD, otherwise an
  LU ordered by minimum degree on ``Aᵀ + A``),
* ``"band"``    — RCM reordering + LAPACK band Cholesky (envelope method),
* ``"ldl"``     — the from-scratch up-looking sparse LDLᵀ,
* ``"dense"``   — LAPACK Cholesky/LU on the densified matrix (tiny systems).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..common.errors import SolverError
from .ldl import SparseLDL
from .orderings import bandwidth, reverse_cuthill_mckee

BACKENDS = ("superlu", "band", "ldl", "dense")


class Factorization:
    """Abstract handle: ``solve(b)`` for vectors or column blocks."""

    n: int
    nnz_factor: int

    def solve(self, b: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


#: SuperLU symmetric mode: minimum degree on Aᵀ + A and diagonal pivots
#: only — an LDLᵀ-shaped factor of an SPD matrix (``perm_r == perm_c``),
#: whose one triangle plus diagonal is all a solve needs; 1.5–2.4× fewer
#: factor nonzeros than a COLAMD LU on this repository's subdomain
#: matrices
SYMMETRIC_OPTIONS = dict(
    permc_spec="MMD_AT_PLUS_A",
    diag_pivot_thresh=0.0,
    options=dict(SymmetricMode=True),
)


#: general-mode LU: minimum degree on Aᵀ + A (the symmetrised-pattern
#: ordering MUMPS and PaStiX use) with threshold partial pivoting that
#: prefers the diagonal — about half the fill of COLAMD on the
#: convection–diffusion and Helmholtz locals
SYMMETRIC_PATTERN_OPTIONS = dict(
    permc_spec="MMD_AT_PLUS_A",
    diag_pivot_thresh=0.1,
)


def splu_general(A: sp.csc_matrix):
    """SuperLU's general-mode LU of *A*, ordered by
    :data:`SYMMETRIC_PATTERN_OPTIONS`.  Raises ``RuntimeError`` on a
    singular matrix, as ``splu`` does."""
    return spla.splu(A, **SYMMETRIC_PATTERN_OPTIONS)


def _probably_symmetric(A: sp.csc_matrix, tol: float = 1e-10) -> bool:
    """One seeded probe ``A x ≈ Aᵀ x``: two SpMVs and O(n) memory, where
    forming ``A − Aᵀ`` would cost a copy of the matrix."""
    x = np.random.default_rng(0).standard_normal(A.shape[0])
    y = A @ x
    return bool(np.linalg.norm(y - A.T @ x) <= tol * np.linalg.norm(y))


class SuperLUFactorization(Factorization):
    """scipy's SuperLU.  With ``spd=True`` the caller vouches that the
    (shifted) matrix is SPD and symmetric mode is tried first; its
    factor is kept only if *A* passes a symmetry probe and the factor
    is a genuine LDLᵀ — no off-diagonal pivot, every pivot finite and
    positive — else the matrix is factorised by the general-mode LU
    (:func:`splu_general`), so a wrong claim costs time, never
    accuracy.  (The pivot test alone cannot catch a nonsymmetric
    positive-real matrix such as a convection–diffusion operator: its
    no-pivot pivots are positive.)"""

    def __init__(self, A: sp.spmatrix, shift: float = 0.0,
                 spd: bool = False):
        A = sp.csc_matrix(A)
        if shift:
            A = (A + shift * sp.eye(A.shape[0], format="csc")).tocsc()
        self.n = A.shape[0]
        #: whether the kept factor is the symmetric-mode LDLᵀ
        self.symmetric = False
        try:
            if spd and _probably_symmetric(A):
                self._lu = spla.splu(A, **SYMMETRIC_OPTIONS)
                L, U = self._lu.L, self._lu.U
                pivots = U.diagonal()
                self.symmetric = bool(
                    np.array_equal(self._lu.perm_r, self._lu.perm_c)
                    and np.all(np.isfinite(pivots)) and np.all(pivots > 0))
            if not self.symmetric:
                self._lu = splu_general(A)
                L, U = self._lu.L, self._lu.U
        except RuntimeError as exc:
            raise SolverError(f"SuperLU factorization failed: {exc}") from exc
        self.nnz_factor = int(L.nnz + U.nnz)

    def solve(self, b):
        b = np.asarray(b, dtype=np.float64)
        if b.ndim == 1:
            return self._lu.solve(b)
        return self._lu.solve(np.ascontiguousarray(b))


class BandCholeskyFactorization(Factorization):
    """RCM + LAPACK banded Cholesky — the classic envelope direct solver."""

    def __init__(self, A: sp.spmatrix, shift: float = 0.0):
        A = sp.csr_matrix(A)
        self.n = A.shape[0]
        if shift:
            A = A + shift * sp.eye(self.n, format="csr")
        self.perm = reverse_cuthill_mckee(A)
        Ap = A[self.perm][:, self.perm].tocoo()
        kd = bandwidth(Ap)
        self.kd = kd
        ab = np.zeros((kd + 1, self.n))
        upper = Ap.row <= Ap.col
        r, c, v = Ap.row[upper], Ap.col[upper], Ap.data[upper]
        ab[kd + r - c, c] = v           # LAPACK upper-banded storage
        try:
            self._cb = sla.cholesky_banded(ab, lower=False)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"band Cholesky failed (matrix not SPD?): {exc}") from exc
        self.nnz_factor = int((kd + 1) * self.n)

    def solve(self, b):
        b = np.asarray(b, dtype=np.float64)
        squeeze = b.ndim == 1
        B = b.reshape(self.n, -1)
        X = sla.cho_solve_banded((self._cb, False), B[self.perm])
        out = np.empty_like(X)
        out[self.perm] = X
        return out[:, 0] if squeeze else out


class LDLFactorization(Factorization):
    def __init__(self, A: sp.spmatrix, shift: float = 0.0):
        A = sp.csr_matrix(A)
        self.n = A.shape[0]
        perm = reverse_cuthill_mckee(A)
        self._ldl = SparseLDL(A, perm=perm, shift=shift)
        self.nnz_factor = self._ldl.nnz_factor

    def solve(self, b):
        return self._ldl.solve(b)


class DenseFactorization(Factorization):
    def __init__(self, A, shift: float = 0.0):
        Ad = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=np.float64)
        self.n = Ad.shape[0]
        if shift:
            Ad = Ad + shift * np.eye(self.n)
        try:
            self._c = sla.cho_factor(Ad)
            self._sym = True
        except np.linalg.LinAlgError:
            self._lu = sla.lu_factor(Ad)
            self._sym = False
        self.nnz_factor = self.n * self.n

    def solve(self, b):
        b = np.asarray(b, dtype=np.float64)
        if self._sym:
            return sla.cho_solve(self._c, b)
        return sla.lu_solve(self._lu, b)


_BACKEND_CLASSES = {
    "superlu": SuperLUFactorization,
    "band": BandCholeskyFactorization,
    "ldl": LDLFactorization,
    "dense": DenseFactorization,
}


def factorize(A, method: str = "superlu", shift: float = 0.0,
              spd: bool = False) -> Factorization:
    """Factorise *A* with the chosen backend (see module docstring).

    ``spd=True`` declares ``A + shift·I`` symmetric positive definite,
    a fact the caller already knows: the ``superlu`` backend then
    factorises it as LDLᵀ (falling back to LU if the claim fails its
    checks).  The other backends ignore the flag."""
    try:
        cls = _BACKEND_CLASSES[method]
    except KeyError:
        raise SolverError(f"unknown solver backend {method!r}; "
                          f"expected one of {BACKENDS}") from None
    if cls is SuperLUFactorization:
        return cls(A, shift=shift, spd=spd)
    return cls(A, shift=shift)
