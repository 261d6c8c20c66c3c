"""The ``fp32`` mixed-precision kernel backend.

Single-precision arithmetic inside a double-precision outer Krylov loop
(the inexact-preconditioning regime FGMRES was built for, and which
plain right-preconditioned GMRES tolerates as benign noise for a *fixed*
reduced-precision M):

* **local solves** — symmetric-mode LDLᵀ factors cast to fp32, applied
  by the compiled kernels when the toolchain is available (fused
  gather-cast → in-place solve → weighted scatter-add), else by an fp32
  scipy factorization;
* **coarse solve** — an fp32 LDLᵀ mirror of E (the fp64 factorization
  remains the fallback and the resilience path);
* **CSR deflation products** — fp32 mirrors of Z, Zᵀ and A·Z cached on
  the matrices themselves;
* **orthogonalisation** — hybrid CGS2: the first projection sweep runs
  in fp32 against a mirrored basis, the correction sweep in fp64, so
  the basis keeps fp64-level orthogonality at roughly half the read
  traffic of a second fp64 sweep.

Every reduced-precision factor is accepted only after a probe solve
(:func:`~repro.kernels.factor.probe_factorization`); rejects fall back
per-object to the fp64 reference path and are counted under
``kernel.fp32_fallbacks``.  Dtype round-trip traffic is surfaced through
``repro.obs`` counters (``kernel.fp32_bytes_down`` / ``_up``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..common.errors import SolverError
from ..common.validation import matrix_is_symmetric
from ..solvers.local import factorize
from .base import KernelBackend
from .csrc import load_library
from .factor import (
    FusedLocalApply,
    PlainLocalApply,
    SymmetricLDLFactorization,
    probe_factorization,
)

#: accept an fp32 local factor iff one probe solve reaches this relative
#: residual — loose enough for high-contrast subdomain matrices, tight
#: enough to reject a broken (non-SPD / failed no-pivot) factorization
LOCAL_PROBE_TOL = 1e-2
COARSE_PROBE_TOL = 1e-2


def _f32_mirror(A):
    """fp32 copy of a sparse matrix, cached on the matrix object itself
    (the mirrored matrices — Z, Zᵀ, A·Z — are long-lived attributes of
    the deflation space / coarse operator, so the cache lives and dies
    with them)."""
    M = getattr(A, "_repro_f32", None)
    if M is None:
        M = A.astype(np.float32)
        try:
            A._repro_f32 = M
        except AttributeError:  # pragma: no cover - exotic matrix types
            pass
    return M


def make_ldl_coarse_solve(backend, coarse, dtype, probe_tol: float):
    """A reduced-precision LDLᵀ solve routine for a
    :class:`~repro.core.coarse.CoarseOperator`'s E, or ``None`` when E
    is rank-deficient, the coarse strategy is inexact, the factorization
    fails, or the probe rejects it (the caller then keeps its own solve
    path).  Inexact strategies (multilevel) never get a mirror: their
    handle is an inner iteration on E, not a triangular solve that an
    LDLᵀ of E could substitute for."""
    if coarse.rank_deficient:
        return None
    if not getattr(coarse.strategy, "exact", True):
        return None
    if not matrix_is_symmetric(coarse.E):
        # nonsymmetric E must never reach SuperLU symmetric mode — the
        # no-pivot LDLᵀ would be structurally wrong, and a loose probe
        # tolerance is not a correctness guarantee.  The caller keeps
        # its own (general LU) coarse solve path.
        backend.notes.append(
            "coarse operator E is nonsymmetric; LDL mirror skipped, "
            "coarse solve stays on the general-LU fp64 path")
        return None
    lib = load_library()
    try:
        fact = SymmetricLDLFactorization(coarse.E, dtype=dtype, lib=lib)
    except SolverError:
        return None
    if not probe_factorization(fact, coarse.E, probe_tol):
        backend.notes.append(
            f"{np.dtype(dtype).name} coarse probe failed; "
            "coarse solve stays fp64")
        if backend.recorder.enabled:
            backend.recorder.add("kernel.fp32_fallbacks", 1)
        return None
    rec = backend.recorder
    counter = f"kernel.{backend.name}_coarse_solves"
    bytes_per = 4 * coarse.E.shape[0] if np.dtype(dtype) == np.float32 \
        else 0

    def kernel_solve(w):
        if rec.enabled:
            cols = 1 if w.ndim == 1 else w.shape[1]
            rec.add(counter, 1)
            if bytes_per:
                rec.add("kernel.fp32_bytes_down", bytes_per * cols)
                rec.add("kernel.fp32_bytes_up", bytes_per * cols)
        return fact.solve(w)

    return kernel_solve


class Fp32Backend(KernelBackend):
    """Mixed-precision backend (fp32 applies inside fp64 Krylov)."""

    name = "fp32"
    precision = "mixed"

    def __init__(self, recorder=None):
        super().__init__(recorder)
        self._lib = load_library()
        self.compiled = self._lib is not None
        if not self.compiled:
            self.notes.append(
                "compiled kernels unavailable; fp32 solves run through "
                "scipy (reduced bytes, reduced speedup)")
        # single-slot fp32 mirror of the active Arnoldi basis
        self._vkey = None
        self._v32 = None
        self._valid = 0

    # ------------------------------------------------------------------
    # Orthogonalisation: hybrid fp32/fp64 CGS2
    # ------------------------------------------------------------------
    def _basis_mirror(self, V: np.ndarray, j: int) -> np.ndarray:
        key = (id(V), V.shape)
        if self._vkey != key:
            self._vkey = key
            self._v32 = np.empty(V.shape, dtype=np.float32)
            self._valid = 0
        if j == 0:                       # new cycle: column 0 is fresh
            self._valid = 0
        if self._valid < j + 1:
            self._v32[:, self._valid:j + 1] = V[:, self._valid:j + 1]
            self._valid = j + 1
        return self._v32

    def ortho_step(self, V, w, H, j, scratch):
        V32 = self._basis_mirror(V, j)
        w32 = w.astype(np.float32)
        # sweep 1 in fp32: one gemv against the mirrored basis
        c1 = (V32[:, :j + 1].T @ w32).astype(np.float64)
        w -= V[:, :j + 1] @ c1
        # sweep 2 (the CGS2 correction) in fp64 restores orthogonality
        c2 = V[:, :j + 1].T @ w
        w -= V[:, :j + 1] @ c2
        H[:j + 1, j] = c1 + c2
        H[j + 1, j] = float(np.linalg.norm(w))
        if H[j + 1, j] > 0:
            np.divide(w, H[j + 1, j], out=V[:, j + 1])
            self._v32[:, j + 1] = V[:, j + 1]
            self._valid = j + 2
        if self.recorder.enabled:
            self.recorder.add("kernel.fp32_ortho_steps", 1)
            self.recorder.add("kernel.fp32_bytes_down", 4 * w.size)
        return 3                          # c1, c2, norm reductions

    def ortho_block(self, Vb, k, W, qr_block):
        # first CGS sweep in fp32 (the bulk of the read traffic),
        # correction sweep in fp64
        C1 = (Vb[:, :k].astype(np.float32).T
              @ W.astype(np.float32)).astype(np.float64)
        W = W - Vb[:, :k] @ C1
        C2 = Vb[:, :k].T @ W
        W = W - Vb[:, :k] @ C2
        Vnew, Hdiag = qr_block(W)
        if self.recorder.enabled:
            self.recorder.add("kernel.fp32_ortho_steps", 1)
            self.recorder.add("kernel.fp32_bytes_down",
                              4 * (Vb[:, :k].size + W.size))
        return C1 + C2, Vnew, Hdiag

    # ------------------------------------------------------------------
    # Local factorizations + fused RAS apply
    # ------------------------------------------------------------------
    def factorize_local(self, A, method: str = "superlu",
                        shift: float = 0.0, spd: bool = False):
        if shift:
            A = (sp.csr_matrix(A)
                 + shift * sp.eye(A.shape[0], format="csr"))
        if not matrix_is_symmetric(A):
            # explicit asymmetry gate: a nonsymmetric matrix must never
            # be factorised in SuperLU symmetric mode — the probe's
            # loose tolerance (1e-2) could accept a structurally wrong
            # LDLᵀ.  Documented fallback: general-mode LU (fp64).
            if self.recorder.enabled:
                self.recorder.add("kernel.fp32_nonsymmetric_locals", 1)
            return factorize(A, method)
        try:
            fact = SymmetricLDLFactorization(A, dtype=np.float32,
                                             lib=self._lib)
            if probe_factorization(fact, A, LOCAL_PROBE_TOL):
                return fact
        except SolverError:
            pass
        if self.recorder.enabled:
            self.recorder.add("kernel.fp32_fallbacks", 1)
        # the reference backend's fp64 factor (A is already shifted)
        return factorize(A, method, spd=spd)

    def fuse_ras(self, factorizations, subdomains):
        handles = []
        for fact, s in zip(factorizations, subdomains):
            if isinstance(fact, SymmetricLDLFactorization) \
                    and fact._lib is not None:
                handles.append(FusedLocalApply(fact, s.dofs, s.d))
            else:
                handles.append(PlainLocalApply(fact, s.dofs, s.d))
        return handles

    def note_ras_apply(self, total_local_dofs: int,
                       columns: int = 1) -> None:
        if self.recorder.enabled:
            self.recorder.add("kernel.fp32_local_applies", columns)
            self.recorder.add("kernel.fp32_bytes_down",
                              4 * total_local_dofs * columns)
            self.recorder.add("kernel.fp32_bytes_up",
                              4 * total_local_dofs * columns)

    # ------------------------------------------------------------------
    # Coarse solve + CSR products
    # ------------------------------------------------------------------
    def make_coarse_solve(self, coarse):
        return make_ldl_coarse_solve(self, coarse, np.float32,
                                     COARSE_PROBE_TOL)

    def spmv(self, A, x):
        if x.dtype != np.float64:
            return A @ x
        M = _f32_mirror(A)
        if self.recorder.enabled:
            self.recorder.add("kernel.fp32_spmv", 1)
            self.recorder.add("kernel.fp32_bytes_down", 4 * x.size)
            self.recorder.add("kernel.fp32_bytes_up", 4 * M.shape[0])
        return (M @ x.astype(np.float32)).astype(np.float64)

    def spmm(self, A, X):
        if X.dtype != np.float64:
            return A @ X
        M = _f32_mirror(A)
        if self.recorder.enabled:
            self.recorder.add("kernel.fp32_spmm", 1)
            self.recorder.add("kernel.fp32_bytes_down", 4 * X.size)
            self.recorder.add("kernel.fp32_bytes_up",
                              4 * M.shape[0] * X.shape[1])
        return (M @ X.astype(np.float32)).astype(np.float64)
