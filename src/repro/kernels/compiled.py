"""The ``compiled`` kernel backend: fp64 compiled hot loops.

Full double precision everywhere — numerically interchangeable with the
reference backend, whose local factors are the same SuperLU factors
(symmetric-mode LDLᵀ for SPD locals, an LU ordered on ``Aᵀ + A`` for
the others) — but each local factor is exported once to raw CSC arrays
and the SuperLU object dropped, the RAS local solves apply it through
the compiled C kernels with fused permutation/gather/scatter, and the
coarse solve of a symmetric E runs through the same compiled LDLᵀ
(:func:`make_ldl_coarse_solve`).

This backend is only constructible when the kernel library builds (a C
toolchain on the host).  It is then the default of
:func:`repro.kernels.get_backend`; otherwise the default is silently
``numpy``, and an explicit request for ``compiled`` degrades to
``numpy`` with a warning — the graceful-fallback pattern of optional
native bridges.
"""

from __future__ import annotations

import scipy.sparse as sp

from ..common.errors import SolverError, SymmetryError
from ..common.validation import matrix_is_symmetric
from ..solvers.local import factorize
from .base import KernelBackend
from .csrc import load_library
from .factor import (
    ExportedLUFactorization,
    FusedLocalApply,
    PlainLocalApply,
    SymmetricLDLFactorization,
    probe_factorization,
)

#: an fp64 LDLᵀ of an SPD matrix or a pivoted LU should be near machine
#: precision; a loose miss means the exported factor is not to be trusted
#: (symmetric no-pivot mode was the wrong tool, or the export is broken)
LOCAL_PROBE_TOL = 1e-8


def make_ldl_coarse_solve(backend, coarse):
    """A compiled LDLᵀ solve routine mirroring a
    :class:`~repro.core.coarse.CoarseOperator`'s E, or ``None`` when E
    is rank-deficient or nonsymmetric, the factorization fails, or the
    probe rejects it (the caller then keeps its own solve path)."""
    if coarse.rank_deficient:
        return None
    if not matrix_is_symmetric(coarse.E):
        # nonsymmetric E must never reach SuperLU symmetric mode — the
        # no-pivot LDLᵀ would be structurally wrong.  The caller keeps
        # its own (general LU) coarse solve path.
        backend.notes.append(
            "coarse operator E is nonsymmetric; LDL mirror skipped, "
            "coarse solve stays on the general-LU path")
        return None
    try:
        fact = SymmetricLDLFactorization(coarse.E, lib=backend._lib)
    except SolverError:
        return None
    if not probe_factorization(fact, coarse.E, LOCAL_PROBE_TOL):
        backend.notes.append(
            "coarse LDL probe failed; coarse solve stays on the "
            "fp64 factorization of E")
        if backend.recorder.enabled:
            backend.recorder.add("kernel.compiled_fallbacks", 1)
        return None
    rec = backend.recorder

    def kernel_solve(w):
        if rec.enabled:
            rec.add("kernel.compiled_coarse_solves", 1)
        return fact.solve(w)

    return kernel_solve


class CompiledBackend(KernelBackend):
    """fp64 backend with compiled LDLᵀ/LU solves and fused RAS apply."""

    name = "compiled"
    precision = "fp64"
    compiled = True

    def __init__(self, recorder=None):
        super().__init__(recorder)
        lib = load_library()
        if lib is None:  # pragma: no cover - guarded by the registry
            from .registry import BackendUnavailable
            raise BackendUnavailable("compiled kernel library unavailable")
        self._lib = lib

    def factorize_local(self, A, method: str = "superlu",
                        shift: float = 0.0, spd: bool = False):
        if not spd:
            # symmetric no-pivot mode is only for matrices the caller
            # declares SPD (the reference's rule): the general-mode LU,
            # exported like the LDLᵀ when SuperLU is the method
            if self.recorder.enabled:
                self.recorder.add("kernel.compiled_nonsymmetric_locals", 1)
            if method != "superlu":
                return factorize(A, method, shift=shift)
        if shift:
            A = (sp.csr_matrix(A)
                 + shift * sp.eye(A.shape[0], format="csr"))
        try:
            fact = (SymmetricLDLFactorization(A, lib=self._lib) if spd
                    else ExportedLUFactorization(A, lib=self._lib))
            if probe_factorization(fact, A, LOCAL_PROBE_TOL):
                return fact
        except (SolverError, SymmetryError):
            pass
        if self.recorder.enabled:
            self.recorder.add("kernel.compiled_fallbacks", 1)
        # the reference backend's fp64 factor (A is already shifted)
        return factorize(A, method, spd=spd)

    def fuse_ras(self, factorizations, subdomains):
        handles = []
        for fact, s in zip(factorizations, subdomains):
            if isinstance(fact, (SymmetricLDLFactorization,
                                 ExportedLUFactorization)):
                handles.append(FusedLocalApply(fact, s.dofs, s.d))
            else:
                handles.append(PlainLocalApply(fact, s.dofs, s.d))
        return handles

    def make_coarse_solve(self, coarse):
        return make_ldl_coarse_solve(self, coarse)
