"""Pluggable kernel backends for the solve-phase hot loops.

The registry owns the kernels that dominate the apply/matvec spans —
RAS local solves, the matvec, the coarse transfers, Gram–Schmidt
orthogonalisation, the coarse solve and the overlap exchange — behind one
:class:`~repro.kernels.base.KernelBackend` interface with two built-in
implementations, both in fp64:

``numpy``
    The reference: the historical inlined operations, with SPD local
    factors as symmetric-mode LDLᵀ.
``compiled``
    Compiled (ctypes/C) LDLᵀ and LU solves, and the RAS apply, the
    matvec and the A-DEF1 coarse transfers as one compiled call each
    over all subdomains.  The default wherever its C library builds; without
    a C toolchain the default is ``numpy``.

Select per solver (``SchwarzSolver(kernel_backend="numpy")``), per
process (``REPRO_KERNEL_BACKEND=numpy``) or per CLI run
(``repro solve --backend numpy``).  Standalone components given no
backend use :func:`default_backend`, the ``numpy`` reference.  See
``docs/performance.md``.
"""

from .base import KernelBackend
from .compiled import CompiledBackend
from .registry import (
    ENV_VAR,
    BackendUnavailable,
    available_backends,
    backend_names,
    default_backend,
    get_backend,
    register,
)

register("numpy", KernelBackend)
register("compiled", CompiledBackend)

__all__ = [
    "KernelBackend",
    "CompiledBackend",
    "BackendUnavailable",
    "get_backend",
    "register",
    "backend_names",
    "available_backends",
    "default_backend",
    "ENV_VAR",
]
