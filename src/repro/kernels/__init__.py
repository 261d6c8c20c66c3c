"""Pluggable kernel backends for the solve-phase hot loops.

The registry owns the kernels that dominate the apply/matvec spans —
RAS local solves and scatter/gather, Gram–Schmidt orthogonalisation,
the CSR deflation products, the coarse solve and the overlap exchange —
behind one :class:`~repro.kernels.base.KernelBackend` interface with
three built-in implementations:

``numpy``
    The reference: the historical inlined operations, with SPD local
    factors as symmetric-mode LDLᵀ.
``fp32``
    Mixed precision — fp32 local/coarse applies and orthogonalisation
    scratch inside the fp64 outer Krylov loop, with dtype round-trip
    accounting through ``repro.obs`` counters.
``compiled``
    fp64 with compiled (ctypes/C) LDLᵀ solves and fused RAS
    gather/scatter.  The default wherever its C library builds; without
    a C toolchain the default is ``numpy``.

Select per solver (``SchwarzSolver(kernel_backend="fp32")``), per
process (``REPRO_KERNEL_BACKEND=fp32``) or per CLI run
(``repro solve --backend fp32``).  Standalone components given no
backend use :func:`default_backend`, the ``numpy`` reference.  See
``docs/performance.md``.
"""

from .base import KernelBackend
from .compiled import CompiledBackend
from .fp32 import Fp32Backend
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
register("fp32", Fp32Backend)
register("compiled", CompiledBackend)

__all__ = [
    "KernelBackend",
    "Fp32Backend",
    "CompiledBackend",
    "BackendUnavailable",
    "get_backend",
    "register",
    "backend_names",
    "available_backends",
    "default_backend",
    "ENV_VAR",
]
