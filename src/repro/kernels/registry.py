"""Kernel-backend registry: named factories with capability probing.

Selection order for :func:`get_backend`:

1. an explicit *name* argument (``SchwarzSolver(kernel_backend=...)``,
   CLI ``--backend``),
2. the ``REPRO_KERNEL_BACKEND`` environment variable,
3. ``"compiled"`` when its C kernel library builds, else the reference
   ``"numpy"`` backend (silently; the fallback is recorded in the
   backend's ``notes``).

A backend whose capability probe fails (e.g. ``compiled`` without a C
toolchain) raises :class:`BackendUnavailable` from its factory; when
that backend was named by step 1 or 2, :func:`get_backend` warns and
degrades to ``numpy`` instead of failing the run.  Third parties
extend the registry with :func:`register` — the factory contract is
``factory(recorder) -> KernelBackend``.
"""

from __future__ import annotations

import os
import warnings

from ..common.errors import ReproError
from .base import KernelBackend

ENV_VAR = "REPRO_KERNEL_BACKEND"


class BackendUnavailable(RuntimeError):
    """A backend's capability probe failed (missing toolchain, …)."""


_FACTORIES: dict[str, object] = {}


def register(name: str, factory=None):
    """Register *factory* under *name* (usable as a decorator).

    The factory takes an optional recorder and returns a
    :class:`~repro.kernels.base.KernelBackend`; it may raise
    :class:`BackendUnavailable` to signal that the backend cannot run
    in this environment.
    """
    if factory is None:
        def deco(f):
            _FACTORIES[name] = f
            return f
        return deco
    _FACTORIES[name] = factory
    return factory


def backend_names() -> list[str]:
    return sorted(_FACTORIES)


def get_backend(name: str | None = None, recorder=None) -> KernelBackend:
    """Resolve a kernel backend by name (argument → ``$REPRO_KERNEL_
    BACKEND`` → ``"compiled"`` if it builds, else ``"numpy"``).  A
    requested backend whose capability probe fails degrades to
    ``numpy`` with a warning; the implicit default degrades without
    one.  An already-built :class:`~repro.kernels.base.KernelBackend`
    instance passes through unchanged."""
    if isinstance(name, KernelBackend):
        return name
    resolved = name or os.environ.get(ENV_VAR)
    if not resolved:
        try:
            return _FACTORIES["compiled"](recorder)
        except BackendUnavailable as exc:
            backend = _FACTORIES["numpy"](recorder)
            backend.notes.append(f"default 'compiled' unavailable: {exc}")
            return backend
    if resolved not in _FACTORIES:
        raise ReproError(
            f"unknown kernel backend {resolved!r}; "
            f"expected one of {backend_names()}")
    try:
        return _FACTORIES[resolved](recorder)
    except BackendUnavailable as exc:
        warnings.warn(
            f"kernel backend {resolved!r} unavailable ({exc}); "
            f"falling back to 'numpy'", RuntimeWarning, stacklevel=2)
        backend = _FACTORIES["numpy"](recorder)
        backend.notes.append(f"fallback from {resolved!r}: {exc}")
        return backend


def available_backends() -> dict[str, dict]:
    """Capability table: ``{name: {"available": bool, ...describe()}}``
    — probes every registered backend without raising."""
    out: dict[str, dict] = {}
    for name in backend_names():
        try:
            backend = _FACTORIES[name](None)
            row = backend.describe()
            row["available"] = True
        except BackendUnavailable as exc:
            row = {"name": name, "available": False, "notes": [str(exc)]}
        out[name] = row
    return out


_default: KernelBackend | None = None


def default_backend() -> KernelBackend:
    """The shared reference backend instance (the implicit kernels of
    every component not given an explicit backend)."""
    global _default
    if _default is None:
        _default = _FACTORIES["numpy"](None)
    return _default
