"""One-level Schwarz preconditioners (paper eq. 3).

* RAS (restricted additive Schwarz, Cai & Sarkis 1999):
  ``P⁻¹ = Σ R_iᵀ D_i A_i⁻¹ R_i`` — the paper's one-level building block;
  non-symmetric, the standard choice with GMRES.
* ASM (additive Schwarz): ``Σ R_iᵀ A_i⁻¹ R_i`` — symmetric, pairs with CG.

Each A_i = R_i A R_iᵀ is factorised once (the *factorization* phase of
figures 8/10), that loop under the parallel setup engine
(:mod:`repro.parallel`).  Every application is N independent local
solves followed by the partition-of-unity prolongation.  On the
``compiled`` kernel backend the RAS application is one compiled pass
that runs the local solves on every usable CPU and adds their results
in subdomain order (:mod:`repro.kernels.fused`), whatever ``parallel=``
says; the reference path is a plain loop in subdomain order.  Both are
bitwise independent of the thread count.
"""

from __future__ import annotations

import numpy as np

from ..common.validation import as_float64_block
from ..dd.decomposition import Decomposition
from ..kernels import default_backend
from ..parallel import ParallelConfig, resolve_parallel, timed_map


class OneLevelRAS:
    """P⁻¹_RAS = Σ R_iᵀ D_i A_i⁻¹ R_i."""

    weighted = True

    def __init__(self, dec: Decomposition, *, backend: str = "superlu",
                 parallel: ParallelConfig | str | None = None,
                 recorder=None, kernels=None):
        self.dec = dec
        self.backend = backend
        self.parallel = resolve_parallel(parallel)
        #: kernel backend owning the local factorizations and the fused
        #: apply path (:mod:`repro.kernels`); the default ``numpy``
        #: backend is the fp64 reference (LDLᵀ factors when SPD)
        self.kernels = default_backend() if kernels is None else kernels
        #: per-subdomain factorization seconds — SPMD wall-clock for the
        #: *factorization* phase of figs. 8/10 is the max of these
        self.factorizations, self.factor_times = timed_map(
            lambda s: self.kernels.factorize_local(s.A_dir, backend,
                                                   spd=dec.is_spd),
            dec.subdomains, self.parallel,
            recorder=recorder, label="factorize")
        self.applications = 0
        #: optional :class:`~repro.resilience.FaultInjector`; fires the
        #: ``local_solve`` op (rank = subdomain index) on every solve
        self.injector = None
        #: subdomain indices whose exact solve is replaced by a Jacobi
        #: surrogate (degraded mode after a killed rank — see
        #: docs/resilience.md)
        self.disabled: set[int] = set()
        self._surrogate: dict[int, np.ndarray] = {}
        #: the kernel backend's one-call apply over every subdomain
        #: (gather → solve → weighted scatter-add) — ``None`` on the
        #: reference backend or for the unweighted ASM variant, which
        #: keep the per-subdomain path
        self._fused = self.kernels.fuse_ras(
            self.factorizations, dec) if self.weighted else None

    def disable(self, i: int) -> None:
        """Replace subdomain *i*'s exact local solve by a Jacobi
        (diagonal) surrogate.  Dropping the subdomain entirely would
        make the Schwarz sum singular on its interior dofs (no other
        subdomain covers them), so the degraded preconditioner keeps a
        cheap nonsingular stand-in instead: convergence degrades
        gracefully, the solve still completes."""
        if not 0 <= i < len(self.dec.subdomains):
            raise ValueError(f"no subdomain {i} to disable")
        d = np.asarray(self.dec.subdomains[i].A_dir.diagonal(),
                       dtype=np.float64).copy()
        d[np.abs(d) < 1e-300] = 1.0
        self._surrogate[i] = 1.0 / d
        self.disabled.add(i)

    def apply(self, r: np.ndarray) -> np.ndarray:
        """One preconditioner application on a reduced global vector.

        With a fused kernel backend (``compiled``) and no resilience
        machinery armed, the whole application is one compiled pass
        over every subdomain (gather → solve → weighted scatter, the
        subdomains spread over the usable CPUs).  The reference backend,
        an injector or a disabled subdomain take the solve-then-combine
        loop in subdomain order.  Either result is bitwise independent
        of ``parallel=``.
        """
        self.applications += 1
        facts, subs = self.factorizations, self.dec.subdomains
        injector, disabled = self.injector, self.disabled
        if self._fused is not None and injector is None and not disabled:
            return self._fused.apply(r)
        sols = []
        for i, s in enumerate(subs):
            if i in disabled:
                sols.append(self._surrogate[i] * r[s.dofs])
                continue
            sol = facts[i].solve(r[s.dofs])
            if injector is not None:
                sol = injector.fire("local_solve", i, sol)
            sols.append(sol)
        return self._combine(sols)

    def apply_block(self, R: np.ndarray) -> np.ndarray:
        """Multi-RHS application: column k of the result is ``apply(R[:, k])``.

        One blocked local solve per subdomain (every
        :class:`~repro.solvers.local.Factorization` backend accepts
        column blocks) instead of ``N × k`` vector solves — the path
        block-Krylov and Ritz-projection drivers should use.  The fused
        pass and the reference loop are chosen as in :meth:`apply`.
        """
        R = as_float64_block(R, "apply_block", ValueError)
        self.applications += R.shape[1]
        facts, subs = self.factorizations, self.dec.subdomains
        if (self._fused is not None and self.injector is None
                and not self.disabled):
            return self._fused.apply_block(R)
        out = np.zeros((self.dec.problem.num_free, R.shape[1]))
        for i, s in enumerate(subs):
            if i in self.disabled:
                sols = self._surrogate[i][:, None] * R[s.dofs, :]
            else:
                sols = facts[i].solve(R[s.dofs, :])
            if self.weighted:
                sols = s.d[:, None] * sols
            # a subdomain's dofs are unique, so fancy-index accumulation
            # is exact — and much faster than np.add.at's ufunc path
            out[s.dofs] += sols
        return out

    def _combine(self, sols: list[np.ndarray]) -> np.ndarray:
        dec = self.dec
        if self.weighted:
            return dec.combine(sols)               # Σ Rᵀ D u_i
        return dec.combine_raw(sols)               # Σ Rᵀ u_i

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self.apply(r)

    def local_factor_nnz(self) -> np.ndarray:
        return np.array([f.nnz_factor for f in self.factorizations])


class OneLevelASM(OneLevelRAS):
    """P⁻¹_ASM = Σ R_iᵀ A_i⁻¹ R_i (symmetric one-level Schwarz)."""

    weighted = False
