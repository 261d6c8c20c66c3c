"""Two-level deflated preconditioners (paper eq. 6–7; Tang et al. 2009).

* ``P⁻¹_A-DEF1 = P⁻¹_RAS (I − A Z E⁻¹ Zᵀ) + Z E⁻¹ Zᵀ`` — the paper's
  choice: **one** coarse solve per application (its result is reused in
  both terms), which matters because the coarse solve is the most
  communication-intensive operation of an iteration (§2.1).
* ``P⁻¹_A-DEF2 = (I − Z E⁻¹ Zᵀ A) P⁻¹_RAS + Z E⁻¹ Zᵀ`` — numerically
  similar but needs **two** coarse solves; kept for the ablation bench.
* BNN (hybrid balancing): ``(I − ZE⁻¹ZᵀA) P⁻¹ (I − AZE⁻¹Zᵀ) + ZE⁻¹Zᵀ``
  — symmetric when P⁻¹ is, pairs with CG.

Fast apply path: ``Q = Z E⁻¹ Zᵀ`` and ``AQ`` are fixed linear maps once
setup is done, and the E assembly already computed ``T_i = A_i W_i``
(block column i of A·Z).  A-DEF1 therefore evaluates the
``(I − A Z E⁻¹ Zᵀ) u`` term through :meth:`CoarseOperator.az_dot` —
per-setup cached A·Z — instead of recomputing ``A (Z y)`` with a global
SpMV plus an extra overlap exchange every iteration.  The uncached
path lives in ``tests/test_solve_apply.py`` as an oracle, and the
equivalence is asserted there (≤ 1e-14 relative).
"""

from __future__ import annotations

import numpy as np

from ..dd.decomposition import Decomposition
from .coarse import CoarseOperator
from .ras import OneLevelRAS


class TwoLevelADEF1:
    """The paper's preconditioner (eq. 6)."""

    def __init__(self, ras: OneLevelRAS, coarse: CoarseOperator):
        self.ras = ras
        self.coarse = coarse
        self.dec: Decomposition = ras.dec
        self.applications = 0

    def apply(self, u: np.ndarray) -> np.ndarray:
        """One application: coarse solve once, A·Z from the setup cache —
        zero global SpMVs for the ``A Z E⁻¹ Zᵀ u`` term."""
        self.applications += 1
        coarse = self.coarse
        y = coarse.solve(coarse.space.zt_dot(u))   # E⁻¹ Zᵀ u — 1 coarse solve
        w = coarse.space.z_dot(y)                  # Z y (reused additively)
        v = u - coarse.az_dot(y)                   # (I − A Z E⁻¹ Zᵀ) u
        return self.ras.apply(v) + w

    def apply_block(self, U: np.ndarray) -> np.ndarray:
        """Multi-RHS application — column k of the result is
        ``apply(U[:, k])``, computed with **one** coarse solve for the
        whole block (csrmm transfers + a blocked E solve) and one
        blocked one-level application."""
        self.applications += U.shape[1]
        coarse = self.coarse
        Y = coarse.solve(coarse.space.zt_dot_block(U))
        W = coarse.space.z_dot_block(Y)
        V = U - coarse.AZ @ Y
        return self.ras.apply_block(V) + W

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.apply(u)

    @property
    def coarse_solves_per_application(self) -> int:
        return 1


class TwoLevelADEF2:
    """Eq. (7): same spectrum family, two coarse solves per application."""

    def __init__(self, ras: OneLevelRAS, coarse: CoarseOperator):
        self.ras = ras
        self.coarse = coarse
        self.dec: Decomposition = ras.dec
        self.applications = 0

    def apply(self, u: np.ndarray) -> np.ndarray:
        self.applications += 1
        w = self.coarse.correction(u)          # coarse solve #1
        v = self.ras.apply(u)
        v = v - self.coarse.correction(self.dec.matvec(v))  # coarse solve #2
        return v + w

    def apply_block(self, U: np.ndarray) -> np.ndarray:
        """Blocked application — two coarse solves for the whole block."""
        self.applications += U.shape[1]
        W = self.coarse.correction_block(U)
        V = self.ras.apply_block(U)
        V = V - self.coarse.correction_block(self.dec.matvec_block(V))
        return V + W

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.apply(u)

    @property
    def coarse_solves_per_application(self) -> int:
        return 2


class TwoLevelBNN:
    """Hybrid (balancing Neumann–Neumann form): symmetric when the
    one-level part is (use with :class:`~repro.core.ras.OneLevelASM` + CG)."""

    def __init__(self, one_level, coarse: CoarseOperator):
        self.one_level = one_level
        self.coarse = coarse
        self.dec: Decomposition = one_level.dec
        self.applications = 0

    def apply(self, u: np.ndarray) -> np.ndarray:
        self.applications += 1
        coarse = self.coarse
        y = coarse.solve(coarse.space.zt_dot(u))
        w = coarse.space.z_dot(y)
        v = u - coarse.az_dot(y)               # (I − A Q) u, cached A·Z
        z = self.one_level.apply(v)
        z = z - coarse.correction(self.dec.matvec(z))  # (I − Q A)
        return z + w

    def apply_block(self, U: np.ndarray) -> np.ndarray:
        """Blocked application — two coarse solves for the whole block."""
        self.applications += U.shape[1]
        coarse = self.coarse
        Y = coarse.solve(coarse.space.zt_dot_block(U))
        W = coarse.space.z_dot_block(Y)
        V = U - coarse.AZ @ Y
        T = self.one_level.apply_block(V)
        T = T - coarse.correction_block(self.dec.matvec_block(T))
        return T + W

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.apply(u)

    @property
    def coarse_solves_per_application(self) -> int:
        return 2
