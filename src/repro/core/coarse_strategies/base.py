"""The :class:`CoarseSolveStrategy` contract.

A strategy answers one question — *how is the coarse problem E y = w
solved?* — decoupled from how E is applied in the correction (which the
:class:`~repro.core.coarse.CoarseOperator` owns).  Three built-ins ship
with the registry (:mod:`repro.core.coarse_strategies`):

``dense``
    The reference: the exact factorisation path the repo has always
    used, kept bitwise-identical (the paper's dense distributed direct
    solve on the masters is its at-scale realisation).
``sparse``
    E assembled straight into CSR from the neighbour-block structure
    and factorised sparsely — the fill of the factors follows the
    subdomain connectivity instead of dim(E)².
``multilevel``
    The method applied to itself: E is partitioned into second-level
    subdomains, preconditioned by a level-2 RAS + Nicolaides/GenEO
    coarse space, and solved *inexactly* by a few inner FGMRES
    iterations (Seelinger, Reinarz & Scheichl, arXiv:1906.10944).

The object a strategy builds is a *factorization-like* handle: it
exposes ``solve(w)`` for vectors or column blocks and ``nnz_factor``.
Inexact handles additionally carry ``exact = False`` so the resilience
degrade chain and the compiled kernel mirror of E know to treat them
differently.
"""

from __future__ import annotations


class CoarseSolveStrategy:
    """How a :class:`~repro.core.coarse.CoarseOperator` solves E y = w.

    Subclasses implement :meth:`build`; :meth:`assemble` may be
    overridden to change how the block dictionary becomes the stored E
    (the dense reference keeps the historical COO route bitwise).
    """

    #: registry name
    name = "abstract"
    #: True when ``build`` returns a direct (fixed linear) solve — the
    #: compiled kernel mirror of E only applies to exact strategies
    exact = True

    def assemble(self, space, blocks):
        """CSR E from the block dictionary.  Default: the direct
        row-block CSR assembly (no duplicate summing pass)."""
        from .direct import csr_from_blocks
        return csr_from_blocks(space, blocks)

    def build(self, coarse, backend: str, rank_tol: float):
        """Return the solve handle for *coarse* (a built
        :class:`~repro.core.coarse.CoarseOperator` whose ``E`` is
        assembled).  *backend* is the sparse-factorization method name,
        *rank_tol* the pseudo-inverse truncation threshold."""
        raise NotImplementedError

    def describe(self) -> dict:
        """Capability row for ``repro backends`` / the docs table."""
        return {"name": self.name, "exact": self.exact}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CoarseSolveStrategy {self.name}>"
