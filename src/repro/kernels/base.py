"""The reference ``numpy`` kernel backend.

This class owns the hot kernels that used to be inlined across the
stack — Gram–Schmidt orthogonalisation (vector MGS and blocked CGS2),
the local factorizations, the coarse solve and the overlap exchange,
plus the seams through which a compiled backend runs the RAS apply, the
matvec and the coarse transfers as one pass each — and performs **exactly
the operations the inlined code performed, in the same order**
(pinned by the regression tests in ``tests/test_kernels.py``).  The
one deliberate departure from the pre-registry arithmetic: local
matrices declared SPD are factorised as symmetric-mode LDLᵀ, not LU.

Subclasses (:mod:`.compiled`) override individual kernels;
anything not overridden inherits the reference semantics, which is what
makes capability-based degradation safe.
"""

from __future__ import annotations

import numpy as np

from ..solvers.local import factorize


class KernelBackend:
    """Reference (fp64 numpy/scipy) implementations of the hot kernels."""

    name = "numpy"
    #: arithmetic of the local/coarse applies and orthogonalisation
    precision = "fp64"
    #: whether this backend uses the compiled kernel library
    compiled = False

    def __init__(self, recorder=None):
        from ..obs.recorder import NULL_RECORDER
        self.recorder = NULL_RECORDER if recorder is None else recorder
        #: human-readable capability notes (shown by ``repro backends``)
        self.notes: list[str] = []

    # ------------------------------------------------------------------
    # Orthogonalisation
    # ------------------------------------------------------------------
    def ortho_step(self, V: np.ndarray, w: np.ndarray, H: np.ndarray,
                   j: int, scratch: np.ndarray) -> int:
        """One Arnoldi orthogonalisation step: project *w* against
        ``V[:, :j+1]`` writing ``H[:j+1, j]``, store the norm in
        ``H[j+1, j]`` and, when nonzero, the normalised vector in
        ``V[:, j+1]``.  Returns the number of global synchronisations.

        Reference: modified Gram–Schmidt through preallocated buffers —
        j+1 dependent dot products, each reading the vector the previous
        one updated, then one norm.  The returned count is 2: the
        synchronisations of the distributed classical Gram–Schmidt this
        step stands for (one batched reduction of all j+1 dots plus the
        norm, :meth:`repro.core.spmd.SpmdRank.ortho_step`), not the
        j+2 reductions MGS would need on distributed vectors.
        """
        for i in range(j + 1):
            H[i, j] = float(w @ V[:, i])
            np.multiply(V[:, i], H[i, j], out=scratch)
            np.subtract(w, scratch, out=w)
        H[j + 1, j] = float(np.linalg.norm(w))
        if H[j + 1, j] > 0:
            np.divide(w, H[j + 1, j], out=V[:, j + 1])
        return 2

    def norm(self, v: np.ndarray) -> float:
        """Global 2-norm of a Krylov vector (one reduction): every norm
        of the GMRES loop outside :meth:`ortho_step` — ‖b‖ and the true
        residual at restart boundaries."""
        return float(np.linalg.norm(v))

    def ortho_block(self, Vb: np.ndarray, k: int, W: np.ndarray,
                    qr_block) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Blocked CGS2 against the basis columns ``Vb[:, :k]``: returns
        ``(Hcol, Vnew, Hdiag)`` with ``Hcol = C1 + C2`` the accumulated
        projection coefficients and ``(Vnew, Hdiag)`` the thin QR of the
        twice-projected block.  *qr_block* is the caller's (breakdown-
        tolerant) QR."""
        C1 = Vb[:, :k].T @ W
        W = W - Vb[:, :k] @ C1
        C2 = Vb[:, :k].T @ W
        W = W - Vb[:, :k] @ C2
        Vnew, Hdiag = qr_block(W)
        return C1 + C2, Vnew, Hdiag

    # ------------------------------------------------------------------
    # Local factorizations and the RAS apply
    # ------------------------------------------------------------------
    def factorize_local(self, A, method: str = "superlu",
                        shift: float = 0.0, spd: bool = False):
        """Factorise one local (or coarse) matrix.  Reference: the
        :func:`repro.solvers.local.factorize` dispatch, LDLᵀ when the
        caller declares the matrix SPD."""
        return factorize(A, method, shift=shift, spd=spd)

    def fuse_ras(self, factorizations, dec):
        """One object applying the weighted RAS sum
        ``Σ_i R_iᵀ D_i A_i⁻¹ R_i`` of *dec*'s subdomains with these
        *factorizations* (``apply(r)``, ``apply_block(R)``) for the
        serial hot path, or ``None`` to keep the per-subdomain
        solve-then-combine path (the reference backend always returns
        ``None`` — that path *is* the reference)."""
        return None

    # ------------------------------------------------------------------
    # Whole-operator passes of the solve phase
    # ------------------------------------------------------------------
    def fuse_matvec(self, dec):
        """One object applying ``A x = Σ_j R_jᵀ A_j D_j R_j x`` over
        *dec*'s subdomains (``apply(x)``, ``apply_block(X)``), or
        ``None``: :meth:`repro.dd.Decomposition.matvec` then runs its
        reference loop, which is what the reference backend does."""
        return None

    def fuse_deflation(self, space, T):
        """One object computing the A-DEF1 coarse transfers from the
        deflation blocks ``space.W`` and ``T_i = A_i W_i`` — ``zt_dot(u)``
        and ``deflate(u, y) = (Z y, u − A Z y)`` — or ``None``: the
        :class:`~repro.core.coarse.CoarseOperator` then uses the
        assembled CSR Z, Zᵀ and A·Z (the reference)."""
        return None

    # ------------------------------------------------------------------
    # Coarse solve
    # ------------------------------------------------------------------
    def make_coarse_solve(self, coarse):
        """A kernel mirror of the coarse solve for *coarse* (a
        :class:`~repro.core.coarse.CoarseOperator`), or ``None`` to use
        its factorization directly."""
        return None

    # ------------------------------------------------------------------
    # Overlap exchange
    # ------------------------------------------------------------------
    def exchange_sum(self, subdomains, x_list):
        """y_i = Σ_{j ∈ Ō_i} R_i R_jᵀ x_j — the neighbour exchange of one
        distributed SpMV (peer-to-peer transfers on the overlap)."""
        out = [x.copy() for x in x_list]
        for s in subdomains:
            for j in s.neighbors:
                out[s.index][s.shared[j]] += \
                    x_list[j][subdomains[j].shared[s.index]]
        return out

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Capability row for ``repro backends`` / the docs table."""
        return {"name": self.name, "precision": self.precision,
                "compiled": self.compiled, "notes": list(self.notes)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<KernelBackend {self.name} ({self.precision})>"
