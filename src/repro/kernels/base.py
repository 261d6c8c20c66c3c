"""The reference ``numpy`` kernel backend.

This class owns the hot kernels that used to be inlined across the
stack — Gram–Schmidt orthogonalisation (vector MGS and blocked CGS2),
the RAS local-solve scatter/gather, the local factorizations, the
coarse solve and the overlap exchange — and performs **exactly
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
        one batched reduction plus one norm (2 syncs).
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

    def fuse_ras(self, factorizations, subdomains):
        """Fused per-subdomain apply handles for the serial RAS hot
        path, or ``None`` to keep the legacy solve-then-combine path
        (the reference backend always returns ``None`` — the legacy
        path *is* the reference)."""
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
