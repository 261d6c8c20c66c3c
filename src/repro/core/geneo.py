"""GenEO deflation vectors (paper §2.1, eq. 8–9; Spillane et al. 2011).

Per subdomain, solve the local generalized eigenproblem

    A_i^δ Λ = λ  D_i R_{i,0}ᵀ (R_{i,0} A_i^δ R_{i,0}ᵀ) R_{i,0} D_i Λ

where A_i^δ is the *Neumann* (unassembled) matrix and the right-hand
operator is the Neumann matrix restricted to the overlap, sandwiched by
the partition of unity.  The ν eigenvectors with the smallest eigenvalues
— exactly the modes that make one-level Schwarz stall (floating-subdomain
kernels, high-contrast channels) — are kept and scaled by D_i:
``W_i = [D_iΛ_{i1} … D_iΛ_{iν}]``.

Numerically the pencil is inverted: we seek the *largest* μ = 1/λ of
``B v = μ (A + σI) v`` with a tiny regularising shift σ (both A and B are
positive semi-definite; kernel modes of A appear as huge μ and are found
first, as they must be).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..common.errors import EigenError, RankFailure, ReproError
from ..common.validation import matrix_is_symmetric
from ..dd.subdomain import Subdomain
from ..eigen import lanczos_generalized, subspace_iteration
from ..solvers import factorize

#: relative diagonal shift regularising the (possibly singular) Neumann matrix
DEFAULT_SHIFT_REL = 1e-10


@dataclass
class GeneoResult:
    """Deflation data of one subdomain."""

    W: np.ndarray           # (n_i, nu_i): D_i-scaled eigenvectors
    eigenvalues: np.ndarray  # λ of the GenEO pencil, ascending
    nu: int


def geneo_pencil(sub: Subdomain) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The (A, B) pencil of eq. (9) for one subdomain.

    A = A_i^δ (Neumann);  B = D Π A_i^δ Π D with Π = R_{i,0}ᵀR_{i,0}
    the 0/1 projector on the overlap dofs.

    The classical pencil is only defined for symmetric A_i^δ — a
    nonsymmetric Neumann matrix is symmetrised (½(A + Aᵀ)) with a
    warning so the symmetric-GenEO *baseline* stays runnable on the
    nonsymmetric workloads (the bench compares it against the extended
    space, :func:`extended_pencil`, which is the correct construction).
    """
    import warnings

    A = sub.A_neu
    if not matrix_is_symmetric(A):
        warnings.warn(
            f"subdomain {sub.index}: Neumann matrix is nonsymmetric; "
            f"symmetrising for the classical GenEO pencil — prefer "
            f"coarse_space='extended' for nonsymmetric operators",
            RuntimeWarning, stacklevel=2)
        A = (0.5 * (A + A.T)).tocsr()
    mask = sub.overlap_mask.astype(np.float64)
    d_pi = sub.d * mask
    Dp = sp.diags(d_pi)
    B = (Dp @ A @ Dp).tocsr()
    return A, B


def extended_pencil(sub: Subdomain) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The extended (SPD-surrogate) pencil of Nataf–Parolin
    (arXiv:2404.02758) for nonsymmetric/indefinite operators.

    The eigensolve runs on ``A_spd`` — the form's symmetric positive
    (semi-)definite principal part (``Subdomain.A_geneo``: diffusion +
    SUPG streamline term for convection–diffusion, the stiffness part
    for Helmholtz à la Δ-GenEO) — with the same overlap-projected
    right-hand operator as eq. (9).  When the form supplies no
    surrogate, the symmetric part ``½(A_i^δ + (A_i^δ)ᵀ)`` is used.
    """
    A = sub.A_geneo
    if A is None:
        A = sub.A_neu
        if not matrix_is_symmetric(A):
            A = (0.5 * (A + A.T)).tocsr()
    mask = sub.overlap_mask.astype(np.float64)
    d_pi = sub.d * mask
    Dp = sp.diags(d_pi)
    B = (Dp @ A @ Dp).tocsr()
    return A, B


def compute_deflation(sub: Subdomain, *, nev: int = 10,
                      tau: float | None = None,
                      shift_rel: float = DEFAULT_SHIFT_REL,
                      method: str = "lanczos",
                      seed: int = 0) -> GeneoResult:
    """Solve the GenEO eigenproblem of one subdomain and build W_i.

    Parameters
    ----------
    nev:
        Number of deflation vectors requested (the paper's uniform ν).
    tau:
        Optional threshold: keep only eigenpairs with λ < τ (at most
        *nev*).  ``None`` keeps exactly *nev*.
    method:
        ``"lanczos"`` (the from-scratch ARPACK substitute),
        ``"subspace"`` (blocked subspace iteration) or ``"scipy"``
        (cross-check via ``scipy.sparse.linalg.eigsh``).
    """
    A, B = geneo_pencil(sub)
    lam, vecs = _solve_pencil(A, B, nev=nev, tau=tau, shift_rel=shift_rel,
                              method=method, seed=seed)
    W = sub.d[:, None] * vecs                     # eq. (8)
    # normalise the columns: the Lanczos vectors are (A + σI)-orthonormal,
    # so kernel modes carry 2-norms of O(1/√σ) that would destroy the
    # conditioning of E; rescaling does not change span(Z)
    norms = np.linalg.norm(W, axis=0)
    norms[norms < 1e-300] = 1.0
    W = W / norms
    return GeneoResult(W=W, eigenvalues=lam, nu=W.shape[1])


def _solve_pencil(A: sp.csr_matrix, B: sp.csr_matrix, *, nev: int,
                  tau: float | None, shift_rel: float, method: str,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Solve the inverted pencil ``B v = μ (A + σI) v`` for the *nev*
    smallest-λ eigenpairs (μ = 1/λ); shared by the classical and
    extended GenEO builders.  *A* must be symmetric positive
    semi-definite."""
    n = A.shape[0]
    if nev < 1:
        raise EigenError(f"nev must be >= 1, got {nev}")
    nev = min(nev, n)
    diag = A.diagonal()
    sigma = shift_rel * float(np.mean(np.abs(diag)) + 1e-300)
    M = (A + sigma * sp.eye(n, format="csr")).tocsr()
    # A SPSD and σ > 0: M is SPD by construction, so LDLᵀ
    Mf = factorize(M, "superlu", spd=True)

    if method == "lanczos":
        # sparse matrices, not per-vector lambdas: the eigensolver's
        # blocked kernels then run csrmm / multi-RHS solves directly
        res = lanczos_generalized(B, Mf, M, n, nev, seed=seed)
        mu = res.values
        vecs = res.vectors
    elif method == "subspace":
        res = subspace_iteration(B, Mf, M, n, nev, seed=seed)
        mu = res.values
        vecs = res.vectors
    elif method == "scipy":
        import scipy.sparse.linalg as spla
        k = min(nev, n - 1)
        mu, vecs = spla.eigsh(B, k=k, M=M,
                              Minv=spla.LinearOperator((n, n), Mf.solve),
                              which="LM")
        order = np.argsort(-mu)
        mu, vecs = mu[order], vecs[:, order]
    else:
        raise EigenError(f"unknown GenEO eigensolver {method!r}")

    # μ = 1/λ, largest μ ↔ smallest λ.  μ <= 0 (up to roundoff) means the
    # vector is B-null: λ = ∞, never deflated.
    mu = np.asarray(mu)
    keep = mu > 1e-14 * max(float(np.max(np.abs(mu))), 1e-300)
    mu, vecs = mu[keep], vecs[:, keep]
    lam = 1.0 / mu
    order = np.argsort(lam)
    lam, vecs = lam[order], vecs[:, order]
    if tau is not None:
        sel = lam < tau
        lam, vecs = lam[sel], vecs[:, sel]
    lam, vecs = lam[:nev], vecs[:, :nev]
    if lam.size == 0:
        # degenerate but legal: contribute the D-weighted constant instead
        vecs = np.ones((n, 1))
        lam = np.array([np.inf])
    return lam, vecs


def extended_deflation(sub: Subdomain, *, nev: int = 10,
                       tau: float | None = None,
                       shift_rel: float = DEFAULT_SHIFT_REL,
                       method: str = "lanczos",
                       seed: int = 0) -> GeneoResult:
    """Extended-GenEO deflation for nonsymmetric/indefinite operators
    (Nataf & Parolin, arXiv:2404.02758).

    Same selection as :func:`compute_deflation` but the pencil runs on
    the SPD surrogate (:func:`extended_pencil`), and the D-scaled
    vectors are orthonormalised by a *Euclidean* rank-revealing QR —
    A-orthogonality arguments do not survive a non-Hermitian operator,
    and a well-conditioned Euclidean basis keeps E = ZᵀAZ invertible
    regardless of the operator's symmetry.
    """
    A, B = extended_pencil(sub)
    lam, vecs = _solve_pencil(A, B, nev=nev, tau=tau, shift_rel=shift_rel,
                              method=method, seed=seed)
    W = sub.d[:, None] * vecs                     # eq. (8)
    # non-Hermitian-safe orthonormalisation: reduced QR with tiny-pivot
    # column dropping (span(W) is preserved; near-dependent columns —
    # e.g. duplicated kernel modes after D-scaling — are discarded)
    Q, R = np.linalg.qr(W, mode="reduced")
    rdiag = np.abs(np.diag(R))
    keep = rdiag > 1e-12 * max(float(rdiag.max()), 1e-300)
    if not np.all(keep):
        Q, lam = Q[:, keep], lam[keep]
    if Q.shape[1] == 0:  # pragma: no cover - degenerate but legal
        Q = np.ones((W.shape[0], 1)) / np.sqrt(W.shape[0])
        lam = np.array([np.inf])
    return GeneoResult(W=Q, eigenvalues=lam, nu=Q.shape[1])


def resilient_deflation(sub: Subdomain, *, nev: int = 10,
                        tau: float | None = None,
                        shift_rel: float = DEFAULT_SHIFT_REL,
                        method: str = "lanczos", seed: int = 0,
                        injector=None, recorder=None,
                        on_fallback=None, builder=None) -> GeneoResult:
    """:func:`compute_deflation` with the recovery ladder of
    ``docs/resilience.md``: an eigensolve failure (genuine, or injected
    through *injector*'s ``eigensolve`` op) is retried once with a
    perturbed seed; a second failure falls back to the
    :func:`nicolaides_deflation` coarse vectors for this subdomain, with
    a logged warning and a ``recovery.eigensolve_fallback`` trace event.
    The solve stays two-level — only this subdomain's block of the
    coarse space is degraded.  *builder* selects the eigensolve-based
    coarse-space builder (:func:`compute_deflation` by default,
    :func:`extended_deflation` for nonsymmetric operators).
    """
    import warnings

    if builder is None:
        builder = compute_deflation
    last_exc: Exception | None = None
    for attempt in range(2):
        try:
            if injector is not None:
                injector.fire("eigensolve", sub.index)
            return builder(sub, nev=nev, tau=tau,
                           shift_rel=shift_rel, method=method,
                           seed=seed + 104729 * attempt)
        except (EigenError, RankFailure, FloatingPointError,
                np.linalg.LinAlgError) as exc:
            last_exc = exc
    warnings.warn(
        f"GenEO eigensolve failed twice on subdomain {sub.index} "
        f"({last_exc!r}); falling back to Nicolaides vectors for this "
        f"subdomain", RuntimeWarning, stacklevel=2)
    if recorder is not None and recorder.enabled:
        recorder.event("recovery.eigensolve_fallback",
                       attrs={"subdomain": int(sub.index),
                              "error": repr(last_exc)})
    if on_fallback is not None:
        on_fallback(sub.index)
    return nicolaides_deflation(sub)


def nicolaides_deflation(sub: Subdomain, ncomp: int = 1) -> GeneoResult:
    """The classical coarse space (Nicolaides 1987): piecewise-constant
    per component, D-weighted.  The ablation baseline for GenEO —
    sufficient for mild coefficients, not for high contrast."""
    n = sub.size
    W = np.zeros((n, ncomp))
    for c in range(ncomp):
        e = np.zeros(n)
        e[c::ncomp] = 1.0
        W[:, c] = sub.d * e
    return GeneoResult(W=W, eigenvalues=np.zeros(ncomp), nu=ncomp)


# ----------------------------------------------------------------------
# Coarse-space registry (mirrors the kernel-backend / coarse-strategy
# registries: names resolvable from code or $REPRO_COARSE_SPACE)
# ----------------------------------------------------------------------

def _nicolaides_builder(sub: Subdomain, *, ncomp: int = 1,
                        **_ignored) -> GeneoResult:
    """Registry adapter: Nicolaides takes no eigensolve parameters."""
    return nicolaides_deflation(sub, ncomp=ncomp)


#: name -> per-subdomain coarse-space builder
#: ``builder(sub, *, nev, tau, shift_rel, method, seed, ncomp) -> GeneoResult``
_COARSE_SPACES: dict[str, object] = {}


def register_coarse_space(name: str, builder) -> None:
    """Register a per-subdomain coarse-space builder under *name*."""
    _COARSE_SPACES[name] = builder


def available_coarse_spaces() -> list[str]:
    return sorted(_COARSE_SPACES)


def get_coarse_space(name: str | None = None, *,
                     operator_is_spd: bool = True):
    """Resolve a coarse-space builder by registry name.

    ``None`` resolves ``$REPRO_COARSE_SPACE`` and then auto-selects:
    ``"geneo"`` for SPD operators (the paper's construction),
    ``"extended"`` (Nataf–Parolin) for nonsymmetric/indefinite ones.
    Returns ``(name, builder)``.
    """
    if name is None:
        name = os.environ.get("REPRO_COARSE_SPACE") or None
    if name is None:
        name = "geneo" if operator_is_spd else "extended"
    if name not in _COARSE_SPACES:
        raise ReproError(
            f"unknown coarse space {name!r}; expected one of "
            f"{available_coarse_spaces()}")
    return name, _COARSE_SPACES[name]


def _geneo_builder(sub, *, ncomp: int = 1, **kwargs) -> GeneoResult:
    return compute_deflation(sub, **kwargs)


def _extended_builder(sub, *, ncomp: int = 1, **kwargs) -> GeneoResult:
    return extended_deflation(sub, **kwargs)


register_coarse_space("geneo", _geneo_builder)
register_coarse_space("extended", _extended_builder)
register_coarse_space("nicolaides", _nicolaides_builder)
