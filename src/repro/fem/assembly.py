"""Vectorised finite element assembly.

Assembles the bilinear forms of the paper:

* heterogeneous diffusion  ``a(u, v) = ∫ κ ∇u·∇v``  (weak-scaling problem),
* linear elasticity        ``a(u, v) = ∫ λ (∇·u)(∇·v) + 2 μ ε(u):ε(v)``
  (strong-scaling problem),
* mass matrices and load vectors.

Every bilinear kernel (``*_elements``) returns the ``(nc, nd, nd)``
element matrices of given cell ids of a space (default: all), computed
by batched einsums in fixed blocks of :data:`CELL_BLOCK` cells — no
per-cell Python loop.  ``assemble_*`` scatters them over the whole
space; :mod:`repro.dd.subdomain` scatters one subdomain's cells into
its local matrices.  Coefficients may be per-cell arrays over the mesh
(piecewise constant, how the paper's high-contrast fields are defined)
or callables evaluated at quadrature points.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..common.errors import FEMError
from .quadrature import simplex_quadrature
from .space import FunctionSpace

#: cells per batch of an element kernel: bounds the ``(block, nq, n_loc,
#: dim)`` gradient temporaries while keeping every einsum vectorised
CELL_BLOCK = 256


# ----------------------------------------------------------------------
# Geometry batches
# ----------------------------------------------------------------------

def _cell_geometry(space: FunctionSpace):
    """Jacobians, inverse Jacobians and |det J| for all cells.

    Memoised on the space: every kernel and every subdomain reads rows
    of the same batch, and reassembling paths (elasticity's two forms,
    Picard's per-iteration reassembly) would otherwise recompute every
    cell Jacobian/inverse/determinant each time.  Meshes are never
    mutated in place (refinement returns new meshes, hence new spaces),
    so the cache cannot go stale.
    """
    cached = getattr(space, "_cell_geometry_cache", None)
    if cached is not None:
        return cached
    mesh = space.mesh
    v = mesh.vertices[mesh.cells]                 # (nc, dim+1, dim)
    J = np.swapaxes(v[:, 1:, :] - v[:, :1, :], 1, 2)   # (nc, dim, dim); col j = edge j
    detJ = np.linalg.det(J)
    if np.any(detJ <= 0):
        raise FEMError("mesh contains non-positively oriented cells")
    Jinv = np.linalg.inv(J)                       # (nc, dim, dim)
    space._cell_geometry_cache = (J, Jinv, detJ)
    return space._cell_geometry_cache


def _physical_points(mesh, cells: np.ndarray, qpts: np.ndarray) -> np.ndarray:
    """Quadrature points of *cells* in physical space, ``(nc, nq, dim)``."""
    v = mesh.vertices[mesh.cells[cells]]
    origin = v[:, 0, :]
    edges = v[:, 1:, :] - v[:, :1, :]
    return origin[:, None, :] + np.einsum("qd,cde->cqe", qpts, edges)


def _coefficient_at_quadrature(coeff, mesh, cells: np.ndarray,
                               qpts: np.ndarray, name: str) -> np.ndarray:
    """Evaluate *coeff* on *cells* as a ``(nc, nq)`` array.

    Accepts: None (=> 1), a scalar, a per-cell array over the whole
    mesh, or a callable mapping ``(n, dim)`` physical points to values.
    Raises :class:`FEMError` on any other shape and on NaN or inf values.
    """
    nc, nq = cells.size, qpts.shape[0]
    if coeff is None:
        return np.ones((nc, nq))
    if callable(coeff):
        phys = _physical_points(mesh, cells, qpts)
        vals = np.asarray(coeff(phys.reshape(-1, mesh.dim)), dtype=np.float64)
        if vals.shape != (nc * nq,):
            raise FEMError(f"{name} callable returned shape {vals.shape}, "
                           f"expected ({nc * nq},)")
        vals = vals.reshape(nc, nq)
    else:
        arr = np.asarray(coeff, dtype=np.float64)
        if arr.ndim == 0:
            vals = np.full((nc, nq), float(arr))
        elif arr.shape == (mesh.num_cells,):
            vals = np.repeat(arr[cells, None], nq, axis=1)
        else:
            raise FEMError(f"{name} must be None, scalar, per-cell array of "
                           f"length {mesh.num_cells}, or callable; got array "
                           f"of shape {arr.shape}")
    if not np.isfinite(vals).all():
        raise FEMError(f"{name} has non-finite (NaN or inf) values")
    return vals


def _vector_coefficient_at_quadrature(coeff, mesh, cells: np.ndarray,
                                      qpts: np.ndarray,
                                      name: str) -> np.ndarray:
    """Evaluate a vector-valued *coeff* on *cells* as ``(nc, nq, dim)``.

    Accepts: a constant vector of length ``dim``, a per-cell ``(nc, dim)``
    array over the whole mesh, or a callable mapping ``(n, dim)``
    physical points to ``(n, dim)`` vectors.
    """
    nc, nq, dim = cells.size, qpts.shape[0], mesh.dim
    if callable(coeff):
        phys = _physical_points(mesh, cells, qpts)
        vals = np.asarray(coeff(phys.reshape(-1, dim)), dtype=np.float64)
        if vals.shape != (nc * nq, dim):
            raise FEMError(f"{name} callable returned shape {vals.shape}, "
                           f"expected ({nc * nq}, {dim})")
        return vals.reshape(nc, nq, dim)
    arr = np.asarray(coeff, dtype=np.float64)
    if arr.shape == (dim,):
        return np.broadcast_to(arr, (nc, nq, dim)).copy()
    if arr.shape == (mesh.num_cells, dim):
        return np.repeat(arr[cells, None, :], nq, axis=1)
    raise FEMError(f"{name} must be a length-{dim} vector, a per-cell "
                   f"({mesh.num_cells}, {dim}) array, or a callable; got "
                   f"shape {arr.shape}")


def _physical_gradients(space: FunctionSpace, cells: np.ndarray,
                        gref: np.ndarray):
    """Physical basis gradients ``(nc, nq, n_loc, dim)`` of *cells* from
    the reference gradients *gref* ``(nq, n_loc, dim)``, and their
    ``|det J|``."""
    _, Jinv, detJ = _cell_geometry(space)
    Jinv = Jinv[cells]
    nq, n_loc, dim = gref.shape
    g = gref.reshape(nq * n_loc, dim)
    # physical grad = J^{-T} @ ref grad: g_phys[d] = Σ_e Jinv[e, d] gref[e],
    # summed over e in order — bitwise einsum's c_einsum result (so
    # exactly cancelling entries stay exactly zero), 5-7x faster
    gphys = np.empty((cells.size, nq * n_loc, dim))
    for d in range(dim):
        acc = np.multiply.outer(Jinv[:, 0, d], g[:, 0])
        for e in range(1, dim):
            acc += np.multiply.outer(Jinv[:, e, d], g[:, e])
        gphys[:, :, d] = acc
    return gphys.reshape(cells.size, nq, n_loc, dim), detJ[cells]


def _rule(space: FunctionSpace, quad_degree: int | None, default: int):
    """Quadrature points and weights of degree *quad_degree* (or
    *default*) on the reference cell of *space*."""
    return simplex_quadrature(space.mesh.dim, default if quad_degree is None
                              else quad_degree)


def _blocked(kernel, space: FunctionSpace, cells, nd: int) -> np.ndarray:
    """``(nc, nd, nd)`` element matrices of *cells* (default: all cells of
    *space*), filled by ``kernel(block)`` one block of cells at a time."""
    if cells is None:
        cells = np.arange(space.mesh.num_cells)
    cells = np.asarray(cells, dtype=np.int64)
    out = np.empty((cells.size, nd, nd))
    for start in range(0, cells.size, CELL_BLOCK):
        block = cells[start:start + CELL_BLOCK]
        out[start:start + block.size] = kernel(block)
    return out


def scatter_matrix(Ke: np.ndarray, cell_dofs: np.ndarray, n: int,
                   positions: np.ndarray | None = None) -> sp.csr_matrix:
    """Sum element matrices ``Ke (nc, nd, nd)`` with dofs ``cell_dofs
    (nc, nd)`` into an ``n × n`` CSR matrix.

    *positions* maps a dof to its row/column (entries mapped to ``-1``
    are dropped) — how the free-dof block is assembled without first
    forming the whole matrix.
    """
    loc = cell_dofs if positions is None else positions[cell_dofs]
    loc = loc.astype(np.int32, copy=False)
    nd = loc.shape[1]
    rows = np.repeat(loc, nd, axis=1).ravel()
    cols = np.tile(loc, (1, nd)).ravel()
    vals = Ke.ravel()
    if positions is not None:
        keep = (rows >= 0) & (cols >= 0)
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _scatter(space: FunctionSpace, Ke: np.ndarray) -> sp.csr_matrix:
    """Scatter all-cell element matrices to the global CSR matrix."""
    return scatter_matrix(Ke, space.cell_dofs, space.num_dofs)


def _require_scalar(space: FunctionSpace, what: str) -> None:
    if space.ncomp != 1:
        raise FEMError(f"{what} requires a scalar space")


# ----------------------------------------------------------------------
# Bilinear forms: element kernels
# ----------------------------------------------------------------------

def stiffness_elements(space: FunctionSpace, cells=None, kappa=None,
                       quad_degree: int | None = None) -> np.ndarray:
    """Element matrices of the heterogeneous diffusion stiffness
    ``∫ κ ∇u·∇v`` on *cells* of a scalar space; ``κ`` as per
    :func:`_coefficient_at_quadrature`."""
    _require_scalar(space, "assemble_stiffness")
    qpts, qw = _rule(space, quad_degree, max(0, 2 * (space.degree - 1)))
    gref = space.ref.eval_basis_grads(qpts)       # (nq, n_loc, dim)

    def kernel(c):
        gphys, detJ = _physical_gradients(space, c, gref)
        kap = _coefficient_at_quadrature(kappa, space.mesh, c, qpts, "kappa")
        scale = kap * (qw[None, :] * detJ[:, None])   # (nc, nq)
        return np.einsum("cq,cqid,cqjd->cij", scale, gphys, gphys,
                         optimize=True)

    return _blocked(kernel, space, cells, gref.shape[1])


def mass_elements(space: FunctionSpace, cells=None, rho=None,
                  quad_degree: int | None = None) -> np.ndarray:
    """Element matrices of ``∫ ρ u v`` on *cells* (scalar or vector; the
    vector mass is block diagonal per component)."""
    qpts, qw = _rule(space, quad_degree, 2 * space.degree)
    _, _, detJ = _cell_geometry(space)
    phi = space.ref.eval_basis(qpts)              # (nq, n_loc)
    ncmp = space.ncomp

    def kernel(c):
        rho_q = _coefficient_at_quadrature(rho, space.mesh, c, qpts, "rho")
        scale = rho_q * (qw[None, :] * detJ[c][:, None])
        Me_scalar = np.einsum("cq,qi,qj->cij", scale, phi, phi,
                              optimize=True)
        if ncmp == 1:
            return Me_scalar
        # interleaved vector layout: M[i*nc+a, j*nc+b] = delta_ab * m_ij
        n_loc = phi.shape[1]
        Me = np.zeros((c.size, n_loc * ncmp, n_loc * ncmp))
        for a in range(ncmp):
            Me[:, a::ncmp, a::ncmp] = Me_scalar
        return Me

    return _blocked(kernel, space, cells, phi.shape[1] * ncmp)


def elasticity_elements(space: FunctionSpace, cells=None, lam=None, mu=None,
                        quad_degree: int | None = None) -> np.ndarray:
    """Element matrices of ``∫ λ (∇·u)(∇·v) + 2 μ ε(u):ε(v)`` on *cells*.

    *space* must have ``ncomp == mesh.dim``.  ``lam``/``mu`` are the Lamé
    coefficient fields (scalar, per-cell array or callable).

    For basis functions ``u = φ_i e_α``, ``v = φ_j e_β``::

        2 ε(u):ε(v) = ∂_β φ_i ∂_α φ_j + δ_αβ ∇φ_i·∇φ_j
        (∇·u)(∇·v) = ∂_α φ_i ∂_β φ_j
    """
    dim = space.mesh.dim
    if space.ncomp != dim:
        raise FEMError(f"elasticity requires ncomp == dim == {dim}, "
                       f"got ncomp={space.ncomp}")
    qpts, qw = _rule(space, quad_degree, max(0, 2 * (space.degree - 1)))
    gref = space.ref.eval_basis_grads(qpts)
    nd = gref.shape[1] * dim
    eye = np.eye(dim)

    def kernel(c):
        gphys, detJ = _physical_gradients(space, c, gref)
        wdet = qw[None, :] * detJ[:, None]
        lam_s = _coefficient_at_quadrature(lam, space.mesh, c, qpts,
                                           "lam") * wdet
        mu_s = _coefficient_at_quadrature(mu, space.mesh, c, qpts,
                                          "mu") * wdet
        # λ (∇·u)(∇·v):  K[iα, jβ] += λ G_iα G_jβ
        Ke = np.einsum("cq,cqia,cqjb->ciajb", lam_s, gphys, gphys,
                       optimize=True)
        # 2 μ ε:ε, part 1: μ ∂_β φ_i ∂_α φ_j
        Ke += np.einsum("cq,cqib,cqja->ciajb", mu_s, gphys, gphys,
                        optimize=True)
        # part 2: μ δ_αβ ∇φ_i·∇φ_j
        gdot = np.einsum("cq,cqid,cqjd->cij", mu_s, gphys, gphys,
                         optimize=True)
        Ke += np.einsum("cij,ab->ciajb", gdot, eye, optimize=True)
        return Ke.reshape(c.size, nd, nd)

    return _blocked(kernel, space, cells, nd)


def advection_elements(space: FunctionSpace, cells=None, beta=None,
                       quad_degree: int | None = None) -> np.ndarray:
    """Element matrices of ``∫ (β·∇u) v`` on *cells* (rows: test
    function v, columns: trial function u) — the nonsymmetric half of
    the convection–diffusion operator.

    ``β`` as per :func:`_vector_coefficient_at_quadrature`.  For
    constant ``β`` and homogeneous Dirichlet conditions on the whole
    boundary, the assembled free-dof block is exactly skew-symmetric
    (integration by parts with ∇·β = 0).
    """
    _require_scalar(space, "assemble_advection")
    qpts, qw = _rule(space, quad_degree, max(0, 2 * space.degree - 1))
    gref = space.ref.eval_basis_grads(qpts)
    phi = space.ref.eval_basis(qpts)              # (nq, n_loc)

    def kernel(c):
        gphys, detJ = _physical_gradients(space, c, gref)
        beta_q = _vector_coefficient_at_quadrature(beta, space.mesh, c, qpts,
                                                   "beta")
        wdet = qw[None, :] * detJ[:, None]        # (nc, nq)
        bgrad = np.einsum("cqd,cqjd->cqj", beta_q, gphys, optimize=True)
        return np.einsum("cq,qi,cqj->cij", wdet, phi, bgrad, optimize=True)

    return _blocked(kernel, space, cells, phi.shape[1])


def streamline_diffusion_elements(space: FunctionSpace, cells=None,
                                  beta=None, tau=0.0,
                                  quad_degree: int | None = None
                                  ) -> np.ndarray:
    """Element matrices of the SUPG stabilisation ``∫ τ (β·∇u)(β·∇v)``
    on *cells* (symmetric positive semi-definite), with ``τ`` a scalar
    or per-cell array over the whole mesh."""
    _require_scalar(space, "assemble_streamline_diffusion")
    qpts, qw = _rule(space, quad_degree, max(0, 2 * space.degree - 1))
    gref = space.ref.eval_basis_grads(qpts)

    def kernel(c):
        gphys, detJ = _physical_gradients(space, c, gref)
        beta_q = _vector_coefficient_at_quadrature(beta, space.mesh, c, qpts,
                                                   "beta")
        tau_q = _coefficient_at_quadrature(tau, space.mesh, c, qpts, "tau")
        bgrad = np.einsum("cqd,cqid->cqi", beta_q, gphys, optimize=True)
        scale = tau_q * (qw[None, :] * detJ[:, None])     # (nc, nq)
        return np.einsum("cq,cqi,cqj->cij", scale, bgrad, bgrad,
                         optimize=True)

    return _blocked(kernel, space, cells, gref.shape[1])


# ----------------------------------------------------------------------
# Bilinear forms: global matrices (the kernels above, scattered)
# ----------------------------------------------------------------------

def assemble_stiffness(space, kappa=None, quad_degree=None) -> sp.csr_matrix:
    return _scatter(space, stiffness_elements(space, None, kappa, quad_degree))


def assemble_mass(space, rho=None, quad_degree=None) -> sp.csr_matrix:
    return _scatter(space, mass_elements(space, None, rho, quad_degree))


def assemble_elasticity(space, lam, mu, quad_degree=None) -> sp.csr_matrix:
    return _scatter(space, elasticity_elements(space, None, lam, mu,
                                               quad_degree))


def assemble_advection(space, beta, quad_degree=None) -> sp.csr_matrix:
    return _scatter(space, advection_elements(space, None, beta, quad_degree))


def assemble_streamline_diffusion(space, beta, tau,
                                  quad_degree=None) -> sp.csr_matrix:
    return _scatter(space, streamline_diffusion_elements(
        space, None, beta, tau, quad_degree))


# ----------------------------------------------------------------------
# Linear forms
# ----------------------------------------------------------------------

def assemble_streamline_load(space: FunctionSpace, beta, tau, f,
                             quad_degree: int | None = None) -> np.ndarray:
    """SUPG right-hand-side correction ``∫ τ f (β·∇v)`` — keeps the
    stabilised discretisation consistent for the exact solution."""
    _require_scalar(space, "assemble_streamline_load")
    mesh = space.mesh
    qpts, qw = _rule(space, quad_degree, max(0, 2 * space.degree - 1))
    cells = np.arange(mesh.num_cells)
    gphys, detJ = _physical_gradients(space, cells,
                                      space.ref.eval_basis_grads(qpts))
    beta_q = _vector_coefficient_at_quadrature(beta, mesh, cells, qpts, "beta")
    fq = _coefficient_at_quadrature(f, mesh, cells, qpts, "f")
    tau_q = _coefficient_at_quadrature(tau, mesh, cells, qpts, "tau")
    wdet = qw[None, :] * detJ[:, None]
    bgrad = np.einsum("cqd,cqid->cqi", beta_q, gphys, optimize=True)
    be = np.einsum("cq,cq,cq,cqi->ci", tau_q, wdet, fq, bgrad, optimize=True)
    b = np.zeros(space.num_dofs)
    np.add.at(b, space.cell_scalar_dofs.ravel(), be.ravel())
    return b


def assemble_load(space: FunctionSpace, f, quad_degree: int | None = None) -> np.ndarray:
    """Load vector ``(f, v)``.

    *f* is a callable mapping ``(n, dim)`` points to values (scalar spaces)
    or to ``(n, ncomp)`` vectors, a constant scalar, or a constant vector of
    length ``ncomp``.
    """
    mesh = space.mesh
    qpts, qw = _rule(space, quad_degree, 2 * space.degree)
    _, _, detJ = _cell_geometry(space)
    phi = space.ref.eval_basis(qpts)              # (nq, n_loc)
    nc, nq = mesh.num_cells, qpts.shape[0]

    if callable(f):
        phys = _physical_points(mesh, np.arange(nc), qpts)
        vals = np.asarray(f(phys.reshape(-1, mesh.dim)), dtype=np.float64)
        expect = (nc * nq,) if space.ncomp == 1 else (nc * nq, space.ncomp)
        if vals.shape != expect:
            raise FEMError(f"load callable returned {vals.shape}, "
                           f"expected {expect}")
        fq = vals.reshape((nc, nq) if space.ncomp == 1 else (nc, nq, space.ncomp))
    else:
        arr = np.asarray(f, dtype=np.float64)
        if space.ncomp == 1:
            fq = np.full((nc, nq), float(arr))
        else:
            if arr.shape != (space.ncomp,):
                raise FEMError(f"constant vector load must have shape "
                               f"({space.ncomp},), got {arr.shape}")
            fq = np.broadcast_to(arr, (nc, nq, space.ncomp)).copy()

    wdet = qw[None, :] * detJ[:, None]            # (nc, nq)
    b = np.zeros(space.num_dofs)
    if space.ncomp == 1:
        be = np.einsum("cq,cq,qi->ci", wdet, fq, phi, optimize=True)
        np.add.at(b, space.cell_scalar_dofs.ravel(), be.ravel())
    else:
        be = np.einsum("cq,cqa,qi->cia", wdet, fq, phi, optimize=True)
        nd = be.shape[1] * be.shape[2]
        np.add.at(b, space.cell_dofs.ravel(), be.reshape(nc, nd).ravel())
    return b


# ----------------------------------------------------------------------
# Dirichlet boundary conditions
# ----------------------------------------------------------------------

def apply_dirichlet(A: sp.csr_matrix, b: np.ndarray, dofs, values=0.0):
    """Symmetric elimination of Dirichlet dofs.

    Returns ``(A_bc, b_bc)`` where constrained rows/columns are zeroed, the
    diagonal is set to 1 and the right-hand side carries the boundary
    values (columns are lifted into *b* first, preserving symmetry).
    """
    dofs = np.asarray(dofs, dtype=np.int64)
    n = A.shape[0]
    vals = np.zeros(n)
    vals[dofs] = values
    A = A.tocsr()
    b = b - A @ vals
    mask = np.zeros(n, dtype=bool)
    mask[dofs] = True
    keep = ~mask
    # zero rows and columns via diagonal projector, then restore unit diag
    P = sp.diags(keep.astype(np.float64))
    A_bc = (P @ A @ P).tolil()
    A_bc[dofs, dofs] = 1.0
    b = b.copy()
    b[dofs] = vals[dofs]
    return A_bc.tocsr(), b


def restrict_to_free(A: sp.csr_matrix, b: np.ndarray, dofs):
    """Reduce the system to the free (non-Dirichlet, homogeneous) dofs.

    Returns ``(A_ff, b_f, free)`` — the paper's solvers all operate on the
    reduced SPD system.
    """
    dofs = np.asarray(dofs, dtype=np.int64)
    n = A.shape[0]
    mask = np.ones(n, dtype=bool)
    mask[dofs] = False
    free = np.flatnonzero(mask)
    A_ff = A.tocsr()[free][:, free].tocsr()
    return A_ff, b[free], free
