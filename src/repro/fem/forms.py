"""Problem forms: variational formulations as element kernels.

A :class:`Form` captures the variational formulation plus its per-cell
coefficient fields over the global mesh, and returns the element
matrices of any cell subset of the global space
(:meth:`Form.element_matrices`) — one rank's T_i^{δ+1}, or the whole
mesh, which the in-process decomposition slices per subdomain; every
matrix is a scatter of those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..common.errors import FEMError
from ..mesh import SimplexMesh
from .assembly import (
    _coefficient_at_quadrature,
    _vector_coefficient_at_quadrature,
    advection_elements,
    assemble_load,
    assemble_streamline_load,
    elasticity_elements,
    mass_elements,
    scatter_matrix,
    stiffness_elements,
    streamline_diffusion_elements,
)
from .space import FunctionSpace


class Form:
    """Abstract variational form; see :class:`DiffusionForm`,
    :class:`ElasticityForm`, :class:`ConvectionDiffusionForm` and
    :class:`HelmholtzForm`."""

    degree: int
    ncomp: int
    #: ``a(u, v) == a(v, u)`` — drives symmetry-aware dispatch downstream
    symmetric: bool = True
    #: restricted free-dof operator is symmetric positive definite —
    #: gates the cg family, deflated-cg and the LDL kernel fast paths
    spd: bool = True

    def make_space(self, mesh: SimplexMesh) -> FunctionSpace:
        return FunctionSpace(mesh, self.degree, self.ncomp)

    def element_matrices(self, space: FunctionSpace,
                         cells=None) -> np.ndarray:  # pragma: no cover
        """``(nc, nd, nd)`` element matrices of the operator on *cells*
        of *space* (default: all), in ``space.cell_dofs`` order."""
        raise NotImplementedError

    def geneo_element_matrices(self, space: FunctionSpace,
                               cells=None) -> np.ndarray | None:
        """Element matrices of the SPD surrogate for the extended-GenEO
        pencil (Nataf–Parolin).

        Nonsymmetric/indefinite forms override this with the symmetric
        positive (semi-)definite part of their operator — the principal
        elliptic term — so the coarse eigensolve runs on a well-posed
        symmetric pencil.  ``None`` (the default, correct for SPD forms)
        means "use the operator itself".
        """
        return None

    def element_matrices_with_geneo(self, space: FunctionSpace, cells=None
                                    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Both arrays at once: :meth:`element_matrices` and
        :meth:`geneo_element_matrices` of *cells*.  Forms whose operator
        extends its surrogate compute the shared part once; the result is
        bitwise that of the two separate calls."""
        return (self.element_matrices(space, cells),
                self.geneo_element_matrices(space, cells))

    def assemble_matrix(self, space: FunctionSpace) -> sp.csr_matrix:
        return scatter_matrix(self.element_matrices(space), space.cell_dofs,
                              space.num_dofs)

    def assemble_geneo_matrix(self, space: FunctionSpace
                              ) -> sp.csr_matrix | None:
        Ke = self.geneo_element_matrices(space)
        return (None if Ke is None
                else scatter_matrix(Ke, space.cell_dofs, space.num_dofs))

    def assemble_rhs(self, space: FunctionSpace
                     ) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


@dataclass
class DiffusionForm(Form):
    """``a(u, v) = ∫ κ ∇u·∇v``, ``l(v) = ∫ f v`` — the paper's weak-scaling
    problem (Darcy / porous-media flow, fig. 9).

    ``kappa`` may be a scalar, per-cell array on the mesh, or a
    callable; ``f`` a scalar or callable.
    """

    degree: int
    kappa: object = None
    f: object = 1.0

    ncomp: int = 1

    def element_matrices(self, space, cells=None):
        return stiffness_elements(space, cells, self.kappa)

    def assemble_rhs(self, space):
        return assemble_load(space, self.f)


@dataclass
class ElasticityForm(Form):
    """``a(u, v) = ∫ λ (∇·u)(∇·v) + 2 μ ε(u):ε(v)`` with body force *f* —
    the paper's strong-scaling problem (heterogeneous linear elasticity,
    fig. 6).

    ``lam``/``mu`` are the Lamé fields; *f* defaults to gravity along the
    last coordinate axis.
    """

    degree: int
    lam: object = None
    mu: object = None
    f: object = None

    def __post_init__(self):
        self.ncomp = None  # resolved per mesh in make_space

    def make_space(self, mesh: SimplexMesh) -> FunctionSpace:
        return FunctionSpace(mesh, self.degree, mesh.dim)

    def element_matrices(self, space, cells=None):
        return elasticity_elements(space, cells, self.lam, self.mu)

    def assemble_rhs(self, space):
        f = self.f
        if f is None:
            f = np.zeros(space.mesh.dim)
            f[-1] = -9.81  # gravity, the paper's body force
        return assemble_load(space, f)


def supg_tau(mesh, beta, kappa) -> np.ndarray:
    """Per-cell SUPG stabilisation parameter, from β and κ at the cell
    centroids.

    ``τ_c = h_c/(2|β_c|) · (coth(Pe_c) − 1/Pe_c)`` with the cell Péclet
    number ``Pe_c = |β_c| h_c / (2 κ_c)`` — the classical optimal choice
    for linear elements (Brooks & Hughes).  Vanishing advection gives
    ``τ = 0`` (the diffusive limit of the formula).
    """
    cells = np.arange(mesh.num_cells)
    centroid = np.full((1, mesh.dim), 1.0 / (mesh.dim + 1))
    h = mesh.cell_diameters()
    bmag = np.linalg.norm(_vector_coefficient_at_quadrature(
        beta, mesh, cells, centroid, "beta")[:, 0], axis=1)
    kap = _coefficient_at_quadrature(kappa, mesh, cells, centroid,
                                     "kappa")[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        pe = bmag * h / (2.0 * kap)
        # coth(Pe) - 1/Pe, series Pe/3 below the cancellation threshold
        xi = np.where(pe > 1e-6, 1.0 / np.tanh(np.maximum(pe, 1e-300))
                      - 1.0 / np.maximum(pe, 1e-300), pe / 3.0)
        tau = np.where(bmag > 0.0, h / (2.0 * np.maximum(bmag, 1e-300)) * xi,
                       0.0)
    return tau


@dataclass
class ConvectionDiffusionForm(Form):
    """``a(u, v) = ∫ κ ∇u·∇v + (β·∇u) v [+ τ (β·∇u)(β·∇v)]`` — steady
    convection–diffusion with SUPG (streamline-upwind Petrov–Galerkin)
    stabilisation; the nonsymmetric workload of ROADMAP item 2.

    ``kappa`` (diffusivity) as in :class:`DiffusionForm` — heterogeneous
    per-cell fields supported; ``beta`` is the advecting velocity
    (constant vector, per-cell ``(nc, dim)`` array, or callable);
    ``stabilization`` is ``"supg"`` (default) or ``"none"``.  The cell
    Péclet number ``|β| h / (2κ)`` controls how nonsymmetric the
    operator is.
    """

    degree: int
    kappa: object = None
    beta: object = None
    f: object = 1.0
    stabilization: str = "supg"

    ncomp: int = 1
    symmetric: bool = False
    spd: bool = False

    def __post_init__(self):
        if self.stabilization not in ("supg", "none"):
            raise FEMError(f"unknown stabilization "
                           f"{self.stabilization!r}; use 'supg' or 'none'")
        if self.beta is None:
            raise FEMError("ConvectionDiffusionForm requires a velocity "
                           "field beta")

    def _symmetric_part(self, space, cells):
        # diffusion + the SUPG streamline term: symmetric positive
        # (semi-)definite — the extended pencil of Nataf–Parolin
        Ke = stiffness_elements(space, cells, self.kappa)
        if self.stabilization == "supg":
            tau = supg_tau(space.mesh, self.beta, self.kappa)
            Ke += streamline_diffusion_elements(space, cells, self.beta, tau)
        return Ke

    def element_matrices(self, space, cells=None):
        Ke = self._symmetric_part(space, cells)
        Ke += advection_elements(space, cells, self.beta)
        return Ke

    def geneo_element_matrices(self, space, cells=None):
        return self._symmetric_part(space, cells)

    def element_matrices_with_geneo(self, space, cells=None):
        Kg = self._symmetric_part(space, cells)
        Ke = Kg.copy()
        Ke += advection_elements(space, cells, self.beta)
        return Ke, Kg

    def assemble_rhs(self, space):
        b = assemble_load(space, self.f)
        if self.stabilization == "supg":
            tau = supg_tau(space.mesh, self.beta, self.kappa)
            b = b + assemble_streamline_load(space, self.beta, tau, self.f)
        return b


@dataclass
class HelmholtzForm(Form):
    """``a(u, v) = ∫ κ ∇u·∇v − (1−ε) k² u v`` — Helmholtz with absorption
    in the real shifted formulation (symmetric **indefinite**).

    ``k`` is the wavenumber (scalar, per-cell array or callable — a
    heterogeneous ``k`` models contrast in the wave speed); ``epsilon``
    the absorption fraction shifting the operator off the real spectrum
    (``ε = 0`` is pure Helmholtz).  The operator stays symmetric but
    loses definiteness once ``k h`` resolves a resonance, so the cg
    family is rejected and the Δ-GenEO-style surrogate (stiffness only,
    Bootland et al.) drives the extended coarse space.
    """

    degree: int
    kappa: object = None
    k: object = 5.0
    epsilon: float = 0.0
    f: object = 1.0

    ncomp: int = 1
    symmetric: bool = True
    spd: bool = False

    def _mass_coefficient(self):
        scale = 1.0 - self.epsilon
        k = self.k
        if callable(k):
            return lambda x: scale * np.asarray(k(x), dtype=np.float64) ** 2
        return scale * np.asarray(k, dtype=np.float64) ** 2

    def element_matrices(self, space, cells=None):
        Ke = stiffness_elements(space, cells, self.kappa)
        Ke -= mass_elements(space, cells, self._mass_coefficient())
        return Ke

    def geneo_element_matrices(self, space, cells=None):
        # Δ-GenEO surrogate (Bootland et al.): the definite stiffness
        # part only — the indefinite mass shift is excluded from the
        # pencil so the eigensolve stays SPD
        return stiffness_elements(space, cells, self.kappa)

    def element_matrices_with_geneo(self, space, cells=None):
        Kg = stiffness_elements(space, cells, self.kappa)
        Ke = Kg.copy()
        Ke -= mass_elements(space, cells, self._mass_coefficient())
        return Ke, Kg

    def assemble_rhs(self, space):
        return assemble_load(space, self.f)
