"""Global problem definition: form + mesh + essential boundary conditions.

The solvers all operate on the *reduced* SPD system (Dirichlet dofs
eliminated), which matches the paper's setting where A is symmetric
positive definite.  Setup needs only the load vector (:meth:`Problem.rhs`):
the subdomain matrices come from
:func:`repro.dd.subdomain.build_subdomain`.  The global matrix is
assembled **only on demand** (tests, one-level baselines, reference
residuals), straight into the free-dof pattern and never cached; the
domain-decomposition path never calls :meth:`Problem.matrix`.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from ..common.errors import DecompositionError
from ..fem.assembly import scatter_matrix
from ..fem.forms import Form
from ..fem.space import FunctionSpace
from ..mesh import SimplexMesh


class Problem:
    """An elliptic problem ``a(u, v) = l(v)`` with homogeneous Dirichlet
    conditions on a boundary region.

    Parameters
    ----------
    mesh, form:
        Geometry and variational form.
    dirichlet:
        ``None`` → whole boundary; a callable ``(n, dim) -> bool mask`` →
        that part of the boundary; an explicit dof array is also accepted.
    """

    def __init__(self, mesh: SimplexMesh, form: Form, *, dirichlet=None,
                 scaling: str | None = None):
        if scaling not in (None, "jacobi"):
            raise DecompositionError(
                f"unknown scaling {scaling!r} (expected None or 'jacobi')")
        self.scaling = scaling
        #: symmetric-scaling vector s = diag(A)^{-1/2} on free dofs; set by
        #: the decomposition (from local diagonals) or lazily from the
        #: assembled matrix.  The solved system is (SAS)(S⁻¹x) = Sb.
        self._scale: np.ndarray | None = None
        self.mesh = mesh
        self.form = form
        self.space: FunctionSpace = form.make_space(mesh)
        if dirichlet is None or callable(dirichlet):
            self.dirichlet_dofs = self.space.boundary_dofs(dirichlet)
        else:
            self.dirichlet_dofs = np.unique(
                np.asarray(dirichlet, dtype=np.int64))
        if self.dirichlet_dofs.size == 0:
            raise DecompositionError(
                "problem has no Dirichlet dofs; the operator would be "
                "singular (pure-Neumann problems are not supported)")
        n = self.space.num_dofs
        mask = np.ones(n, dtype=bool)
        mask[self.dirichlet_dofs] = False
        #: global free (unconstrained) dof ids, sorted
        self.free = np.flatnonzero(mask)
        #: full-dof -> reduced index, -1 on constrained dofs
        self.free_lookup = np.full(n, -1, dtype=np.int64)
        self.free_lookup[self.free] = np.arange(self.free.size)

    @property
    def num_free(self) -> int:
        return int(self.free.size)

    # ------------------------------------------------------------------
    @cached_property
    def _load(self) -> np.ndarray:
        return self.form.assemble_rhs(self.space)[self.free]

    def _free_matrix(self) -> sp.csr_matrix:
        """Unscaled A on the free dofs, scattered straight from the
        element matrices (constrained rows/columns are dropped)."""
        space = self.space
        return scatter_matrix(self.form.element_matrices(space),
                              space.cell_dofs, self.num_free,
                              self.free_lookup)

    # -- symmetric Jacobi scaling --------------------------------------
    def set_scale(self, scale: np.ndarray) -> None:
        """Install the scaling vector (computed by the decomposition from
        the *local* matrix diagonals — the global A stays unassembled)."""
        scale = np.asarray(scale, dtype=np.float64)
        if scale.shape != (self.num_free,):
            raise DecompositionError(
                f"scale must have shape ({self.num_free},), got {scale.shape}")
        self._scale = scale

    @property
    def scale(self) -> np.ndarray | None:
        """diag(A)^{-1/2} on free dofs (None when scaling is off)."""
        if self.scaling is None:
            return None
        if self._scale is None:
            d = self._free_matrix().diagonal()
            # |d|: indefinite operators (Helmholtz past the resonance)
            # have negative diagonal entries; sqrt(d) would be NaN.
            # Bitwise identical to the old expression for SPD operators.
            self.set_scale(1.0 / np.sqrt(np.abs(d)))
        return self._scale

    def matrix(self) -> sp.csr_matrix:
        """Reduced global stiffness matrix (assembled lazily; reference
        use only — the DD path never forms it).  Includes the symmetric
        scaling when enabled."""
        A = self._free_matrix()
        s = self.scale
        if s is not None:
            S = sp.diags(s)
            A = (S @ A @ S).tocsr()
        return A

    def rhs(self) -> np.ndarray:
        """Reduced (and scaled, if enabled) right-hand side."""
        s = self.scale
        return self._load.copy() if s is None else s * self._load

    def extend(self, x_reduced: np.ndarray) -> np.ndarray:
        """Prolong a reduced solution to the full dof vector (zeros on the
        Dirichlet boundary), undoing the symmetric scaling."""
        s = self.scale
        out = np.zeros(self.space.num_dofs)
        out[self.free] = x_reduced if s is None else s * x_reduced
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Problem({type(self.form).__name__}, "
                f"n={self.space.num_dofs}, free={self.num_free})")
