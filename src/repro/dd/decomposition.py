"""Overlapping decomposition: subdomain data + neighbour exchange maps.

This is the algebraic heart of the paper's §2: every subdomain carries

* its restriction ``R_i`` (an index set into the reduced global dofs),
* the assembled "Dirichlet" matrix ``A_i = R_i A R_iᵀ`` — obtained by the
  paper's approach 2 (assemble on V_i^{δ+1}, trim the extra layer; the
  global A is **never** assembled),
* the unassembled "Neumann" matrix ``A_i^δ`` (discretisation of the form
  on V_i^δ) used by the GenEO eigenproblem,
* the partition-of-unity diagonal ``D_i``,
* and the actions of ``R_i R_jᵀ`` for every neighbour j — position index
  pairs aligned by global dof, which is all eq. (5) needs to compute the
  distributed matrix–vector product with purely local data.

The first four come from :func:`repro.dd.subdomain.build_subdomain`,
the one builder :mod:`repro.core.spmd_setup` shares; this module adds
what needs every subdomain at once: the χ̃ sum, the scale vector and
the exchange maps.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import DecompositionError
from ..common.validation import as_float64_block
from ..fem.assembly import _cell_geometry
from ..parallel import ParallelConfig, parallel_map, resolve_parallel
from .overlap import grow_overlap
from .pou import chi_tilde
from .problem import Problem
from .subdomain import (
    Subdomain,
    apply_jacobi_scaling,
    build_subdomain,
    jacobi_scale,
    partition_of_unity,
)


class Decomposition:
    """The overlapping decomposition of a :class:`~repro.dd.problem.Problem`.

    Parameters
    ----------
    problem:
        Global problem (form + mesh + Dirichlet data).
    part:
        Per-cell subdomain ids (from :func:`repro.partition.partition_mesh`).
    delta:
        Overlap width δ >= 1 (the paper's strong-scaling runs use the
        minimal geometric overlap δ = 1).
    parallel:
        Executor for the per-subdomain build loop
        (:class:`~repro.parallel.ParallelConfig`, a backend name, or
        ``None`` for serial).  Results are executor-independent.
    recorder:
        Optional :class:`repro.obs.Recorder` — records the build steps
        as spans (``build_subdomains``, ``apply_scaling``,
        ``build_exchange``) and counts every distributed matvec under
        the ``matvecs`` counter.
    kernels:
        Optional :class:`~repro.kernels.KernelBackend` owning the
        overlap-exchange kernel; ``None`` uses the reference ``numpy``
        backend (identical operations).
    """

    def __init__(self, problem: Problem, part: np.ndarray, delta: int = 1,
                 *, parallel: ParallelConfig | str | None = None,
                 recorder=None, kernels=None):
        from ..kernels import default_backend
        from ..obs.recorder import NULL_RECORDER
        part = np.asarray(part, dtype=np.int64)
        if part.shape != (problem.mesh.num_cells,):
            raise DecompositionError(
                f"part must have shape ({problem.mesh.num_cells},), "
                f"got {part.shape}")
        if delta < 1:
            raise DecompositionError(f"delta must be >= 1, got {delta}")
        self.problem = problem
        self.part = part
        self.delta = int(delta)
        self.parallel = resolve_parallel(parallel)
        self.num_subdomains = int(part.max()) + 1
        self.recorder = NULL_RECORDER if recorder is None else recorder
        self.kernels = default_backend() if kernels is None else kernels
        #: number of distributed A·x products performed (the solve-phase
        #: SpMV counter — the fast A-DEF1 apply path must not move it)
        self.matvecs = 0
        with self.recorder.span("build_subdomains"):
            self._build_subdomains()
        with self.recorder.span("apply_scaling"):
            self._apply_scaling()
        with self.recorder.span("build_exchange"):
            self._build_exchange()
        self._detect_symmetry()

    # ------------------------------------------------------------------
    def _detect_symmetry(self) -> None:
        """Detect (a)symmetry of the global operator once, from local data.

        Every global nonzero ``A[p, q]`` comes from a cell interior to
        some subdomain's T_i^δ, so both ``(p, q)`` and ``(q, p)`` appear
        in that subdomain's principal submatrix ``A_dir`` — all-local
        symmetry therefore implies global symmetry, without ever
        assembling A.  The result is recorded on the operator as
        :attr:`is_symmetric`/:attr:`is_spd`, the single flag that driver
        dispatch, ``solve_many``'s auto-pick, deflated-cg validation and
        the kernel backends all branch on.
        """
        from ..common.validation import matrix_is_symmetric
        self.is_symmetric = all(
            matrix_is_symmetric(s.A_dir) for s in self.subdomains)
        #: symmetric + the form's definiteness claim (indefinite forms
        #: such as Helmholtz declare spd=False even though symmetric)
        self.is_spd = bool(
            self.is_symmetric and getattr(self.problem.form, "spd", True))

    # ------------------------------------------------------------------
    def _apply_scaling(self) -> None:
        """Symmetric Jacobi scaling computed from *local* diagonals.

        diag(A)|_{V_i^δ} = diag(A_i) because A_i is the assembled Dirichlet
        matrix, so the global scale vector is available without ever
        assembling A — every subdomain just scatters its diagonal."""
        if self.problem.scaling is None:
            return
        scale = np.zeros(self.problem.num_free)
        for s in self.subdomains:
            scale[s.dofs] = jacobi_scale(s)
        self.problem.set_scale(scale)
        for s in self.subdomains:
            apply_jacobi_scaling(s, scale[s.dofs])

    # ------------------------------------------------------------------
    def _build_subdomains(self) -> None:
        problem, delta = self.problem, self.delta
        mesh = problem.mesh
        N = self.num_subdomains
        # pre-warm the lazy global caches every task reads, so
        # concurrent tasks never race to populate one
        mesh.vertex_to_cells
        mesh.cell_diameters()
        problem.space.cell_dofs
        _cell_geometry(problem.space)

        # grow to δ+1 once; T_i^δ is the layer <= δ prefix
        grown = parallel_map(
            lambda i: grow_overlap(mesh, self.part, i, delta + 1),
            range(N), self.parallel)
        overlaps_d = [(cells[layers <= delta], layers[layers <= delta])
                      for cells, layers in grown]
        chi, chi_total = chi_tilde(mesh, overlaps_d, delta)

        def build_one(i: int) -> Subdomain:
            sub = build_subdomain(problem, i, *grown[i], delta)
            verts, chi_vals = chi[i]
            sub.d = partition_of_unity(problem, sub, verts, chi_vals,
                                       chi_total[verts])
            return sub

        self.subdomains = parallel_map(build_one, range(N), self.parallel)

    # ------------------------------------------------------------------
    def _build_exchange(self) -> None:
        """Compute neighbour sets O_i and the aligned shared-dof position
        arrays that realise R_i R_jᵀ."""
        subs = self.subdomains
        dofs_all = np.concatenate([s.dofs for s in subs])
        owner = np.concatenate([np.full(s.size, s.index, dtype=np.int64)
                                for s in subs])
        pos = np.concatenate([np.arange(s.size, dtype=np.int64) for s in subs])
        order = np.argsort(dofs_all, kind="stable")
        dsort, osort, psort = dofs_all[order], owner[order], pos[order]
        starts = np.flatnonzero(np.r_[True, dsort[1:] != dsort[:-1]])
        ends = np.r_[starts[1:], dsort.size]

        from collections import defaultdict
        pair_pos: dict[tuple[int, int], list[int]] = defaultdict(list)
        multiplicity = np.zeros(self.problem.num_free, dtype=np.int64)
        for s0, s1 in zip(starts, ends):
            multiplicity[dsort[s0]] = s1 - s0
            if s1 - s0 < 2:
                continue
            group_owner = osort[s0:s1]
            group_pos = psort[s0:s1]
            for a in range(s1 - s0):
                for b in range(s1 - s0):
                    if group_owner[a] != group_owner[b]:
                        pair_pos[(group_owner[a], group_owner[b])].append(
                            group_pos[a])
        if np.any(multiplicity == 0):  # pragma: no cover - internal check
            raise DecompositionError("a free dof belongs to no subdomain")
        self.multiplicity = multiplicity

        for (i, j), plist in pair_pos.items():
            # entries appended in ascending global-dof order (groups are
            # visited in sorted order), so both sides align
            subs[i].shared[j] = np.asarray(plist, dtype=np.int64)
        for s in subs:
            s.neighbors = sorted(s.shared.keys())
            mask = np.zeros(s.size, dtype=bool)
            for j in s.neighbors:
                mask[s.shared[j]] = True
            s.overlap_mask = mask

    # ------------------------------------------------------------------
    # Global <-> local transfers (test / driver utilities)
    # ------------------------------------------------------------------
    def restrict(self, u: np.ndarray) -> list[np.ndarray]:
        """u_i = R_i u for every subdomain."""
        return [u[s.dofs] for s in self.subdomains]

    def combine(self, u_list: list[np.ndarray]) -> np.ndarray:
        """Σ_i R_iᵀ D_i u_i — the partition-of-unity prolongation.

        A subdomain's dofs are unique, so fancy-index accumulation is
        exact (and far cheaper than ``np.add.at``'s unbuffered path).
        """
        out = np.zeros(self.problem.num_free)
        for s, ui in zip(self.subdomains, u_list):
            out[s.dofs] += s.d * ui
        return out

    def combine_raw(self, u_list: list[np.ndarray]) -> np.ndarray:
        """Σ_i R_iᵀ u_i (no partition of unity)."""
        out = np.zeros(self.problem.num_free)
        for s, ui in zip(self.subdomains, u_list):
            out[s.dofs] += ui
        return out

    # ------------------------------------------------------------------
    # Neighbour exchange and the distributed matvec of eq. (5)
    # ------------------------------------------------------------------
    def exchange_sum(self, x_list: list[np.ndarray]) -> list[np.ndarray]:
        """y_i = Σ_{j ∈ Ō_i} R_i R_jᵀ x_j  (the j = i term is x_i itself).

        This is the communication pattern of one global sparse
        matrix–vector product (peer-to-peer transfers on the overlap);
        the loop itself lives in the kernel backend
        (:meth:`repro.kernels.KernelBackend.exchange_sum`).
        """
        return self.kernels.exchange_sum(self.subdomains, x_list)

    def matvec_local(self, x_list: list[np.ndarray]) -> list[np.ndarray]:
        """(Ax)_i from purely local data: eq. (5),
        (Ax)_i = Σ_j R_i R_jᵀ A_j D_j x_j, for consistent inputs x_i = R_i x.
        """
        t = [s.A_dir @ (s.d * xi) for s, xi in zip(self.subdomains, x_list)]
        return self.exchange_sum(t)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Global A·x computed through the distributed algorithm (never
        touching the assembled global matrix); returns the reduced vector.

        Consistency: the result is read off subdomain-local pieces using
        the partition of unity (each dof's value is identical on every
        subdomain owning it, so any weighted combination returns it)."""
        self.matvecs += 1
        if self.recorder.enabled:
            self.recorder.add("matvecs", 1)
        y_list = self.matvec_local(self.restrict(x))
        return self.combine(y_list)

    def matvec_block(self, X: np.ndarray) -> np.ndarray:
        """Blocked distributed A·X for a column block ``X (n_free, k)``.

        Same algorithm as :meth:`matvec` run on all k columns at once:
        one csrmm per subdomain instead of k csrmvs, and one neighbour
        exchange for the whole block (``exchange_sum`` is shape-generic —
        the shared-dof row indexing broadcasts over columns).  Counts as
        k distributed matvecs.
        """
        X = as_float64_block(X, "matvec_block", DecompositionError)
        k = X.shape[1]
        self.matvecs += k
        if self.recorder.enabled:
            self.recorder.add("matvecs", k)
        subs = self.subdomains
        t = [s.A_dir @ (s.d[:, None] * X[s.dofs, :]) for s in subs]
        summed = self.exchange_sum(t)
        out = np.zeros((self.problem.num_free, k))
        for s, yi in zip(subs, summed):
            out[s.dofs] += s.d[:, None] * yi
        return out

    # ------------------------------------------------------------------
    def neighbor_counts(self) -> np.ndarray:
        """|O_i| per subdomain (drives the fill of E in fig. 11)."""
        return np.array([len(s.neighbors) for s in self.subdomains])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Decomposition(N={self.num_subdomains}, delta={self.delta}, "
                f"n_free={self.problem.num_free})")
