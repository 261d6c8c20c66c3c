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
what needs every subdomain at once, each as one whole-array pass: the
element matrices of every cell (computed once and sliced per
subdomain, where each T_i^{δ+1} would repeat the cells its neighbours
also cover), the χ̃ sum, the scale vector and the exchange maps.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import DecompositionError
from ..common.validation import as_float64_block
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
        as spans (``build_subdomains`` with ``element_matrices`` inside
        it, ``apply_scaling``, ``build_exchange``, ``detect_symmetry``)
        and counts every matvec under the ``matvecs`` counter.
    kernels:
        Optional :class:`~repro.kernels.KernelBackend` owning the
        matvec pass and the overlap-exchange kernel; ``None`` uses the
        reference ``numpy`` backend (identical operations).
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
        #: number of A·x products performed (the solve-phase SpMV
        #: counter — the fast A-DEF1 apply path must not move it)
        self.matvecs = 0
        with self.recorder.span("build_subdomains"):
            self._build_subdomains()
        with self.recorder.span("apply_scaling"):
            self._apply_scaling()
        with self.recorder.span("build_exchange"):
            self._build_exchange()
        with self.recorder.span("detect_symmetry"):
            self._detect_symmetry()
        #: the kernel backend's one-call matvec over the subdomain
        #: arrays, or ``None`` for the reference loop
        self._fused = self.kernels.fuse_matvec(self)

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
        problem.space.cell_dofs

        # every cell's element matrices once: the T_i^{δ+1} overlap, so
        # per-subdomain passes would compute most cells twice or more;
        # each task slices its own cells, reading only
        with self.recorder.span("element_matrices"):
            Ke, Kg = problem.form.element_matrices_with_geneo(problem.space)

        # grow to δ+1 once; T_i^δ is the layer <= δ prefix
        grown = parallel_map(
            lambda i: grow_overlap(mesh, self.part, i, delta + 1),
            range(N), self.parallel)
        overlaps_d = [(cells[layers <= delta], layers[layers <= delta])
                      for cells, layers in grown]
        chi, chi_total = chi_tilde(mesh, overlaps_d, delta)

        def build_one(i: int) -> Subdomain:
            cells, layers = grown[i]
            sub = build_subdomain(problem, i, cells, layers, delta,
                                  Ke[cells], None if Kg is None else Kg[cells])
            verts, chi_vals = chi[i]
            sub.d = partition_of_unity(problem, sub, verts, chi_vals,
                                       chi_total[verts])
            return sub

        self.subdomains = parallel_map(build_one, range(N), self.parallel)

    # ------------------------------------------------------------------
    def _build_exchange(self) -> None:
        """Compute neighbour sets O_i and the aligned shared-dof position
        arrays that realise R_i R_jᵀ, in whole-array passes."""
        subs = self.subdomains
        sizes = np.array([s.size for s in subs], dtype=np.int64)
        dofs_all = np.concatenate([s.dofs for s in subs])
        owner = np.repeat(np.arange(len(subs), dtype=np.int64), sizes)
        pos = (np.arange(dofs_all.size, dtype=np.int64)
               - np.repeat(np.cumsum(sizes) - sizes, sizes))
        order = np.argsort(dofs_all, kind="stable")
        dsort, osort, psort = dofs_all[order], owner[order], pos[order]
        starts = np.flatnonzero(np.r_[True, dsort[1:] != dsort[:-1]])
        counts = np.diff(np.r_[starts, dsort.size])
        multiplicity = np.zeros(self.problem.num_free, dtype=np.int64)
        multiplicity[dsort[starts]] = counts
        if np.any(multiplicity == 0):  # pragma: no cover - internal check
            raise DecompositionError("a free dof belongs to no subdomain")
        self.multiplicity = multiplicity

        # every ordered pair (a, b), a != b, of a shared dof's owners,
        # one multiplicity class m at a time: m(m-1) pairs per dof
        me, nb, at = [], [], []
        for m in np.unique(counts[counts > 1]):
            first = starts[counts == m][:, None]
            a, b = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
            off = a != b
            ia, ib = first + a[off], first + b[off]
            me.append(osort[ia].ravel())
            nb.append(osort[ib].ravel())
            at.append(psort[ia].ravel())
        if me:
            me, nb, at = (np.concatenate(v) for v in (me, nb, at))
            # by (owner, neighbour), then position — ascending global dof,
            # as ``dofs`` ascends: both sides of a pair align
            o = np.lexsort((at, nb, me))
            me, nb, at = me[o], nb[o], at[o]
            cut = np.flatnonzero(np.r_[True, (me[1:] != me[:-1])
                                       | (nb[1:] != nb[:-1])])
            for lo, hi in zip(cut, np.r_[cut[1:], me.size]):
                subs[me[lo]].shared[int(nb[lo])] = at[lo:hi]
        for s in subs:
            s.neighbors = sorted(s.shared)
            s.overlap_mask = multiplicity[s.dofs] > 1

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
    # Neighbour exchange (eq. 5's communication) and the matvec
    # ------------------------------------------------------------------
    def exchange_sum(self, x_list: list[np.ndarray]) -> list[np.ndarray]:
        """y_i = Σ_{j ∈ Ō_i} R_i R_jᵀ x_j  (the j = i term is x_i itself).

        This is the communication pattern of one global sparse
        matrix–vector product (peer-to-peer transfers on the overlap);
        the loop itself lives in the kernel backend
        (:meth:`repro.kernels.KernelBackend.exchange_sum`).
        """
        return self.kernels.exchange_sum(self.subdomains, x_list)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Global A·x from the subdomain data alone (the global matrix
        is never touched); returns the reduced vector.

        In process, eq. (5)'s ``combine(exchange_sum(A_j D_j x_j))`` is
        the operator ``Σ_j R_jᵀ A_j D_j R_j x`` — the partition of unity
        sums to one — so it is computed as that sum, in one pass over
        the subdomains: the kernel backend's compiled pass
        (:meth:`~repro.kernels.KernelBackend.fuse_matvec`) or the
        reference loop, bitwise equal.  The SPMD ranks keep the
        exchange (:meth:`repro.core.spmd.SpmdRank.matvec`)."""
        self.matvecs += 1
        if self.recorder.enabled:
            self.recorder.add("matvecs", 1)
        if self._fused is not None:
            return self._fused.apply(x)
        out = np.zeros(self.problem.num_free)
        for s in self.subdomains:
            out[s.dofs] += s.A_dir @ (s.d * x[s.dofs])
        return out

    def matvec_block(self, X: np.ndarray) -> np.ndarray:
        """Blocked A·X for a column block ``X (n_free, k)``: the
        :meth:`matvec` sum with one csrmm per subdomain instead of k
        csrmvs; column c is bitwise ``matvec(X[:, c])``.  Counts as k
        matvecs.
        """
        X = as_float64_block(X, "matvec_block", DecompositionError)
        k = X.shape[1]
        self.matvecs += k
        if self.recorder.enabled:
            self.recorder.add("matvecs", k)
        if self._fused is not None:
            return self._fused.apply_block(X)
        out = np.zeros((self.problem.num_free, k))
        for s in self.subdomains:
            out[s.dofs] += s.A_dir @ (s.d[:, None] * X[s.dofs])
        return out

    # ------------------------------------------------------------------
    def neighbor_counts(self) -> np.ndarray:
        """|O_i| per subdomain (drives the fill of E in fig. 11)."""
        return np.array([len(s.neighbors) for s in self.subdomains])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Decomposition(N={self.num_subdomains}, delta={self.delta}, "
                f"n_free={self.problem.num_free})")
