"""Nonsymmetric/indefinite workloads: assembly, coarse spaces, guards.

Covers the convection–diffusion (SUPG) and Helmholtz-with-absorption
forms, the extended-GenEO coarse space and its registry, and the
SPD-assumption guard sweep: every code path that silently assumed a
symmetric operator must now either branch on the detected asymmetry
flag or fail with a typed :class:`~repro.common.errors.SymmetryError`.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro import FaultPlan, FaultSpec, SchwarzSolver
from repro.common.errors import ReproError, SymmetryError
from repro.common.validation import matrix_is_symmetric
from repro.core.geneo import (
    available_coarse_spaces,
    extended_deflation,
    extended_pencil,
    get_coarse_space,
)
from repro.fem import channels_and_inclusions
from repro.fem.forms import (
    ConvectionDiffusionForm,
    DiffusionForm,
    HelmholtzForm,
    supg_tau,
)
from repro.fem.postprocess import energy_norm
from repro.mesh import unit_square


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def convdiff_form(mesh, *, peclet=60.0, seed=3, contrast_scale=0.02):
    kappa = contrast_scale * channels_and_inclusions(mesh, seed=seed)
    beta = peclet * np.array([1.0, 0.4])
    return ConvectionDiffusionForm(degree=1, kappa=kappa, beta=beta)


def helmholtz_form(mesh, *, k=10.0, epsilon=0.3):
    return HelmholtzForm(degree=1, k=k, epsilon=epsilon)


@pytest.fixture(scope="module")
def mesh20():
    return unit_square(20)


@pytest.fixture(scope="module")
def convdiff_solver(mesh20):
    return SchwarzSolver(mesh20, convdiff_form(mesh20),
                         num_subdomains=6, nev=6)


# ----------------------------------------------------------------------
# Assembly properties
# ----------------------------------------------------------------------

class TestAssembly:
    def test_convdiff_is_nonsymmetric_and_flagged(self, mesh20):
        form = convdiff_form(mesh20)
        assert form.symmetric is False and form.spd is False
        from repro.dd import Problem
        A = Problem(mesh20, form).matrix()
        assert not matrix_is_symmetric(A)

    def test_advection_skew_symmetric_on_free_dofs(self, mesh20):
        # constant beta + homogeneous Dirichlet everywhere: the pure
        # advection matrix restricted to interior dofs is exactly
        # skew-symmetric (integration by parts, no boundary term)
        from repro.fem import FunctionSpace, assemble_advection
        space = FunctionSpace(mesh20, degree=1)
        C = assemble_advection(space, np.array([1.0, 0.4]))
        free = np.setdiff1d(np.arange(space.num_dofs),
                            space.boundary_dofs())
        Cf = C[np.ix_(free, free)]
        asym = abs(Cf + Cf.T).max()
        assert asym <= 1e-12 * max(1.0, abs(Cf).max())

    def test_supg_tau_limits(self, mesh20):
        h = mesh20.cell_diameters()
        # advection-dominated: tau -> h / (2 |beta|)
        tau = supg_tau(mesh20, np.array([1e6, 0.0]), 1.0)
        assert np.allclose(tau, h / (2e6), rtol=1e-3)
        # diffusion-dominated: tau -> h^2 / (12 kappa)
        tau = supg_tau(mesh20, np.array([1e-8, 0.0]), 1.0)
        assert np.allclose(tau, h * h / 12.0, rtol=1e-3)
        # no advection: tau = 0 (not NaN)
        tau = supg_tau(mesh20, np.array([0.0, 0.0]), 1.0)
        assert np.all(tau == 0.0)

    def test_geneo_surrogate_is_spd(self, mesh20):
        form = convdiff_form(mesh20)
        from repro.fem import FunctionSpace
        space = FunctionSpace(mesh20, degree=1)
        G = form.assemble_geneo_matrix(space)
        assert matrix_is_symmetric(G)
        free = np.setdiff1d(np.arange(space.num_dofs),
                            space.boundary_dofs())
        w = np.linalg.eigvalsh(G[np.ix_(free, free)].toarray())
        assert w.min() > 0

    def test_helmholtz_symmetric_indefinite(self, mesh20):
        form = helmholtz_form(mesh20, k=12.0)
        assert form.symmetric is True and form.spd is False
        from repro.dd import Problem
        A = Problem(mesh20, form).matrix()   # already reduced to free dofs
        assert matrix_is_symmetric(A)
        w = np.linalg.eigvalsh(A.toarray())
        assert w.min() < 0 < w.max()


# ----------------------------------------------------------------------
# Symmetry detection + driver dispatch
# ----------------------------------------------------------------------

class TestDriverDispatch:
    def test_asymmetry_detected_once_on_decomposition(self, convdiff_solver):
        dec = convdiff_solver.decomposition
        assert dec.is_symmetric is False and dec.is_spd is False
        assert convdiff_solver.is_symmetric is False
        assert convdiff_solver.coarse_space_name == "extended"

    def test_helmholtz_symmetric_but_not_spd(self, mesh20):
        s = SchwarzSolver(mesh20, helmholtz_form(mesh20),
                          num_subdomains=4, nev=4)
        assert s.is_symmetric is True and s.is_spd is False
        assert s.coarse_space_name == "extended"

    def test_spd_problem_keeps_geneo(self, mesh20):
        s = SchwarzSolver(
            mesh20,
            DiffusionForm(degree=1,
                          kappa=channels_and_inclusions(mesh20, seed=3)),
            num_subdomains=4, nev=4)
        assert s.is_spd is True
        assert s.coarse_space_name == "geneo"

    @pytest.mark.parametrize("krylov", ["cg", "deflated-cg"])
    @pytest.mark.parametrize("builder", [convdiff_form, helmholtz_form])
    def test_cg_family_rejected(self, mesh20, krylov, builder):
        with pytest.raises(SymmetryError, match="SPD"):
            SchwarzSolver(mesh20, builder(mesh20),
                          num_subdomains=4, nev=4, krylov=krylov)

    @pytest.mark.parametrize("krylov", ["gmres", "fgmres", "sstep"])
    @pytest.mark.parametrize("builder", [convdiff_form, helmholtz_form])
    def test_nonsymmetric_drivers_converge(self, mesh20, krylov, builder):
        solver = SchwarzSolver(mesh20, builder(mesh20),
                               num_subdomains=6, nev=6, krylov=krylov)
        report = solver.solve(tol=1e-7, maxiter=300)
        assert report.converged
        x = report.x
        assert np.all(np.isfinite(x)) and np.linalg.norm(x) > 0


# ----------------------------------------------------------------------
# Extended coarse space
# ----------------------------------------------------------------------

class TestExtendedCoarseSpace:
    def test_registry_contents(self):
        names = available_coarse_spaces()
        assert {"geneo", "extended", "nicolaides"} <= set(names)
        with pytest.raises(ReproError, match="unknown coarse space"):
            get_coarse_space("no-such-space")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_COARSE_SPACE", "nicolaides")
        name, _ = get_coarse_space(None, operator_is_spd=False)
        assert name == "nicolaides"

    def test_auto_selection(self, monkeypatch):
        monkeypatch.delenv("REPRO_COARSE_SPACE", raising=False)
        assert get_coarse_space(None, operator_is_spd=True)[0] == "geneo"
        assert get_coarse_space(None,
                                operator_is_spd=False)[0] == "extended"

    def test_extended_pencil_spd_and_orthonormal(self, convdiff_solver):
        sub = convdiff_solver.decomposition.subdomains[0]
        A_ext, B = extended_pencil(sub)
        assert matrix_is_symmetric(sp.csr_matrix(A_ext))
        res = extended_deflation(sub, nev=4)
        W = res.W
        assert W.shape[1] >= 1
        # non-Hermitian-safe orthonormalisation: Euclidean QR columns
        G = W.T @ W
        assert np.allclose(G, np.eye(G.shape[0]), atol=1e-10)

    def test_extended_beats_symmetric_geneo(self, mesh20):
        # the ISSUE's headline: on a strongly advective problem the
        # extended coarse space should need no more iterations than
        # symmetrize-and-hope GenEO, and far fewer than one-level
        form = convdiff_form(mesh20, peclet=120.0, contrast_scale=0.005)
        its = {}
        for name, levels in (("extended", 2), ("geneo", 2), (None, 1)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                s = SchwarzSolver(mesh20, form, num_subdomains=6, nev=6,
                                  levels=levels, coarse_space=name)
                try:
                    its[name] = s.solve(tol=1e-7, maxiter=400).iterations
                except ReproError:
                    its[name] = 400
        assert its["extended"] <= its["geneo"]
        assert 2 * its["extended"] <= its[None]

    # the smoke grid of benchmarks/bench_nonsymmetric.py with the
    # extended-space gmres iterations recorded there; a cell fails past
    # 1.3 x recorded + 2 iterations
    @pytest.mark.parametrize("workload,param,contrast,recorded", [
        ("convdiff", 2.0, 1e1, 7), ("convdiff", 200.0, 1e1, 8),
        ("convdiff", 2.0, 1e3, 7), ("convdiff", 200.0, 1e3, 8),
        ("helmholtz", 5.0, 1e1, 8), ("helmholtz", 15.0, 1e1, 11),
        ("helmholtz", 5.0, 1e3, 7), ("helmholtz", 15.0, 1e3, 7),
    ])
    def test_extended_iterations_on_bench_grid(self, workload, param,
                                               contrast, recorded):
        n, beta = 32, np.array([1.0, 0.4])
        mesh = unit_square(n)
        if workload == "convdiff":
            # Pe = |beta| h / (2 kappa_bg)
            kbg = np.linalg.norm(beta) / n / (2.0 * param)
            kappa = channels_and_inclusions(
                mesh, kappa_min=kbg, kappa_max=kbg * contrast, seed=3)
            form = ConvectionDiffusionForm(degree=1, kappa=kappa, beta=beta)
        else:
            kappa = channels_and_inclusions(
                mesh, kappa_min=1.0, kappa_max=contrast, seed=3)
            form = HelmholtzForm(degree=1, kappa=kappa, k=param,
                                 epsilon=0.3)
        s = SchwarzSolver(mesh, form, num_subdomains=24, nev=6,
                          krylov="gmres", coarse_space="extended", seed=0)
        report = s.solve(tol=1e-7, maxiter=400)
        assert report.converged
        assert report.iterations <= 1.3 * recorded + 2, report.iterations


# ----------------------------------------------------------------------
# Kernel backends on nonsymmetric operators
# ----------------------------------------------------------------------

class TestKernelBackends:
    def test_symmetric_ldl_rejects_nonsymmetric(self):
        from repro.kernels.factor import SymmetricLDLFactorization
        A = sp.csr_matrix(np.array([[4.0, 1.0], [0.0, 3.0]]))
        with pytest.raises(SymmetryError):
            SymmetricLDLFactorization(A)

    @pytest.mark.parametrize("backend,counter", [
        ("compiled", "kernel.compiled_nonsymmetric_locals"),
    ])
    def test_backends_agree_with_numpy(self, mesh20, backend, counter):
        from repro.obs import Recorder
        form = convdiff_form(mesh20)
        ref = SchwarzSolver(mesh20, form, num_subdomains=6,
                            nev=6).solve(tol=1e-8)
        rec = Recorder()
        solver = SchwarzSolver(mesh20, form, num_subdomains=6, nev=6,
                               kernel_backend=backend, recorder=rec)
        rep = solver.solve(tol=1e-8)
        assert rep.converged
        assert np.linalg.norm(rep.x - ref.x) <= \
            1e-9 * np.linalg.norm(ref.x)
        # every local factorization must have taken the documented
        # general-LU fallback, not the symmetric-mode LDL
        assert rec.counters.get(counter, 0) == 6


# ----------------------------------------------------------------------
# Coarse-solve fallbacks (eigh -> SVD)
# ----------------------------------------------------------------------

class TestCoarseStrategyFallbacks:
    def test_pseudoinverse_svd_route(self):
        from repro.core.coarse import _PseudoInverse
        rng = np.random.default_rng(7)
        M = rng.standard_normal((12, 12))
        M[:, -1] = M[:, 0]              # make it singular
        E = sp.csr_matrix(M)
        pinv = _PseudoInverse(E, 1e-10)
        assert pinv.rank == 11
        b = rng.standard_normal(12)
        x = pinv.solve(b)
        ref = np.linalg.pinv(M, rcond=1e-10) @ b
        assert np.allclose(x, ref, atol=1e-8)

    def test_pseudoinverse_symmetric_unchanged(self):
        from repro.core.coarse import _PseudoInverse
        rng = np.random.default_rng(8)
        Q = np.linalg.qr(rng.standard_normal((10, 10)))[0]
        w = np.concatenate([np.linspace(1.0, 5.0, 8), [0.0, 0.0]])
        E = sp.csr_matrix(Q @ np.diag(w) @ Q.T)
        pinv = _PseudoInverse(E, 1e-10)
        assert pinv.rank == 8
        b = rng.standard_normal(10)
        assert np.allclose(E @ (pinv.solve(b)), E @ (np.linalg.pinv(
            E.toarray(), rcond=1e-8) @ b), atol=1e-8)

    def test_sparse_strategy_on_nonsymmetric_solve(self, mesh20):
        form = convdiff_form(mesh20)
        rep = SchwarzSolver(mesh20, form, num_subdomains=6,
                            nev=6).solve(tol=1e-7)
        assert rep.converged


# ----------------------------------------------------------------------
# Guards: energy_norm, solve_many
# ----------------------------------------------------------------------

class TestGuards:
    def test_energy_norm_raises_on_nonsymmetric(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
        with pytest.raises(SymmetryError, match="symmetric"):
            energy_norm(A, np.array([1.0, 1.0]))

    def test_energy_norm_raises_on_negative_form(self):
        A = sp.csr_matrix(np.diag([-1.0, -1.0]))
        with pytest.raises(SymmetryError):
            energy_norm(A, np.array([1.0, 0.0]))

    def test_solve_many_auto_picks_gmres(self, convdiff_solver):
        sess = convdiff_solver.session()
        b = convdiff_solver.problem.rhs()
        B = np.column_stack([b, 0.7 * b])
        batch = sess.solve_many(B, tol=1e-7)
        assert batch.driver == "block-gmres"
        assert batch.converged

    def test_solve_many_rejects_explicit_block_cg(self, convdiff_solver):
        sess = convdiff_solver.session()
        b = convdiff_solver.problem.rhs()
        with pytest.raises(SymmetryError, match="nonsymmetric"):
            sess.solve_many(np.column_stack([b, b]), driver="block-cg")


# ----------------------------------------------------------------------
# Resilience on nonsymmetric solves
# ----------------------------------------------------------------------

class TestResilience:
    def test_kill_plus_degrade_on_convdiff(self, mesh20):
        plan = FaultPlan([FaultSpec("kill", "local_solve", rank=2,
                                    nth=4, persistent=True)])
        solver = SchwarzSolver(mesh20, convdiff_form(mesh20),
                               num_subdomains=6, nev=6,
                               faults=plan, recovery="degrade")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = solver.solve(tol=1e-7, maxiter=400)
        assert report.converged
        assert report.resilience["mode"] == "degrade"
        assert sum(report.resilience["faults"].values()) >= 1

    def test_restart_recovery_on_convdiff(self, mesh20):
        plan = FaultPlan([FaultSpec("nan", "local_solve", rank=1, nth=3)])
        solver = SchwarzSolver(mesh20, convdiff_form(mesh20),
                               num_subdomains=6, nev=6,
                               faults=plan, recovery="restart")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = solver.solve(tol=1e-7, maxiter=400)
        assert report.converged
        assert report.resilience["restarts"] >= 1
