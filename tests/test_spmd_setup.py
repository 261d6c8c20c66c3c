"""The fully-distributed setup must reproduce the sequential
decomposition exactly — the paper's 'no global ordering needed' claim."""

import numpy as np
import pytest

from repro.core.spmd_setup import spmd_build_decomposition
from repro.dd import Decomposition, Problem
from repro.fem import channels_and_inclusions, layered_elasticity
from repro.fem.forms import (
    ConvectionDiffusionForm,
    DiffusionForm,
    ElasticityForm,
    HelmholtzForm,
)
from repro.mesh import rectangle, unit_square
from repro.mpi import Meter, run_spmd
from repro.partition import partition_mesh


def assert_same_local_data(seq, loc):
    """The rank's own build is bitwise the sequential one: its element
    matrices and the decomposition's all-cell pass must not drift."""
    assert np.array_equal(seq.dofs, loc.dofs)
    for name in ("A_dir", "A_neu", "A_geneo"):
        a, b = getattr(seq, name), getattr(loc, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert np.array_equal(a.indptr, b.indptr), name
            assert np.array_equal(a.indices, b.indices), name
            assert np.array_equal(a.data, b.data), name
    assert np.array_equal(seq.d, loc.d)
    assert seq.neighbors == loc.neighbors
    for j in seq.neighbors:
        assert np.array_equal(seq.shared[j], loc.shared[j])


def build_both(problem, part, delta, meter=None):
    dec = Decomposition(problem, part, delta=delta)
    N = dec.num_subdomains
    locals_ = run_spmd(
        N, spmd_build_decomposition, problem, part, delta, meter=meter)
    return dec, locals_


@pytest.mark.parametrize("delta", [1, 2])
def test_matches_sequential_diffusion(delta):
    mesh = unit_square(14)
    kappa = channels_and_inclusions(mesh, seed=4)
    prob = Problem(mesh, DiffusionForm(degree=2, kappa=kappa))
    part = partition_mesh(mesh, 5, seed=2)
    dec, locals_ = build_both(prob, part, delta)
    for seq, loc in zip(dec.subdomains, locals_):
        assert_same_local_data(seq, loc)


def test_matches_sequential_elasticity_scaled():
    mesh = rectangle(12, 4, x1=3.0)
    lam, mu = layered_elasticity(mesh)
    prob = Problem(mesh, ElasticityForm(degree=2, lam=lam, mu=mu),
                   dirichlet=lambda x: x[:, 0] < 1e-9, scaling="jacobi")
    part = partition_mesh(mesh, 4, seed=0)
    # the sequential path installs the scale on the problem; build it
    # first so both operate on the same scaled system
    dec = Decomposition(prob, part, delta=1)
    locals_ = run_spmd(4, spmd_build_decomposition, prob, part, 1)
    for seq, loc in zip(dec.subdomains, locals_):
        assert_same_local_data(seq, loc)


@pytest.mark.parametrize("kind", ["convdiff", "helmholtz"])
def test_matches_sequential_nonsymmetric_scaled(kind):
    """Both setups scale by |diag| from one shared step and carry the
    extended-GenEO surrogate A_geneo.  The Helmholtz wavenumber puts
    negative entries on the diagonal, where sqrt(diag) would be NaN."""
    mesh = unit_square(10)
    kappa = channels_and_inclusions(mesh, seed=4)
    if kind == "convdiff":
        form = ConvectionDiffusionForm(degree=2, kappa=0.02 * kappa,
                                       beta=np.array([60.0, 24.0]))
    else:
        form = HelmholtzForm(degree=1, kappa=kappa, k=80.0, epsilon=0.1)
    prob = Problem(mesh, form, scaling="jacobi")
    part = partition_mesh(mesh, 4, seed=0)
    dec = Decomposition(prob, part, delta=1)
    locals_ = run_spmd(4, spmd_build_decomposition, prob, part, 1)
    if kind == "helmholtz":
        assert min(s.A_dir.diagonal().min() for s in dec.subdomains) < 0
    for seq, loc in zip(dec.subdomains, locals_):
        assert seq.A_geneo is not None
        for name in ("A_dir", "A_neu", "A_geneo"):
            assert np.all(np.isfinite(getattr(loc, name).data)), name
        assert_same_local_data(seq, loc)


def test_partition_of_unity_from_messages():
    """The χ̃-exchange normalisation alone gives Σ RᵀDR = I."""
    mesh = unit_square(12)
    prob = Problem(mesh, DiffusionForm(degree=3))
    part = partition_mesh(mesh, 6, seed=1)
    locals_ = run_spmd(6, spmd_build_decomposition, prob, part, 2)
    acc = np.zeros(prob.num_free)
    for loc in locals_:
        np.add.at(acc, loc.dofs, loc.d)
    assert np.abs(acc - 1).max() < 1e-12


def test_setup_traffic_is_neighbour_local():
    """Setup communication = dof keys + χ̃ values with neighbours only;
    no collectives over the world communicator at all."""
    mesh = unit_square(12)
    prob = Problem(mesh, DiffusionForm(degree=2))
    part = partition_mesh(mesh, 6, seed=1)
    meter = Meter(6)
    run_spmd(6, spmd_build_decomposition, prob, part, 1, meter=meter)
    assert meter.total_collectives() == 0          # pure point-to-point
    assert meter.max_global_syncs() == 0
    # bounded by candidates (keys) + neighbours (chi): O(|O_i|) messages
    for r in range(6):
        assert 0 < meter.stats(r).sends <= 2 * 6


def test_delta_validation():
    from repro.common.errors import DecompositionError
    mesh = unit_square(6)
    prob = Problem(mesh, DiffusionForm(degree=1))
    part = partition_mesh(mesh, 2, seed=0)
    with pytest.raises(DecompositionError):
        run_spmd(2, spmd_build_decomposition, prob, part, 0)


def test_rank_factors_match_in_process_ras(monkeypatch):
    """Every SPMD rank factor — set up by ``assemble_coarse_spmd`` or
    rebuilt from a checkpoint by ``solve_spmd_ft`` after a kill — is
    the in-process RAS factor of its subdomain: the same LDLᵀ, so the
    same ``nnz_factor``."""
    from repro.core import solve_spmd_ft, spmd, spmd_ft
    from repro.core.ras import OneLevelRAS
    from repro.resilience import (ChaosConfig, FaultPlan, FaultSpec,
                                  build_problem)

    dec, space, b = build_problem(ChaosConfig(nranks=6, mesh_n=12, nev=2))
    ras = OneLevelRAS(dec)
    assert dec.is_spd and all(f.symmetric for f in ras.factorizations)
    seen = {spmd: [], spmd_ft: []}
    for mod, log in seen.items():
        def spy(dec, i, *args, _real=mod.rank_factor, _log=log, **kw):
            f = _real(dec, i, *args, **kw)
            _log.append((i, f.nnz_factor))
            return f
        monkeypatch.setattr(mod, "rank_factor", spy)

    plan = FaultPlan([FaultSpec("kill", "iteration", rank=3, nth=5)],
                     seed=7, timeout=2.0)
    rep = solve_spmd_ft(dec, space, b, num_masters=2, spares=1,
                        faults=plan, tol=1e-6, restart=30, maxiter=120)
    assert rep.converged
    assert rep.recoveries[0]["restored_from_ckpt"] == [3]
    assert sorted(i for i, _ in seen[spmd]) == list(range(6))
    assert [i for i, _ in seen[spmd_ft]] == [3]
    for i, nnz in seen[spmd] + seen[spmd_ft]:
        assert nnz == ras.factorizations[i].nnz_factor, i
