"""The kernel-backend registry and its two built-in backends.

The load-bearing guarantees pinned here:

* the ``numpy`` backend performs **bitwise** the operations the
  historical inlined code performed (MGS, blocked CGS2, the overlap
  exchange, the RAS combine);
* the ``compiled`` backend is the default where its library builds,
  is numerically interchangeable with the reference and degrades to
  ``numpy`` when the library is absent;
* the block plumbing enforces the documented dtype contract.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro import SchwarzSolver
from repro.common.errors import KrylovError, ReproError
from repro.common.validation import as_float64_block
from repro.core.coarse import CoarseOperator
from repro.core.deflation import DeflationSpace
from repro.core.geneo import compute_deflation
from repro.core.ras import OneLevelRAS
from repro.dd import Decomposition, Problem
from repro.fem import channels_and_inclusions
from repro.fem.forms import ConvectionDiffusionForm, DiffusionForm
from repro.kernels import (
    ENV_VAR,
    BackendUnavailable,
    CompiledBackend,
    KernelBackend,
    available_backends,
    backend_names,
    default_backend,
    get_backend,
    register,
)
from repro.kernels.csrc import load_library
from repro.kernels.factor import (
    FusedLocalApply,
    SymmetricLDLFactorization,
    probe_factorization,
)
from repro.kernels.registry import _FACTORIES
from repro.krylov import fgmres, gmres
from repro.mesh import unit_square
from repro.obs import Recorder
from repro.partition import partition_mesh
from repro.resilience import HealthMonitor
from repro.solvers.ldl import SparseLDL
from repro.solvers.local import factorize

HAS_LIB = load_library() is not None


def _spd(n, rng, density=0.3):
    A = sp.random(n, n, density=density, random_state=rng.integers(1 << 30))
    A = A + A.T + n * sp.eye(n)
    return sp.csr_matrix(A)


# ----------------------------------------------------------------------
# Registry behaviour
# ----------------------------------------------------------------------

def test_builtin_backends_registered():
    assert set(backend_names()) == {"numpy", "compiled"}


def test_get_backend_default_rule(monkeypatch):
    """Unset name and environment: ``compiled`` where its library
    builds, else ``numpy`` without a warning, the fallback noted."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    if HAS_LIB:
        assert type(get_backend()) is CompiledBackend
    import repro.kernels.compiled as mod
    monkeypatch.setattr(mod, "load_library", lambda: None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        backend = get_backend()
    assert type(backend) is KernelBackend
    assert any("'compiled' unavailable" in n for n in backend.notes)


def test_get_backend_env_var(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "numpy")
    assert type(get_backend()) is KernelBackend
    if HAS_LIB:
        # an explicit argument wins over the environment
        assert get_backend("compiled").name == "compiled"


def test_get_backend_unknown_name():
    with pytest.raises(ReproError, match="unknown kernel backend"):
        get_backend("no-such-backend")


def test_removed_fp32_backend_fails_typed(monkeypatch, capsys):
    """The deleted ``fp32`` name is an unknown backend on every
    selection path — argument, environment and CLI — never a silent
    fallback to another backend."""
    from repro.cli import main as cli_main
    expected = "unknown kernel backend 'fp32'; " \
        "expected one of ['compiled', 'numpy']"
    with pytest.raises(ReproError) as exc:
        get_backend("fp32")
    assert str(exc.value) == expected
    monkeypatch.setenv(ENV_VAR, "fp32")
    with pytest.raises(ReproError) as exc:
        get_backend()
    assert str(exc.value) == expected
    monkeypatch.delenv(ENV_VAR)
    with pytest.raises(SystemExit) as exc:
        cli_main(["solve", "--problem", "diffusion2d", "--n", "8",
                  "-N", "4", "--nev", "2", "--backend", "fp32"])
    assert str(exc.value.code) == f"error: {expected}"
    assert "converged" not in capsys.readouterr().out


def test_get_backend_instance_passthrough():
    inst = KernelBackend()
    assert get_backend(inst) is inst


def test_register_and_unavailable_fallback(monkeypatch):
    @register("_test_broken")
    def _factory(recorder):
        raise BackendUnavailable("probe failed on purpose")

    try:
        with pytest.warns(RuntimeWarning, match="falling back to 'numpy'"):
            backend = get_backend("_test_broken")
        assert backend.name == "numpy"
        assert any("probe failed on purpose" in n for n in backend.notes)
    finally:
        _FACTORIES.pop("_test_broken", None)


def test_compiled_unavailable_degrades(monkeypatch):
    import repro.kernels.compiled as mod
    monkeypatch.setattr(mod, "load_library", lambda: None)
    with pytest.warns(RuntimeWarning, match="unavailable"):
        backend = get_backend("compiled")
    assert backend.name == "numpy"


def test_available_backends_table():
    table = available_backends()
    assert table["numpy"]["available"] is True
    assert table["numpy"]["precision"] == "fp64"
    for row in table.values():
        assert {"name", "available"} <= set(row)


def test_default_backend_is_shared_singleton():
    assert default_backend() is default_backend()
    assert default_backend().name == "numpy"


# ----------------------------------------------------------------------
# Bitwise regression: the numpy backend IS the historical code
# ----------------------------------------------------------------------

def test_ortho_step_bitwise_mgs(rng):
    """numpy ortho_step == the pre-registry inlined MGS, bit for bit."""
    n, m = 200, 8
    kern = KernelBackend()
    V = np.zeros((n, m + 1))
    H = np.zeros((m + 1, m))
    Vr, Hr = V.copy(), H.copy()
    v0 = rng.standard_normal(n)
    V[:, 0] = Vr[:, 0] = v0 / np.linalg.norm(v0)
    scratch = np.empty(n)
    for j in range(m):
        w = rng.standard_normal(n)
        wr = w.copy()
        syncs = kern.ortho_step(V, w, H, j, scratch)
        assert syncs == 2
        # the historical inline loop, verbatim
        for i in range(j + 1):
            Hr[i, j] = float(wr @ Vr[:, i])
            np.multiply(Vr[:, i], Hr[i, j], out=scratch)
            np.subtract(wr, scratch, out=wr)
        Hr[j + 1, j] = float(np.linalg.norm(wr))
        if Hr[j + 1, j] > 0:
            np.divide(wr, Hr[j + 1, j], out=Vr[:, j + 1])
    assert np.array_equal(H, Hr)
    assert np.array_equal(V, Vr)


def test_ortho_block_bitwise_cgs2(rng):
    """numpy ortho_block == the pre-registry blocked CGS2, bit for bit."""
    n, k, p = 150, 12, 3
    kern = KernelBackend()
    Vb, _ = np.linalg.qr(rng.standard_normal((n, k)))
    Vb = np.ascontiguousarray(Vb)
    W = rng.standard_normal((n, p))

    def qr_block(M):
        return np.linalg.qr(M)

    Hcol, Vnew, Hdiag = kern.ortho_block(Vb, k, W.copy(), qr_block)
    # reference: two classical Gram–Schmidt sweeps then QR, verbatim
    C1 = Vb[:, :k].T @ W
    Wr = W - Vb[:, :k] @ C1
    C2 = Vb[:, :k].T @ Wr
    Wr = Wr - Vb[:, :k] @ C2
    Vr, Hr = qr_block(Wr)
    assert np.array_equal(Hcol, C1 + C2)
    assert np.array_equal(Vnew, Vr)
    assert np.array_equal(Hdiag, Hr)


def test_exchange_sum_bitwise(diffusion_decomposition, rng):
    dec = diffusion_decomposition
    x_list = [rng.standard_normal(s.size) for s in dec.subdomains]
    got = dec.exchange_sum(x_list)
    # the pre-registry inline loop, verbatim
    ref = [x.copy() for x in x_list]
    for s in dec.subdomains:
        for j in s.neighbors:
            ref[s.index][s.shared[j]] += \
                x_list[j][dec.subdomains[j].shared[s.index]]
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)


def test_ras_apply_bitwise_on_numpy(diffusion_decomposition, rng):
    """The numpy backend keeps the legacy solve-then-combine path:
    apply == combine(per-subdomain solves), bit for bit."""
    dec = diffusion_decomposition
    ras = OneLevelRAS(dec, kernels=KernelBackend())
    assert ras._fused is None
    r = rng.standard_normal(dec.problem.num_free)
    got = ras.apply(r)
    sols = [f.solve(r[s.dofs])
            for f, s in zip(ras.factorizations, dec.subdomains)]
    assert np.array_equal(got, dec.combine(sols))


def test_gmres_default_kernels_matches_explicit(diffusion_decomposition):
    dec = diffusion_decomposition
    b = dec.problem.rhs()
    ras = OneLevelRAS(dec)
    r1 = gmres(dec.matvec, b, M=ras.apply, tol=1e-8)
    r2 = gmres(dec.matvec, b, M=ras.apply, tol=1e-8,
               kernels=KernelBackend())
    assert np.array_equal(r1.x, r2.x)
    assert r1.iterations == r2.iterations


# ----------------------------------------------------------------------
# Symmetric LDLᵀ factorization + fused handles
# ----------------------------------------------------------------------

@pytest.mark.skipif(not HAS_LIB, reason="no C toolchain")
def test_symmetric_ldl_compiled_path(rng):
    A = _spd(60, rng)
    fact = SymmetricLDLFactorization(A, lib=load_library())
    b = rng.standard_normal(60)
    x = fact.solve(b)
    assert x.dtype == np.float64
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
    B = rng.standard_normal((60, 4))
    X = fact.solve(B)
    assert X.shape == (60, 4)
    for c in range(4):
        assert np.array_equal(X[:, c], fact.solve(B[:, c]))


def test_probe_factorization_rejects_garbage(rng):
    A = _spd(40, rng)

    class Broken:
        def solve(self, b):
            return np.full_like(b, np.nan)

    class Wrong:
        def solve(self, b):
            return b * 3.0

    good = factorize(A, "superlu", spd=True)
    assert probe_factorization(good, A, 1e-10)
    assert not probe_factorization(Broken(), A, 1e-2)
    assert not probe_factorization(Wrong(), A, 1e-2)


@pytest.mark.skipif(not HAS_LIB, reason="no C toolchain")
def test_fused_local_apply_matches_plain(rng):
    n_glob, n_loc = 120, 40
    A = _spd(n_loc, rng)
    dofs = rng.choice(n_glob, size=n_loc, replace=False).astype(np.int64)
    d = rng.random(n_loc)
    fact = SymmetricLDLFactorization(A, lib=load_library())
    h = FusedLocalApply(fact, dofs, d)
    r = rng.standard_normal(n_glob)
    out = np.zeros(n_glob)
    h.apply_weighted(r, out)
    ref = np.zeros(n_glob)
    ref[dofs] += d * fact.solve(r[dofs])
    assert np.allclose(out, ref, atol=1e-12 * np.abs(ref).max())


@pytest.fixture(scope="module")
def convdiff_decomposition():
    mesh = unit_square(10)
    kappa = channels_and_inclusions(mesh, seed=4)
    form = ConvectionDiffusionForm(degree=2, kappa=0.02 * kappa,
                                   beta=np.array([60.0, 24.0]))
    return Decomposition(Problem(mesh, form, scaling="jacobi"),
                         partition_mesh(mesh, 4, seed=0), delta=1)


@pytest.mark.skipif(not HAS_LIB, reason="no C toolchain")
@pytest.mark.parametrize("backend,decomposition", [
    pytest.param(CompiledBackend, "diffusion_decomposition",
                 id="CompiledBackend"),
    pytest.param(CompiledBackend, "convdiff_decomposition",
                 id="CompiledBackend-convdiff"),
])
def test_fused_apply_block_matches_columns(request, rng, backend,
                                           decomposition):
    """The fused block kernels run each column through exactly the
    operations of the vector apply — LDLᵀ locals of a diffusion problem
    and the exported LU locals of a convection–diffusion one."""
    dec = request.getfixturevalue(decomposition)
    ras = OneLevelRAS(dec, kernels=backend())
    assert ras._fused is not None
    assert all(isinstance(h, FusedLocalApply) for h in ras._fused)
    R = rng.standard_normal((dec.problem.num_free, 5))
    P = ras.apply_block(R)
    for c in range(R.shape[1]):
        assert np.array_equal(P[:, c], ras.apply(R[:, c]))


@pytest.mark.skipif(not HAS_LIB, reason="no C toolchain")
def test_sparse_ldl_compiled_hook(rng):
    A = _spd(50, rng)
    ref = SparseLDL(A)
    b = rng.standard_normal(50)
    x_ref = ref.solve(b)
    hooked = SparseLDL(A)
    assert hooked.enable_compiled_solve()
    x = hooked.solve(b)
    assert np.allclose(x, x_ref, rtol=1e-12, atol=1e-12 * np.abs(x_ref).max())
    B = rng.standard_normal((50, 3))
    assert np.allclose(hooked.solve(B), ref.solve(B), rtol=1e-12)


def test_sparse_ldl_hook_absent_library(rng, monkeypatch):
    import repro.kernels.csrc as csrc
    monkeypatch.setattr(csrc, "load_library", lambda: None)
    A = _spd(20, rng)
    f = SparseLDL(A)
    assert not f.enable_compiled_solve()
    b = rng.standard_normal(20)
    assert np.linalg.norm(A @ f.solve(b) - b) <= 1e-10 * np.linalg.norm(b)


# ----------------------------------------------------------------------
# compiled end-to-end accuracy, convergence and the coarse fallback
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_problem():
    mesh = unit_square(20)
    form = DiffusionForm(degree=2, kappa=channels_and_inclusions(mesh,
                                                                 seed=2))
    return mesh, form


def _solve(mesh, form, backend, recorder=None, **kw):
    solver = SchwarzSolver(mesh, form, num_subdomains=6, nev=6,
                           kernel_backend=backend, recorder=recorder, **kw)
    return solver, solver.solve(tol=1e-8)


@pytest.fixture(scope="module")
def small_elasticity():
    """A small clamped cantilever_2d with layered Lamé coefficients:
    the Krylov-dominated case, where the fused apply does the work."""
    from repro.fem import layered_elasticity
    from repro.fem.forms import ElasticityForm
    from repro.mesh import cantilever_2d
    mesh = cantilever_2d(4, length=8.0)
    lam, mu = layered_elasticity(mesh, n_layers=8)
    form = ElasticityForm(degree=2, lam=lam, mu=mu,
                          f=np.array([0.0, -9.81]))
    return mesh, form, dict(dirichlet=lambda x: x[:, 0] < 1e-9)


#: x agreement with the numpy reference at tol=1e-8.  The layered
#: solid's conditioning amplifies the stopping tolerance: there, two
#: fp64 references (local solver "superlu" against "ldl") already differ
#: by 1.7e-8, so 1e-9 is reachable only on the diffusion problem
@pytest.mark.parametrize("case,xtol", [
    ("diffusion", 1e-9),
    ("elasticity", 1e-7),
], ids=["diffusion", "elasticity"])
def test_backend_accuracy_and_iteration_budget(request, monkeypatch, case,
                                               xtol):
    if case == "diffusion":
        (mesh, form), kw = request.getfixturevalue("small_problem"), {}
    else:
        mesh, form, kw = request.getfixturevalue("small_elasticity")
    _, ref = _solve(mesh, form, "numpy", **kw)
    assert ref.converged
    xnorm = np.linalg.norm(ref.x)
    monkeypatch.delenv(ENV_VAR, raising=False)
    # None: the unset default, which resolves to compiled where it builds
    for name, tol, it_budget in (("compiled", xtol, 1), (None, xtol, 1)):
        solver, rep = _solve(mesh, form, name, **kw)
        if name is None:
            assert solver.kernels.name == \
                ("compiled" if HAS_LIB else "numpy")
        assert rep.converged, name
        assert np.linalg.norm(rep.x - ref.x) <= tol * xnorm, name
        assert rep.iterations <= ref.iterations + it_budget, name


def test_fp32_coarse_fallback_on_nonfinite(small_problem):
    """A non-finite kernel-mirror coarse solve must drop the mirror and
    retry the fp64 factorization of E before escalating to the
    pseudo-inverse."""
    mesh, form = small_problem
    solver = SchwarzSolver(mesh, form, num_subdomains=6, nev=6,
                           kernel_backend="compiled")
    coarse = solver.coarse
    coarse.resilient = True
    coarse._kernel_solve = lambda w: np.full(coarse.dim, np.nan)
    w = np.arange(coarse.dim, dtype=np.float64)
    with pytest.warns(RuntimeWarning, match="retrying fp64"):
        y = coarse.solve(w)
    assert np.all(np.isfinite(y))
    assert coarse._kernel_solve is None
    assert coarse.fallbacks == 1
    assert not coarse.rank_deficient      # the fp64 factor was fine


def test_env_var_backend_selection(small_problem, monkeypatch):
    mesh, form = small_problem
    monkeypatch.setenv(ENV_VAR, "numpy")
    solver = SchwarzSolver(mesh, form, num_subdomains=4, nev=4)
    assert solver.kernels.name == "numpy"
    assert solver.solve(tol=1e-8).converged


# ----------------------------------------------------------------------
# Dtype contract of the block plumbing
# ----------------------------------------------------------------------

def test_as_float64_block_contract(rng):
    X32 = rng.standard_normal((10, 3)).astype(np.float32)
    out = as_float64_block(X32)
    assert out.dtype == np.float64
    assert np.array_equal(out, X32.astype(np.float64))
    X64 = rng.standard_normal((10, 3))
    assert as_float64_block(X64) is X64          # no copy on the hot path
    with pytest.raises(ReproError, match="column block"):
        as_float64_block(np.zeros(10))
    with pytest.raises(ReproError, match="real block"):
        as_float64_block(np.zeros((4, 2), dtype=complex))


def test_block_plumbing_accepts_float32(diffusion_decomposition, rng):
    dec = diffusion_decomposition
    n = dec.problem.num_free
    X32 = rng.standard_normal((n, 2)).astype(np.float32)
    Y = dec.matvec_block(X32)
    assert Y.dtype == np.float64
    assert np.array_equal(Y, dec.matvec_block(X32.astype(np.float64)))
    ras = OneLevelRAS(dec)
    P = ras.apply_block(X32)
    assert P.dtype == np.float64
    assert np.array_equal(P, ras.apply_block(X32.astype(np.float64)))
    results = [compute_deflation(s, nev=3, seed=s.index)
               for s in dec.subdomains]
    space = DeflationSpace(dec, [r.W for r in results])
    W = space.zt_dot_block(X32)
    assert W.dtype == np.float64
    assert np.array_equal(W, space.zt_dot_block(X32.astype(np.float64)))
    Y32 = rng.standard_normal((space.m, 2)).astype(np.float32)
    Z = space.z_dot_block(Y32)
    assert Z.dtype == np.float64


def test_as_operator_rejects_complex_upcasts_f32(rng):
    A32 = rng.standard_normal((12, 12)).astype(np.float32)
    A32 = A32 @ A32.T + 12 * np.eye(12, dtype=np.float32)
    b = rng.standard_normal(12)
    res = gmres(A32, b, tol=1e-10)
    assert res.x.dtype == np.float64
    assert np.linalg.norm(A32.astype(np.float64) @ res.x - b) \
        <= 1e-8 * np.linalg.norm(b)
    with pytest.raises(KrylovError, match="complex"):
        gmres(A32.astype(complex), b)


# ----------------------------------------------------------------------
# fgmres with a deliberately inexact (fp32, iteration-varying) M
# ----------------------------------------------------------------------

def test_fgmres_inexact_fp32_preconditioner(diffusion_decomposition):
    """The satellite scenario: a preconditioner that rounds its output
    to fp32 *and* changes every application still converges to the fp64
    tolerance under FGMRES, keeps the health monitor quiet, and the
    profiler attributes time to the right spans."""
    dec = diffusion_decomposition
    ras = OneLevelRAS(dec)
    b = dec.problem.rhs()
    calls = {"n": 0}

    def inexact_M(r):
        calls["n"] += 1
        y = ras.apply(r).astype(np.float32).astype(np.float64)
        return y * (1.0 + 1e-4 * (calls["n"] % 3))   # iteration-varying

    health = HealthMonitor()
    from repro.krylov import SolveProfiler
    prof = SolveProfiler()
    with warnings.catch_warnings():
        warnings.simplefilter("error")               # quiet = no warnings
        res = fgmres(dec.matvec, b, M=inexact_M, tol=1e-10,
                     health=health, profiler=prof)
    assert res.converged
    resid = np.linalg.norm(b - dec.matvec(res.x))
    assert resid <= 1e-9 * np.linalg.norm(b)
    assert health.breakdowns == []
    assert res.profile.get("apply", 0) > 0
    assert res.profile.get("matvec", 0) > 0
    assert res.profile.get("orthogonalization", 0) >= 0
    assert set(res.profile) >= {"apply", "matvec"}


@pytest.mark.skipif(not HAS_LIB, reason="no C toolchain")
def test_fgmres_fp32_kernels_with_health(diffusion_decomposition):
    dec = diffusion_decomposition
    ras = OneLevelRAS(dec, kernels=CompiledBackend())
    b = dec.problem.rhs()
    health = HealthMonitor()
    res = fgmres(dec.matvec, b, M=ras.apply, tol=1e-10,
                 health=health, kernels=CompiledBackend())
    assert res.converged
    assert health.breakdowns == []
    assert np.linalg.norm(b - dec.matvec(res.x)) \
        <= 1e-9 * np.linalg.norm(b)


# ----------------------------------------------------------------------
# Coarse operator routing
# ----------------------------------------------------------------------

@pytest.mark.skipif(not HAS_LIB, reason="no C toolchain")
def test_coarse_operator_kernel_routing(diffusion_decomposition):
    dec = diffusion_decomposition
    results = [compute_deflation(s, nev=4, seed=s.index)
               for s in dec.subdomains]
    W = [r.W for r in results]
    ref_space = DeflationSpace(dec, W)
    ref = CoarseOperator(ref_space)
    assert ref._kernel_solve is None      # numpy backend: fp64 direct
    comp = CoarseOperator(DeflationSpace(dec, W),
                          kernels=CompiledBackend())
    assert comp.kernels.name == "compiled"
    assert comp._kernel_solve is not None  # compiled LDLᵀ mirror of E
    rng = np.random.default_rng(7)
    w = rng.standard_normal(ref.dim)
    y64, yc = ref.solve(w), comp.solve(w)
    assert np.linalg.norm(yc - y64) <= 1e-10 * np.linalg.norm(y64)
    u = rng.standard_normal(dec.problem.num_free)
    assert np.linalg.norm(comp.correction(u) - ref.correction(u)) \
        <= 1e-10 * np.linalg.norm(ref.correction(u)) + 1e-12
    y = rng.standard_normal(ref.dim)
    assert np.linalg.norm(comp.az_dot(y) - ref.az_dot(y)) \
        <= 1e-10 * np.linalg.norm(ref.az_dot(y))
