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

import threading
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
    SymmetricLDLFactorization,
    probe_factorization,
)
from repro.kernels.fused import FusedRAS, _configure_pool
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
    """One subdomain through the one-call RAS apply: the weighted
    scatter of the exported factor's solve."""
    from types import SimpleNamespace
    n_glob, n_loc = 120, 40
    A = _spd(n_loc, rng)
    dofs = rng.choice(n_glob, size=n_loc, replace=False).astype(np.int64)
    d = rng.random(n_loc)
    fact = SymmetricLDLFactorization(A, lib=load_library())
    ras = FusedRAS(load_library(), [fact],
                   [SimpleNamespace(dofs=dofs, d=d)], n_glob)
    r = rng.standard_normal(n_glob)
    out = ras.apply(r)
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
    assert isinstance(ras._fused, FusedRAS)
    R = rng.standard_normal((dec.problem.num_free, 5))
    P = ras.apply_block(R)
    for c in range(R.shape[1]):
        assert np.array_equal(P[:, c], ras.apply(R[:, c]))


# ----------------------------------------------------------------------
# One-call passes over the subdomain arrays (repro.kernels.fused)
# ----------------------------------------------------------------------

def per_subdomain_ras(facts, subs, R):
    """Oracle: the weighted RAS apply one subdomain at a time — gather
    through ``dofs[piv_in]``, in-place exported solve, scatter-add of
    ``d[piv_out] · z`` at ``dofs[piv_out]`` (the per-subdomain fused
    composition); a reference factor solves on ``R[dofs]``."""
    out = np.zeros(R.shape)
    for f, s in zip(facts, subs):
        if not hasattr(f, "piv_in"):
            d = s.d if R.ndim == 1 else s.d[:, None]
            out[s.dofs] += d * f.solve(R[s.dofs])
            continue
        z = np.ascontiguousarray(R[s.dofs[f.piv_in]])
        if R.ndim == 1:
            f.solve_permuted_inplace(z)
            out[s.dofs[f.piv_out]] += s.d[f.piv_out] * z
        else:
            f.solve_block_permuted_inplace(z)
            out[s.dofs[f.piv_out]] += s.d[f.piv_out][:, None] * z
    return out


@pytest.mark.skipif(not HAS_LIB, reason="no C toolchain")
@pytest.mark.parametrize("decomposition,kind", [
    ("diffusion_decomposition", "SymmetricLDLFactorization"),
    ("convdiff_decomposition", "ExportedLUFactorization"),
], ids=["ldl", "lu"])
def test_one_call_ras_bitwise_per_subdomain(request, rng, decomposition,
                                            kind):
    """The one-call RAS apply, vector and block, is bitwise the
    per-subdomain composition — LDLᵀ locals of a diffusion problem and
    LU locals of a convection–diffusion one."""
    dec = request.getfixturevalue(decomposition)
    ras = OneLevelRAS(dec, kernels=CompiledBackend())
    facts, subs = ras.factorizations, dec.subdomains
    assert {type(f).__name__ for f in facts} == {kind}
    r = rng.standard_normal(dec.problem.num_free)
    R = rng.standard_normal((dec.problem.num_free, 4))
    assert np.array_equal(ras.apply(r), per_subdomain_ras(facts, subs, r))
    assert np.array_equal(ras.apply_block(R),
                          per_subdomain_ras(facts, subs, R))


@pytest.mark.skipif(not HAS_LIB, reason="no C toolchain")
def test_one_call_ras_keeps_rejected_subdomain_in_order(
        diffusion_decomposition, rng):
    """A subdomain whose export the probe rejected keeps the reference
    factor and its place in the accumulation order."""
    dec = diffusion_decomposition
    facts = list(OneLevelRAS(dec, kernels=CompiledBackend()).factorizations)
    facts[2] = factorize(dec.subdomains[2].A_dir, "superlu", spd=True)
    fused = CompiledBackend().fuse_ras(facts, dec)
    r = rng.standard_normal(dec.problem.num_free)
    R = rng.standard_normal((dec.problem.num_free, 3))
    assert np.array_equal(fused.apply(r),
                          per_subdomain_ras(facts, dec.subdomains, r))
    assert np.array_equal(fused.apply_block(R),
                          per_subdomain_ras(facts, dec.subdomains, R))


@pytest.mark.parametrize("decomposition", [
    "diffusion_decomposition", "convdiff_decomposition",
    "elasticity_decomposition"])
def test_matvec_matches_global_matrix(request, rng, decomposition):
    """Σ_j R_jᵀ A_j D_j R_j x is A x (the partition of unity sums to
    one), to rounding."""
    dec = request.getfixturevalue(decomposition)
    x = rng.standard_normal(dec.problem.num_free)
    ref = dec.problem.matrix() @ x
    assert np.linalg.norm(dec.matvec(x) - ref) \
        <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.skipif(not HAS_LIB, reason="no C toolchain")
@pytest.mark.parametrize("decomposition", [
    "diffusion_decomposition", "convdiff_decomposition",
    "elasticity_decomposition"])
def test_matvec_compiled_bitwise_numpy(request, rng, decomposition):
    """The compiled matvec pass does the reference loop's operations in
    its order: both backends are bitwise equal, and every column of a
    block matvec is bitwise the vector matvec of that column."""
    dec = request.getfixturevalue(decomposition)
    assert dec.kernels.name == "numpy"
    fused = CompiledBackend().fuse_matvec(dec)
    assert fused is not None
    x = rng.standard_normal(dec.problem.num_free)
    X = rng.standard_normal((dec.problem.num_free, 3))
    assert np.array_equal(fused.apply(x), dec.matvec(x))
    Yc, Yn = fused.apply_block(X), dec.matvec_block(X)
    assert np.array_equal(Yc, Yn)
    for c in range(X.shape[1]):
        assert np.array_equal(Yn[:, c], dec.matvec(X[:, c]))
        assert np.array_equal(Yc[:, c], fused.apply(X[:, c]))


# ----------------------------------------------------------------------
# Threads inside a pass: any thread count and schedule, bitwise serial
# ----------------------------------------------------------------------

#: a pass that has not returned by then has hung
PASS_TIMEOUT_S = 60.0


def _within(fn, timeout=PASS_TIMEOUT_S):
    """Run *fn* on a daemon thread; fail if it has not returned within
    *timeout* seconds, re-raise what it raised, else return its
    result."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:   # re-raised on the test's thread
            box["error"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), f"pass still running after {timeout} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


@pytest.fixture
def pool():
    """The pool-sizing hook, reset to the affinity mask afterwards."""
    try:
        yield _configure_pool
    finally:
        _within(_configure_pool)


@pytest.fixture(params=["diffusion_decomposition",
                        "convdiff_decomposition"], ids=["ldl", "lu"])
def passes_with_rejected(request):
    """The compiled RAS and matvec passes of an LDLᵀ (diffusion) or LU
    (convection–diffusion) decomposition, with the probe-rejected
    reference factor of one subdomain in the middle, and their serial
    references."""
    dec = request.getfixturevalue(request.param)
    facts = list(OneLevelRAS(dec, kernels=CompiledBackend()).factorizations)
    mid = len(facts) // 2
    facts[mid] = factorize(dec.subdomains[mid].A_dir, "superlu",
                           spd=dec.is_spd)
    backend = CompiledBackend()
    ras, mv = backend.fuse_ras(facts, dec), backend.fuse_matvec(dec)
    rng = np.random.default_rng(7)
    r = rng.standard_normal(dec.problem.num_free)
    R = rng.standard_normal((dec.problem.num_free, 3))
    subs = dec.subdomains
    # the reference loops: dec's kernels are numpy, so dec.matvec is
    # the per-subdomain loop
    assert dec.kernels.name == "numpy"
    refs = {"ras": per_subdomain_ras(facts, subs, r),
            "ras_block": per_subdomain_ras(facts, subs, R),
            "matvec": dec.matvec(r), "matvec_block": dec.matvec_block(R)}
    calls = {"ras": lambda: ras.apply(r),
             "ras_block": lambda: ras.apply_block(R),
             "matvec": lambda: mv.apply(r),
             "matvec_block": lambda: mv.apply_block(R)}
    return calls, refs


@pytest.mark.skipif(not HAS_LIB, reason="no C toolchain")
@pytest.mark.parametrize("threads,schedule", [
    (1, "any"), (2, "any"), (4, "any"), (2, "caller"), (2, "workers")],
    ids=["1", "2", "4-oversubscribed", "2-workers-idle", "2-caller-idle"])
def test_pass_threads_bitwise_serial(pool, passes_with_rejected, threads,
                                     schedule):
    """The RAS apply and the matvec, vector and block, are bitwise the
    serial per-subdomain loops for 1, 2 and 4 threads, and under the two
    forced schedules: the workers claim nothing ("caller"), and the
    calling thread claims nothing ("workers")."""
    calls, refs = passes_with_rejected
    _within(lambda: pool(threads, schedule))
    for name, call in calls.items():
        for _ in range(3):
            assert np.array_equal(_within(call), refs[name]), name


@pytest.mark.skipif(not HAS_LIB, reason="no C toolchain")
def test_pass_concurrent_callers_bitwise(pool, passes_with_rejected):
    """Two Python threads running the same passes 50 times each — one
    holds the pool, the other finds it busy and runs on its own thread —
    get the serial results every time."""
    calls, refs = passes_with_rejected
    _within(lambda: pool(2))
    mismatches = []

    def caller():
        for i in range(50):
            name = list(calls)[i % len(calls)]
            if not np.array_equal(calls[name](), refs[name]):
                mismatches.append(name)

    threads = [threading.Thread(target=caller, daemon=True)
               for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(PASS_TIMEOUT_S)
    assert not any(t.is_alive() for t in threads), "a caller hung"
    assert mismatches == []


def _stack(dec, kernels):
    Ws = [compute_deflation(s, nev=4, seed=s.index).W
          for s in dec.subdomains]
    space = DeflationSpace(dec, Ws)
    return space, CoarseOperator(space, kernels=kernels)


@pytest.mark.skipif(not HAS_LIB, reason="no C toolchain")
@pytest.mark.parametrize("decomposition", [
    "diffusion_decomposition", "elasticity_decomposition"])
def test_compiled_adef1_transfers_match_csr(request, rng, decomposition):
    """The compiled A-DEF1 transfers from the W_i and T_i blocks against
    the CSR Z, Zᵀ and A·Z of the reference: Zᵀu bitwise, Z y,
    u − A Z y and the whole apply to 1e-14 — and the compiled apply
    builds none of the CSR forms."""
    from repro.core.adef import TwoLevelADEF1
    dec = request.getfixturevalue(decomposition)
    space_c, comp = _stack(dec, CompiledBackend())
    space_n, ref = _stack(dec, KernelBackend())
    ras = OneLevelRAS(dec, kernels=CompiledBackend())
    u = rng.standard_normal(dec.problem.num_free)
    assert np.array_equal(comp.zt_dot(u), space_n.Zt @ u)
    y = rng.standard_normal(comp.dim)
    (w, v), (w_ref, v_ref) = comp.deflate(u, y), ref.deflate(u, y)
    assert np.linalg.norm(w - w_ref) <= 1e-14 * np.linalg.norm(w_ref)
    assert np.linalg.norm(v - v_ref) <= 1e-14 * np.linalg.norm(v_ref)
    got = TwoLevelADEF1(ras, comp).apply(u)
    want = TwoLevelADEF1(ras, ref).apply(u)
    # the coarse solves differ in rounding (compiled LDLᵀ mirror against
    # SuperLU) and the intermediates are O(‖u‖), which the output of a
    # good preconditioner may be far below
    scale = max(np.linalg.norm(want), np.linalg.norm(u))
    assert np.linalg.norm(got - want) <= 1e-14 * scale
    assert space_c._Z is None and space_c._Zt is None and comp._AZ is None


@pytest.mark.skipif(not HAS_LIB, reason="no C toolchain")
def test_fused_passes_copy_no_subdomain_array():
    """Building the three passes reads the factors, A_dir, W_i and T_i
    in place: it allocates under 1 % of the factor and A_dir bytes (a
    pass holds a pointer table of a few hundred bytes per subdomain)."""
    import tracemalloc
    mesh = unit_square(24)
    form = DiffusionForm(degree=3, kappa=channels_and_inclusions(mesh,
                                                                 seed=5))
    dec = Decomposition(Problem(mesh, form, scaling="jacobi"),
                        partition_mesh(mesh, 4, seed=0), delta=1)
    backend = CompiledBackend()
    ras = OneLevelRAS(dec, kernels=backend)
    space, coarse = _stack(dec, backend)
    facts = ras.factorizations
    held = sum(a.nbytes for f in facts for a in (
        f.indptr, f.rowind, f.lval, f.dinv, f.piv_in))
    held += sum(a.nbytes for s in dec.subdomains for a in (
        s.A_dir.indptr, s.A_dir.indices, s.A_dir.data))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        passes = (backend.fuse_ras(facts, dec), backend.fuse_matvec(dec),
                  backend.fuse_deflation(space, coarse.T))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert all(p is not None for p in passes)
    assert peak < 0.01 * held, (peak, held)


@pytest.mark.skipif(not HAS_LIB, reason="no C toolchain")
def test_compiled_adef1_apply_matches_numpy(small_problem, rng):
    """The whole compiled A-DEF1 apply — exported factors, one-call
    passes, compiled coarse solve — within 1e-12 relative of the numpy
    reference on the same operator."""
    mesh, form = small_problem
    solvers = [SchwarzSolver(mesh, form, num_subdomains=6, nev=6,
                             kernel_backend=name)
               for name in ("numpy", "compiled")]
    assert [s.kernels.name for s in solvers] == ["numpy", "compiled"]
    u = rng.standard_normal(solvers[0].problem.num_free)
    ref, got = (s.preconditioner.apply(u) for s in solvers)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


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
    recorder attributes time to the right spans."""
    dec = diffusion_decomposition
    ras = OneLevelRAS(dec)
    b = dec.problem.rhs()
    calls = {"n": 0}

    def inexact_M(r):
        calls["n"] += 1
        y = ras.apply(r).astype(np.float32).astype(np.float64)
        return y * (1.0 + 1e-4 * (calls["n"] % 3))   # iteration-varying

    health = HealthMonitor()
    from repro.obs import Recorder
    rec = Recorder()
    with warnings.catch_warnings():
        warnings.simplefilter("error")               # quiet = no warnings
        res = fgmres(dec.matvec, b, M=inexact_M, tol=1e-10,
                     health=health, recorder=rec)
    assert res.converged
    resid = np.linalg.norm(b - dec.matvec(res.x))
    assert resid <= 1e-9 * np.linalg.norm(b)
    assert health.breakdowns == []
    totals = rec.totals()
    assert totals["apply"]["seconds"] > 0
    assert totals["matvec"]["seconds"] > 0
    assert totals["orthogonalization"]["seconds"] >= 0
    assert totals["apply"]["count"] == calls["n"]


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
    assert np.linalg.norm(comp.AZ @ y - ref.AZ @ y) \
        <= 1e-10 * np.linalg.norm(ref.AZ @ y)
