"""Parallel setup engine: determinism + blocked linear-algebra kernels.

The paper's headline claim is that the two-level Schwarz setup is
embarrassingly parallel; the engine in :mod:`repro.parallel` exploits
that, and these tests pin down its contract:

* the ``threads`` executor produces *bitwise identical* deflation bases,
  coarse operators and Krylov iteration counts to ``serial`` (diffusion
  and elasticity);
* every :class:`~repro.solvers.local.Factorization` backend solves a
  column block exactly like a per-column loop (the blocked kernels rely
  on this);
* :meth:`OneLevelRAS.apply_block` matches per-vector ``apply``;
* degenerate-direction restarts in ``_m_orthonormalize`` come from the
  caller's rng, not the column index.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro import ParallelConfig, SchwarzSolver
from repro.common.errors import ReproError
from repro.core.ras import OneLevelASM, OneLevelRAS
from repro.eigen import subspace_iteration
from repro.eigen.lanczos import _m_orthonormalize
from repro.fem import channels_and_inclusions, layered_elasticity
from repro.fem.forms import DiffusionForm, ElasticityForm
from repro.mesh import rectangle, unit_square
from repro.parallel import parallel_map, resolve_parallel, timed_map
from repro.solvers import BACKENDS, factorize

THREADS = ParallelConfig("threads", workers=4)


# ----------------------------------------------------------------------
# Executor unit tests
# ----------------------------------------------------------------------

class TestExecutor:
    def test_parallel_map_preserves_order(self):
        out = parallel_map(lambda x: x * x, range(20), THREADS)
        assert out == [x * x for x in range(20)]

    def test_timed_map_aligned(self):
        res, times = timed_map(lambda x: -x, [3, 1, 2], THREADS)
        assert res == [-3, -1, -2]
        assert len(times) == 3 and all(t >= 0 for t in times)

    def test_workers_follow_affinity_mask(self, monkeypatch):
        """Auto-sized workers count the CPUs this process may run on,
        not every CPU of the host; without an affinity call the count
        falls back to ``os.cpu_count()``.  No pool is started."""
        import os
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert ParallelConfig("threads").num_workers == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert ParallelConfig("threads").num_workers == 8

    def test_resolve(self):
        assert resolve_parallel(None).backend == "serial"
        assert resolve_parallel("threads").backend == "threads"
        cfg = ParallelConfig("threads", workers=3)
        assert resolve_parallel(cfg) is cfg
        assert cfg.num_workers == 3
        assert ParallelConfig("serial").num_workers == 1

    def test_invalid_config(self):
        with pytest.raises(ReproError):
            ParallelConfig("mpi")
        with pytest.raises(ReproError):
            ParallelConfig("threads", workers=0)
        with pytest.raises(ReproError):
            resolve_parallel(3.14)


# ----------------------------------------------------------------------
# Bitwise determinism of the full setup pipeline
# ----------------------------------------------------------------------

def _diffusion_solver(parallel):
    mesh = unit_square(12)
    kappa = channels_and_inclusions(mesh, seed=3)
    return SchwarzSolver(mesh, DiffusionForm(degree=2, kappa=kappa),
                         num_subdomains=6, delta=1, nev=4, seed=0,
                         partition_method="rcb", parallel=parallel)


def _elasticity_solver(parallel):
    mesh = rectangle(12, 3, x1=4.0)
    lam, mu = layered_elasticity(mesh)
    form = ElasticityForm(degree=2, lam=lam, mu=mu,
                          f=np.array([0.0, -1.0]))
    return SchwarzSolver(mesh, form, num_subdomains=4, delta=1, nev=6,
                         seed=0, partition_method="rcb",
                         dirichlet=lambda x: x[:, 0] < 1e-9,
                         parallel=parallel)


@pytest.mark.parametrize("build", [_diffusion_solver, _elasticity_solver],
                         ids=["diffusion", "elasticity"])
def test_parallel_setup_bitwise_identical(build):
    ser = build(None)
    par = build(THREADS)
    # subdomain data
    for a, b in zip(ser.decomposition.subdomains,
                    par.decomposition.subdomains):
        assert np.array_equal(a.dofs, b.dofs)
        assert (a.A_dir != b.A_dir).nnz == 0
        assert np.array_equal(a.d, b.d)
    # deflation bases, bit for bit
    for Wa, Wb in zip(ser.deflation.W, par.deflation.W):
        assert np.array_equal(Wa, Wb)
    # coarse operator, bit for bit
    assert (ser.coarse.E != par.coarse.E).nnz == 0
    # per-subdomain timers survive the executor
    N = ser.decomposition.num_subdomains
    assert len(par.one_level.factor_times) == N
    assert len(par.deflation_times) == N
    # identical Krylov trajectory
    ra = ser.solve(tol=1e-8)
    rb = par.solve(tol=1e-8)
    assert ra.converged and rb.converged
    assert ra.iterations == rb.iterations
    assert np.array_equal(ra.x, rb.x)


def test_decomposition_parallel_accepts_string():
    s = _diffusion_solver("threads")
    assert s.parallel.backend == "threads"
    assert s.decomposition.parallel.backend == "threads"


# ----------------------------------------------------------------------
# Blocked kernels: multi-RHS solves must equal per-column loops
# ----------------------------------------------------------------------

def _spd_matrix(n, seed):
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=0.1, random_state=np.random.RandomState(seed))
    A = A + A.T + 2 * n * sp.eye(n)
    return A.tocsr()


@pytest.mark.parametrize("backend", BACKENDS)
def test_multirhs_solve_matches_loop(backend):
    n, k = 40, 7
    A = _spd_matrix(n, seed=11)
    f = factorize(A, backend)
    rng = np.random.default_rng(5)
    Bk = rng.standard_normal((n, k))
    X_block = f.solve(Bk)
    X_loop = np.column_stack([f.solve(Bk[:, i]) for i in range(k)])
    assert X_block.shape == (n, k)
    assert np.allclose(X_block, X_loop, rtol=1e-12, atol=1e-12)
    # and the block actually solves the system
    assert np.allclose(A @ X_block, Bk, rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("cls", [OneLevelRAS, OneLevelASM],
                         ids=["ras", "asm"])
def test_apply_block_matches_apply(diffusion_decomposition, cls):
    prec = cls(diffusion_decomposition)
    n = diffusion_decomposition.problem.num_free
    rng = np.random.default_rng(7)
    R = rng.standard_normal((n, 5))
    out = prec.apply_block(R)
    ref = np.column_stack([prec.apply(R[:, i]) for i in range(5)])
    assert np.allclose(out, ref, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        prec.apply_block(R[:, 0])


def test_subspace_iteration_matrix_equals_lambda():
    """Sparse-matrix operators (blocked path) must agree with the legacy
    per-vector lambdas — same seed, same arithmetic, same pairs."""
    n = 40
    rng = np.random.default_rng(2)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    M = sp.csr_matrix(Q @ np.diag(rng.uniform(1, 5, n)) @ Q.T)
    B = sp.csr_matrix(Q @ np.diag(np.concatenate(
        [rng.uniform(0.5, 4, 30), np.zeros(10)])) @ Q.T)
    Mf = factorize(M, "dense")
    r_mat = subspace_iteration(B, Mf, M, n, 3, seed=0, tol=1e-10)
    r_lam = subspace_iteration(lambda x: B @ x, Mf, lambda x: M @ x,
                               n, 3, seed=0, tol=1e-10)
    assert np.allclose(r_mat.values, r_lam.values, rtol=1e-9)


class _Counting:
    """Wraps a factorization (``.solve``) or a matrix (``@``) and counts
    calls and the columns they carried."""

    def __init__(self, inner):
        self._inner = inner
        self.n = inner.shape[0] if hasattr(inner, "shape") else inner.n
        self.shape = (self.n, self.n)
        self.calls = self.columns = 0

    def _count(self, x):
        self.calls += 1
        self.columns += 1 if np.ndim(x) == 1 else x.shape[1]

    def solve(self, b):
        self._count(b)
        return self._inner.solve(b)

    def __matmul__(self, x):
        self._count(x)
        return self._inner @ x


@pytest.fixture(scope="module")
def geneo_pencil_counts():
    """Eigensolver call counts on the largest subdomain's GenEO pencil
    of the fig-10 problem (P3, N = 16, ν = 8)."""
    from repro.core.geneo import geneo_pencil
    from repro.eigen import lanczos_generalized
    mesh = unit_square(10)
    form = DiffusionForm(degree=3, kappa=channels_and_inclusions(mesh,
                                                                 seed=9))
    solver = SchwarzSolver(mesh, form, num_subdomains=16, delta=1, nev=8,
                           seed=0, partition_method="rcb")
    sub = max(solver.decomposition.subdomains, key=lambda s: s.size)
    A, B = geneo_pencil(sub)
    n = A.shape[0]
    M = (A + 1e-10 * float(np.mean(np.abs(A.diagonal()))) *
         sp.eye(n, format="csr")).tocsr()
    out = {}
    for name, driver in [("subspace", subspace_iteration),
                         ("lanczos", lanczos_generalized)]:
        Mf, Mc = _Counting(factorize(M, "superlu")), _Counting(M)
        res = driver(_Counting(B), Mf, Mc, n, 8, seed=sub.index)
        out[name] = (res.iterations, Mf, Mc)
    return out


def test_blocking_cuts_solve_calls(geneo_pencil_counts):
    """≥ 30% fewer ``M_factor.solve`` calls than a per-column loop: one
    blocked call replaces ``block`` vector calls."""
    _, Mf, _ = geneo_pencil_counts["subspace"]
    assert 1.0 - Mf.calls / Mf.columns >= 0.30


def test_lanczos_m_products_constant_per_iteration(geneo_pencil_counts):
    """Cached ``M V``: O(1) M products per Lanczos iteration."""
    iterations, _, Mc = geneo_pencil_counts["lanczos"]
    assert Mc.calls <= 2 * iterations + 2


def test_m_orthonormalize_degenerate_uses_caller_rng():
    """A degenerate (duplicate) column is replaced from the caller's rng:
    two calls with equal seeds agree bitwise; the replacement no longer
    depends on the column index alone."""
    n = 30
    base = np.random.default_rng(0).standard_normal((n, 3))
    X = np.column_stack([base, base[:, 2]])      # last column dependent
    M = sp.eye(n, format="csr")
    q1 = _m_orthonormalize(X, M, rng=np.random.default_rng(42))
    q2 = _m_orthonormalize(X, M, rng=np.random.default_rng(42))
    q3 = _m_orthonormalize(X, M, rng=np.random.default_rng(7))
    assert np.array_equal(q1, q2)
    assert not np.allclose(q1[:, 3], q3[:, 3])
    # all results are M-orthonormal regardless
    for q in (q1, q3):
        assert np.allclose(q.T @ q, np.eye(4), atol=1e-10)
