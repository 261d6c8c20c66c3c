"""Ablation: swappable numerical backends.

The paper treats direct solvers as interchangeable (MUMPS, PaStiX, two
PARDISOs, WSMP behind one interface) and computes eigenvectors with
ARPACK.  This bench swaps this package's equivalents — four local
factorization backends and two eigensolvers — on the same subdomain
matrices, verifying identical numerics and comparing cost profiles.
"""

import numpy as np
import pytest

from common import diffusion_2d, write_result
from repro import SchwarzSolver
from repro.common.asciiplot import table
from repro.core import compute_deflation
from repro.obs import Recorder
from repro.solvers import BACKENDS, factorize


@pytest.fixture(scope="module")
def subdomain_matrix():
    mesh, form, _ = diffusion_2d(n=40, degree=2, seed=1)
    solver = SchwarzSolver(mesh, form, num_subdomains=4, nev=2, seed=0)
    sub = solver.decomposition.subdomains[0]
    return solver, sub


@pytest.fixture(scope="module")
def backend_table(subdomain_matrix):
    _, sub = subdomain_matrix
    A = sub.A_dir
    rng = np.random.default_rng(0)
    b = rng.standard_normal(A.shape[0])
    rows = []
    sols = {}
    rec = Recorder()
    for method in BACKENDS:
        with rec.span("factorize") as t_f:
            fact = factorize(A, method)
        with rec.span("solve") as t_s:
            x = fact.solve(b)
        sols[method] = x
        rows.append([method, A.shape[0], fact.nnz_factor,
                     f"{t_f.record.duration * 1e3:.1f} ms",
                     f"{t_s.record.duration * 1e3:.2f} ms"])
    txt = table(["backend", "n", "nnz(factors)", "factorize", "solve"],
                rows,
                title="ABLATION — local direct-solver backends "
                      "(the paper's MUMPS/PARDISO/PaStiX/WSMP role)")
    write_result("ablation_backends", txt)
    return sols


def test_all_backends_agree(backend_table):
    sols = backend_table
    ref = sols["superlu"]
    for method, x in sols.items():
        assert np.allclose(x, ref, atol=1e-8 * max(abs(ref).max(), 1e-300)), \
            method


def test_eigensolvers_agree(subdomain_matrix):
    """The from-scratch Lanczos (ARPACK role) matches scipy's eigsh on
    the GenEO pencil."""
    _, sub = subdomain_matrix
    r1 = compute_deflation(sub, nev=6, method="lanczos")
    r2 = compute_deflation(sub, nev=6, method="scipy")
    # both solvers stop at a 1e-8 residual; compare eigenvalues with a
    # tolerance matching that stopping criterion (they typically agree
    # to ~1e-8 relative, but marginal convergence can leave ~1e-5)
    scale = np.abs(r2.eigenvalues).max()
    assert np.allclose(r1.eigenvalues, r2.eigenvalues,
                       rtol=1e-4, atol=1e-8 * scale)


def test_solver_end_to_end_backend_swap(subdomain_matrix):
    """The full two-level solve converges identically whichever local
    backend factorises the subdomain matrices."""
    solver, _ = subdomain_matrix
    mesh = solver.problem.mesh
    form = solver.problem.form
    its = {}
    for backend in ("superlu", "band"):
        s = SchwarzSolver(mesh, form, num_subdomains=4, nev=4,
                          backend=backend, seed=0)
        r = s.solve(tol=1e-8, maxiter=200)
        assert r.converged
        its[backend] = r.iterations
    assert abs(its["superlu"] - its["band"]) <= 1


def test_bench_band_backend(subdomain_matrix, benchmark):
    _, sub = subdomain_matrix
    benchmark(factorize, sub.A_dir, "band")
