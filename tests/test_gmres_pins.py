"""Pinned GMRES / FGMRES histories on the reference ``numpy`` backend.

``gmres_pins.npz`` was recorded at the commit *before* the four
restarted-GMRES loops were merged into one and is compared with
``np.array_equal``: residual histories, iteration counts, iterates and
the last cycle's Arnoldi data of the one loop must be bit for bit what
the separate ``gmres`` and ``fgmres`` produced.  The cases cover what
the copies did differently or not at all: a solve that restarts
mid-way, a warm start, the last cycle's Arnoldi data (rebuilt here
from the restart iterate the loop hands its ``health=`` observer), an
iteration-varying ``M`` under ``fgmres``, and both drivers through
``SchwarzSolver.solve``.

Regenerate (only when the arithmetic is *meant* to change) with
``PYTHONPATH=src python tests/test_gmres_pins.py``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro import SchwarzSolver
from repro.fem import channels_and_inclusions
from repro.fem.forms import DiffusionForm
from repro.kernels import default_backend
from repro.krylov import fgmres, gmres
from repro.mesh import unit_square

PINS = Path(__file__).with_name("gmres_pins.npz")


def _solver(krylov: str) -> SchwarzSolver:
    mesh = unit_square(12)
    kappa = channels_and_inclusions(mesh, seed=3)
    return SchwarzSolver(mesh, DiffusionForm(degree=2, kappa=kappa),
                         num_subdomains=6, nev=3, delta=1, seed=1,
                         krylov=krylov, kernel_backend="numpy")


def _record(out: dict, case: str, res) -> None:
    out[f"{case}/x"] = res.x
    out[f"{case}/residuals"] = np.asarray(res.residuals)
    out[f"{case}/iterations"] = np.asarray(res.iterations)


class _RestartIterates:
    """A ``health=`` observer keeping the iterate the loop hands over
    at every restart boundary."""

    def __init__(self):
        self.boundaries: list[tuple[int, np.ndarray]] = []

    def observe(self, k, residual, x=None):
        if x is not None:
            self.boundaries.append((k, x.copy()))

    def check_vector(self, name, v, k):
        pass

    def orthogonality(self, k, defect):
        pass


def _last_cycle_arnoldi(A, M, b, restart, iterations, boundaries):
    """``(V, H̄)`` of a ``gmres`` solve's last cycle — V of shape
    (n, k+1) and the Hessenberg *before* the Givens rotations, (k+1, k)
    — rebuilt from that cycle's restart iterate with the reference MGS
    kernel on the loop's column-major workspace."""
    kern = default_backend()
    k0, x = boundaries[-1]
    k = iterations - k0
    n = b.shape[0]
    V = np.empty((n, restart + 1), order="F")
    H = np.zeros((restart + 1, restart))
    scratch = np.empty(n)
    r = b - A(x)
    np.divide(r, kern.norm(r), out=V[:, 0])
    for j in range(k):
        kern.ortho_step(V, A(M(V[:, j])), H, j, scratch)
    return V[:, :k + 1].copy(), H[:k + 1, :k].copy()


def compute_cases() -> dict[str, np.ndarray]:
    """Every pinned quantity, keyed ``<case>/<field>``."""
    out: dict[str, np.ndarray] = {}
    solver = _solver("gmres")
    A, M = solver.operator, solver.preconditioner.apply
    b = solver.problem.rhs()
    x0 = 0.5 * solver.one_level.apply(b)

    def varying_M():
        calls = {"n": 0}

        def apply(r):
            calls["n"] += 1
            return M(r) if calls["n"] % 3 else solver.one_level.apply(r)

        return apply

    for name, method in (("gmres", gmres), ("fgmres", fgmres)):
        _record(out, f"{name}-restart", method(
            A, b, M=M, tol=1e-10, restart=4, maxiter=200))
        _record(out, f"{name}-warm", method(
            A, b, M=M, x0=x0, tol=1e-10, restart=4, maxiter=200))
        _record(out, f"{name}-stall", method(
            A, b, M=solver.one_level.apply, tol=1e-12, restart=3,
            maxiter=7))
    seen = _RestartIterates()
    res = gmres(A, b, M=M, tol=1e-10, restart=6, maxiter=200, health=seen)
    _record(out, "gmres-basis", res)
    out["gmres-basis/V"], out["gmres-basis/H"] = _last_cycle_arnoldi(
        A, M, b, 6, res.iterations, seen.boundaries)
    _record(out, "fgmres-variable", fgmres(
        A, b, M=varying_M(), tol=1e-10, restart=5, maxiter=200))
    for krylov in ("gmres", "fgmres"):
        report = _solver(krylov).solve(tol=1e-9, restart=5)
        _record(out, f"solver-{krylov}", report.krylov)
        out[f"solver-{krylov}/full_x"] = report.x
    return out


@pytest.fixture(scope="module")
def computed():
    return compute_cases()


def test_cases_restart_and_stall(computed):
    """The fixture must exercise what it claims to: restarts mid-way,
    and a stalled solve."""
    assert computed["gmres-restart/iterations"] > 2 * 4
    assert computed["fgmres-variable/iterations"] > 5
    assert computed["gmres-stall/residuals"][-1] > 1e-12


def test_histories_bitwise(computed):
    with np.load(PINS) as pins:
        assert sorted(pins.files) == sorted(computed)
        for key in pins.files:
            assert np.array_equal(pins[key], computed[key]), key


if __name__ == "__main__":
    np.savez_compressed(PINS, **compute_cases())
    print(f"wrote {PINS}")
