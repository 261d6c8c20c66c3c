"""Shared workload builders + result recording for the benchmark suite.

Every paper experiment writes its regenerated table/figure to
``benchmarks/results/<experiment>.txt`` so that EXPERIMENTS.md can point
at concrete artefacts; pytest-benchmark additionally times one
representative kernel per experiment.

Result hygiene: every JSON payload is stamped with a ``provenance``
block — git SHA, kernel backend + precision, numpy version — so a
result file is interpretable on its own.  ``benchmarks/results/`` holds
regenerated (gitignored) artefacts; ``bench-e2e`` (``benchmarks/e2e/``)
is the one performance gate.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import numpy as np

from repro.fem import channels_and_inclusions, layered_elasticity
from repro.fem.forms import DiffusionForm, ElasticityForm
from repro.mesh import cantilever_2d, refine_uniform, unit_cube, unit_square

RESULTS = Path(__file__).parent / "results"


def provenance() -> dict:
    """Provenance stamp for result JSONs: git SHA, the active kernel
    backend (the unset-name resolution of ``get_backend``) and its
    precision, and the numpy version."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent.parent, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    try:
        from repro.kernels import get_backend
        backend = get_backend()
        name, precision = backend.name, backend.precision
    except Exception:  # noqa: BLE001 - provenance must never fail a bench
        name, precision = "unknown", "unknown"
    return {"git_sha": sha, "kernel_backend": name,
            "precision": precision, "numpy": np.__version__}


def write_result(name: str, text: str) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")


def write_json(name: str, payload: dict) -> None:
    """Machine-readable companion to :func:`write_result` — trajectory
    numbers (speedups, call counts) land in
    ``benchmarks/results/<name>.json``, stamped with :func:`provenance`."""
    RESULTS.mkdir(exist_ok=True)
    payload = dict(payload)
    payload.setdefault("provenance", provenance())
    path = RESULTS / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[json written to {path}]")


# ----------------------------------------------------------------------
# The paper's two workloads, laptop-sized
# ----------------------------------------------------------------------

def diffusion_2d(n: int = 48, degree: int = 4, seed: int = 42):
    """Fig. 9 workload: heterogeneous diffusivity, P4 in 2D (paper:
    ~23 nnz/row)."""
    mesh = unit_square(n)
    kappa = channels_and_inclusions(mesh, seed=seed)
    return mesh, DiffusionForm(degree=degree, kappa=kappa), None


def diffusion_3d(n: int = 5, degree: int = 2, seed: int = 9,
                 refine: int = 0):
    """Fig. 9 workload in 3D: P2 (~27 nnz/row)."""
    mesh = unit_cube(n)
    if refine:
        mesh = refine_uniform(mesh, refine)
    kappa = channels_and_inclusions(mesh, seed=seed)
    return mesh, DiffusionForm(degree=degree, kappa=kappa), None


def elasticity_2d(n: int = 8, degree: int = 3, length: float = 8.0):
    """Fig. 6 bottom: heterogeneous cantilever, P3 in 2D (~33 nnz/row)."""
    mesh = cantilever_2d(n, length=length, height=1.0)
    lam, mu = layered_elasticity(mesh, n_layers=8)
    form = ElasticityForm(degree=degree, lam=lam, mu=mu,
                          f=np.array([0.0, -9.81]))
    return mesh, form, (lambda x: x[:, 0] < 1e-9)


def elasticity_3d(n: int = 4, degree: int = 2):
    """Fig. 6 top stand-in: heterogeneous 3D solid, P2 (~83 nnz/row).

    A layered box replaces the tripod for the scaling runs (same
    operator, same contrast; the tripod generator is exercised in the
    examples) — carving makes tiny meshes too irregular to partition
    evenly at these scales.
    """
    mesh = unit_cube(n)
    lam, mu = layered_elasticity(mesh, n_layers=4, axis=2)
    form = ElasticityForm(degree=degree, lam=lam, mu=mu,
                          f=np.array([0.0, 0.0, -9.81]))
    return mesh, form, (lambda x: x[:, 2] < 1e-9)
