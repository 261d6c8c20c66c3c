"""Nonsymmetric workloads: one-level vs GenEO vs extended coarse spaces.

The paper's GenEO theory (and the repo's default coarse space) assumes
an SPD operator.  This benchmark measures what happens beyond that
assumption on the two nonsymmetric/indefinite workloads the repo now
assembles — convection–diffusion with SUPG stabilisation and Helmholtz
with absorption — across a Péclet/wavenumber × coefficient-contrast
grid:

* **one-level** (RAS only): iteration counts grow with advection
  strength / wavenumber and with the subdomain count — the baseline
  every coarse space must beat;
* **geneo**: the classical pencil on the *symmetrised* Neumann matrix
  (½(A + Aᵀ), with a warning) — the "symmetrize and hope" baseline;
* **extended**: the Nataf–Parolin-style pencil on the form's SPD
  surrogate (diffusion + streamline term, stiffness-only for
  Helmholtz) with Euclidean rank-revealing orthonormalisation — the
  construction that remains well-posed off the SPD axis.

Acceptance (asserted): at the largest smoke Péclet and wavenumber the
extended coarse space converges in at most half the one-level
iterations.

Run directly (CI runs ``--smoke``)::

    PYTHONPATH=src python benchmarks/bench_nonsymmetric.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from common import write_result, write_json  # noqa: E402
from repro import SchwarzSolver  # noqa: E402
from repro.common.asciiplot import table  # noqa: E402
from repro.fem import channels_and_inclusions  # noqa: E402
from repro.fem.forms import (  # noqa: E402
    ConvectionDiffusionForm,
    HelmholtzForm,
)
from repro.mesh import unit_square  # noqa: E402

METHODS = ("one-level", "geneo", "extended")
#: fixed advection field; the Péclet axis scales κ down instead of β up,
#: so Pe = |β|h/(2κ̄) with κ̄ the background diffusivity
BETA = np.array([1.0, 0.4])


def _solve(mesh, form, method: str, *, num_subdomains: int, nev: int,
           tol: float, maxiter: int):
    """One solve; returns (iterations, converged, solve_seconds).

    The one-level method is *expected* to stall on the hard rows — the
    gmres driver returns the unconverged result (iterations == maxiter)
    instead of raising, so stalls are countable.
    """
    kw = dict(num_subdomains=num_subdomains, nev=nev, krylov="gmres",
              seed=0)
    if method == "one-level":
        kw["levels"] = 1
    else:
        kw["coarse_space"] = method
    with warnings.catch_warnings():
        # the geneo baseline symmetrises nonsymmetric A_neu with a
        # RuntimeWarning — that is exactly the comparison being run
        warnings.simplefilter("ignore", RuntimeWarning)
        solver = SchwarzSolver(mesh, form, **kw)
        t0 = time.perf_counter()
        report = solver.solve(tol=tol, maxiter=maxiter)
        dt = time.perf_counter() - t0
    return report.iterations, bool(report.converged), dt


def run(smoke: bool) -> dict:
    n = 32 if smoke else 40
    N = 24 if smoke else 32
    nev = 6 if smoke else 8
    maxiter = 400
    tol = 1e-7
    peclets = (2.0, 200.0) if smoke else (2.0, 20.0, 200.0)
    wavenumbers = (5.0, 15.0) if smoke else (5.0, 10.0, 15.0)
    contrasts = (1e1, 1e3) if smoke else (1e1, 1e3, 1e5)
    mesh = unit_square(n)
    h = 1.0 / n
    bmag = float(np.linalg.norm(BETA))

    rows = []
    records = []
    for contrast in contrasts:
        for pe in peclets:
            kbg = bmag * h / (2.0 * pe)
            kappa = channels_and_inclusions(
                mesh, kappa_min=kbg, kappa_max=kbg * contrast, seed=3)
            form = ConvectionDiffusionForm(
                degree=1, kappa=kappa, beta=BETA)
            rec = {"workload": "convdiff", "peclet": pe,
                   "contrast": contrast, "iterations": {},
                   "converged": {}, "seconds": {}}
            for method in METHODS:
                its, ok, dt = _solve(mesh, form, method,
                                     num_subdomains=N, nev=nev,
                                     tol=tol, maxiter=maxiter)
                rec["iterations"][method] = its
                rec["converged"][method] = ok
                rec["seconds"][method] = dt
            records.append(rec)
            rows.append(["convdiff", f"{pe:g}", f"{contrast:.0e}"]
                        + [f"{rec['iterations'][m]}"
                           + ("" if rec["converged"][m] else "*")
                           for m in METHODS])
            print(f"[convdiff pe={pe:g} contrast={contrast:.0e}] " +
                  ", ".join(f"{m}={rec['iterations'][m]}"
                            for m in METHODS))
        kappa = channels_and_inclusions(mesh, kappa_min=1.0,
                                        kappa_max=contrast, seed=3)
        for k in wavenumbers:
            form = HelmholtzForm(degree=1, kappa=kappa, k=k, epsilon=0.3)
            rec = {"workload": "helmholtz", "wavenumber": k,
                   "contrast": contrast, "iterations": {},
                   "converged": {}, "seconds": {}}
            for method in METHODS:
                its, ok, dt = _solve(mesh, form, method,
                                     num_subdomains=N, nev=nev,
                                     tol=tol, maxiter=maxiter)
                rec["iterations"][method] = its
                rec["converged"][method] = ok
                rec["seconds"][method] = dt
            records.append(rec)
            rows.append(["helmholtz", f"k={k:g}", f"{contrast:.0e}"]
                        + [f"{rec['iterations'][m]}"
                           + ("" if rec["converged"][m] else "*")
                           for m in METHODS])
            print(f"[helmholtz k={k:g} contrast={contrast:.0e}] " +
                  ", ".join(f"{m}={rec['iterations'][m]}"
                            for m in METHODS))

    txt = table(["workload", "Pe / k", "contrast"] + list(METHODS),
                rows, title="NONSYMMETRIC WORKLOADS (gmres iterations; "
                            "* = budget exhausted)")

    # -- acceptance: extended beats one-level by >= 2x at the hardest
    # smoke Péclet and wavenumber (any contrast row counts the worst)
    def worst(workload, key, value):
        rs = [r for r in records
              if r["workload"] == workload and r[key] == value]
        one = max(r["iterations"]["one-level"] for r in rs)
        ext = max(r["iterations"]["extended"] for r in rs)
        ext_ok = all(r["converged"]["extended"] for r in rs)
        return one, ext, ext_ok

    one_cd, ext_cd, ok_cd = worst("convdiff", "peclet", peclets[-1])
    one_hh, ext_hh, ok_hh = worst("helmholtz", "wavenumber",
                                  wavenumbers[-1])
    assert ok_cd and ok_hh, (
        "extended coarse space failed to converge on the hardest row: "
        f"convdiff={ok_cd}, helmholtz={ok_hh}")
    assert 2 * ext_cd <= one_cd, (
        f"extended ({ext_cd} it) did not beat one-level ({one_cd} it) "
        f"by 2x at Pe={peclets[-1]:g}")
    assert 2 * ext_hh <= one_hh, (
        f"extended ({ext_hh} it) did not beat one-level ({one_hh} it) "
        f"by 2x at k={wavenumbers[-1]:g}")
    # the extended space should never lose to symmetrize-and-hope
    geneo_losses = [r for r in records
                    if r["iterations"]["extended"]
                    > r["iterations"]["geneo"] + 2]
    summary = (f"largest Pe={peclets[-1]:g}: one-level={one_cd}, "
               f"extended={ext_cd}; largest k={wavenumbers[-1]:g}: "
               f"one-level={one_hh}, extended={ext_hh}; "
               f"extended-vs-geneo losses: {len(geneo_losses)}")
    print(summary)

    payload = {
        "smoke": smoke, "n": n, "num_subdomains": N, "nev": nev,
        "tol": tol, "maxiter": maxiter,
        "peclets": list(peclets), "wavenumbers": list(wavenumbers),
        "contrasts": list(contrasts),
        "methods": list(METHODS),
        "records": records,
        "hardest": {"convdiff": {"one_level": one_cd, "extended": ext_cd},
                    "helmholtz": {"one_level": one_hh,
                                  "extended": ext_hh}},
        "summary": summary,
    }
    write_result("nonsymmetric", txt + "\n\n" + summary)
    write_json("BENCH_nonsymmetric", payload)
    return payload


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized run (24x24 mesh, 2x2 grid)")
    args = ap.parse_args(argv)
    run(args.smoke)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
