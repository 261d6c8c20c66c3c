"""Build-time detection and loading of the compiled kernel library.

The compiled kernels are a single small C translation unit (triangular
LDLᵀ and LU solves over CSC factors plus fused gather/scatter) compiled with
the system C compiler at first use and loaded through :mod:`ctypes` —
no Cython, cffi or build-system dependency, mirroring the graceful
shell-out-with-fallback pattern of external native bridges.  When no
toolchain is present (or the compile fails) :func:`load_library` returns
``None`` and the callers degrade to the pure-scipy implementations.

The shared object is cached under ``src/repro/kernels/_build/`` (or
``$REPRO_KERNEL_CACHE``) keyed by a hash of the source + compiler, so
the compile cost is paid once per environment.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

_SOURCE = r"""
#include <stdint.h>

/* LDL^T solve over a CSC lower-triangular factor L (diagonal entry
   first in every column, as SuperLU emits it) and inverse diagonal
   dinv: x <- L^-T D^-1 L^-1 x, in place.  The backward sweep reads the
   same CSC arrays as a CSR view of L^T, so the factor is stored once. */

void ldl_solve_f64(const int32_t *indptr, const int32_t *rowind,
                   const double *lval, const double *dinv,
                   double *x, int32_t n) {
    int32_t j, p;
    for (j = 0; j < n; ++j) {
        const int32_t p0 = indptr[j], p1 = indptr[j + 1];
        const double xj = x[j] / lval[p0];
        x[j] = xj;
        for (p = p0 + 1; p < p1; ++p)
            x[rowind[p]] -= lval[p] * xj;
    }
    for (j = 0; j < n; ++j) x[j] *= dinv[j];
    for (j = n - 1; j >= 0; --j) {
        const int32_t p0 = indptr[j], p1 = indptr[j + 1];
        double acc = x[j];
        for (p = p0 + 1; p < p1; ++p)
            acc -= lval[p] * x[rowind[p]];
        x[j] = acc / lval[p0];
    }
}

/* LU solve over the CSC factors of a general-mode SuperLU LU, as scipy
   emits them: L unit lower triangular with its diagonal first in every
   column, U upper triangular with its diagonal last.  x <- U^-1 L^-1 x,
   in place; both sweeps run down the columns in storage order. */

void lu_solve_f64(const int32_t *lp, const int32_t *li, const double *lx,
                  const int32_t *up, const int32_t *ui, const double *ux,
                  double *x, int32_t n) {
    int32_t j, p;
    for (j = 0; j < n; ++j) {
        const double xj = x[j];
        for (p = lp[j] + 1; p < lp[j + 1]; ++p)
            x[li[p]] -= lx[p] * xj;
    }
    for (j = n - 1; j >= 0; --j) {
        const int32_t pd = up[j + 1] - 1;
        const double xj = x[j] / ux[pd];
        x[j] = xj;
        for (p = up[j]; p < pd; ++p)
            x[ui[p]] -= ux[p] * xj;
    }
}

/* lu_solve_f64 over m right-hand sides stored row-major; each column
   sees exactly the operations of the vector kernel. */
void lu_solve_block_f64(const int32_t *lp, const int32_t *li,
                        const double *lx, const int32_t *up,
                        const int32_t *ui, const double *ux,
                        double *x, int32_t n, int32_t m) {
    int32_t j, p, c;
    for (j = 0; j < n; ++j) {
        const double *xj = x + (int64_t) j * m;
        for (p = lp[j] + 1; p < lp[j + 1]; ++p) {
            double *xi = x + (int64_t) li[p] * m;
            const double l = lx[p];
            for (c = 0; c < m; ++c) xi[c] -= l * xj[c];
        }
    }
    for (j = n - 1; j >= 0; --j) {
        const int32_t pd = up[j + 1] - 1;
        double *xj = x + (int64_t) j * m;
        for (c = 0; c < m; ++c) xj[c] = xj[c] / ux[pd];
        for (p = up[j]; p < pd; ++p) {
            double *xi = x + (int64_t) ui[p] * m;
            const double u = ux[p];
            for (c = 0; c < m; ++c) xi[c] -= u * xj[c];
        }
    }
}

/* dst[k] = src[idx[k]] — fused permutation gather */
void gather_f64(const double *src, const int64_t *idx,
                double *dst, int32_t n) {
    int32_t k;
    for (k = 0; k < n; ++k) dst[k] = src[idx[k]];
}

/* out[idx[k]] += d[k] * z[k] — fused weight + scatter-accumulate */
void scatter_add_f64(double *out, const int64_t *idx, const double *d,
                     const double *z, int32_t n) {
    int32_t k;
    for (k = 0; k < n; ++k) out[idx[k]] += d[k] * z[k];
}

/* Block variants over m right-hand sides stored row-major (the m values
   of one row contiguous): one sweep over L serves every column, and
   each column sees exactly the operations of the vector kernels. */
void ldl_solve_block_f64(const int32_t *indptr, const int32_t *rowind,
                         const double *lval, const double *dinv,
                         double *x, int32_t n, int32_t m) {
    int32_t j, p, c;
    for (j = 0; j < n; ++j) {
        const int32_t p0 = indptr[j], p1 = indptr[j + 1];
        double *xj = x + (int64_t) j * m;
        for (c = 0; c < m; ++c) xj[c] = xj[c] / lval[p0];
        for (p = p0 + 1; p < p1; ++p) {
            double *xi = x + (int64_t) rowind[p] * m;
            const double l = lval[p];
            for (c = 0; c < m; ++c) xi[c] -= l * xj[c];
        }
    }
    for (j = 0; j < n; ++j)
        for (c = 0; c < m; ++c) x[(int64_t) j * m + c] *= dinv[j];
    for (j = n - 1; j >= 0; --j) {
        const int32_t p0 = indptr[j], p1 = indptr[j + 1];
        double *xj = x + (int64_t) j * m;
        for (p = p0 + 1; p < p1; ++p) {
            const double *xi = x + (int64_t) rowind[p] * m;
            const double l = lval[p];
            for (c = 0; c < m; ++c) xj[c] -= l * xi[c];
        }
        for (c = 0; c < m; ++c) xj[c] = xj[c] / lval[p0];
    }
}

void gather_block_f64(const double *src, const int64_t *idx,
                      double *dst, int32_t n, int32_t m) {
    int32_t k, c;
    for (k = 0; k < n; ++k)
        for (c = 0; c < m; ++c)
            dst[(int64_t) k * m + c] = src[idx[k] * m + c];
}

void scatter_add_block_f64(double *out, const int64_t *idx,
                           const double *d, const double *z,
                           int32_t n, int32_t m) {
    int32_t k, c;
    for (k = 0; k < n; ++k)
        for (c = 0; c < m; ++c)
            out[idx[k] * m + c] += d[k] * z[(int64_t) k * m + c];
}
"""

_CFLAGS = ["-O3", "-fPIC", "-shared"]

_lib = None
_lib_error: str | None = None
_attempted = False


def cache_dir() -> Path:
    env = os.environ.get("REPRO_KERNEL_CACHE")
    if env:
        return Path(env)
    return Path(__file__).parent / "_build"


def find_compiler() -> str | None:
    """The system C compiler, or ``None`` when no toolchain exists."""
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return name
    return None


def _source_tag(compiler: str) -> str:
    h = hashlib.sha256()
    h.update(_SOURCE.encode())
    h.update(compiler.encode())
    return h.hexdigest()[:16]


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    p = ctypes.POINTER
    i32, i64, f64 = ctypes.c_int32, ctypes.c_int64, ctypes.c_double
    lib.ldl_solve_f64.argtypes = [p(i32), p(i32), p(f64), p(f64),
                                  p(f64), i32]
    lib.ldl_solve_block_f64.argtypes = [p(i32), p(i32), p(f64), p(f64),
                                        p(f64), i32, i32]
    lib.lu_solve_f64.argtypes = [p(i32), p(i32), p(f64), p(i32), p(i32),
                                 p(f64), p(f64), i32]
    lib.lu_solve_block_f64.argtypes = [p(i32), p(i32), p(f64), p(i32),
                                       p(i32), p(f64), p(f64), i32, i32]
    lib.gather_f64.argtypes = [p(f64), p(i64), p(f64), i32]
    lib.gather_block_f64.argtypes = [p(f64), p(i64), p(f64), i32, i32]
    lib.scatter_add_f64.argtypes = [p(f64), p(i64), p(f64), p(f64), i32]
    lib.scatter_add_block_f64.argtypes = [p(f64), p(i64), p(f64), p(f64),
                                          i32, i32]
    for fn in (lib.ldl_solve_f64, lib.ldl_solve_block_f64,
               lib.lu_solve_f64, lib.lu_solve_block_f64,
               lib.gather_f64, lib.gather_block_f64,
               lib.scatter_add_f64, lib.scatter_add_block_f64):
        fn.restype = None
    return lib


def build_library() -> tuple[ctypes.CDLL | None, str | None]:
    """Compile (or reuse) the kernel library.

    Returns ``(lib, None)`` on success or ``(None, reason)`` when the
    toolchain is absent or the build fails — callers treat the second
    form as "capability unavailable" and fall back to scipy.
    """
    compiler = find_compiler()
    if compiler is None:
        return None, "no C compiler found (set $CC or install gcc/clang)"
    tag = _source_tag(compiler)
    out = cache_dir() / f"reprokernels_{tag}.so"
    if not out.exists():
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=out.parent) as tmp:
                src = Path(tmp) / "kernels.c"
                src.write_text(_SOURCE)
                tmp_so = Path(tmp) / out.name
                proc = subprocess.run(
                    [compiler, *_CFLAGS, "-o", str(tmp_so), str(src)],
                    capture_output=True, text=True, timeout=120)
                if proc.returncode != 0:
                    return None, (f"{compiler} failed: "
                                  f"{proc.stderr.strip()[:200]}")
                os.replace(tmp_so, out)
        except (OSError, subprocess.SubprocessError) as exc:
            return None, f"kernel build failed: {exc}"
    try:
        return _declare(ctypes.CDLL(str(out))), None
    except OSError as exc:
        return None, f"could not load {out.name}: {exc}"


def load_library():
    """Memoised :func:`build_library` — one build attempt per process."""
    global _lib, _lib_error, _attempted
    if not _attempted:
        _attempted = True
        _lib, _lib_error = build_library()
    return _lib


def library_error() -> str | None:
    load_library()
    return _lib_error
