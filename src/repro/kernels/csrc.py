"""Build-time detection and loading of the compiled kernel library.

The compiled kernels are a single small C translation unit (triangular
LDLᵀ and LU solves over CSC factors, and the whole-operator passes of the
solve phase: the RAS apply, the matvec and the coarse transfers, each
one call over all subdomains) compiled with the system C compiler at
first use and loaded through :mod:`ctypes` —
no Cython, cffi or build-system dependency, mirroring the graceful
shell-out-with-fallback pattern of external native bridges.  When no
toolchain is present (or the compile fails) :func:`load_library` returns
``None`` and the callers degrade to the pure-scipy implementations.

The shared object is cached under ``src/repro/kernels/_build/`` (or
``$REPRO_KERNEL_CACHE``) keyed by a hash of the source, compiler and flags, so
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

/* ldl_solve_f64 over m right-hand sides stored row-major (the m values
   of one row contiguous): one sweep over L serves every column, and
   each column sees exactly the operations of the vector kernel. */
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


/* ------------------------------------------------------------------
   Whole-operator passes.  Each takes a table of per-subdomain pointers
   into the arrays the Python objects already hold (nothing is copied)
   and walks the subdomains in index order, doing for each exactly the
   operations of the per-subdomain reference, in the same order.
   ------------------------------------------------------------------ */

/* RAS: out += sum_i R_i^T D_i A_i^-1 R_i r over the exported factors.
   meta holds (kind, n) per subdomain, kind 0 an LDL^T, 1 an LU; tab
   holds RAS_SLOTS pointers per subdomain: dofs, d, piv_in, piv_out,
   then L indptr, L rowind, L values and dinv (LDL^T) or U indptr,
   U rowind, U values (LU).  z is a workspace of max n. */
#define RAS_SLOTS 10

static void ras_solve(int32_t kind, const void *const *p, double *z,
                      int32_t n) {
    if (kind == 0)
        ldl_solve_f64(p[4], p[5], p[6], p[7], z, n);
    else
        lu_solve_f64(p[4], p[5], p[6], p[7], p[8], p[9], z, n);
}

static void ras_solve_block(int32_t kind, const void *const *p, double *z,
                            int32_t n, int32_t m) {
    if (kind == 0)
        ldl_solve_block_f64(p[4], p[5], p[6], p[7], z, n, m);
    else
        lu_solve_block_f64(p[4], p[5], p[6], p[7], p[8], p[9], z, n, m);
}

void ras_apply_f64(int32_t nsub, const int32_t *meta,
                   const void *const *tab, const double *r, double *out,
                   double *z) {
    int32_t s, k;
    for (s = 0; s < nsub; ++s) {
        const int32_t kind = meta[2 * s], n = meta[2 * s + 1];
        const void *const *p = tab + (int64_t) s * RAS_SLOTS;
        const int64_t *dofs = p[0], *pin = p[2], *pout = p[3];
        const double *d = p[1];
        for (k = 0; k < n; ++k) z[k] = r[dofs[pin[k]]];
        ras_solve(kind, p, z, n);
        for (k = 0; k < n; ++k) {
            const int64_t q = pout[k];
            out[dofs[q]] += d[q] * z[k];
        }
    }
}

/* ras_apply_f64 over m right-hand sides stored row-major; each column
   sees exactly the operations of the vector pass. */
void ras_apply_block_f64(int32_t nsub, const int32_t *meta,
                         const void *const *tab, const double *r,
                         double *out, double *z, int32_t m) {
    int32_t s, k, c;
    for (s = 0; s < nsub; ++s) {
        const int32_t kind = meta[2 * s], n = meta[2 * s + 1];
        const void *const *p = tab + (int64_t) s * RAS_SLOTS;
        const int64_t *dofs = p[0], *pin = p[2], *pout = p[3];
        const double *d = p[1];
        for (k = 0; k < n; ++k) {
            const double *src = r + dofs[pin[k]] * m;
            double *dst = z + (int64_t) k * m;
            for (c = 0; c < m; ++c) dst[c] = src[c];
        }
        ras_solve_block(kind, p, z, n, m);
        for (k = 0; k < n; ++k) {
            const int64_t q = pout[k];
            const double dq = d[q];
            double *o = out + dofs[q] * m;
            const double *zk = z + (int64_t) k * m;
            for (c = 0; c < m; ++c) o[c] += dq * zk[c];
        }
    }
}

/* Matvec: out += sum_i R_i^T A_i D_i R_i x.  meta holds n per
   subdomain; tab holds A_i's CSR indptr, indices and values, then dofs
   and d.  t is a workspace of max n. */
#define MATVEC_SLOTS 5

void matvec_f64(int32_t nsub, const int32_t *meta, const void *const *tab,
                const double *x, double *out, double *t) {
    int32_t s, k, jj;
    for (s = 0; s < nsub; ++s) {
        const int32_t n = meta[s];
        const void *const *p = tab + (int64_t) s * MATVEC_SLOTS;
        const int32_t *ap = p[0], *aj = p[1];
        const double *av = p[2], *d = p[4];
        const int64_t *dofs = p[3];
        for (k = 0; k < n; ++k) t[k] = d[k] * x[dofs[k]];
        for (k = 0; k < n; ++k) {
            double acc = 0.0;
            for (jj = ap[k]; jj < ap[k + 1]; ++jj) acc += av[jj] * t[aj[jj]];
            out[dofs[k]] += acc;
        }
    }
}

/* matvec_f64 over m right-hand sides stored row-major; t holds n * m
   and acc m values. */
void matvec_block_f64(int32_t nsub, const int32_t *meta,
                      const void *const *tab, const double *x, double *out,
                      double *t, double *acc, int32_t m) {
    int32_t s, k, jj, c;
    for (s = 0; s < nsub; ++s) {
        const int32_t n = meta[s];
        const void *const *p = tab + (int64_t) s * MATVEC_SLOTS;
        const int32_t *ap = p[0], *aj = p[1];
        const double *av = p[2], *d = p[4];
        const int64_t *dofs = p[3];
        for (k = 0; k < n; ++k) {
            const double dk = d[k];
            const double *xk = x + dofs[k] * m;
            double *tk = t + (int64_t) k * m;
            for (c = 0; c < m; ++c) tk[c] = dk * xk[c];
        }
        for (k = 0; k < n; ++k) {
            double *o = out + dofs[k] * m;
            for (c = 0; c < m; ++c) acc[c] = 0.0;
            for (jj = ap[k]; jj < ap[k + 1]; ++jj) {
                const double a = av[jj];
                const double *tj = t + (int64_t) aj[jj] * m;
                for (c = 0; c < m; ++c) acc[c] += a * tj[c];
            }
            for (c = 0; c < m; ++c) o[c] += acc[c];
        }
    }
}

/* Coarse transfers over the deflation blocks.  meta holds (n, nu,
   offset) per subdomain; tab holds dofs, W_i and T_i = A_i W_i (both
   row-major n x nu).  Per coarse column and per dof the sums run in
   the storage order of the CSR forms of Z^T, Z and A Z. */
#define COARSE_SLOTS 3

/* out = Z^T u: out[offset + c] = sum_k W_i[k, c] u[dofs[k]] */
void zt_dot_f64(int32_t nsub, const int64_t *meta, const void *const *tab,
                const double *u, double *out) {
    int32_t s;
    int64_t k, c;
    for (s = 0; s < nsub; ++s) {
        const int64_t n = meta[3 * s], nu = meta[3 * s + 1];
        const void *const *p = tab + (int64_t) s * COARSE_SLOTS;
        const int64_t *dofs = p[0];
        const double *W = p[1];
        double *o = out + meta[3 * s + 2];
        for (c = 0; c < nu; ++c) o[c] = 0.0;
        for (k = 0; k < n; ++k) {
            const double uk = u[dofs[k]];
            const double *wk = W + k * nu;
            for (c = 0; c < nu; ++c) o[c] += wk[c] * uk;
        }
    }
}

/* w = Z y and v = u - A Z y in one pass over the W_i and T_i blocks. */
void deflate_f64(int32_t nsub, const int64_t *meta, const void *const *tab,
                 const double *u, const double *y, double *w, double *v,
                 int64_t n_free) {
    int32_t s;
    int64_t k, c, i;
    for (i = 0; i < n_free; ++i) w[i] = v[i] = 0.0;
    for (s = 0; s < nsub; ++s) {
        const int64_t n = meta[3 * s], nu = meta[3 * s + 1];
        const void *const *p = tab + (int64_t) s * COARSE_SLOTS;
        const int64_t *dofs = p[0];
        const double *W = p[1], *T = p[2];
        const double *ys = y + meta[3 * s + 2];
        for (k = 0; k < n; ++k) {
            const int64_t q = dofs[k];
            const double *wk = W + k * nu, *tk = T + k * nu;
            double a = w[q], b = v[q];
            for (c = 0; c < nu; ++c) {
                a += wk[c] * ys[c];
                b += tk[c] * ys[c];
            }
            w[q] = a;
            v[q] = b;
        }
    }
    for (i = 0; i < n_free; ++i) v[i] = u[i] - v[i];
}
"""

#: ``-ffp-contract=off``: no fused multiply-add, so every product and sum
#: rounds as in the numpy/scipy reference the kernels must match bitwise
_CFLAGS = ["-O3", "-ffp-contract=off", "-fPIC", "-shared"]

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
    h.update(" ".join(_CFLAGS).encode())
    return h.hexdigest()[:16]


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    p = ctypes.POINTER
    i32, i64, f64 = ctypes.c_int32, ctypes.c_int64, ctypes.c_double
    # the whole-operator passes take raw addresses (``ndarray.ctypes.
    # data``): one int per argument instead of a ``data_as`` conversion
    ptr = ctypes.c_void_p
    lib.ldl_solve_f64.argtypes = [p(i32), p(i32), p(f64), p(f64),
                                  p(f64), i32]
    lib.ldl_solve_block_f64.argtypes = [p(i32), p(i32), p(f64), p(f64),
                                        p(f64), i32, i32]
    lib.lu_solve_f64.argtypes = [p(i32), p(i32), p(f64), p(i32), p(i32),
                                 p(f64), p(f64), i32]
    lib.lu_solve_block_f64.argtypes = [p(i32), p(i32), p(f64), p(i32),
                                       p(i32), p(f64), p(f64), i32, i32]
    lib.ras_apply_f64.argtypes = [i32, ptr, ptr, ptr, ptr, ptr]
    lib.ras_apply_block_f64.argtypes = [i32, ptr, ptr, ptr, ptr, ptr, i32]
    lib.matvec_f64.argtypes = [i32, ptr, ptr, ptr, ptr, ptr]
    lib.matvec_block_f64.argtypes = [i32, ptr, ptr, ptr, ptr, ptr, ptr,
                                     i32]
    lib.zt_dot_f64.argtypes = [i32, ptr, ptr, ptr, ptr]
    lib.deflate_f64.argtypes = [i32, ptr, ptr, ptr, ptr, ptr, ptr, i64]
    for fn in (lib.ldl_solve_f64, lib.ldl_solve_block_f64,
               lib.lu_solve_f64, lib.lu_solve_block_f64,
               lib.ras_apply_f64, lib.ras_apply_block_f64,
               lib.matvec_f64, lib.matvec_block_f64,
               lib.zt_dot_f64, lib.deflate_f64):
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
