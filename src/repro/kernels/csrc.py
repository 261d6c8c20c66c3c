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
#define _GNU_SOURCE
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdint.h>
#include <stdlib.h>

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
   into the arrays the Python objects already hold (nothing is copied),
   slot 0 of every row being the subdomain's dofs, and meta holding
   (kind, n) per subdomain.

   The subdomains run on a thread pool.  Threads claim the next
   subdomain index from a shared counter, and subdomain s writes its
   weighted local result (n rows of m values) into a per-call slab at
   row soff[s].  When every subdomain is done, the calling thread adds
   the slab into out in subdomain order, so each out[j] receives the
   additions of the per-subdomain reference in its order: the result is
   bitwise that reference's for any thread count and any schedule.
   ------------------------------------------------------------------ */

#if defined(__x86_64__) || defined(__i386__)
#define CPU_RELAX() __builtin_ia32_pause()
#elif defined(__aarch64__)
#define CPU_RELAX() __asm__ __volatile__("yield")
#else
#define CPU_RELAX() ((void) 0)
#endif

/* a wait spins this many rounds, then yields the CPU; an idle worker
   then yields this many more rounds, then sleeps until the next call */
#define SPIN_ROUNDS 4096
#define YIELD_ROUNDS 256

typedef struct pass pass_t;
struct pass {
    void (*task)(const pass_t *, int32_t, double *);
    int32_t nsub, slots, m;
    const int32_t *meta;
    const void *const *tab;
    const int64_t *soff;
    const double *in;
    double *slab, *ws;
    int64_t wsz;                     /* workspace doubles per thread */
    int32_t nws;                     /* workspaces handed out */
    char pad_[64];
    int32_t next;                    /* next subdomain to claim */
};

/* a thread's share of a call: claim subdomains until none is left,
   taking a workspace with the first one */
static void claim(pass_t *ps) {
    double *ws = NULL;
    for (;;) {
        const int32_t s = __atomic_fetch_add(&ps->next, 1, __ATOMIC_RELAXED);
        if (s >= ps->nsub) return;
        if (ws == NULL)
            ws = ps->ws + ps->wsz
                 * __atomic_fetch_add(&ps->nws, 1, __ATOMIC_RELAXED);
        ps->task(ps, s, ws);
    }
}

static void relax(int32_t *round) {
    if (++*round < SPIN_ROUNDS) CPU_RELAX();
    else sched_yield();
}

/* test schedules (pool_configure): any claim order, the workers claim
   nothing, or the calling thread claims nothing */
enum { SCHEDULE_ANY, SCHEDULE_CALLER_ONLY, SCHEDULE_WORKERS_ONLY };

static struct {
    int32_t size;         /* threads of a pooled call, the caller's too;
                             0 until the first call sizes the pool */
    int32_t want;         /* pool_configure's size; 0: the affinity mask */
    int32_t schedule;
    int32_t nworkers, atfork_set, busy, stop, inside, sleepers;
    pthread_t *threads;
    pthread_mutex_t mu;
    pthread_cond_t cv;
    pass_t *job;          /* the open call's pass */
    uint64_t epoch;       /* calls published so far */
    uint64_t open;        /* the open call's epoch, 0 when closed */
} pool = {.mu = PTHREAD_MUTEX_INITIALIZER, .cv = PTHREAD_COND_INITIALIZER};

static void *pool_worker(void *arg) {
    uint64_t seen = (uint64_t) (uintptr_t) arg;
    for (;;) {
        uint64_t e;
        int32_t round = 0;
        while ((e = __atomic_load_n(&pool.epoch, __ATOMIC_SEQ_CST)) == seen
               && !__atomic_load_n(&pool.stop, __ATOMIC_SEQ_CST)) {
            if (round < SPIN_ROUNDS + YIELD_ROUNDS) {
                relax(&round);
                continue;
            }
            pthread_mutex_lock(&pool.mu);
            __atomic_add_fetch(&pool.sleepers, 1, __ATOMIC_SEQ_CST);
            while (__atomic_load_n(&pool.epoch, __ATOMIC_SEQ_CST) == seen
                   && !__atomic_load_n(&pool.stop, __ATOMIC_SEQ_CST))
                pthread_cond_wait(&pool.cv, &pool.mu);
            __atomic_sub_fetch(&pool.sleepers, 1, __ATOMIC_SEQ_CST);
            pthread_mutex_unlock(&pool.mu);
        }
        if (__atomic_load_n(&pool.stop, __ATOMIC_SEQ_CST)) return NULL;
        seen = e;
        /* enter, then check the call is still open: the caller closes,
           then waits for every worker inside, so a late worker either
           finds the call closed or is waited for */
        __atomic_add_fetch(&pool.inside, 1, __ATOMIC_SEQ_CST);
        if (__atomic_load_n(&pool.open, __ATOMIC_SEQ_CST) == e
            && pool.schedule != SCHEDULE_CALLER_ONLY)
            claim(pool.job);
        __atomic_sub_fetch(&pool.inside, 1, __ATOMIC_SEQ_CST);
    }
}

static void pool_wake(void) {
    pthread_mutex_lock(&pool.mu);
    pthread_cond_broadcast(&pool.cv);
    pthread_mutex_unlock(&pool.mu);
}

/* a forked child has none of the parent's workers: start afresh */
static void pool_forked(void) {
    pool.size = pool.nworkers = pool.busy = pool.stop = 0;
    pool.inside = pool.sleepers = 0;
    pool.open = 0;
    pool.threads = NULL;
    pthread_mutex_init(&pool.mu, NULL);
    pthread_cond_init(&pool.cv, NULL);
}

static int32_t affinity_threads(void) {
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
    return CPU_COUNT(&set) > 0 ? CPU_COUNT(&set) : 1;
}

/* Take the pool for one call.  Returns 0 when another call holds it:
   that call runs on its own. */
static int pool_acquire(void) {
    return !__atomic_exchange_n(&pool.busy, 1, __ATOMIC_ACQUIRE);
}

static void pool_release(void) {
    __atomic_store_n(&pool.busy, 0, __ATOMIC_RELEASE);
}

/* Start the workers of a held pool on its first call in this process
   (a forked child starts afresh, see pool_forked). */
static void pool_start(void) {
    sigset_t all, old;
    if (pool.size) return;
    if (!pool.atfork_set)
        pool.atfork_set = pthread_atfork(NULL, NULL, pool_forked) == 0;
    pool.size = pool.want > 0 ? pool.want : affinity_threads();
    pool.threads = calloc((size_t) pool.size, sizeof(pthread_t));
    /* workers take no signals: they stay the interpreter's */
    sigfillset(&all);
    pthread_sigmask(SIG_BLOCK, &all, &old);
    while (pool.threads && pool.nworkers < pool.size - 1
           && pthread_create(&pool.threads[pool.nworkers], NULL,
                             pool_worker,
                             (void *) (uintptr_t) pool.epoch) == 0)
        ++pool.nworkers;
    pthread_sigmask(SIG_SETMASK, &old, NULL);
}

/* Test hook: stop the workers, then size the pool to threads (0: the
   affinity mask) at the next call, with the given claim schedule. */
void pool_configure(int32_t threads, int32_t schedule) {
    int32_t round = 0, i;
    while (!pool_acquire()) relax(&round);
    __atomic_store_n(&pool.stop, 1, __ATOMIC_SEQ_CST);
    pool_wake();
    for (i = 0; i < pool.nworkers; ++i) pthread_join(pool.threads[i], NULL);
    free(pool.threads);
    pool.threads = NULL;
    pool.nworkers = pool.size = 0;
    pool.stop = 0;
    pool.want = threads;
    pool.schedule = schedule;
    pool_release();
}

/* Run a pass: every subdomain's task on the pool (or on the calling
   thread alone when the pool is busy or has no workers), then the
   ordered scatter of the slab into out.  Returns -1 when the
   workspace cannot be allocated. */
static int32_t run_pass(pass_t *ps, double *out) {
    int32_t s, nmax = 0, threads = 1, round = 0;
    const int32_t m = ps->m;
    const int pooled = ps->nsub > 1 && pool_acquire();
    if (pooled) {
        pool_start();
        threads = pool.nworkers + 1;
    }
    for (s = 0; s < ps->nsub; ++s)
        if (ps->meta[2 * s + 1] > nmax) nmax = ps->meta[2 * s + 1];
    ps->wsz = (int64_t) nmax * m;
    ps->ws = malloc(sizeof(double) * (size_t) (ps->wsz ? ps->wsz : 1)
                    * (size_t) (threads < ps->nsub ? threads : ps->nsub));
    if (ps->ws == NULL) {
        if (pooled) pool_release();
        return -1;
    }
    ps->next = ps->nws = 0;
    if (threads > 1) {
        const uint64_t e = pool.epoch + 1;
        pool.job = ps;
        __atomic_store_n(&pool.open, e, __ATOMIC_SEQ_CST);
        __atomic_store_n(&pool.epoch, e, __ATOMIC_SEQ_CST);
        if (__atomic_load_n(&pool.sleepers, __ATOMIC_SEQ_CST)) pool_wake();
        if (pool.schedule != SCHEDULE_WORKERS_ONLY) claim(ps);
        while (__atomic_load_n(&ps->next, __ATOMIC_SEQ_CST) < ps->nsub)
            relax(&round);
        __atomic_store_n(&pool.open, 0, __ATOMIC_SEQ_CST);
        round = 0;
        while (__atomic_load_n(&pool.inside, __ATOMIC_SEQ_CST))
            relax(&round);
    } else {
        claim(ps);
    }
    if (pooled) pool_release();
    for (s = 0; s < ps->nsub; ++s) {
        const int32_t n = ps->meta[2 * s + 1];
        const int64_t *dofs = ps->tab[(int64_t) s * ps->slots];
        const double *o = ps->slab + ps->soff[s] * m;
        int32_t q, c;
        if (m == 1) {
            for (q = 0; q < n; ++q) out[dofs[q]] += o[q];
            continue;
        }
        for (q = 0; q < n; ++q) {
            double *oq = out + dofs[q] * m;
            const double *sq = o + (int64_t) q * m;
            for (c = 0; c < m; ++c) oq[c] += sq[c];
        }
    }
    free(ps->ws);
    return 0;
}

/* RAS: out += sum_i R_i^T D_i A_i^-1 R_i r over m right-hand sides
   stored row-major.  kind 0 is an LDL^T, 1 an LU, 2 a subdomain whose
   slab rows the caller has filled already; tab holds RAS_SLOTS
   pointers per subdomain: dofs, d, piv_in, piv_out, then L indptr,
   L rowind, L values and dinv (LDL^T) or U indptr, U rowind, U values
   (LU).  Subdomain s gathers r[dofs[piv_in]], solves in place and
   writes d[q] z[k] at slab row q = piv_out[k]. */
#define RAS_SLOTS 10
#define RAS_FILLED 2

static void ras_task(const pass_t *ps, int32_t s, double *z) {
    const int32_t kind = ps->meta[2 * s], n = ps->meta[2 * s + 1];
    const int32_t m = ps->m;
    const void *const *p = ps->tab + (int64_t) s * RAS_SLOTS;
    const int64_t *dofs = p[0], *pin = p[2], *pout = p[3];
    const double *d = p[1], *r = ps->in;
    double *o = ps->slab + ps->soff[s] * m;
    int32_t k, c;
    if (kind == RAS_FILLED) return;
    if (m == 1) {
        for (k = 0; k < n; ++k) z[k] = r[dofs[pin[k]]];
        if (kind == 0) ldl_solve_f64(p[4], p[5], p[6], p[7], z, n);
        else lu_solve_f64(p[4], p[5], p[6], p[7], p[8], p[9], z, n);
        for (k = 0; k < n; ++k) o[pout[k]] = d[pout[k]] * z[k];
        return;
    }
    for (k = 0; k < n; ++k) {
        const double *src = r + dofs[pin[k]] * m;
        double *dst = z + (int64_t) k * m;
        for (c = 0; c < m; ++c) dst[c] = src[c];
    }
    if (kind == 0)
        ldl_solve_block_f64(p[4], p[5], p[6], p[7], z, n, m);
    else
        lu_solve_block_f64(p[4], p[5], p[6], p[7], p[8], p[9], z, n, m);
    for (k = 0; k < n; ++k) {
        const int64_t q = pout[k];
        const double dq = d[q], *zk = z + (int64_t) k * m;
        double *oq = o + q * m;
        for (c = 0; c < m; ++c) oq[c] = dq * zk[c];
    }
}

int32_t ras_apply_f64(int32_t nsub, const int32_t *meta,
                      const void *const *tab, const int64_t *soff,
                      const double *r, double *out, double *slab,
                      int32_t m) {
    pass_t ps = {.task = ras_task, .nsub = nsub, .slots = RAS_SLOTS,
                 .m = m, .meta = meta, .tab = tab, .soff = soff, .in = r,
                 .slab = slab};
    return run_pass(&ps, out);
}

/* Matvec: out += sum_i R_i^T A_i D_i R_i x over m right-hand sides
   stored row-major.  tab holds dofs, d, then A_i's CSR indptr, indices
   and values.  Subdomain s forms t = d x[dofs], then writes every CSR
   row of A_i summed from zero in storage order at its slab row. */
#define MATVEC_SLOTS 5

static void matvec_task(const pass_t *ps, int32_t s, double *t) {
    const int32_t n = ps->meta[2 * s + 1], m = ps->m;
    const void *const *p = ps->tab + (int64_t) s * MATVEC_SLOTS;
    const int64_t *dofs = p[0];
    const double *d = p[1], *av = p[4], *x = ps->in;
    const int32_t *ap = p[2], *aj = p[3];
    double *o = ps->slab + ps->soff[s] * m;
    int32_t k, jj, c;
    if (m == 1) {
        for (k = 0; k < n; ++k) t[k] = d[k] * x[dofs[k]];
        for (k = 0; k < n; ++k) {
            double acc = 0.0;
            for (jj = ap[k]; jj < ap[k + 1]; ++jj) acc += av[jj] * t[aj[jj]];
            o[k] = acc;
        }
        return;
    }
    for (k = 0; k < n; ++k) {
        const double dk = d[k], *xk = x + dofs[k] * m;
        double *tk = t + (int64_t) k * m;
        for (c = 0; c < m; ++c) tk[c] = dk * xk[c];
    }
    for (k = 0; k < n; ++k) {
        double *ok = o + (int64_t) k * m;
        for (c = 0; c < m; ++c) ok[c] = 0.0;
        for (jj = ap[k]; jj < ap[k + 1]; ++jj) {
            const double a = av[jj], *tj = t + (int64_t) aj[jj] * m;
            for (c = 0; c < m; ++c) ok[c] += a * tj[c];
        }
    }
}

int32_t matvec_f64(int32_t nsub, const int32_t *meta,
                   const void *const *tab, const int64_t *soff,
                   const double *x, double *out, double *slab, int32_t m) {
    pass_t ps = {.task = matvec_task, .nsub = nsub, .slots = MATVEC_SLOTS,
                 .m = m, .meta = meta, .tab = tab, .soff = soff, .in = x,
                 .slab = slab};
    return run_pass(&ps, out);
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
#: rounds as in the numpy/scipy reference the kernels must match bitwise;
#: ``-falign-loops=32``: the short column loops of the block LDLᵀ sweeps
#: otherwise run at the mercy of where the code before them ends (the
#: block RAS apply measured 1.4× slower after an unrelated edit moved
#: them); ``-pthread``: the passes' thread pool
_CFLAGS = ["-O3", "-ffp-contract=off", "-falign-loops=32", "-fPIC",
           "-shared", "-pthread"]

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
    for fn in (lib.ras_apply_f64, lib.matvec_f64):
        fn.argtypes = [i32, ptr, ptr, ptr, ptr, ptr, ptr, i32]
        fn.restype = i32
    lib.pool_configure.argtypes = [i32, i32]
    lib.zt_dot_f64.argtypes = [i32, ptr, ptr, ptr, ptr]
    lib.deflate_f64.argtypes = [i32, ptr, ptr, ptr, ptr, ptr, ptr, i64]
    for fn in (lib.ldl_solve_f64, lib.ldl_solve_block_f64,
               lib.lu_solve_f64, lib.lu_solve_block_f64,
               lib.pool_configure, lib.zt_dot_f64, lib.deflate_f64):
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
