"""Edge-case coverage batch: coefficients, forms, meter, SPMD layout."""

import numpy as np
import pytest

from repro.common.errors import FEMError
from repro.fem import (
    HARD_PHASE,
    KAPPA_MAX,
    SOFT_PHASE,
    channels_and_inclusions,
    constant_field,
    lame_parameters,
    layered_elasticity,
)
from repro.fem.forms import DiffusionForm, ElasticityForm
from repro.mesh import unit_cube, unit_square
from repro.mpi import Meter, run_spmd
from repro.mpi.meter import RankStats


class TestCoefficients:
    def test_channels_within_bounds(self):
        m = unit_square(12)
        k = channels_and_inclusions(m, seed=5)
        assert k.min() >= 1.0
        assert k.max() <= KAPPA_MAX
        assert k.max() / k.min() > 1e4          # high contrast achieved

    def test_deterministic_per_seed(self):
        m = unit_square(8)
        assert np.array_equal(channels_and_inclusions(m, seed=3),
                              channels_and_inclusions(m, seed=3))
        assert not np.array_equal(channels_and_inclusions(m, seed=3),
                                  channels_and_inclusions(m, seed=4))

    def test_3d_channels(self):
        m = unit_cube(4)
        k = channels_and_inclusions(m, seed=0)
        assert k.shape == (m.num_cells,)

    def test_layered_elasticity_two_phases(self):
        m = unit_square(10)
        lam, mu = layered_elasticity(m, n_layers=4)
        lam_h, mu_h = lame_parameters(*HARD_PHASE)
        lam_s, mu_s = lame_parameters(*SOFT_PHASE)
        assert set(np.round(np.unique(mu), 6)) == \
            set(np.round([mu_h, mu_s], 6))
        assert np.isclose(sorted(np.unique(lam))[0], min(lam_h, lam_s))

    def test_layered_axis(self):
        m = unit_square(10)
        lam_x, _ = layered_elasticity(m, n_layers=2, axis=0)
        lam_y, _ = layered_elasticity(m, n_layers=2, axis=1)
        assert not np.array_equal(lam_x, lam_y)

    def test_lame_conversion(self):
        lam, mu = lame_parameters(2.0e11, 0.25)
        assert mu == pytest.approx(8.0e10)
        assert lam == pytest.approx(8.0e10)

    def test_constant_field(self):
        m = unit_square(4)
        f = constant_field(m, 3.5)
        assert f.shape == (m.num_cells,)
        assert np.all(f == 3.5)


class TestForms:
    def test_diffusion_restriction(self):
        m = unit_square(6)
        kappa = np.arange(m.num_cells, dtype=float) + 1
        form = DiffusionForm(degree=1, kappa=kappa)
        cells = np.arange(0, m.num_cells, 3)
        # element matrices of a cell subset of the global space read the
        # global per-cell field on those cells: they equal the submesh's
        # element matrices with the restricted coefficient
        Ke = form.element_matrices(form.make_space(m), cells)
        sub, _, cmap = m.extract_cells(cells)
        from repro.fem.assembly import stiffness_elements
        Ke2 = stiffness_elements(form.make_space(sub), None, kappa[cmap])
        assert np.array_equal(cmap, cells)
        assert np.array_equal(Ke, Ke2)

    def test_diffusion_rejects_vector_space(self):
        m = unit_square(3)
        form = DiffusionForm(degree=1)
        from repro.fem import FunctionSpace
        with pytest.raises(FEMError):
            form.assemble_matrix(FunctionSpace(m, 1, ncomp=2))

    def test_elasticity_default_gravity(self):
        m = unit_square(4)
        form = ElasticityForm(degree=1, lam=1.0, mu=1.0)
        space = form.make_space(m)
        b = form.assemble_rhs(space)
        # gravity acts on the last component only
        assert b[0::2].sum() == pytest.approx(0.0, abs=1e-12)
        assert b[1::2].sum() == pytest.approx(-9.81, rel=1e-10)

    def test_elasticity_space_matches_dim(self):
        m3 = unit_cube(2)
        form = ElasticityForm(degree=1, lam=1.0, mu=1.0)
        assert form.make_space(m3).ncomp == 3


class TestMeter:
    def test_rank_stats_record(self):
        s = RankStats()
        s.record_collective("gather", 100, is_global_sync=False)
        s.record_collective("gather", 50, is_global_sync=True)
        assert s.collectives["gather"] == 2
        assert s.collective_bytes["gather"] == 150
        assert s.global_syncs == 1

    def test_meter_summary_keys(self):
        m = Meter(3)
        out = m.summary()
        assert set(out) == {"messages", "bytes", "collectives",
                            "max_global_syncs"}

    def test_meter_isolated_per_rank(self):
        meter = Meter(3)

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.zeros(4), 1)
            elif comm.rank == 1:
                comm.recv(0)

        run_spmd(3, fn, meter=meter)
        assert meter.stats(0).sends == 1
        assert meter.stats(1).recvs == 1
        assert meter.stats(2).sends == meter.stats(2).recvs == 0


class TestMasterLayoutEdges:
    @pytest.mark.parametrize("N,P", [(7, 3), (9, 4), (5, 5)])
    def test_nondivisible_layouts(self, N, P):
        from repro.core.spmd import build_master_comms

        def fn(comm):
            lay = build_master_comms(comm, P)
            return (lay.group, lay.is_master, lay.split.size)

        out = run_spmd(N, fn)
        masters = [r for r, (_, m, _) in enumerate(out) if m]
        assert len(masters) == P
        # split sizes partition N
        sizes = {}
        for g, _, size in out:
            sizes[g] = size
        assert sum(sizes.values()) == N

    def test_p_equals_n(self):
        """Every rank its own master: splitComms of size 1."""
        from repro.core.spmd import build_master_comms

        def fn(comm):
            lay = build_master_comms(comm, comm.size)
            return lay.is_master and lay.split.size == 1

        assert all(run_spmd(4, fn))


class TestSolverShiftPaths:
    def test_superlu_shift(self):
        import scipy.sparse as sp
        from repro.solvers import factorize
        n = 8
        A = sp.eye(n, format="csr") * 0.0        # zero matrix: singular
        f = factorize(A, "superlu", shift=2.0)
        x = f.solve(np.ones(n))
        assert np.allclose(x, 0.5)

    def test_band_shift(self):
        import scipy.sparse as sp
        from repro.solvers import factorize
        n = 6
        A = sp.diags([np.full(n - 1, -1.0), np.full(n, 1.0),
                      np.full(n - 1, -1.0)], [-1, 0, 1]).tocsr()
        # not SPD without a shift (eigenvalue 1-2cos(k) < 0)
        f = factorize(A, "band", shift=2.0)
        b = np.ones(n)
        x = f.solve(b)
        Ash = A + 2.0 * sp.eye(n)
        assert np.allclose(Ash @ x, b)

    def test_dense_falls_back_to_lu(self):
        from repro.solvers import factorize
        A = np.array([[0.0, 1.0], [1.0, 0.0]])   # symmetric indefinite
        f = factorize(A, "dense")
        assert np.allclose(f.solve(np.array([1.0, 2.0])),
                           np.array([2.0, 1.0]))
