"""Fault-tolerant SPMD solves: communicator repair, neighbor
checkpointing, retry absorption, and the chaos harness.

Covers the ULFM-style primitives (``agree`` / ``shrink`` / ``repair``
with warm-spare substitution), the recovery paths of
:func:`repro.core.spmd_ft.solve_spmd_ft` (checkpoint restore,
partition-of-unity reconstruction, setup redo, double failures,
out-of-spares, give-up), transient-drop absorption via sender-side
retry, seeded fault-replay determinism, and the chaos campaign
machinery.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from repro.common.errors import CommunicatorError, RankFailure
from repro.core import solve_spmd_ft
from repro.core.adef import TwoLevelADEF1
from repro.core.coarse import CoarseOperator
from repro.core.ras import OneLevelRAS
from repro.core.spmd import solve_spmd
from repro.krylov import gmres
from repro.mpi.meter import Meter
from repro.mpi.simmpi import run_spmd
from repro.obs import Recorder
from repro.resilience import (ChaosConfig, FaultInjector, FaultPlan,
                              FaultSpec, HealthMonitor, RetryPolicy,
                              as_retry, build_problem, partner_map,
                              random_plan, run_campaign)
from repro.resilience.chaos import run_solve
from repro.resilience.checkpoint import JacobiFactor, jacobi_surrogate


@pytest.fixture(scope="module")
def ft_problem():
    """Small 6-subdomain heterogeneous diffusion problem, built once."""
    return build_problem(ChaosConfig(nranks=6, mesh_n=12, nev=2))


def ft_solve(ft_problem, **kw):
    dec, space, b = ft_problem
    kw.setdefault("num_masters", 2)
    kw.setdefault("tol", 1e-6)
    kw.setdefault("restart", 30)
    kw.setdefault("maxiter", 120)
    return solve_spmd_ft(dec, space, b, **kw)


class _TickCounter(FaultInjector):
    """An injector that injects nothing and counts the ``iteration``
    fault-point ticks per rank."""

    def __init__(self):
        super().__init__(FaultPlan([]))
        self.ticks = Counter()

    def fire(self, op, rank=0, payload=None):
        if op == "iteration":
            self.ticks[rank] += 1
        return payload


def kill_plan(rank, nth=5, op="iteration", timeout=2.0):
    return FaultPlan([FaultSpec("kill", op, rank=rank, nth=nth)],
                     seed=7, timeout=timeout)


# ----------------------------------------------------------------------
# ULFM-style primitives on the raw simulated communicator
# ----------------------------------------------------------------------

class TestRepairPrimitives:
    def test_agree_and(self):
        def fn(comm):
            return comm.agree(int(comm.world_rank != 1))

        out = run_spmd(4, fn, ft=True)
        assert out == [0, 0, 0, 0]

    def test_agree_min(self):
        def fn(comm):
            return comm.agree(comm.world_rank + 10, op="min")

        assert run_spmd(3, fn, ft=True) == [10, 10, 10]

    def test_shrink_without_deaths_is_identity(self):
        def fn(comm):
            sub = comm.shrink()
            return (sub.size, sub.rank, sub.allgather(comm.world_rank))

        out = run_spmd(3, fn, ft=True)
        assert all(size == 3 and ranks == [0, 1, 2]
                   for size, _, ranks in out)

    def test_repair_substitutes_spare(self):
        def fn(comm):
            if not comm.adopted:
                if comm.world_rank == 1:
                    raise RankFailure("injected", rank=comm.world_rank,
                                      op="test")
                # survivors: the broken barrier surfaces the death, the
                # repair substitutes the spare; the substitute skips
                # straight to the post-repair collective
                try:
                    comm.barrier()
                except RankFailure:
                    plan = comm.repair()
                    assert plan["dead"] == [1]
                    assert list(plan["replaced"]) == [1]
            return (comm.world_rank, comm.adopted,
                    comm.allgather(comm.world_rank))

        out = run_spmd(3, fn, spares=1)
        assert out[1] is not None and out[1][1]          # spare adopted 1
        assert all(r[2] == [0, 1, 2] for r in out if r)

    def test_repair_without_spares_fails_cleanly(self):
        def fn(comm):
            if comm.world_rank == 1 and not comm.adopted:
                raise RankFailure("injected", rank=comm.world_rank,
                                  op="test")
            try:
                comm.barrier()
            except RankFailure:
                comm.repair()
            return comm.world_rank

        with pytest.raises(RankFailure, match="repair failed"):
            run_spmd(3, fn, spares=0, ft=True)

    def test_ft_requires_enabled(self):
        def fn(comm):
            return comm.agree(1)

        with pytest.raises(CommunicatorError, match="fault-toleran"):
            run_spmd(2, fn)

    def test_poll_interval_must_be_positive(self):
        with pytest.raises(CommunicatorError, match="poll_interval"):
            run_spmd(2, lambda comm: None, poll_interval=0.0)

    def test_plan_timeout_validated_against_poll(self):
        plan = FaultPlan([FaultSpec("drop", "send", rank=0)],
                         timeout=0.05)
        with pytest.raises(CommunicatorError, match="timeout"):
            run_spmd(2, lambda comm: None, faults=plan,
                     poll_interval=0.5)

    def test_custom_poll_interval_works(self):
        out = run_spmd(2, lambda comm: comm.allreduce(1),
                       poll_interval=0.001)
        assert out == [2, 2]


# ----------------------------------------------------------------------
# Fault-tolerant solve: recovery paths
# ----------------------------------------------------------------------

class TestFtSolve:
    def test_fault_free_matches_plain_spmd(self, ft_problem):
        """Differential test of the three stacks: ``solve_spmd``,
        fault-free ``solve_spmd_ft`` and the in-process ``gmres`` run
        the same loop (GMRES(5), so a restart boundary is crossed)."""
        dec, space, b = ft_problem
        kw = dict(tol=1e-6, restart=5, maxiter=120)
        plain, ft, seq = _TickCounter(), _TickCounter(), _TickCounter()
        x_ref, it_ref, res_ref, _ = solve_spmd(
            dec, space, b, num_masters=2, faults=plain, **kw)
        rep = ft_solve(ft_problem, spares=1, faults=ft, **kw)
        assert rep.converged and rep.two_level
        assert not rep.recoveries
        assert rep.iterations == it_ref > 5
        assert np.allclose(rep.x, x_ref)
        assert rep.checkpoint_ticks > 0
        # same loop, same reductions.  The histories are relative to
        # ‖b‖; the simulator's neighbour exchange accumulates in arrival
        # order, so two runs of the same code agree to rounding of the
        # *initial* residual (atol), not of the current one
        assert len(rep.residuals) == len(res_ref)
        assert np.allclose(rep.residuals, res_ref, rtol=0, atol=1e-13)

        # in-process: modified Gram–Schmidt, against the SPMD ranks'
        # one-reduction classical Gram–Schmidt over the allreduce —
        # same iteration count, histories close but not equal
        M = TwoLevelADEF1(OneLevelRAS(dec), CoarseOperator(space))
        ref = gmres(dec.matvec, b, M=M.apply,
                    health=HealthMonitor(injector=seq), **kw)
        assert ref.iterations == it_ref
        assert np.allclose(ref.residuals, res_ref, rtol=1e-8, atol=1e-13)

        # the ``iteration`` fault point fires exactly once per appended
        # residual: on every rank of both SPMD stacks, and in-process
        # (HealthMonitor.observe ticks rank 0)
        n = len(res_ref)
        assert plain.ticks == ft.ticks == {r: n for r in range(6)}
        assert seq.ticks == {0: n}

    def test_kill_restores_from_checkpoint(self, ft_problem):
        meter = Meter(6)
        rep = ft_solve(ft_problem, spares=1, faults=kill_plan(3),
                       meter=meter)
        assert rep.converged and rep.two_level
        assert len(rep.recoveries) == 1
        rec = rep.recoveries[0]
        assert rec["dead"] == [3] and list(rec["replaced"]) == [3]
        assert 3 in rec["restored_from_ckpt"]
        assert not rec["degraded_local"]
        assert meter.rank_deaths == 1
        assert meter.repairs == 1 and meter.ranks_replaced == 1
        assert meter.faults_by_kind() == {"kill": 1}

    def test_kill_master_keeps_two_level(self, ft_problem):
        # rank 0 is a coarse master: its replica must carry the coarse
        # factor rows so the substitute rejoins the two-level solve
        rep = ft_solve(ft_problem, spares=1, faults=kill_plan(0))
        assert rep.converged and rep.two_level
        assert rep.recoveries[0]["restored_from_ckpt"] == [0]

    def test_kill_without_checkpoint_uses_pou(self, ft_problem):
        rep = ft_solve(ft_problem, spares=1, checkpoint_every=0,
                       faults=kill_plan(3))
        assert rep.converged
        rec = rep.recoveries[0]
        assert 3 in rec["restored_from_pou"]
        assert 3 in rec["degraded_local"]
        # degraded Jacobi surrogate costs iterations but not correctness
        assert rep.residuals[-1] <= 1e-6

    def test_kill_during_setup_redoes_setup(self, ft_problem):
        plan = kill_plan(2, nth=1, op="send")
        rep = ft_solve(ft_problem, spares=1, faults=plan)
        assert rep.converged
        assert any(r["redo_setup"] for r in rep.recoveries)

    def test_double_kill_two_spares(self, ft_problem):
        plan = FaultPlan([FaultSpec("kill", "iteration", rank=1, nth=3),
                          FaultSpec("kill", "iteration", rank=5, nth=6)],
                         seed=7, timeout=2.0)
        rep = ft_solve(ft_problem, spares=2, faults=plan)
        assert rep.converged
        assert len(rep.recoveries) == 2
        dead = sorted(d for r in rep.recoveries for d in r["dead"])
        assert dead == [1, 5]

    def test_kill_out_of_spares_raises(self, ft_problem):
        with pytest.raises(RankFailure, match="repair failed"):
            ft_solve(ft_problem, spares=0, faults=kill_plan(3))

    def test_giveup_after_max_repairs(self, ft_problem):
        # a kill with repairs forbidden: the driver must emit the
        # terminal recovery.giveup event and surface the failure
        recorder = Recorder()
        with pytest.raises(RankFailure):
            ft_solve(ft_problem, spares=1, faults=kill_plan(3),
                     max_repairs=0, recorder=recorder)
        names = [e.name for e in recorder.events]
        assert "recovery.giveup" in names

    def test_transient_drop_absorbed_by_retry(self, ft_problem):
        ref = ft_solve(ft_problem, spares=0)
        plan = FaultPlan([FaultSpec("drop", "send", rank=2, nth=9)],
                         seed=7, timeout=2.0,
                         retry=RetryPolicy(max_retries=3, backoff=1e-4))
        meter = Meter(6)
        rep = ft_solve(ft_problem, spares=1, faults=plan, meter=meter)
        assert rep.converged
        assert not rep.recoveries                 # zero RankFailure path
        assert meter.total_retries() == 1
        assert meter.retries_recovered == 1
        assert meter.retries_exhausted == 0
        assert np.allclose(rep.x, ref.x)

    def test_drop_storm_escalates_to_repair(self, ft_problem):
        retry = RetryPolicy(max_retries=2, backoff=1e-4)
        specs = [FaultSpec("drop", "send", rank=2, nth=9 + j)
                 for j in range(retry.max_retries + 1)]
        plan = FaultPlan(specs, seed=7, timeout=1.0, retry=retry)
        meter = Meter(6)
        rep = ft_solve(ft_problem, spares=1, faults=plan, meter=meter)
        assert rep.converged
        assert meter.retries_exhausted == 1
        # zero-dead repair: nobody died, the lost message is healed by
        # rollback + resend after the communicator reset
        assert len(rep.recoveries) == 1
        assert rep.recoveries[0]["dead"] == []

    def test_bare_drop_without_retry_heals_via_repair(self, ft_problem):
        plan = FaultPlan([FaultSpec("drop", "send", rank=2, nth=9)],
                         seed=7, timeout=1.0)
        rep = ft_solve(ft_problem, spares=1, faults=plan)
        assert rep.converged
        assert len(rep.recoveries) == 1
        assert rep.recoveries[0]["dead"] == []


# ----------------------------------------------------------------------
# Seeded replay determinism (drop/delay) — same plan, same counters
# ----------------------------------------------------------------------

class TestReplayDeterminism:
    def test_drop_delay_replay_identical_counters(self, ft_problem):
        plan = FaultPlan(
            [FaultSpec("drop", "send", rank=2, nth=9),
             FaultSpec("delay", "send", rank=4, nth=15, delay=0.002),
             FaultSpec("delay", "send", rank=1, nth=30, delay=0.001)],
            seed=42, timeout=2.0,
            retry=RetryPolicy(max_retries=3, backoff=1e-4))
        runs = []
        for _ in range(2):
            meter = Meter(6)
            rep = ft_solve(ft_problem, spares=1, faults=plan,
                           meter=meter)
            assert rep.converged
            runs.append((meter.faults_by_kind(), meter.total_retries(),
                         meter.retries_recovered,
                         meter.retries_exhausted, meter.repairs,
                         rep.iterations))
        assert runs[0] == runs[1]
        assert runs[0][0] == {"drop": 1, "delay": 2}

    def test_random_plan_is_seed_deterministic(self):
        cfg = ChaosConfig(solves=1)
        plans = [random_plan(np.random.default_rng(99), cfg)
                 for _ in range(2)]
        assert plans[0].to_json() == plans[1].to_json()
        assert all(f.rank is not None for f in plans[0].faults)


# ----------------------------------------------------------------------
# Neighbor checkpointing plumbing
# ----------------------------------------------------------------------

class TestCheckpointPlumbing:
    def test_partner_map_valid(self, ft_problem):
        dec, _, _ = ft_problem
        partners = partner_map(dec)
        assert len(partners) == dec.num_subdomains
        for i, p in enumerate(partners):
            assert p != i
            assert p in dec.subdomains[i].neighbors

    def test_jacobi_factor_inverts_diagonal(self):
        d = np.array([2.0, 4.0, 0.0, 8.0])
        f = JacobiFactor(np.diag(d))
        x = f.solve(np.ones(4))
        assert np.allclose(x, [0.5, 0.25, 1.0, 0.125])

    def test_jacobi_surrogate_from_subdomain(self, ft_problem):
        dec, _, _ = ft_problem
        sub = dec.subdomains[0]
        f = jacobi_surrogate(sub)
        r = np.ones(sub.A_dir.shape[0])
        assert np.allclose(f.solve(r) * sub.A_dir.diagonal(), r)


# ----------------------------------------------------------------------
# Chaos campaign machinery
# ----------------------------------------------------------------------

class TestChaosCampaign:
    def test_config_validation(self):
        with pytest.raises(Exception, match="solves"):
            ChaosConfig(solves=0)
        with pytest.raises(Exception, match="kill_rate"):
            ChaosConfig(kill_rate=1.5)

    def test_small_campaign_survives(self, ft_problem):
        dec, space, b = ft_problem
        cfg = ChaosConfig(solves=4, timeout=2.0, seed=2013)
        records = []
        for s in range(cfg.solves):
            rng = np.random.default_rng(cfg.seed + 1009 * s)
            plan = random_plan(rng, cfg)
            rec = run_solve(dec, space, b, cfg,
                            plan if plan.faults else None)
            records.append(rec)
        assert all(r["survived"] for r in records)
        assert any(r["planned_faults"] for r in records)

    def test_run_solve_never_raises(self, ft_problem):
        dec, space, b = ft_problem
        cfg = ChaosConfig(solves=1, spares=0, timeout=1.0)
        rec = run_solve(dec, space, b, cfg, kill_plan(3, timeout=1.0))
        assert not rec["survived"]
        assert "RankFailure" in rec["error"]

    def test_campaign_report_json_round_trips(self):
        cfg = ChaosConfig(solves=2, mesh_n=8, nranks=4, timeout=2.0)
        report = run_campaign(cfg)
        d = report.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert d["solves"] == 2
        assert set(d) >= {"survival_rate", "fault_totals",
                          "time_to_recover", "records"}


# ----------------------------------------------------------------------
# RetryPolicy coercion
# ----------------------------------------------------------------------

class TestRetryPolicy:
    def test_backoff_schedule(self):
        p = RetryPolicy(max_retries=4, backoff=0.001, max_backoff=0.003)
        assert p.delay(0) == 0.001
        assert p.delay(1) == 0.002
        assert p.delay(2) == 0.003          # capped
        assert p.delay(3) == 0.003

    def test_as_retry_coercions(self):
        assert as_retry(None) is None
        p = RetryPolicy(max_retries=2)
        assert as_retry(p) is p
        assert as_retry(5).max_retries == 5
        assert as_retry({"max_retries": 2,
                         "backoff": 0.01}).backoff == 0.01
        with pytest.raises(Exception):
            as_retry(True)

    def test_round_trip(self):
        p = RetryPolicy(max_retries=7, backoff=0.002, max_backoff=0.1)
        assert RetryPolicy.from_dict(p.to_dict()) == p

    def test_validation(self):
        with pytest.raises(Exception, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(Exception, match="backoff"):
            RetryPolicy(backoff=-0.1)
