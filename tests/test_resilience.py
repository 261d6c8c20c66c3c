"""Resilience subsystem: fault injection, health monitoring, recovery.

Covers the fault-plan declarative layer (round-trip, validation, seeded
replay determinism), the simulated-MPI fault hooks (drop/corrupt/kill
surface as typed :class:`RankFailure`, never a hang), the per-iteration
:class:`HealthMonitor` classification, the typed Krylov breakdown state
(last healthy iterate + residual history + profile), and the
fault-matrix acceptance grid: every fault kind × every recovery mode on
a real two-level solve.
"""

from __future__ import annotations

import json
import time
import warnings

import numpy as np
import pytest

from repro import FaultPlan, FaultSpec, HealthMonitor, SchwarzSolver
from repro.common.errors import (
    CoarseSolveError,
    ConvergenceError,
    DivergenceError,
    IndefiniteError,
    KrylovBreakdown,
    KrylovError,
    NonFiniteError,
    RankFailure,
    ReproError,
    StagnationError,
)
from repro.fem import channels_and_inclusions
from repro.fem.forms import DiffusionForm
from repro.krylov import cg, deflated_cg, gmres
from repro.mesh import unit_square
from repro.mpi.meter import Meter
from repro.mpi.simmpi import run_spmd
from repro.obs import Recorder
from repro.resilience import DROP, FaultInjector, RecoveryPolicy, \
    as_injector, resolve_recovery


# ----------------------------------------------------------------------
# FaultPlan / FaultSpec declarative layer
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            [FaultSpec("drop", "send", rank=1, nth=2),
             FaultSpec("corrupt", "recv", scale=1e3),
             FaultSpec("delay", "allreduce", delay=0.5),
             FaultSpec("kill", "iteration", rank=0, nth=7,
                       persistent=True),
             FaultSpec("nan", "local_solve", rank=3)],
            seed=99, timeout=5.0)
        path = tmp_path / "plan.json"
        plan.save(str(path))
        back = FaultPlan.load(str(path))
        assert back == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="unknown fault kind"):
            FaultSpec("explode", "send")

    def test_drop_only_on_send(self):
        with pytest.raises(ReproError, match="only applies"):
            FaultSpec("drop", "recv")

    def test_negative_nth_rejected(self):
        with pytest.raises(ReproError, match="nth"):
            FaultSpec("kill", "send", nth=-1)

    def test_unknown_field_rejected(self):
        with pytest.raises(ReproError, match="unknown fault-spec"):
            FaultSpec.from_dict({"kind": "kill", "op": "send",
                                 "severity": "high"})

    def test_plan_must_have_faults_list(self):
        with pytest.raises(ReproError, match="faults"):
            FaultPlan.from_json(json.dumps({"seed": 1}))

    def test_as_injector_coercions(self, tmp_path):
        assert as_injector(None) is None
        plan = FaultPlan([], seed=1)
        inj = as_injector(plan)
        assert isinstance(inj, FaultInjector)
        assert as_injector(inj) is inj
        path = tmp_path / "p.json"
        plan.save(str(path))
        assert as_injector(str(path)).plan == plan
        with pytest.raises(ReproError):
            as_injector(42)


class TestFaultInjector:
    def test_nth_call_counting(self):
        inj = FaultInjector(FaultPlan([FaultSpec("kill", "op", nth=2)]))
        inj.fire("op", 0)
        inj.fire("op", 0)
        with pytest.raises(RankFailure):
            inj.fire("op", 0)
        # non-persistent: fires exactly once
        inj.fire("op", 0)
        assert inj.summary() == {"kill": 1}

    def test_persistent_keeps_firing(self):
        inj = FaultInjector(FaultPlan(
            [FaultSpec("nan", "op", nth=1, persistent=True)]))
        assert not np.isnan(inj.fire("op", 0, np.ones(4))).any()
        for _ in range(3):
            assert np.isnan(inj.fire("op", 0, np.ones(4))).sum() == 1
        assert inj.summary() == {"nan": 3}

    def test_rank_filter_and_any_rank(self):
        inj = FaultInjector(FaultPlan([FaultSpec("kill", "op", rank=2)]))
        inj.fire("op", 0)
        inj.fire("op", 1)
        with pytest.raises(RankFailure) as ei:
            inj.fire("op", 2)
        assert ei.value.rank == 2
        assert ei.value.op == "op"

    def test_corrupt_scales_one_entry(self):
        inj = FaultInjector(FaultPlan(
            [FaultSpec("corrupt", "op", scale=1e6)], seed=5))
        out = inj.fire("op", 0, np.ones(16))
        assert (np.abs(out) > 1e5).sum() == 1
        assert (out == 1.0).sum() == 15

    def test_poison_copies_payload(self):
        inj = FaultInjector(FaultPlan([FaultSpec("nan", "op")]))
        payload = np.ones(4)
        out = inj.fire("op", 0, payload)
        assert np.isnan(out).sum() == 1
        assert not np.isnan(payload).any()      # original untouched

    def test_non_float_payload_unpoisonable(self):
        inj = FaultInjector(FaultPlan([FaultSpec("nan", "op",
                                                 persistent=True)]))
        assert inj.fire("op", 0, "hello") == "hello"
        assert inj.fire("op", 0, np.arange(3)) is not DROP

    def test_seeded_replay_determinism(self):
        def run():
            inj = FaultInjector(FaultPlan(
                [FaultSpec("corrupt", "a", nth=1, persistent=True),
                 FaultSpec("nan", "b", nth=0)], seed=11))
            outs = []
            for k in range(4):
                outs.append(inj.fire("a", 0, np.ones(8)))
                outs.append(inj.fire("b", 1, np.ones(8)))
            return outs, inj.summary()
        o1, s1 = run()
        o2, s2 = run()
        assert s1 == s2
        for a, b in zip(o1, o2):
            np.testing.assert_array_equal(a, b)

    def test_reset_replays_identically(self):
        inj = FaultInjector(FaultPlan(
            [FaultSpec("corrupt", "op", persistent=True)], seed=3))
        first = [inj.fire("op", 0, np.ones(6)) for _ in range(3)]
        inj.reset()
        second = [inj.fire("op", 0, np.ones(6)) for _ in range(3)]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_meter_records_faults(self):
        m = Meter(2)
        inj = FaultInjector(FaultPlan(
            [FaultSpec("delay", "send", rank=1, delay=0.0)]), meter=m)
        inj.fire("send", 1, b"x")
        assert m.stats(1).faults == {"delay": 1}
        assert m.total_faults() == 1
        assert m.summary()["faults"] == 1


# ----------------------------------------------------------------------
# Simulated-MPI fault hooks: typed failures, never hangs
# ----------------------------------------------------------------------

class TestSimMpiFaults:
    def test_dropped_send_times_out_typed(self):
        plan = FaultPlan([FaultSpec("drop", "send", rank=0)], timeout=1.0)

        def pingpong(comm):
            if comm.rank == 0:
                comm.send(np.arange(3.0), 1, tag=5)
                return None
            return comm.recv(0, tag=5)

        t0 = time.monotonic()
        with pytest.raises(RankFailure) as ei:
            run_spmd(2, pingpong, faults=plan)
        assert time.monotonic() - t0 < 10.0     # bounded, no deadlock
        assert ei.value.op == "recv"

    def test_corrupted_message_is_deterministic(self):
        def exchange(comm):
            if comm.rank == 0:
                comm.send(np.ones(8), 1, tag=1)
                return None
            return comm.recv(0, tag=1)

        outs = []
        for _ in range(2):
            plan = FaultPlan([FaultSpec("corrupt", "send", rank=0)],
                             seed=42)
            outs.append(run_spmd(2, exchange, faults=plan)[1])
        np.testing.assert_array_equal(outs[0], outs[1])
        assert np.abs(outs[0]).max() > 1e5

    def test_killed_rank_unblocks_collective_peers(self):
        plan = FaultPlan([FaultSpec("kill", "allreduce", rank=1, nth=2)],
                         timeout=2.0)

        def loop(comm):
            x = 1.0
            for _ in range(10):
                x = comm.allreduce(x) / comm.size
            return x

        t0 = time.monotonic()
        with pytest.raises(RankFailure):
            run_spmd(3, loop, faults=plan)
        assert time.monotonic() - t0 < 10.0

    def test_killed_rank_unblocks_blocked_receiver(self):
        # satellite: the mailbox busy-wait honours the error box while
        # polling — the survivor must raise within ~_ERR_POLL of the
        # peer's death, long before its own recv deadline
        plan = FaultPlan([FaultSpec("kill", "barrier", rank=0)],
                         timeout=30.0)

        def main(comm):
            if comm.rank == 0:
                comm.barrier()          # killed here, never sends
                comm.send(np.ones(1), 1)
            else:
                return comm.recv(0)     # would wait 30 s on its own

        t0 = time.monotonic()
        with pytest.raises(RankFailure):
            run_spmd(2, main, faults=plan)
        assert time.monotonic() - t0 < 5.0

    def test_delay_fault_slows_but_completes(self):
        plan = FaultPlan([FaultSpec("delay", "send", rank=0,
                                    delay=0.2)])

        def pingpong(comm):
            if comm.rank == 0:
                comm.send(np.ones(2), 1)
                return None
            return comm.recv(0)

        t0 = time.monotonic()
        res = run_spmd(2, pingpong, faults=plan)
        assert time.monotonic() - t0 >= 0.2
        np.testing.assert_array_equal(res[1], np.ones(2))

    def test_injector_propagates_to_split_comms(self):
        plan = FaultPlan([FaultSpec("kill", "bcast", rank=1)],
                         timeout=2.0)

        def main(comm):
            sub = comm.split(comm.rank % 2)
            return sub.bcast(comm.rank, root=0)

        with pytest.raises(RankFailure):
            run_spmd(2, main, faults=plan)

    def test_no_faults_unchanged(self):
        def main(comm):
            return comm.allreduce(comm.rank)

        assert run_spmd(3, main) == [3, 3, 3]


# ----------------------------------------------------------------------
# HealthMonitor
# ----------------------------------------------------------------------

class TestHealthMonitor:
    def test_nan_residual_raises_nonfinite(self):
        h = HealthMonitor()
        h.observe(0, 1.0)
        with pytest.raises(NonFiniteError):
            h.observe(1, float("nan"))
        assert h.breakdowns == ["nonfinite"]

    def test_nan_iterate_raises_nonfinite(self):
        h = HealthMonitor()
        with pytest.raises(NonFiniteError):
            h.observe(0, 1.0, np.array([1.0, np.nan]))

    def test_divergence_ratio(self):
        h = HealthMonitor(divergence_ratio=100.0)
        h.observe(0, 1.0)
        h.observe(1, 50.0)
        with pytest.raises(DivergenceError):
            h.observe(2, 150.0)

    def test_stagnation_window(self):
        h = HealthMonitor(stagnation_window=3)
        h.observe(0, 1.0)
        with pytest.raises(StagnationError):
            for k in range(1, 10):
                h.observe(k, 1.0)

    def test_checkpoint_is_rollback_target(self):
        h = HealthMonitor(checkpoint_every=2)
        xs = [np.full(3, float(k)) for k in range(6)]
        for k in range(5):
            h.observe(k, 1.0 / (k + 1), xs[k])
        with pytest.raises(NonFiniteError) as ei:
            h.observe(5, float("nan"), xs[5])
        exc = ei.value
        # the attached x is a healthy checkpoint, not the poisoned state
        assert exc.x is not None
        assert np.all(np.isfinite(exc.x))
        assert exc.iteration < 5
        assert len(exc.residuals) == 6

    def test_orthogonality_defect(self):
        h = HealthMonitor(orthogonality_tol=1e-3)
        h.orthogonality(4, 1e-5)               # fine
        with pytest.raises(KrylovError):
            h.orthogonality(5, 0.5)

    def test_iteration_tick_fires_injector(self):
        inj = FaultInjector(FaultPlan(
            [FaultSpec("kill", "iteration", nth=3)]))
        h = HealthMonitor(injector=inj)
        for k in range(3):
            h.observe(k, 1.0)
        with pytest.raises(RankFailure):
            h.observe(3, 1.0)


# ----------------------------------------------------------------------
# Typed Krylov breakdowns carry state (satellites 1 & 3)
# ----------------------------------------------------------------------

class TestBreakdownState:
    def test_cg_indefinite_carries_state(self):
        A = np.diag([1.0, -1.0, 2.0])          # indefinite
        b = np.ones(3)
        with pytest.raises(IndefiniteError) as ei:
            cg(A, b, tol=1e-10, maxiter=50)
        exc = ei.value
        assert exc.x is not None and exc.x.shape == (3,)
        assert np.all(np.isfinite(exc.x))
        assert len(exc.residuals) >= 1
        assert isinstance(exc, KrylovBreakdown)
        assert isinstance(exc, KrylovError)    # old handlers still catch

    def test_deflated_cg_breakdown_carries_state(self):
        A = np.diag([1.0, 1.0, -4.0, 2.0])
        Z = np.eye(4)[:, :1]
        with pytest.raises(IndefiniteError) as ei:
            deflated_cg(A, np.ones(4), Z, tol=1e-12, maxiter=50)
        exc = ei.value
        assert exc.x is not None and exc.x.shape == (4,)
        assert len(exc.residuals) >= 1

    def test_gmres_stall_convergence_error_has_profile(self):
        """A budget-exhausted solve loses neither its state (on the
        exception) nor its per-phase profile (on the recorder)."""
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        A = Q @ np.diag(np.linspace(1e-8, 1.0, 30)) @ Q.T
        rec = Recorder()
        with pytest.raises(ConvergenceError) as ei:
            gmres(A, np.ones(30), tol=1e-14, restart=5, maxiter=8,
                  raise_on_stall=True, recorder=rec)
        exc = ei.value
        assert rec.totals()["matvec"]["count"] >= 8
        assert exc.x is not None
        assert len(exc.residuals) >= 1

    def test_gmres_health_nan_carries_profile(self):
        """A health breakdown keeps the solve's profile up to the
        failure: the recorder saw every operator call."""
        calls = {"n": 0}

        diag = np.linspace(1.0, 2.0, 8)

        def bad_op(v):
            calls["n"] += 1
            out = diag * v
            if calls["n"] == 4:
                out[0] = np.nan
            return out

        h = HealthMonitor()
        rec = Recorder()
        with pytest.raises(NonFiniteError) as ei:
            gmres(bad_op, np.ones(8), tol=1e-12, restart=4, maxiter=20,
                  health=h, recorder=rec)
        assert len(ei.value.residuals) >= 1
        assert rec.totals()["matvec"]["count"] == calls["n"]


# ----------------------------------------------------------------------
# Recovery policies
# ----------------------------------------------------------------------

class TestRecoveryPolicy:
    def test_resolve(self):
        assert resolve_recovery(None).mode == "off"
        assert resolve_recovery("degrade").degrading
        p = RecoveryPolicy(mode="restart", max_restarts=5)
        assert resolve_recovery(p) is p
        with pytest.raises(ReproError):
            resolve_recovery("retry-forever")
        with pytest.raises(ReproError):
            RecoveryPolicy(mode="panic")
        with pytest.raises(ReproError):
            RecoveryPolicy(max_restarts=-1)

    def test_active_flags(self):
        assert not RecoveryPolicy().active
        assert RecoveryPolicy(mode="restart").active
        assert not RecoveryPolicy(mode="restart").degrading
        assert RecoveryPolicy(mode="degrade").degrading


# ----------------------------------------------------------------------
# Fault-matrix acceptance on the real two-level solver
# ----------------------------------------------------------------------

def _small_solver(faults=None, recovery=None, recorder=None, **kw):
    mesh = unit_square(12)
    form = DiffusionForm(degree=1,
                         kappa=channels_and_inclusions(mesh, seed=3))
    kw.setdefault("num_subdomains", 4)
    kw.setdefault("nev", 4)
    return SchwarzSolver(mesh, form, faults=faults, recovery=recovery,
                         recorder=recorder, **kw)


FAULT_CASES = {
    "nan_local_solve": FaultPlan(
        [FaultSpec("nan", "local_solve", rank=1, nth=3)]),
    "kill_subdomain": FaultPlan(
        [FaultSpec("kill", "local_solve", rank=2, nth=4)]),
    "kill_subdomain_persistent": FaultPlan(
        [FaultSpec("kill", "local_solve", rank=2, nth=4,
                   persistent=True)]),
    "corrupt_coarse": FaultPlan(
        [FaultSpec("corrupt", "coarse_solve", nth=2, scale=np.inf)]),
}


class TestFaultMatrix:
    @pytest.mark.parametrize("case", sorted(FAULT_CASES))
    def test_recovery_off_raises_typed(self, case):
        solver = _small_solver(faults=FAULT_CASES[case])
        with pytest.raises((KrylovBreakdown, RankFailure,
                            CoarseSolveError)) as ei:
            solver.solve(tol=1e-8)
        # never a bare/untypable failure: the solver's own hierarchy
        assert isinstance(ei.value, ReproError)

    @pytest.mark.parametrize("case", ["nan_local_solve",
                                      "kill_subdomain"])
    def test_recovery_restart_survives_transients(self, case):
        solver = _small_solver(faults=FAULT_CASES[case],
                               recovery="restart")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = solver.solve(tol=1e-8)
        assert report.converged
        assert report.resilience["restarts"] >= 1
        assert sum(report.resilience["faults"].values()) >= 1

    @pytest.mark.parametrize("case", sorted(FAULT_CASES))
    def test_recovery_degrade_always_completes(self, case):
        solver = _small_solver(faults=FAULT_CASES[case],
                               recovery="degrade")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = solver.solve(tol=1e-8)
        assert report.converged
        assert report.resilience["mode"] == "degrade"

    def test_persistent_kill_requires_degrade(self):
        solver = _small_solver(
            faults=FAULT_CASES["kill_subdomain_persistent"],
            recovery=RecoveryPolicy(mode="restart", max_restarts=2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(RankFailure):
                solver.solve(tol=1e-8)

    def test_giveup_emits_event_and_counts(self):
        # restart budget exhausted: the terminal give-up must be
        # observable — a recovery.giveup event, a resilience["giveup"]
        # count, and the state attached to the raised exception
        from repro.obs import Recorder
        recorder = Recorder()
        solver = _small_solver(
            faults=FAULT_CASES["kill_subdomain_persistent"],
            recovery=RecoveryPolicy(mode="restart", max_restarts=2),
            recorder=recorder)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(RankFailure) as ei:
                solver.solve(tol=1e-8)
        res = ei.value.resilience
        assert res["giveup"] == 1
        assert res["restarts"] == 2
        giveups = [e for e in recorder.events
                   if e.name == "recovery.giveup"]
        assert len(giveups) == 1
        assert giveups[0].attrs["reason"] == "RankFailure"
        assert giveups[0].attrs["restarts"] == 2

    def test_degrade_disables_killed_subdomain(self):
        # degrade_sticky=True opts into keeping the degraded
        # configuration alive after the solve (lost-rank scenario)
        solver = _small_solver(
            faults=FAULT_CASES["kill_subdomain_persistent"],
            recovery="degrade")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = solver.solve(tol=1e-8, degrade_sticky=True)
        assert report.converged
        assert report.resilience["degraded_subdomains"] == [2]
        assert 2 in solver.one_level.disabled

    def test_degrade_state_restored_after_solve(self):
        # regression: degrade-mode measures used to persist — a healthy
        # re-solve after the fault plan was exhausted still ran with the
        # subdomain disabled (and, for coarse faults, one-level only)
        baseline = _small_solver().solve(tol=1e-8)
        solver = _small_solver(faults=FAULT_CASES["kill_subdomain"],
                               recovery="degrade")
        pre = solver.preconditioner
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            faulted = solver.solve(tol=1e-8)
        assert faulted.converged
        assert faulted.resilience["degraded_subdomains"] == [2]
        assert solver.one_level.disabled == set()
        assert solver.preconditioner is pre
        # the (transient, now exhausted) fault is done: a clean solve
        # must match the never-faulted iteration count exactly
        clean = solver.solve(tol=1e-8)
        assert clean.iterations == baseline.iterations

    def test_one_level_fallback_restored_after_solve(self):
        # the coarse-failure path swaps self.preconditioner to the
        # one-level method mid-solve; that swap must not outlive solve()
        plan = FaultPlan([FaultSpec("nan", "coarse_solve", nth=1,
                                    persistent=True)])
        solver = _small_solver(faults=plan, recovery="degrade")
        pre = solver.preconditioner
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = solver.solve(tol=1e-8)
        assert report.converged
        assert report.resilience["one_level_only"]
        assert solver.preconditioner is pre

    def test_eigensolve_fault_off_raises(self):
        plan = FaultPlan([FaultSpec("kill", "eigensolve", rank=1)])
        with pytest.raises(RankFailure):
            _small_solver(faults=plan)

    def test_eigensolve_fault_degrades_to_nicolaides(self):
        plan = FaultPlan([FaultSpec("kill", "eigensolve", rank=1,
                                    persistent=True)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            solver = _small_solver(faults=plan, recovery="degrade")
            report = solver.solve(tol=1e-8)
        assert report.converged
        assert solver.eigensolve_fallbacks == [1]
        assert report.resilience["eigensolve_fallbacks"] == [1]

    def test_singular_coarse_falls_back_then_one_level(self):
        plan = FaultPlan([FaultSpec("nan", "coarse_solve", nth=1,
                                    persistent=True)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            solver = _small_solver(faults=plan, recovery="degrade")
            report = solver.solve(tol=1e-8)
        assert report.converged
        assert report.resilience["coarse_fallbacks"] >= 1
        assert report.resilience["one_level_only"]

    def test_cg_path_recovers_too(self):
        plan = FaultPlan([FaultSpec("nan", "local_solve", rank=0,
                                    nth=2)])
        solver = _small_solver(faults=plan, recovery="restart",
                               preconditioner="bnn", krylov="cg")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = solver.solve(tol=1e-8)
        assert report.converged
        assert report.resilience["restarts"] >= 1

    def test_faulted_result_matches_clean_solve(self):
        clean = _small_solver().solve(tol=1e-10)
        plan = FaultPlan([FaultSpec("nan", "local_solve", rank=1,
                                    nth=3)])
        solver = _small_solver(faults=plan, recovery="restart")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = solver.solve(tol=1e-10)
        assert report.converged
        err = (np.linalg.norm(report.x - clean.x)
               / np.linalg.norm(clean.x))
        assert err < 1e-3


# ----------------------------------------------------------------------
# Acceptance: the issue's seeded kill + poison plan, trace events
# ----------------------------------------------------------------------

class TestAcceptance:
    PLAN = [FaultSpec("kill", "local_solve", rank=2, nth=5),
            FaultSpec("nan", "local_solve", rank=0, nth=2)]

    @pytest.mark.parametrize("mode", ["restart", "degrade"])
    def test_kill_plus_poison_completes(self, mode):
        from repro.obs import Recorder
        rec = Recorder()
        solver = _small_solver(faults=FaultPlan(list(self.PLAN), seed=7),
                               recovery=mode, recorder=rec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = solver.solve(tol=1e-8)
        assert report.converged
        assert report.resilience["restarts"] >= 1
        assert report.resilience["faults"] == {"kill": 1, "nan": 1}
        events = [e.name for e in rec.events]
        assert "recovery.restart" in events
        assert any(e.startswith("fault") for e in events)

    def test_off_raises_typed_not_nan(self):
        solver = _small_solver(faults=FaultPlan(list(self.PLAN), seed=7))
        with pytest.raises((KrylovBreakdown, RankFailure)):
            solver.solve(tol=1e-8)

    def test_trace_exports_recovery_events(self, tmp_path):
        from repro.obs import Recorder, load_trace, write_trace
        rec = Recorder()
        solver = _small_solver(faults=FaultPlan(list(self.PLAN), seed=7),
                               recovery="degrade", recorder=rec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = solver.solve(tol=1e-8)
        assert report.converged
        path = tmp_path / "trace.json"
        write_trace(rec, str(path), format="chrome")
        trace = load_trace(str(path))
        names = {e.name for e in trace.events}
        assert any(n.startswith("recovery.") for n in names)


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------

class TestCli:
    def test_solve_with_faults_and_recovery(self, tmp_path, capsys):
        from repro.cli import main
        plan = FaultPlan([FaultSpec("nan", "local_solve", rank=1,
                                    nth=3)])
        plan_path = tmp_path / "plan.json"
        plan.save(str(plan_path))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = main(["solve", "--problem", "diffusion2d", "--n", "12",
                       "--subdomains", "4", "--nev", "4",
                       "--degree", "1",
                       "--faults", str(plan_path),
                       "--recovery", "degrade"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recovery mode" in out
        assert "faults injected" in out
