"""Acceptance tests for the chaos engine (repro.sim.chaos).

The headline test drives 20 seeded schedules over 5-node services — full
stack, client load — and requires zero safety violations, liveness within
bound, and every injected disk corruption detected at recovery. A second
test deliberately breaks an invariant and proves the violation replays
byte-identically from (seed, spec) alone.
"""

import dataclasses

import pytest

from repro.sim.chaos import ChaosEngine, ChaosSpec, ScheduleReport
from repro.sim.runner import BatchReport
from repro.verification.invariants import InvariantViolation

LIGHT = ChaosSpec(steps=3, p_crash=0.3)


class NothingEverCommits(ChaosEngine):
    """A deliberately broken safety check: nothing may ever commit."""

    def check_safety(self, engines):
        super().check_safety(engines)
        if max(engine.commit_seqno for engine in engines) > 0:
            raise InvariantViolation("deliberately broken: commit advanced")


class TestChaosAcceptance:
    @pytest.mark.slow
    def test_twenty_schedules_hold_all_invariants(self):
        report = ChaosEngine().run(schedules=20, first_seed=0)
        assert report.ok, report.summary()
        assert len(report.schedules) == 20
        assert all(schedule.spec["n_nodes"] == 5 for schedule in report.schedules)

        # The taxonomy was actually exercised: at least six distinct fault
        # kinds, including a gray failure and a crash that lost its disk.
        fault_kinds = set().union(*(s.fault_kinds for s in report.schedules))
        assert len(fault_kinds) >= 6, fault_kinds
        assert "gray-failure" in fault_kinds
        assert "crash-disk-loss" in fault_kinds

        # Every injected ledger corruption was detected at recovery, and the
        # real join path was taken by at least one replacement node.
        injected = sum(s.corruptions_injected for s in report.schedules)
        detected = sum(s.corruptions_detected for s in report.schedules)
        assert injected >= 1
        assert detected == injected
        restarts = sum(
            s.disk_intact_restarts + s.disk_loss_restarts for s in report.schedules
        )
        assert restarts >= 1

        # Clients observed a live service throughout.
        assert all(s.completed_requests > 0 for s in report.schedules)

    def test_schedule_replays_byte_identically(self):
        engine = ChaosEngine(LIGHT)
        first = engine.run_schedule(5)
        second = engine.run_schedule(5)
        assert first.fingerprint() == second.fingerprint()
        assert first.steps_run == second.steps_run
        assert first.completed_requests == second.completed_requests

    def test_broken_invariant_reproduces_from_reported_seed(self):
        """A deliberately broken invariant must (a) be caught, and (b)
        reproduce byte-identically from the reported seed alone."""
        engine = NothingEverCommits(LIGHT)
        report = engine.run(schedules=2, first_seed=3)
        assert not report.ok
        failing_seed = report.failing_seeds[1]
        failing = next(s for s in report.schedules if s.seed == failing_seed)
        assert "deliberately broken" in failing.safety_violations[0]

        # Replay from (seed, spec) in a fresh engine: byte-identical record.
        replay = NothingEverCommits(ChaosSpec(**failing.spec)).run_schedule(failing_seed)
        assert replay.fingerprint() == failing.fingerprint()
        assert replay.safety_violations == failing.safety_violations

        # Which is what the command line's REPRODUCE line runs: a batch of
        # one from the reported seed.
        (again,) = engine.run(schedules=1, first_seed=failing_seed).schedules
        assert again.fingerprint() == failing.fingerprint()

    def test_different_seeds_give_different_schedules(self):
        engine = ChaosEngine(LIGHT)
        a = engine.run_schedule(1)
        b = engine.run_schedule(2)
        assert a.fingerprint() != b.fingerprint()


class TestReports:
    def test_report_ok_requires_all_clear(self):
        good = ScheduleReport(seed=1, spec={})
        assert good.ok
        bad = ScheduleReport(seed=2, spec={}, safety_violations=["boom"])
        missed = ScheduleReport(seed=3, spec={}, corruptions_injected=1)
        report = BatchReport(ChaosEngine(), [good, bad, missed])
        assert not report.ok
        assert report.failing_seeds == [2, 3]
        assert "FAIL seed=2" in report.summary()

    def test_spec_round_trips_through_dict(self):
        spec = ChaosSpec(steps=4, p_partition=0.07)
        assert ChaosSpec(**spec.to_dict()) == spec
        assert dataclasses.asdict(spec)["p_partition"] == 0.07


class TestCli:
    def test_smoke_run_exits_zero(self, capsys):
        assert ChaosEngine.main(["--schedules", "1", "--steps", "2", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "chaos: 1 schedules" in out
