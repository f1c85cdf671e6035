"""Tests for the bounded-time liveness checkers (repro.verification.liveness)."""

from repro.sim.scheduler import Scheduler
from repro.verification import liveness


class TestAwaitLiveness:
    def test_predicate_already_true_returns_none(self):
        scheduler = Scheduler(seed=1)
        assert liveness.await_liveness(scheduler, lambda: True, 1.0, "noop") is None

    def test_predicate_becomes_true_under_stepping(self):
        scheduler = Scheduler(seed=1)
        state = {"done": False}
        scheduler.after(0.5, lambda: state.update(done=True))
        violation = liveness.await_liveness(
            scheduler, lambda: state["done"], 2.0, "flag set"
        )
        assert violation is None
        assert scheduler.now >= 0.5

    def test_bound_expiry_reports_violation(self):
        scheduler = Scheduler(seed=1)

        def tick():
            scheduler.after(0.1, tick)

        tick()
        violation = liveness.await_liveness(scheduler, lambda: False, 0.5, "never")
        assert violation == "liveness: never not reached within 0.5s"

    def test_drained_queue_reports_violation(self):
        scheduler = Scheduler(seed=1)
        violation = liveness.await_liveness(
            scheduler, lambda: False, 10.0, "unreachable"
        )
        assert "unreachable" in violation and "drained" in violation


class TestAvailabilityFloor:
    def test_enough_events_passes(self):
        events = [0.1, 0.2, 0.3, 0.4]
        assert liveness.availability_floor(events, 0.0, 0.5, 3) is None

    def test_events_outside_window_do_not_count(self):
        events = [0.1, 0.9, 1.1]
        violation = liveness.availability_floor(events, 0.5, 1.0, 2)
        assert violation is not None
        assert "availability floor" in violation

    def test_empty_window_with_zero_floor_passes(self):
        assert liveness.availability_floor([], 0.0, 1.0, 0) is None


class TestEnginePredicates:
    def _cluster(self):
        from repro.verification.harness import Cluster

        cluster = Cluster(3, seed=7)
        cluster.start()
        cluster.run(0.3)
        return cluster

    def test_primary_commit_and_settled(self):
        cluster = self._cluster()
        engines = [host.consensus for host in cluster.hosts.values()]
        assert liveness.has_live_primary(engines)
        assert liveness.configurations_settled(engines)
        baseline = liveness.max_commit(engines)
        cluster.primary().submit_write("k", 1)
        cluster.primary().sign_now()
        cluster.run(0.3)
        assert liveness.commit_advanced(engines, baseline)

    def test_no_primary_after_stopping_everyone(self):
        cluster = self._cluster()
        for host in cluster.hosts.values():
            host.consensus.stop()
            host.consensus.role = type(host.consensus.role).BACKUP
        engines = [host.consensus for host in cluster.hosts.values()]
        assert not liveness.has_live_primary(engines)
