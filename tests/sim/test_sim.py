"""Unit tests for the scheduler, network, channels, metrics, and storage."""

import pytest

from repro.errors import CCFError, ConfigurationError, LedgerError, VerificationError
from repro.crypto.x25519 import DHPrivateKey
from repro.net.channels import NodeChannels, SealedMessage
from repro.net.network import LinkConfig, Network
from repro.sim.metrics import LatencyRecorder, ThroughputRecorder
from repro.sim.scheduler import Scheduler
from repro.storage.host_storage import HostStorage


class TestScheduler:
    def test_events_fire_in_time_order(self):
        scheduler = Scheduler()
        fired = []
        scheduler.after(0.3, lambda: fired.append("c"))
        scheduler.after(0.1, lambda: fired.append("a"))
        scheduler.after(0.2, lambda: fired.append("b"))
        scheduler.run_to_completion()
        assert fired == ["a", "b", "c"]
        assert scheduler.now == pytest.approx(0.3)

    def test_same_time_fifo(self):
        scheduler = Scheduler()
        fired = []
        for i in range(5):
            scheduler.at(1.0, lambda i=i: fired.append(i))
        scheduler.run_to_completion()
        assert fired == [0, 1, 2, 3, 4]

    def test_cancellation(self):
        scheduler = Scheduler()
        fired = []
        handle = scheduler.after(0.1, lambda: fired.append("cancelled"))
        scheduler.after(0.2, lambda: fired.append("kept"))
        handle.cancel()
        scheduler.run_to_completion()
        assert fired == ["kept"]

    def test_cancelled_event_lets_go_of_its_callback(self):
        """A cancelled timer stays queued until its time comes; what its
        callback captured must be collectable straight away."""
        import gc
        import weakref

        class Captured:
            pass

        scheduler = Scheduler()
        captured = Captured()
        alive = weakref.ref(captured)
        handle = scheduler.after(300.0, lambda captured=captured: captured)
        del captured
        gc.collect()
        assert alive() is not None
        handle.cancel()
        gc.collect()
        assert alive() is None
        assert scheduler.pending_events == 0

    def test_run_until_stops_at_deadline(self):
        scheduler = Scheduler()
        fired = []
        scheduler.after(0.1, lambda: fired.append("early"))
        scheduler.after(5.0, lambda: fired.append("late"))
        scheduler.run_until(1.0)
        assert fired == ["early"]
        assert scheduler.now == 1.0

    def test_nested_scheduling(self):
        scheduler = Scheduler()
        fired = []

        def outer():
            fired.append("outer")
            scheduler.after(0.1, lambda: fired.append("inner"))

        scheduler.after(0.1, outer)
        scheduler.run_to_completion()
        assert fired == ["outer", "inner"]

    def test_past_scheduling_rejected(self):
        scheduler = Scheduler()
        scheduler.after(1.0, lambda: None)
        scheduler.run_to_completion()
        with pytest.raises(CCFError):
            scheduler.at(0.5, lambda: None)
        with pytest.raises(CCFError):
            scheduler.after(-1, lambda: None)

    def test_determinism_per_seed(self):
        def run(seed):
            scheduler = Scheduler(seed=seed)
            values = []
            for _ in range(5):
                scheduler.after(scheduler.rng.random(), lambda: values.append(scheduler.now))
            scheduler.run_to_completion()
            return values

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestNetwork:
    def _pair(self):
        scheduler = Scheduler()
        network = Network(scheduler, LinkConfig(base_latency=0.001, jitter=0))
        inbox = []
        network.register("a", lambda src, payload: inbox.append(("a", src, payload)))
        network.register("b", lambda src, payload: inbox.append(("b", src, payload)))
        return scheduler, network, inbox

    def test_delivery_with_latency(self):
        scheduler, network, inbox = self._pair()
        network.send("a", "b", "hello")
        assert inbox == []
        scheduler.run_to_completion()
        assert inbox == [("b", "a", "hello")]
        assert scheduler.now == pytest.approx(0.001)

    def test_crashed_destination_drops(self):
        scheduler, network, inbox = self._pair()
        network.crash("b")
        network.send("a", "b", "lost")
        scheduler.run_to_completion()
        assert inbox == []

    def test_crashed_source_sends_nothing(self):
        scheduler, network, inbox = self._pair()
        network.crash("a")
        network.send("a", "b", "lost")
        scheduler.run_to_completion()
        assert inbox == []

    def test_restart_restores_delivery(self):
        scheduler, network, inbox = self._pair()
        network.crash("b")
        network.restart("b")
        network.send("a", "b", "back")
        scheduler.run_to_completion()
        assert len(inbox) == 1

    def test_partition_blocks_both_directions(self):
        scheduler, network, inbox = self._pair()
        network.partition("a", "b")
        network.send("a", "b", "x")
        network.send("b", "a", "y")
        scheduler.run_to_completion()
        assert inbox == []
        network.heal()
        network.send("a", "b", "z")
        scheduler.run_to_completion()
        assert len(inbox) == 1

    def test_messages_in_flight_at_crash_are_lost(self):
        scheduler, network, inbox = self._pair()
        network.send("a", "b", "in-flight")
        network.crash("b")  # crashes before delivery
        scheduler.run_to_completion()
        assert inbox == []

    def test_loss_probability(self):
        scheduler = Scheduler(seed=3)
        network = Network(scheduler, LinkConfig(base_latency=0.001, jitter=0))
        received = []
        network.register("a", lambda s, p: None)
        network.register("b", lambda s, p: received.append(p))
        network.set_loss_probability(0.5)
        for i in range(200):
            network.send("a", "b", i)
        scheduler.run_to_completion()
        assert 50 < len(received) < 150  # ~50% loss

    def test_invalid_loss_probability(self):
        scheduler = Scheduler()
        network = Network(scheduler)
        with pytest.raises(ConfigurationError):
            network.set_loss_probability(1.5)

    def test_duplicate_registration_rejected(self):
        scheduler = Scheduler()
        network = Network(scheduler)
        network.register("a", lambda s, p: None)
        with pytest.raises(ConfigurationError):
            network.register("a", lambda s, p: None)


class TestChannels:
    def _pair(self):
        a = NodeChannels("a", DHPrivateKey.generate(b"a"))
        b = NodeChannels("b", DHPrivateKey.generate(b"b"))
        a.establish("b", b.public)
        b.establish("a", a.public)
        return a, b

    def test_seal_open_roundtrip(self):
        a, b = self._pair()
        sealed = a.seal("b", b"consensus message")
        assert b.open(sealed) == b"consensus message"

    def test_both_directions(self):
        a, b = self._pair()
        assert b.open(a.seal("b", b"ping")) == b"ping"
        assert a.open(b.seal("a", b"pong")) == b"pong"

    def test_tampered_box_rejected(self):
        a, b = self._pair()
        sealed = a.seal("b", b"payload")
        tampered = SealedMessage(sealed.sender, sealed.counter, sealed.box[:-1] + b"\x00")
        with pytest.raises(VerificationError):
            b.open(tampered)

    def test_replay_rejected(self):
        a, b = self._pair()
        sealed = a.seal("b", b"payload")
        b.open(sealed)
        with pytest.raises(VerificationError):
            b.open(sealed)

    def test_unknown_peer_rejected(self):
        a, _b = self._pair()
        with pytest.raises(VerificationError):
            a.seal("zz", b"payload")

    def test_reflection_rejected(self):
        """A message sealed by a for b cannot be passed off as b's."""
        a, b = self._pair()
        sealed = a.seal("b", b"payload")
        reflected = SealedMessage(sender="b", counter=sealed.counter, box=sealed.box)
        with pytest.raises(VerificationError):
            a.open(reflected)

    def test_sequence_of_messages(self):
        a, b = self._pair()
        for i in range(10):
            assert b.open(a.seal("b", f"msg-{i}".encode())) == f"msg-{i}".encode()


class TestMetrics:
    def test_throughput_series(self):
        recorder = ThroughputRecorder()
        for i in range(100):
            recorder.record(i * 0.01)  # 100/s for 1 second
        assert recorder.throughput(0.0, 1.0) == pytest.approx(100.0)
        series = recorder.series(0.0, 1.0, 0.5)
        assert len(series) == 2
        assert series[0][1] == pytest.approx(100.0)

    def test_latency_percentiles(self):
        recorder = LatencyRecorder()
        for i in range(1, 101):
            recorder.record(float(i), i / 1000)
        assert recorder.percentile(50) == pytest.approx(0.0505, rel=0.05)
        assert recorder.percentile(99) >= 0.099
        assert recorder.max() == pytest.approx(0.1)
        assert recorder.mean() == pytest.approx(0.0505)

    def test_latency_histogram(self):
        recorder = LatencyRecorder()
        recorder.record(1.0, 0.0012)
        recorder.record(2.0, 0.0013)
        recorder.record(3.0, 0.0023)
        histogram = recorder.histogram(0.001)
        assert histogram[0.001] == 2
        assert histogram[0.002] == 1

    def test_empty_recorders(self):
        assert ThroughputRecorder().throughput(0, 1) == 0.0
        assert LatencyRecorder().percentile(50) == 0.0
        assert LatencyRecorder().mean() == 0.0


class TestHostStorage:
    def test_blob_roundtrip(self):
        storage = HostStorage()
        storage.write("x.bin", b"data")
        assert storage.read("x.bin") == b"data"
        storage.delete("x.bin")
        with pytest.raises(LedgerError):
            storage.read("x.bin")

    def test_snapshots_pick_latest(self):
        # The node's replace-the-manifest sequence: a reader that lists the
        # prefix finds the newest snapshot manifest and nothing else.
        storage = HostStorage()
        storage.write("manifest_10.bin", b"old", sync=True)
        for name in storage.list_files("manifest_"):
            storage.delete(name, sync=False)
        storage.write("manifest_30.bin", b"new", sync=True)
        assert storage.list_files("manifest_") == ["manifest_30.bin"]
        assert storage.read("manifest_30.bin") == b"new"

    def test_clone_is_independent(self):
        storage = HostStorage()
        storage.write("a", b"1")
        copy = storage.clone()
        storage.write("a", b"2")
        assert copy.read("a") == b"1"

    def test_tamper_flip_byte(self):
        storage = HostStorage()
        storage.write("a", b"\x00" * 10)
        storage.tamper_flip_byte("a", 3)
        assert storage.read("a")[3] == 0xFF
