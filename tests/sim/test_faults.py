"""Tests for scripted fault injection (repro.sim.faults)."""

from repro.sim.faults import FaultPlan

from tests.node.conftest import make_service


class TestFaultPlan:
    def test_scheduled_crash(self):
        service = make_service(n_nodes=3)
        primary = service.primary_node()
        plan = FaultPlan(service.scheduler, service.network)
        plan.crash_node_at(service.scheduler.now + 0.2, primary)
        service.run(0.1)
        assert not primary.stopped
        service.run(0.2)
        assert primary.stopped
        assert plan.log[0][1] == f"crash {primary.node_id}"

    def test_scheduled_partition_and_heal(self):
        service = make_service(n_nodes=3)
        plan = FaultPlan(service.scheduler, service.network)
        now = service.scheduler.now
        plan.partition_at(now + 0.1, ["n0"], ["n1", "n2"]).heal_at(now + 1.0)
        service.run(0.5)
        # The partition is in force: n0 cannot reach n1.
        delivered = []
        service.network.register("fault-probe", lambda s, p: delivered.append(p))
        service.network.send("n0", "n1", "blocked")
        service.run(0.1)
        service.run(0.6)  # past the heal
        service.network.send("n0", "fault-probe", "after-heal")
        service.run(0.1)
        assert delivered == ["after-heal"]
        assert [entry for _t, entry in plan.log] == [
            "partition ['n0'] | ['n1', 'n2']",
            "heal all partitions",
        ]

    def test_loss_window(self):
        service = make_service(n_nodes=1)
        plan = FaultPlan(service.scheduler, service.network)
        now = service.scheduler.now
        plan.loss_window(now + 0.1, now + 0.2, probability=0.5)
        service.run(0.15)
        assert service.network._loss_probability == 0.5
        service.run(0.2)
        assert service.network._loss_probability == 0.0

    def test_crash_during_traffic_triggers_failover(self):
        """End-to-end: a planned crash of the primary leads to a new
        primary without manual intervention."""
        service = make_service(n_nodes=3)
        primary = service.primary_node()
        plan = FaultPlan(service.scheduler, service.network)
        plan.crash_node_at(service.scheduler.now + 0.1, primary)
        service.run_until(
            lambda: service.primary_node() is not None
            and service.primary_node().node_id != primary.node_id,
            timeout=10.0,
        )
        assert service.primary_node().consensus.view > 1


class TestStorageChunkReplacement:
    def test_open_chunk_replaced_by_complete(self):
        """A completed chunk supersedes its open predecessor on disk."""
        from repro.crypto.ecdsa import SigningKey
        from repro.kv.tx import WriteSet
        from repro.ledger.chunking import chunk_entries
        from repro.ledger.ledger import Ledger
        from repro.ledger.secrets import LedgerSecret, LedgerSecretStore
        from repro.storage.host_storage import HostStorage

        ledger = Ledger(LedgerSecretStore(LedgerSecret.generate(b"x")))
        key = SigningKey.generate(b"n0")
        storage = HostStorage()
        ws = WriteSet()
        ws.put("m", 1, 1)
        ledger.append(ledger.build_entry(1, ws))
        # Persist the open chunk.
        for chunk in chunk_entries(list(ledger.entries())):
            storage.write_chunk(chunk)
        assert storage.list_files("ledger_") == ["ledger_1_1.open.chunk"]
        # Close it with a signature and re-persist.
        ledger.append(ledger.build_signature_entry(1, "n0", key))
        for chunk in chunk_entries(list(ledger.entries())):
            storage.write_chunk(chunk)
        names = storage.list_files("ledger_")
        assert names == ["ledger_1_2.chunk"]
        assert storage.read_ledger_entries() == list(ledger.entries())


class TestFaultWindows:
    """Window validation and timestamped logging for the extended taxonomy."""

    def _plan(self, n_nodes=1):
        service = make_service(n_nodes=n_nodes)
        return service, FaultPlan(service.scheduler, service.network)

    def test_windows_reject_end_before_begin(self):
        import pytest

        from repro.errors import ConfigurationError

        service, plan = self._plan()
        for arm in (
            lambda: plan.loss_window(2.0, 1.0, probability=0.5),
            lambda: plan.loss_window(1.0, 1.0, probability=0.5),
            lambda: plan.link_loss_window(2.0, 1.0, "a", "b", probability=0.5),
            lambda: plan.duplicate_window(2.0, 1.0, probability=0.5),
            lambda: plan.delay_spike_window(2.0, 1.0, probability=0.5, magnitude=0.1),
            lambda: plan.gray_window(2.0, 1.0, "n0", slowdown=0.1),
        ):
            with pytest.raises(ConfigurationError):
                arm()

    def test_clock_skew_rejects_nonpositive_scale(self):
        import pytest

        from repro.errors import ConfigurationError

        service, plan = self._plan(n_nodes=1)
        node = service.nodes["n0"]
        with pytest.raises(ConfigurationError):
            plan.clock_skew_at(1.0, node, scale=0.0)
        with pytest.raises(ConfigurationError):
            plan.clock_skew_at(1.0, node, scale=-1.5)

    def test_fault_log_carries_fire_timestamps(self):
        service, plan = self._plan()
        start = service.scheduler.now
        plan.loss_window(start + 0.1, start + 0.3, probability=0.25)
        plan.duplicate_window(start + 0.2, start + 0.4, probability=0.5)
        service.run(0.5)
        times = [round(t - start, 6) for t, _ in plan.log]
        notes = [note for _, note in plan.log]
        assert times == [0.1, 0.2, 0.3, 0.4]
        assert notes == [
            "loss 25% begins",
            "duplication 50% begins",
            "loss window ends",
            "duplication ends",
        ]

    def test_crash_then_heal_leaves_node_down(self):
        """heal() lifts partitions but never resurrects a crashed node."""
        service = make_service(n_nodes=3)
        plan = FaultPlan(service.scheduler, service.network)
        now = service.scheduler.now
        plan.partition_at(now + 0.1, ["n1"], ["n0", "n2"])
        plan.crash_node_at(now + 0.2, service.nodes["n1"])
        plan.heal_at(now + 0.3)
        service.run(0.5)
        assert service.network._partitions == set()
        assert service.network.is_down("n1")
        assert service.nodes["n1"].stopped
        assert [note for _, note in plan.log] == [
            "partition ['n1'] | ['n0', 'n2']",
            "crash n1",
            "heal all partitions",
        ]

    def test_gray_and_skew_windows_apply_and_clear(self):
        service = make_service(n_nodes=3)
        plan = FaultPlan(service.scheduler, service.network)
        now = service.scheduler.now
        plan.gray_window(now + 0.1, now + 0.3, "n1", slowdown=0.02)
        plan.clock_skew_at(now + 0.1, service.nodes["n2"], scale=1.5)
        service.run(0.2)
        assert service.network.slowdown_of("n1") == 0.02
        assert service.nodes["n2"].consensus.timer_scale == 1.5
        service.run(0.2)
        assert service.network.slowdown_of("n1") == 0.0


class TestNetworkFaults:
    """Unit tests for the extended Network fault surface."""

    def _network(self, seed=3):
        from repro.net.network import LinkConfig, Network
        from repro.sim.scheduler import Scheduler

        scheduler = Scheduler(seed=seed)
        network = Network(scheduler, LinkConfig(base_latency=0.001, jitter=0.0))
        received = {"a": [], "b": []}
        network.register("a", lambda src, p: received["a"].append(p))
        network.register("b", lambda src, p: received["b"].append(p))
        return scheduler, network, received

    def test_heal_with_single_endpoint_raises(self):
        import pytest

        from repro.errors import ConfigurationError

        _, network, _ = self._network()
        network.partition("a", "b")
        with pytest.raises(ConfigurationError):
            network.heal("a")
        with pytest.raises(ConfigurationError):
            network.heal(None, "b")
        # Both-endpoint and no-argument forms still work.
        network.heal("a", "b")
        network.partition("a", "b")
        network.heal()
        assert network._partitions == set()

    def test_link_loss_is_asymmetric(self):
        scheduler, network, received = self._network()
        network.set_link_loss("a", "b", 0.99)
        for i in range(50):
            network.send("a", "b", ("ab", i))
            network.send("b", "a", ("ba", i))
        scheduler.run_until(scheduler.now + 1.0)
        assert len(received["a"]) == 50  # reverse direction untouched
        assert len(received["b"]) < 10  # forward direction decimated

    def test_duplication_delivers_twice(self):
        scheduler, network, received = self._network()
        network.set_duplicate_probability(0.99)
        for i in range(20):
            network.send("a", "b", i)
        scheduler.run_until(scheduler.now + 1.0)
        assert network.messages_duplicated > 0
        assert len(received["b"]) == 20 + network.messages_duplicated

    def test_slowdown_delays_both_directions(self):
        scheduler, network, received = self._network()
        network.set_slowdown("b", 0.05)
        t0 = scheduler.now
        arrivals = []
        network.register("c", lambda src, p: arrivals.append(scheduler.now - t0))
        network.send("a", "b", "in")     # into the gray node
        network.send("b", "c", "out")    # out of the gray node
        scheduler.run_until(scheduler.now + 1.0)
        assert received["b"] == ["in"]
        assert all(latency >= 0.05 for latency in arrivals) or not arrivals
        network.set_slowdown("b", 0.0)
        assert network.slowdown_of("b") == 0.0

    def test_delay_spikes_reorder_messages(self):
        scheduler, network, received = self._network(seed=1)
        network.set_delay_spike(0.5, 0.5)
        for i in range(20):
            network.send("a", "b", i)
        scheduler.run_until(scheduler.now + 2.0)
        assert sorted(received["b"]) == list(range(20))
        assert received["b"] != list(range(20))  # some message was overtaken

    def test_clear_faults_lifts_everything_but_crashes(self):
        scheduler, network, received = self._network()
        network.crash("a")
        network.partition("a", "b")
        network.set_loss_probability(0.5)
        network.set_link_loss("a", "b", 0.5)
        network.set_slowdown("b", 0.1)
        network.set_duplicate_probability(0.5)
        network.set_delay_spike(0.5, 0.5)
        network.clear_faults()
        assert network._partitions == set()
        assert network._loss_probability == 0.0
        assert network._link_faults == {}
        assert network.slowdown_of("b") == 0.0
        assert network._duplicate_probability == 0.0
        assert network._spike_probability == 0.0
        assert network.is_down("a")  # crashes are not "faults to lift"

    def test_fault_free_runs_consume_no_extra_randomness(self):
        """With no faults armed, the rng stream is identical to the
        pre-chaos network — seeded experiments stay reproducible."""
        scheduler_a, network_a, received_a = self._network(seed=9)
        for i in range(10):
            network_a.send("a", "b", i)
        scheduler_a.run_until(scheduler_a.now + 1.0)
        draw_a = scheduler_a.rng.random()

        scheduler_b, network_b, received_b = self._network(seed=9)
        network_b.set_delay_spike(0.0, 0.0)  # armed-then-cleared is also free
        network_b.clear_faults()
        for i in range(10):
            network_b.send("a", "b", i)
        scheduler_b.run_until(scheduler_b.now + 1.0)
        assert scheduler_b.rng.random() == draw_a


def test_crashed_node_is_collectable_once_its_owner_drops_it():
    """Enclave memory is lost in a crash — and the simulator must not keep
    it either. A joiner that caught up (election timer re-armed by every
    append_entries, join-retry timer pending) and then crashed holds a full
    ledger and store; nothing in the scheduler queue or the network may pin
    them once the caller lets go of the node."""
    import gc
    import weakref

    from repro.app.logging_app import build_logging_app
    from repro.node.node import CCFNode

    service = make_service(n_nodes=3)
    user = service.any_user_client()
    primary = service.primary_node()
    for i in range(30):
        user.call(primary.node_id, "/app/write_message", {"id": i, "msg": f"m{i}"})
    joiner = CCFNode(
        node_id=service.new_node_id(),
        scheduler=service.scheduler,
        network=service.network,
        hardware=service.hardware,
        app=build_logging_app(),
        config=service.setup.node_config,
        code_id=service.code_id,
    )
    joiner.request_join(primary.node_id, primary.service_certificate)
    service.run_until(
        lambda: joiner.consensus is not None
        and joiner.ledger.last_seqno >= primary.consensus.commit_seqno,
        timeout=5.0,
    )
    ledger = weakref.ref(joiner.ledger)
    joiner.crash()
    del joiner
    gc.collect()
    assert ledger() is None
    # The service carries on; the dead node's pending timers fire as no-ops.
    service.run(2.0)
    assert user.call(primary.node_id, "/app/write_message", {"id": 99, "msg": "after"}).ok
