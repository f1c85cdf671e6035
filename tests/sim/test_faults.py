"""Tests for the fault surface chaos schedules drive: the network's fault
switches, chunk replacement on a salvaged disk, and what a crashed node
leaves behind."""

from tests.node.conftest import make_service


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
        assert network._link_loss == {}
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
