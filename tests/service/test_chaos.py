"""Chaos testing on the full service stack.

Long randomized scenarios over a complete CCFService — crashes, operator
replacements, continuous client traffic — ending with invariant checks and
data-integrity verification. This is the service-level counterpart of the
consensus-only explorer in repro.verification.
"""

import pytest

from repro.service.client import ClosedLoopClient, ServiceClient
from repro.service.operator import Operator
from repro.sim.metrics import ThroughputRecorder
from repro.verification.invariants import check_all_invariants

from tests.node.conftest import make_service


@pytest.mark.parametrize("seed", [11, 23])
def test_chaos_crashes_and_replacements(seed):
    """Two rounds of: kill a random node → operator replaces it — under
    continuous client load. At the end: one primary, full configuration,
    invariants hold, and every committed write is present everywhere."""
    service = make_service(n_nodes=3, seed=seed)
    rng = service.scheduler.rng
    operator = Operator(service)
    user = service.users[0]
    credentials = {"certificate": user.certificate.to_dict()}
    endpoint = ServiceClient(service.scheduler, service.network,
                             name="chaos-writer", identity=user)
    throughput = ThroughputRecorder()
    primary = service.primary_node()
    client = ClosedLoopClient(
        endpoint, primary.node_id,
        lambda i: ("/app/write_message", {"id": i % 200, "msg": f"v{i}"}, credentials),
        concurrency=20, throughput=throughput,
        fallback_nodes=[n.node_id for n in service.backup_nodes()],
        retry_timeout=0.15,
    )
    client.start()
    service.run(0.3)

    for _round in range(2):
        live = [n for n in service.nodes.values()
                if not n.stopped and n.consensus is not None
                and n.node_id in service.primary_node().consensus.configurations.current.nodes]
        victim = rng.choice(live)
        service.kill_node(victim.node_id)
        service.run_until(lambda: service.primary_node() is not None, timeout=10.0)
        operator.replace_node(victim.node_id)
        service.run(0.5)

    client.stop()
    service.run(1.0)

    # One primary; a full three-node configuration.
    primary = service.primary_node()
    assert primary is not None
    assert len(primary.consensus.configurations.current.nodes) == 3
    # Consensus invariants hold across every engine that ever ran.
    engines = [n.consensus for n in service.nodes.values() if n.consensus is not None]
    check_all_invariants(engines)
    # Progress was made throughout.
    assert throughput.count > 1000
    # Every node in the configuration agrees on the committed data.
    live_nodes = [n for n in service.nodes.values()
                  if not n.stopped and n.consensus is not None
                  and n.node_id in primary.consensus.configurations.current.nodes]
    reference = dict(primary.store.items("records"))
    for node in live_nodes:
        assert dict(node.store.items("records")) == reference


def fault_transfer_links(service, existing):
    """Until a node not in ``existing`` installs its snapshot, every
    message between it and the primary may be duplicated, delayed by a
    spike (which lets later messages on the stream overtake it) or lost.
    Returns how many messages, and how many join requests, were exposed to
    the faults, and whether the node installed."""
    from repro.node.wire import JoinRequest

    network = service.network
    original_send = network.send
    faulted = {"messages": 0, "requests": 0, "installed": False}

    def faulty_send(src, dst, payload, extra_delay=0.0, ordered=False):
        primary = service.primary_node()
        ends = {src, dst}
        joiners = [service.nodes[name] for name in ends - existing if name in service.nodes]
        if primary is None or primary.node_id not in ends or not joiners:
            original_send(src, dst, payload, extra_delay, ordered)
            return
        joiner = joiners[0].node_id
        if joiners[0].consensus is not None:
            faulted["installed"] = True
            network.set_link_loss(primary.node_id, joiner, 0.0)
            network.set_link_loss(joiner, primary.node_id, 0.0)
            original_send(src, dst, payload, extra_delay, ordered)
            return
        faulted["messages"] += 1
        faulted["requests"] += isinstance(payload, JoinRequest)
        network.set_link_loss(primary.node_id, joiner, 0.2)
        network.set_link_loss(joiner, primary.node_id, 0.2)
        network.set_duplicate_probability(0.3)
        network.set_delay_spike(0.3, 0.005)
        try:
            original_send(src, dst, payload, extra_delay, ordered)
        finally:
            network.set_duplicate_probability(0.0)
            network.set_delay_spike(0.0, 0.0)

    network.send = faulty_send
    return faulted


@pytest.mark.parametrize(
    "seed,faults",
    [
        pytest.param(13, False, id="13"),
        pytest.param(29, False, id="29"),
        pytest.param(13, True, id="13-faults"),
        pytest.param(29, True, id="29-faults"),
    ],
)
def test_chaos_join_mid_load_via_chunked_snapshot(seed, faults, monkeypatch):
    """Chaos with delta snapshots on: a node is killed and its replacement
    joins *mid-load* through the chunked-dedup state transfer, while the
    closed-loop client keeps writing. The replacement must come up from a
    snapshot (not full replay), and the surviving configuration must agree
    byte-for-byte on committed data afterwards.

    With ``faults``, the links between the primary and the replacement
    duplicate, spike and lose messages until it installs, so the push,
    the retry timer, held suffix frames and chunk repair run together."""
    from repro.node import join, snapshots
    from repro.node.config import NodeConfig

    monkeypatch.setattr(snapshots, "SNAPSHOT_CHUNK_BYTES", 1024)
    monkeypatch.setattr(join, "JOIN_CHUNK_BATCH", 4)
    config = NodeConfig(signature_interval=10, snapshot_interval=100)
    service = make_service(n_nodes=3, seed=seed, node_config=config)
    rng = service.scheduler.rng
    operator = Operator(service)
    user = service.users[0]
    credentials = {"certificate": user.certificate.to_dict()}
    endpoint = ServiceClient(service.scheduler, service.network,
                             name="chaos-join-writer", identity=user)
    throughput = ThroughputRecorder()
    primary = service.primary_node()
    client = ClosedLoopClient(
        endpoint, primary.node_id,
        lambda i: ("/app/write_message", {"id": i % 200, "msg": f"v{i}"}, credentials),
        concurrency=5, throughput=throughput,
        fallback_nodes=[n.node_id for n in service.backup_nodes()],
        retry_timeout=0.15,
    )
    client.start()
    # Enough traffic that a snapshot exists before the kill.
    service.run_until(lambda: service.primary_node() is not None
                      and service.primary_node().snapshots.latest is not None,
                      timeout=10.0)

    victim = rng.choice([n for n in service.backup_nodes() if not n.stopped])
    service.kill_node(victim.node_id)
    service.run_until(lambda: service.primary_node() is not None, timeout=10.0)
    if faults:
        # Retry often, so that the repairs fit in the test's load window.
        monkeypatch.setattr(join, "JOIN_RETRY_INTERVAL", 0.1)
        faulted = fault_transfer_links(service, set(service.nodes))
    replacement, _timeline = operator.replace_node(victim.node_id)
    service.run(0.2)
    client.stop()
    service.run(0.5)
    if faults:
        # The faults cost at least one retried request.
        assert faulted["installed"] and faulted["requests"] > 1

    # The replacement installed a chunked snapshot, not a from-genesis replay.
    assert replacement.ledger.base_seqno > 0
    assert replacement.storage.state_chunk_ids()
    primary = service.primary_node()
    assert len(primary.consensus.configurations.current.nodes) == 3
    check_all_invariants([n.consensus for n in service.nodes.values()
                          if n.consensus is not None])
    assert throughput.count > 500
    reference = dict(primary.store.items("records"))
    live_nodes = [n for n in service.nodes.values()
                  if not n.stopped and n.consensus is not None
                  and n.node_id in primary.consensus.configurations.current.nodes]
    assert len(live_nodes) == 3
    for node in live_nodes:
        assert dict(node.store.items("records")) == reference


def test_chaos_partition_and_heal():
    """A partition isolates the primary; the majority side elects a new
    one; healing reconciles every ledger without losing committed data."""
    service = make_service(n_nodes=3, seed=31)
    user = service.any_user_client()
    primary = service.primary_node()
    committed_ids = []
    for i in range(5):
        response = user.call(primary.node_id, "/app/write_message",
                             {"id": i, "msg": f"pre-{i}"})
        committed_ids.append(response.txid)
    service.run(0.3)

    others = [n.node_id for n in service.backup_nodes()]
    service.network.partition_groups([primary.node_id], others)
    service.run_until(
        lambda: any(
            n.consensus.is_primary and n.node_id != primary.node_id
            for n in service.nodes.values() if n.consensus
        ),
        timeout=10.0,
    )
    new_primary = [n for n in service.nodes.values()
                   if n.consensus.is_primary and n.node_id != primary.node_id][0]
    response = user.call(new_primary.node_id, "/app/write_message",
                         {"id": 100, "msg": "during-partition"})
    assert response.ok
    service.run(0.5)

    service.network.heal()
    service.run(2.0)
    # The old primary rejoined as a backup and converged.
    assert not primary.consensus.is_primary
    for i in range(5):
        assert primary.store.get("records", i) == f"pre-{i}"
    assert primary.store.get("records", 100) == "during-partition"
    engines = [n.consensus for n in service.nodes.values()]
    check_all_invariants(engines)


def test_chaos_message_loss():
    """10% message loss: slower, but safe and live."""
    service = make_service(n_nodes=3, seed=47)
    service.network.set_loss_probability(0.10)
    user = service.any_user_client()
    committed = []
    for i in range(10):
        primary = service.primary_node()
        if primary is None:
            service.run(0.5)
            continue
        response = user.call(primary.node_id, "/app/write_message",
                             {"id": i, "msg": f"lossy-{i}"}, timeout=3.0)
        if response.ok:
            committed.append((i, response.txid))
        service.run(0.2)
    service.network.set_loss_probability(0.0)
    service.run(2.0)
    assert len(committed) >= 5
    primary = service.primary_node()
    for i, txid in committed:
        status = user.call(primary.node_id, "/node/tx", {"txid": txid})
        assert status.body["status"] == "Committed", (i, txid)
    check_all_invariants([n.consensus for n in service.nodes.values() if n.consensus])
