"""The primary sends each replicated entry to each peer once.

``next_index`` points past the last window *sent*, not the last one
acknowledged. A write load therefore streams every entry to every backup
once. A window that is lost is found by the next heartbeat, whose failure
ack rewinds ``next_index``. A lagging learner is caught up one full window
per round trip, each window sent once.
"""

import math

from repro.app.logging_app import build_logging_app
from repro.consensus import raft
from repro.consensus.messages import AppendEntries
from repro.node.config import NodeConfig
from repro.service.client import ServiceClient
from repro.service.service import CCFService, ServiceSetup
from repro.verification.harness import Cluster


def record(engine, handler_name):
    """Log every message ``engine``'s handler ``handler_name`` receives."""
    log = []
    handler = getattr(engine, handler_name)

    def logging_handler(message):
        log.append(message)
        handler(message)

    setattr(engine, handler_name, logging_handler)
    return log


def committed_prefix(host, seqno):
    return [host.ledger.entry_at(s).encode() for s in range(1, seqno + 1)]


def test_a_write_load_sends_each_entry_to_each_backup_once():
    """5 nodes, 50 closed-loop writers through the sealed channels (where
    two appends that overtake each other cost a failure round trip)."""
    service = CCFService(
        ServiceSetup(
            n_nodes=5,
            node_config=NodeConfig(signature_interval=20, signature_flush_time=0.01),
            app_factory=build_logging_app,
            seed=7,
        )
    )
    service.bootstrap()
    service.run(0.1)
    primary = service.primary_node()
    backups = service.backup_nodes()
    received = [record(backup.consensus, "on_append_entries") for backup in backups]
    first_seqno = primary.ledger.last_seqno
    client = ServiceClient(
        service.scheduler, service.network, name="stream-load", identity=service.users[0]
    )
    state = {"running": True, "sent": 0}

    def send(_response=None) -> None:
        if state["running"]:
            state["sent"] += 1
            client.send(
                primary.node_id,
                "/app/write_message",
                {"id": state["sent"] % 1000, "msg": "m"},
                on_response=send,
            )

    for _ in range(50):
        send()
    service.run(0.02)
    state["running"] = False
    service.run(0.5)

    appended = primary.ledger.last_seqno - first_seqno
    assert appended > 500
    entries_received = sum(len(m.entries) for log in received for m in log)
    assert entries_received / (appended * len(backups)) <= 1.2
    for backup in backups:
        assert backup.ledger.last_txid() == primary.ledger.last_txid()


def test_a_lost_window_is_repaired_by_the_next_heartbeat():
    cluster = Cluster(5, seed=3)
    cluster.start()
    cluster.run(0.3)
    primary = cluster.primary()
    for i in range(5):
        primary.submit_write(i, i)
    primary.sign_now()
    cluster.run(0.1)

    victim = cluster.hosts["n2"]
    acks = record(primary.consensus, "on_append_entries_response")
    dropped = []
    send = primary.send_consensus_message

    def lose_one_window(to, message):
        if to == victim.node_id and isinstance(message, AppendEntries) and not dropped:
            dropped.append(message)
            return
        send(to, message)

    primary.send_consensus_message = lose_one_window
    signature = primary.sign_now()
    assert [m.entries[-1].txid for m in dropped] == [signature.txid]

    # The next heartbeat is an empty probe at the signature; the victim
    # does not hold it, and its failure ack rewinds next_index once.
    cluster.run(2 * raft.HEARTBEAT_INTERVAL)
    assert victim.ledger.last_txid() == signature.txid
    victim_acks = [ack.success for ack in acks if ack.sender == victim.node_id]
    assert victim_acks.count(False) == 1

    cluster.run(0.5)
    commit = primary.consensus.commit_seqno
    assert commit >= signature.txid.seqno
    reference = committed_prefix(primary, commit)
    for host in cluster.hosts.values():
        assert host.consensus.commit_seqno == commit
        assert committed_prefix(host, commit) == reference


def test_a_lagging_learner_is_caught_up_one_full_window_per_round_trip():
    cluster = Cluster(4)
    for host in cluster.hosts.values():
        host.consensus.configurations = type(host.consensus.configurations).resuming_from(
            0, frozenset({"n0", "n1", "n2"})
        )
    cluster.start()
    cluster.run(0.3)
    primary = cluster.primary()
    for i in range(3_000):
        primary.submit_write(i, i)
    primary.sign_now()
    cluster.run(0.1)

    learner = cluster.hosts["n3"]
    gap = primary.ledger.last_seqno - learner.ledger.last_seqno
    assert gap > 3_000
    received = record(learner.consensus, "on_append_entries")
    acks = record(primary.consensus, "on_append_entries_response")
    primary.consensus.add_learner(learner.node_id, 1)
    cluster.run(0.5)

    assert learner.ledger.last_txid() == primary.ledger.last_txid()
    windows = [len(m.entries) for m in received if m.entries]
    assert len(windows) == math.ceil(gap / raft.MAX_BATCH_ENTRIES)
    assert sum(windows) == gap
    assert all(ack.success for ack in acks if ack.sender == learner.node_id)
