"""The primary sends each replicated entry to each peer once.

``next_index`` points past the last window *sent*, not the last one
acknowledged. A write load therefore streams every entry to every backup
once. A window that is lost is found by the next append to that peer,
whose failure ack rewinds ``next_index``; the windows already sent are
then re-sent one at a time, and the burst's other rejections are dropped
as stale. Over
ordered node-to-node streams a lagging learner is sent every window it is
missing back to back, and is caught up in one round trip.
"""

import collections
import math

from repro.app.logging_app import build_logging_app
from repro.consensus import raft
from repro.consensus.messages import AppendEntries
from repro.node.config import NodeConfig
from repro.obs.metrics import RUNTIME_STATS
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
    """5 nodes, 50 closed-loop writers through the sealed channels. Frames
    to a backup arrive in send order, so no append is rejected and no
    frame is dropped as a replay."""
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
    acks = record(primary.consensus, "on_append_entries_response")
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
    assert acks and all(ack.success for ack in acks)
    assert RUNTIME_STATS.get("channel.frames.replay_dropped") == 0


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


def ordered_links(cluster):
    """Send the cluster's consensus messages on ordered streams, as
    ``CCFNode`` does; the explorer's harness leaves them unordered."""
    for host in cluster.hosts.values():
        host.send_consensus_message = (
            lambda to, message, src=host.node_id: cluster.network.send(
                src, to, message, ordered=True
            )
        )


def lagging_learner(cluster):
    """n0..n2 form the configuration and append 3,000 writes; n3 has none
    of them. Returns (primary, learner, gap) before the learner is added."""
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
    return primary, learner, gap


def sends_to(host, peer):
    """Log (time, message) for every append_entries ``host`` sends ``peer``."""
    log = []
    send = host.send_consensus_message

    def logging_send(to, message):
        if to == peer and isinstance(message, AppendEntries):
            log.append((host.consensus.scheduler.now, message))
        send(to, message)

    host.send_consensus_message = logging_send
    return log


def test_a_lagging_learner_is_caught_up_in_one_round_trip():
    cluster = Cluster(4)
    ordered_links(cluster)
    primary, learner, gap = lagging_learner(cluster)
    sent = sends_to(primary, learner.node_id)
    received = record(learner.consensus, "on_append_entries")
    acks = []
    on_ack = primary.consensus.on_append_entries_response

    def timed_ack(message):
        if message.sender == learner.node_id:
            acks.append((cluster.scheduler.now, message))
        on_ack(message)

    primary.consensus.on_append_entries_response = timed_ack
    primary.consensus.add_learner(learner.node_id, 1)
    cluster.run(0.5)

    assert learner.ledger.last_txid() == primary.ledger.last_txid()
    windows = [len(m.entries) for m in received if m.entries]
    assert len(windows) == math.ceil(gap / raft.MAX_BATCH_ENTRIES)
    assert sum(windows) == gap
    assert max(windows) <= raft.MAX_BATCH_ENTRIES
    # Every window left the primary before the first ack came back.
    first_ack = acks[0][0]
    assert all(t < first_ack for t, m in sent if m.entries)
    assert all(ack.success for _t, ack in acks)


def test_on_unordered_links_a_reordered_burst_still_catches_the_learner_up():
    """The explorer's links may deliver a burst's windows in any order. A
    window that overtakes its predecessor is rejected; the first rejection
    starts one-at-a-time re-sends of the windows already sent, and the
    rejections of the rest of the burst are dropped as stale. The learner
    converges, and receives each entry at most twice."""
    rejected = 0
    for seed in range(12):
        RUNTIME_STATS.reset()
        cluster = Cluster(4, seed=seed)
        primary, learner, _gap = lagging_learner(cluster)
        acks = record(primary.consensus, "on_append_entries_response")
        received = record(learner.consensus, "on_append_entries")
        primary.consensus.add_learner(learner.node_id, 1)
        cluster.run(0.5)

        assert learner.ledger.last_txid() == primary.ledger.last_txid()
        failures = sum(1 for ack in acks if ack.sender == learner.node_id and not ack.success)
        rejected += failures
        receipts = collections.Counter(
            entry.txid.seqno for message in received for entry in message.entries
        )
        assert max(receipts.values()) <= 2, seed
        if failures > 1:
            assert RUNTIME_STATS.get("consensus.stale_rejections") > 0, seed
    # The explorer does search reordered AppendEntries.
    assert rejected > 0


def test_a_window_lost_mid_burst_is_repaired_one_window_per_rejection():
    cluster = Cluster(4)
    ordered_links(cluster)
    primary, learner, gap = lagging_learner(cluster)
    windows = math.ceil(gap / raft.MAX_BATCH_ENTRIES)
    assert windows >= 3

    # Lose the second window of the burst; every later frame of the burst
    # is then rejected.
    send = primary.send_consensus_message
    windows_out = []

    def lose_second_window(to, message):
        if to == learner.node_id and isinstance(message, AppendEntries) and message.entries:
            windows_out.append(message)
            if len(windows_out) == 2:
                return
        send(to, message)

    primary.send_consensus_message = lose_second_window
    sent = sends_to(primary, learner.node_id)
    resends = []
    on_ack = primary.consensus.on_append_entries_response

    def counting_ack(message):
        before = len(sent)
        on_ack(message)
        if message.sender == learner.node_id and not message.success:
            resends.extend(m for _t, m in sent[before:] if m.entries)

    primary.consensus.on_append_entries_response = counting_ack
    primary.consensus.add_learner(learner.node_id, 1)
    cluster.run(0.5)

    assert learner.ledger.last_txid() == primary.ledger.last_txid()
    behind = windows - 2
    # The first rejection re-sends the lost window; the other rejections
    # of the burst answer windows sent before it and are dropped.
    assert len(resends) == 1
    assert RUNTIME_STATS.get("consensus.stale_rejections") == behind - 1
    assert all(len(m.entries) <= raft.MAX_BATCH_ENTRIES for _t, m in sent)
    # Each rejection re-sent the lost window, not a burst.
    lost = windows_out[1]
    assert {m.entries[0].txid for m in resends} == {lost.entries[0].txid}
