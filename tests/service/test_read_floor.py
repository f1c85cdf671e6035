"""Session consistency for reads with an ``after_txid`` floor.

Every node serves reads from the state it has applied, so a session that
wrote through the primary and then reads on a backup races replication.
The contract under test: with an ``after_txid`` floor the client either
observes its own write or gets a *typed* answer — 425 (behind: the floor
is not yet in the served state, retryable) or 410 (rolled back: the floor
can never commit) — and **never a silently stale 200**.
"""

from tests.node.conftest import make_service


def _seqno(txid: str) -> int:
    return int(txid.split(".")[1])


def test_write_then_read_on_backup_is_behind_then_served():
    """Immediately after a write the backup has not applied it yet: the
    floored read must 425, not serve stale data. Once replication delivers
    the write, the same read succeeds and its TxID shows the floor was
    honored."""
    service = make_service(signature_interval=50)
    user = service.any_user_client()
    primary = service.primary_node()
    backup = service.backup_nodes()[0]

    write = user.call(primary.node_id, "/app/write_message", {"id": 1, "msg": "v1"})
    assert write.ok
    read = user.call(
        backup.node_id, "/app/read_message", {"id": 1}, after_txid=write.txid
    )
    assert read.status == 425  # typed "behind", never a stale 200
    assert not read.ok

    service.run(0.5)  # signature flush + replication: the write commits
    read = user.call(
        backup.node_id, "/app/read_message", {"id": 1}, after_txid=write.txid
    )
    assert read.ok
    assert read.body["msg"] == "v1"
    assert _seqno(read.txid) >= _seqno(write.txid)


def test_primary_serves_read_your_writes():
    """Sessions that stay on the primary keep read-your-writes: the
    primary serves current state, no commit wait."""
    service = make_service(signature_interval=50)
    user = service.any_user_client()
    primary = service.primary_node()
    write = user.call(primary.node_id, "/app/write_message", {"id": 2, "msg": "mine"})
    assert write.ok
    read = user.call(
        primary.node_id, "/app/read_message", {"id": 2}, after_txid=write.txid
    )
    assert read.ok
    assert read.body["msg"] == "mine"


def test_malformed_after_txid_is_rejected():
    service = make_service()
    user = service.any_user_client()
    backup = service.backup_nodes()[0]
    read = user.call(
        backup.node_id, "/app/read_message", {"id": 1}, after_txid="not-a-txid"
    )
    assert not read.ok
    assert read.status != 425  # malformed is a client error, not "behind"


def test_session_consistency_property():
    """Randomized write-then-read-elsewhere sweep: every floored read
    either proves freshness (response body is exactly the latest write of
    that key at or below the served seqno, which the response's TxID
    names and which includes the floor) or is a typed 425. Both outcomes
    must actually occur."""
    service = make_service(signature_interval=10)
    user = service.any_user_client()
    primary = service.primary_node()
    backups = service.backup_nodes()
    writes = []  # (seqno, key, value), in seqno order
    committed_floor = ""
    behind = served = 0
    for i in range(30):
        key = i % 5
        value = f"v{i}"
        write = user.call(
            primary.node_id, "/app/write_message", {"id": key, "msg": value}
        )
        assert write.ok
        writes.append((_seqno(write.txid), key, value))
        if i % 7 == 6:
            service.run(0.3)  # let commit catch up mid-sweep
            committed_floor = write.txid
        floor = committed_floor or write.txid
        backup = backups[i % len(backups)]
        read_key = writes[-1][1]
        read = user.call(
            backup.node_id, "/app/read_message", {"id": read_key}, after_txid=floor
        )
        if read.ok:
            served += 1
            served_seqno = _seqno(read.txid)
            assert served_seqno >= _seqno(floor)
            expected = [
                v for s, k, v in writes if k == read_key and s <= served_seqno
            ][-1]
            assert read.body["msg"] == expected
        else:
            behind += 1
            assert read.status == 425
    assert behind >= 1, "sweep never exercised the behind path"
    assert served >= 1, "sweep never exercised the served path"


def test_rolled_back_speculative_read_is_typed_410():
    """A session whose ``after_txid`` floor was a *rolled-back* speculative
    write (executed on a primary that lost an election before commit) must
    get the permanent 410, not the retryable 425: no amount of waiting
    will ever make that floor commit."""
    service = make_service(signature_interval=5)
    user = service.any_user_client()
    primary = service.primary_node()
    base = user.call(primary.node_id, "/app/write_message", {"id": 1, "msg": "base"})
    assert base.ok
    service.run(0.5)

    others = [n.node_id for n in service.backup_nodes()]
    service.network.partition_groups([primary.node_id], others)
    # Speculative write on the soon-to-be-deposed primary: it executes and
    # responds, but can never replicate.
    doomed = user.call(
        primary.node_id, "/app/write_message", {"id": 1, "msg": "doomed"}
    )
    assert doomed.ok
    # Read-your-writes still holds on that node while it believes it is
    # primary — the response's TxID is the client's evidence to track.
    read = user.call(
        primary.node_id, "/app/read_message", {"id": 1}, after_txid=doomed.txid
    )
    assert read.ok and read.body["msg"] == "doomed"

    service.run_until(
        lambda: any(
            n.consensus.is_primary and n.node_id != primary.node_id
            for n in service.nodes.values()
            if n.consensus is not None
        ),
        timeout=10.0,
    )
    new_primary = [
        n
        for n in service.nodes.values()
        if n.consensus is not None
        and n.consensus.is_primary
        and n.node_id != primary.node_id
    ][0]
    # While the doomed seqno is not yet superseded by a commit in the new
    # view, the majority side can only say "behind" — retryable.
    read = user.call(
        new_primary.node_id, "/app/read_message", {"id": 1}, after_txid=doomed.txid
    )
    assert read.status in (425, 200) or read.ok is False
    # Commit past the doomed seqno in the new view, then heal: the old
    # primary rejoins and rolls its speculative suffix back.
    replace = user.call(
        new_primary.node_id, "/app/write_message", {"id": 1, "msg": "after-failover"}
    )
    assert replace.ok
    service.run(0.5)
    service.network.heal()
    service.run(1.0)

    for node in service.nodes.values():
        read = user.call(
            node.node_id, "/app/read_message", {"id": 1}, after_txid=doomed.txid
        )
        assert read.status == 410, (
            f"{node.node_id} must report the rolled-back floor as permanent"
        )
    # Without the dead floor the session reads current, correct data.
    read = user.call(
        primary.node_id, "/app/read_message", {"id": 1}, after_txid=replace.txid
    )
    assert read.ok
    assert read.body["msg"] == "after-failover"
