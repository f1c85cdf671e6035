"""Each replicated entry is opened once per node (the opened-entry window).

A node's ``Ledger`` carries the write set of every entry it opened (a
backup, ``open_appended``) or built (the primary, ``carry_built``) from
append until the commit scan takes it, so that apply and scan share one
AEAD open and decode. These tests hold the carried set to the oracle —
what ``decrypt_private`` returns for the same entry — with exact types and
dict order, on every node, and check that the window is dropped by rollback
and empty once a service is quiet.
"""

import random

import pytest

from repro.crypto.certs import Identity
from repro.ledger.ledger import Ledger
from repro.net.network import LinkConfig
from repro.node.config import NodeConfig
from repro.service.service import CCFService, ServiceSetup
from tests.node.conftest import make_service
from tests.oracles.structure import exact

SEEDS = list(range(20))
KEY_SPACE = 6  # small, so writes keep overwriting the same keys


def run_workload(seed: int) -> None:
    """The seed's randomized workload on a 1- or 3-node service: bursts of
    writes, governance operations, reads with ``after_txid`` floors on
    every node, and receipts for sampled committed entries."""
    rng = random.Random(f"wl|{seed}")
    n_nodes = 3 if seed % 4 == 0 else 1
    setup = ServiceSetup(
        n_nodes=n_nodes,
        node_config=NodeConfig(signature_interval=rng.choice([1, 3, 7, 10])),
        seed=1000 + seed,
        link=LinkConfig(base_latency=0.00025, jitter=0.0),
    )
    service = CCFService(setup)
    service.bootstrap()
    user = service.any_user_client()
    primary = service.primary_node()

    last_txid = ""
    step = 0
    for _burst in range(rng.randint(3, 5)):
        step += 1
        for i in range(rng.randint(4, 12)):
            key = rng.randrange(KEY_SPACE)
            resp = user.call(
                primary.node_id,
                "/app/write_message",
                {"id": key, "msg": f"s{step}w{i}k{key}"},
            )
            if resp.ok:
                last_txid = resp.txid
        # Barrier: settle replication and the signature flush before reads
        # and governance.
        service.run(0.2)
        if rng.random() < 0.5:
            name = f"wl-user-{seed}-{step}"
            ident = Identity.create(name, name.encode())
            service.run_governance(
                [{"name": "set_user", "args": {
                    "subject": name,
                    "certificate": ident.certificate.to_dict(),
                }}]
            )
            service.run(0.2)
        for node in service.nodes.values():
            user.call(
                node.node_id,
                "/app/read_message",
                {"id": rng.randrange(KEY_SPACE)},
                after_txid=last_txid,
            )
    service.run(0.5)

    primary = service.primary_node()
    commit = primary.consensus.commit_seqno
    for seqno in sorted(rng.sample(range(1, commit + 1), min(3, commit))):
        txid = primary.ledger.txid_at(seqno)
        user.call(
            primary.node_id, "/node/receipt", {"txid": str(txid), "with_claims": True}
        )


@pytest.fixture
def takes(monkeypatch):
    """Check every ``take_opened`` against ``decrypt_private`` and count
    which way it went."""
    counts = {"carried": 0, "opened": 0}
    original = Ledger.take_opened

    def checked(ledger, entry):
        carried = ledger._opened.get(entry.txid.seqno)
        write_set = original(ledger, entry)
        if carried is not None and carried[0] is entry:
            assert write_set is carried[1]
            assert exact(write_set.updates) == exact(ledger.decrypt_private(entry).updates)
            counts["carried"] += 1
        else:
            # The one thing a healthy node opens at scan time: a signature
            # entry it appended itself as primary (public, nothing to open).
            assert entry.is_signature and not entry.private_blob
            counts["opened"] += 1
        return write_set

    monkeypatch.setattr(Ledger, "take_opened", checked)
    return counts


def assert_windows_consistent(service):
    """Every carried set belongs to an entry the ledger still holds."""
    for node in service.nodes.values():
        if node.stopped:
            continue
        ledger = node.ledger
        for seqno, (entry, write_set) in ledger._opened.items():
            assert node._commit_scan < seqno <= ledger.last_seqno
            assert ledger.entry_at(seqno) is entry
            assert exact(write_set.updates) == exact(ledger.decrypt_private(entry).updates)


def assert_windows_empty(service):
    for node in service.nodes.values():
        if not node.stopped:
            assert not node.ledger._opened, node.node_id


@pytest.mark.parametrize("seed", SEEDS)
def test_carried_sets_match_the_oracle_on_the_differential_workloads(seed, takes):
    """The randomized workloads of ``run_workload`` (1- and 3-node services,
    governance): every scanned entry on every node."""
    run_workload(seed)
    assert takes["carried"] > 0


def test_tuples_bytearrays_and_composite_keys(takes):
    """Values the codec reshapes — tuples, a bytearray, a tuple key, a dict
    in insertion order — reach the primary's window already in the shape
    its backups decode."""
    service = make_service(n_nodes=3, signature_interval=1000)
    user = service.any_user_client()
    primary = service.primary_node()
    service.run(0.3)  # commit the bootstrap, so only the odd write is pending
    odd_key = (1, ("a", 2))
    odd_value = {
        "zz": (1, 2),
        "b": bytearray(b"raw"),
        "aaa": {(3, 4): [5, (6,)], "z": None, "y": True},
    }
    response = user.call(
        primary.node_id, "/app/write_message", {"id": odd_key, "msg": odd_value}
    )
    assert response.ok
    service.run(0.005)  # replicated, not yet signed
    seqno = int(response.txid.split(".")[1])
    shapes = set()
    for node in service.nodes.values():
        entry, write_set = node.ledger._opened[seqno]
        carried = write_set.updates["records"][odd_key]
        assert exact(carried) == exact(
            {"b": b"raw", "zz": [1, 2], "aaa": {"y": True, "z": None, (3, 4): [5, [6]]}}
        )
        shapes.add(repr(exact(write_set.updates)))
    assert len(shapes) == 1  # primary and backups carry the same thing
    assert_windows_consistent(service)
    service.run(1.0)
    assert takes["carried"] >= 3
    assert_windows_empty(service)


def test_rekey_is_carried_across_generations(takes):
    service = make_service(n_nodes=3)
    user = service.any_user_client()
    user.call(service.primary_node().node_id, "/app/write_message", {"id": 1, "msg": "old"})
    service.run_governance([{"name": "trigger_ledger_rekey", "args": {}}])
    service.run(0.5)
    write = user.call(
        service.primary_node().node_id, "/app/write_message", {"id": 2, "msg": "new"}
    )
    service.run(0.005)
    seqno = int(write.txid.split(".")[1])
    for node in service.nodes.values():
        assert node.ledger.entry_at(seqno).secret_generation == 1
        assert seqno in node.ledger._opened
    assert_windows_consistent(service)
    service.run(1.0)
    assert_windows_empty(service)
    for node in service.nodes.values():
        assert node.enclave.memory.get("ledger_secrets").generations() == [0, 1]


def test_rollback_drops_the_carried_sets_above_the_truncation_point(takes):
    """A deposed primary holds carried sets for a suffix nobody else has;
    when the new primary's entries overwrite that suffix, the old sets must
    be gone and the new entries' sets in their place."""
    service = make_service(n_nodes=3, signature_interval=1000)
    user = service.any_user_client()
    old = service.primary_node()
    others = [node_id for node_id in service.nodes if node_id != old.node_id]
    service.run(0.3)
    base = old.ledger.last_seqno
    service.network.partition_groups([old.node_id], others)
    for i in range(5):
        assert user.call(old.node_id, "/app/write_message", {"id": i, "msg": f"doomed-{i}"}).ok
    doomed = dict(old.ledger._opened)
    assert sorted(doomed) == list(range(base + 1, base + 6))

    service.run_until(
        lambda: any(service.nodes[n].consensus.is_primary for n in others), timeout=10.0
    )
    new = next(service.nodes[n] for n in others if service.nodes[n].consensus.is_primary)
    for i in range(3):
        assert user.call(new.node_id, "/app/write_message", {"id": 100 + i, "msg": "kept"}).ok
    service.network.heal()
    service.run_until(lambda: old.ledger.last_txid() == new.ledger.last_txid(), timeout=10.0)

    for seqno, (entry, _write_set) in doomed.items():
        current = old.ledger._opened.get(seqno)
        assert current is None or current[0] is not entry
    assert_windows_consistent(service)
    service.run(1.0)
    assert_windows_empty(service)
    assert old.store.get("records", 0) is None
    assert old.store.get("records", 100) == "kept"


def test_window_is_empty_after_quiescence_under_load():
    """No carried set outlives its commit scan: 5 nodes, a burst of
    writes sent without waiting for replies, then quiet."""
    service = make_service(n_nodes=5, signature_interval=20)
    user = service.any_user_client()
    primary = service.primary_node()
    for i in range(60):
        user.send(primary.node_id, "/app/write_message", {"id": i, "msg": f"m{i}"})
    service.run(0.004)
    assert any(node.ledger._opened for node in service.nodes.values())
    assert_windows_consistent(service)
    service.run(1.0)
    assert_windows_empty(service)
    for node in service.nodes.values():
        assert node._commit_scan == node.ledger.last_seqno
