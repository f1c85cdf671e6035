"""Snapshot-based join (section 4.4) and snapshot integrity (section 3.5)."""

import dataclasses

import pytest

from repro.errors import VerificationError
from repro.node.config import NodeConfig

from tests.node.conftest import make_service


@pytest.fixture
def service():
    return make_service(
        n_nodes=3,
        node_config=NodeConfig(signature_interval=10, snapshot_interval=20),
    )


def fill(service, n, start=0):
    user = service.any_user_client()
    primary = service.primary_node()
    for i in range(start, start + n):
        user.call(primary.node_id, "/app/write_message", {"id": i, "msg": f"m{i}"})
    service.run(0.3)


class TestSnapshots:
    def test_primary_produces_snapshots(self, service):
        fill(service, 40)
        primary = service.primary_node()
        assert primary.snapshots.latest is not None
        # Snapshots persist as a manifest plus content-addressed chunks.
        assert primary.storage.list_files("manifest_")
        assert primary.storage.state_chunk_ids()

    def test_snapshot_receipt_verifies(self, service):
        fill(service, 40)
        primary = service.primary_node()
        from repro.ledger.receipts import Receipt

        receipt = Receipt.from_dict(primary.snapshots.latest.receipt)
        receipt.verify(primary.service_certificate)

    def test_join_from_snapshot_skips_replay(self, service):
        fill(service, 60)
        node = service.add_node()
        # The joiner's ledger is based at the snapshot: early entries are
        # not present, only their Merkle metadata.
        assert node.ledger.base_seqno > 0
        service.run(0.5)
        # Yet it is fully caught up and serves reads.
        assert node.store.get("records", 55) == "m55"
        user = service.any_user_client()
        response = user.call(node.node_id, "/app/read_message", {"id": 10})
        assert response.ok
        assert response.body["msg"] == "m10"

    def test_snapshot_joiner_participates_in_consensus(self, service):
        fill(service, 40)
        node = service.add_node()
        fill(service, 5, start=100)
        service.run(0.3)
        assert node.ledger.last_seqno == service.primary_node().ledger.last_seqno
        # Kill the old primary: the snapshot joiner can win elections.
        victims = [n for n in service.nodes.values()
                   if n.consensus.is_primary]
        for victim in victims:
            service.kill_node(victim.node_id)
        service.run_until(lambda: service.primary_node() is not None, timeout=10.0)

    def _make_joiner(self, service, primary, node_id="joiner-x"):
        from repro.node.node import CCFNode

        joiner = CCFNode(
            node_id=node_id,
            scheduler=service.scheduler,
            network=service.network,
            hardware=service.hardware,
            app=service._app_factory(),
            config=service.setup.node_config,
            code_id=service.code_id,
        )
        joiner.request_join(primary.node_id, primary.service_certificate)
        return joiner

    def test_tampered_manifest_rejected_by_joiner(self, service):
        """The untrusted host serving a snapshot cannot substitute state:
        the manifest digest in the receipt's claims must match."""
        fill(service, 40)
        primary = service.primary_node()
        package = primary.snapshots.latest
        # Swap one chunk id in the manifest the primary would serve.
        metadata = dict(package.metadata)
        name, ids = metadata["chunk_maps"][0]
        metadata["chunk_maps"] = [[name, ["00" * 32] + list(ids)[1:]]] + [
            list(row) for row in metadata["chunk_maps"][1:]
        ]
        primary.snapshots.latest = dataclasses.replace(package, metadata=metadata)
        self._make_joiner(service, primary)
        with pytest.raises(VerificationError):
            service.run(0.5)

    def test_tampered_chunk_rejected_by_joiner(self, service):
        """A served chunk whose bytes do not hash to its content address is
        rejected rather than installed (or re-fetched forever)."""
        fill(service, 40)
        primary = service.primary_node()
        package = primary.snapshots.latest
        chunks = dict(package.chunks)
        victim = next(iter(chunks))
        blob = chunks[victim]
        chunks[victim] = b"\x00" + blob[1:]
        primary.snapshots.latest = dataclasses.replace(package, chunks=chunks)
        # The disk cache would satisfy the request with good bytes; tamper
        # it the same way so the substitution is actually served.
        primary.storage.files[f"state_{victim}.chunk"] = chunks[victim]
        self._make_joiner(service, primary)
        with pytest.raises(VerificationError):
            service.run(0.5)

    def test_receipts_still_available_for_presnapshot_txs_on_old_nodes(self, service):
        user = service.any_user_client()
        primary = service.primary_node()
        early = user.call(primary.node_id, "/app/write_message", {"id": 1, "msg": "early"})
        fill(service, 50, start=200)
        response = user.call(primary.node_id, "/node/receipt", {"txid": early.txid})
        assert response.ok
        from repro.ledger.receipts import Receipt

        Receipt.from_dict(response.body["receipt"]).verify(primary.service_certificate)


def deposed_after_snapshot_evidence():
    """A primary appends snapshot evidence (an entry with claims) at seqno
    E, is deposed before E replicates, and — once the partition heals —
    holds the *new* primary's entry at E, committed. Returns
    ``(service, old, new, stale)`` with ``stale`` the rolled-back entry."""
    service = make_service(
        n_nodes=3,
        node_config=NodeConfig(signature_interval=10, snapshot_interval=20),
        seed=61,
    )
    old = service.primary_node()
    others = [n.node_id for n in service.backup_nodes()]
    user = service.any_user_client()
    produce = old.snapshots.on_commit
    evidence = []

    def produce_then_cut_off(commit_seqno):
        produce(commit_seqno)
        if old.snapshots._pending is not None and not evidence:
            evidence.append(old.ledger.entry_at(old.snapshots._pending.evidence_seqno))
            service.network.partition_groups([old.node_id], others)

    old.snapshots.on_commit = produce_then_cut_off
    for i in range(60):
        if evidence:
            break
        user.call(old.node_id, "/app/write_message", {"id": i, "msg": f"m{i}"})
    assert evidence, "the primary never reached its snapshot interval"
    (stale,) = evidence

    def other_primary():
        return next(
            (n for n in service.nodes.values()
             if n is not old and n.consensus.is_primary),
            None,
        )

    service.run_until(lambda: other_primary() is not None, timeout=10.0)
    new = other_primary()
    for i in range(15):
        user.call(new.node_id, "/app/write_message", {"id": 100 + i, "msg": "new"})
    service.run(0.5)
    assert new.consensus.commit_seqno > stale.txid.seqno

    service.network.heal()
    service.run(2.0)
    assert old.consensus.commit_seqno > stale.txid.seqno
    assert old.ledger.entry_at(stale.txid.seqno).txid != stale.txid
    return service, old, new, stale


def test_rolled_back_snapshot_evidence_drops_the_pending_snapshot():
    """The pending snapshot must die with its evidence: receipting whatever
    now sits at E with the stale snapshot digest would install a package no
    joiner can verify."""
    from repro.ledger.receipts import Receipt

    service, old, new, stale = deposed_after_snapshot_evidence()
    # The deposed primary never turned its stale snapshot into a join package.
    assert old.snapshots._pending is None
    assert old.snapshots.latest is None

    # Re-elected, it admits a joiner (by full replay: it has no snapshot)...
    # The scale applies from the next draw, so re-arm the timer before the
    # kill: at most 0.2 of the longest timeout, it fires before any other
    # backup's, whatever the earlier draws were.
    old.consensus.timer_scale = 0.2
    old.consensus._reset_election_timer()
    service.kill_node(new.node_id)
    service.run_until(lambda: old.consensus.is_primary, timeout=10.0)
    joiner = service.add_node()
    service.run(0.5)
    assert joiner.store.get("records", 100) == "new"
    # ...and the next interval snapshots normally.
    fill(service, 30, start=200)
    package = old.snapshots.latest
    assert package is not None
    Receipt.from_dict(package.receipt).verify(old.service_certificate)
    assert package.metadata["base_seqno"] > stale.txid.seqno


def test_rolled_back_entry_takes_its_receipt_claims_with_it():
    """The deposed primary retained the claims of its evidence entry at E.
    They must go when E is rolled back: attached to the receipt of the
    entry that committed there instead, they contradict its leaf."""
    from repro.ledger.receipts import Receipt

    service, old, _new, stale = deposed_after_snapshot_evidence()
    txid = old.ledger.entry_at(stale.txid.seqno).txid
    response = service.any_user_client().call(
        old.node_id, "/node/receipt", {"txid": str(txid), "with_claims": True}
    )
    assert response.ok, response.error
    receipt = Receipt.from_dict(response.body["receipt"])
    assert receipt.claims is None
    receipt.verify(old.service_certificate)
