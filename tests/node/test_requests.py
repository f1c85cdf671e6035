"""Integration tests: the user request path through a full service.

Covers sections 3.1 (endpoints, auth), 3.4 (read-only fast path, historical
queries, indexing), 3.5 (receipts), and 4.3 (forwarding, retries, session
consistency).
"""

import pytest

from repro.crypto.certs import Identity
from repro.ledger.entry import TxID
from repro.ledger.receipts import Receipt

from tests.node.conftest import make_service


class TestWritePath:
    def test_write_returns_txid_immediately(self, service):
        user = service.any_user_client()
        primary = service.primary_node()
        response = user.call(primary.node_id, "/app/write_message", {"id": 1, "msg": "x" * 20})
        assert response.ok
        txid = TxID.parse(response.txid)
        assert txid.seqno > 0

    def test_write_commits_after_signature(self, service):
        user = service.any_user_client()
        primary = service.primary_node()
        response = user.call(primary.node_id, "/app/write_message", {"id": 1, "msg": "m"})
        service.run(0.3)
        status = user.call(primary.node_id, "/node/tx", {"txid": response.txid})
        assert status.body["status"] == "Committed"

    def test_write_replicates_to_backups(self, service):
        user = service.any_user_client()
        primary = service.primary_node()
        user.call(primary.node_id, "/app/write_message", {"id": 7, "msg": "replicated"})
        service.run(0.3)
        for node in service.backup_nodes():
            assert node.store.get("records", 7) == "replicated"

    def test_writes_to_backup_are_forwarded(self, service):
        """Section 4.3: backups forward writes to the primary."""
        user = service.any_user_client()
        backup = service.backup_nodes()[0]
        response = user.call(backup.node_id, "/app/write_message", {"id": 2, "msg": "fwd"})
        assert response.ok, response.error
        assert backup.frontend.forwards == 1
        read = user.call(service.primary_node().node_id, "/app/read_message", {"id": 2})
        assert read.body["msg"] == "fwd"

    def test_session_consistency_after_forwarding(self, service):
        """Once a session is forwarded, subsequent reads follow the primary."""
        user = service.any_user_client()
        backup = service.backup_nodes()[0]
        user.call(backup.node_id, "/app/write_message", {"id": 3, "msg": "session"})
        response = user.call(backup.node_id, "/app/read_message", {"id": 3})
        assert response.ok
        assert backup.frontend.forwards == 2  # the read was forwarded too

    def test_handler_error_produces_no_ledger_entry(self, service):
        user = service.any_user_client()
        primary = service.primary_node()
        seqno_before = primary.ledger.last_seqno
        response = user.call(primary.node_id, "/app/read_message", {"id": 999})
        assert response.status == 403
        assert primary.ledger.last_seqno == seqno_before


class TestReadPath:
    def test_read_returns_last_applied_txid(self, service):
        user = service.any_user_client()
        primary = service.primary_node()
        write = user.call(primary.node_id, "/app/write_message", {"id": 1, "msg": "m"})
        read = user.call(primary.node_id, "/app/read_message", {"id": 1})
        assert read.ok
        assert TxID.parse(read.txid) >= TxID.parse(write.txid)

    def test_reads_served_by_any_node(self, service):
        user = service.any_user_client()
        primary = service.primary_node()
        user.call(primary.node_id, "/app/write_message", {"id": 5, "msg": "everywhere"})
        service.run(0.3)
        for node in service.backup_nodes():
            response = user.call(node.node_id, "/app/read_message", {"id": 5})
            assert response.ok
            assert response.body["msg"] == "everywhere"

    def test_reads_produce_no_ledger_entries(self, service):
        user = service.any_user_client()
        primary = service.primary_node()
        before = primary.ledger.last_seqno
        for _ in range(5):
            user.call(primary.node_id, "/node/commit", {})
        assert primary.ledger.last_seqno == before


class TestAuthentication:
    def test_unknown_user_rejected(self, service):
        stranger = Identity.create("stranger", b"stranger-seed")
        client = service.any_user_client()
        response = client.call(
            service.primary_node().node_id,
            "/app/write_message",
            {"id": 1, "msg": "m"},
            credentials={"certificate": stranger.certificate.to_dict()},
        )
        assert response.status == 401

    def test_missing_credentials_rejected(self, service):
        client = service.any_user_client()
        response = client.call(
            service.primary_node().node_id,
            "/app/write_message",
            {"id": 1, "msg": "m"},
            credentials={},
        )
        assert response.status == 401

    def test_unknown_endpoint_404(self, service):
        client = service.any_user_client()
        response = client.call(service.primary_node().node_id, "/app/nope", {})
        assert response.status == 404

    def test_service_must_be_open_for_users(self):
        service = make_service(n_nodes=1, open_service=False)
        client = service.any_user_client()
        response = client.call(
            service.primary_node().node_id, "/app/write_message", {"id": 1, "msg": "m"}
        )
        assert response.status == 503
        # Built-in endpoints still work while the service is opening.
        info = client.call(service.primary_node().node_id, "/node/service_info", {})
        assert info.ok
        assert info.body["status"] == "Opening"


class TestReceipts:
    def test_receipt_verifies_against_service_identity(self, service):
        user = service.any_user_client()
        primary = service.primary_node()
        write = user.call(primary.node_id, "/app/write_message", {"id": 1, "msg": "m"})
        service.run(0.3)
        response = user.call(primary.node_id, "/node/receipt", {"txid": write.txid})
        assert response.ok, response.error
        receipt = Receipt.from_dict(response.body["receipt"])
        receipt.verify(primary.service_certificate)

    def test_receipt_from_backup_node(self, service):
        """Receipts are read-only and served by any node (section 4.3)."""
        user = service.any_user_client()
        primary = service.primary_node()
        write = user.call(primary.node_id, "/app/write_message", {"id": 1, "msg": "m"})
        service.run(0.3)
        backup = service.backup_nodes()[0]
        response = user.call(backup.node_id, "/node/receipt", {"txid": write.txid})
        assert response.ok, response.error
        Receipt.from_dict(response.body["receipt"]).verify(primary.service_certificate)

    def test_receipt_for_uncommitted_tx_unavailable(self, service):
        user = service.any_user_client()
        primary = service.primary_node()
        write = user.call(primary.node_id, "/app/write_message", {"id": 1, "msg": "m"})
        # No time to commit: receipt must be refused.
        response = user.call(primary.node_id, "/node/receipt", {"txid": write.txid}, timeout=0.0001)
        if response.status != 504:  # if it answered at all, it must refuse
            assert not response.ok


class TestIndexingAndHistory:
    def test_message_history_via_index(self, service):
        user = service.any_user_client()
        primary = service.primary_node()
        writes = []
        for i in range(3):
            writes.append(
                user.call(primary.node_id, "/app/write_message", {"id": 42, "msg": f"v{i}"})
            )
        service.run(0.3)
        history = user.call(primary.node_id, "/app/message_history", {"id": 42})
        assert history.ok
        assert history.body["writes"] == [w.txid for w in writes]

    def test_index_only_covers_committed(self, service):
        user = service.any_user_client()
        primary = service.primary_node()
        user.call(primary.node_id, "/app/write_message", {"id": 9, "msg": "v"})
        # Immediately: not yet committed, so the index must not know it.
        history = user.call(primary.node_id, "/app/message_history", {"id": 9})
        assert history.body["writes"] == []
        service.run(0.3)
        history = user.call(primary.node_id, "/app/message_history", {"id": 9})
        assert len(history.body["writes"]) == 1

    def test_historical_range_decrypts_private_writes(self, service):
        user = service.any_user_client()
        primary = service.primary_node()
        write = user.call(primary.node_id, "/app/write_message", {"id": 1, "msg": "hist"})
        service.run(0.3)
        seqno = TxID.parse(write.txid).seqno
        [write_set] = primary.historical_range(seqno, seqno)
        assert write_set.updates["records"][1] == "hist"


class TestTransactionStatusEndpoint:
    def test_unknown_future_txid(self, service):
        user = service.any_user_client()
        response = user.call(
            service.primary_node().node_id, "/node/tx", {"txid": "1.999999"}
        )
        assert response.body["status"] == "Unknown"

    def test_invalid_txid_after_commit_of_other_view(self, service):
        user = service.any_user_client()
        primary = service.primary_node()
        write = user.call(primary.node_id, "/app/write_message", {"id": 1, "msg": "m"})
        service.run(0.3)
        seqno = TxID.parse(write.txid).seqno
        wrong_view = TxID(view=99, seqno=seqno)
        # A higher view at an already-committed seqno can never appear…
        # but from this node's perspective it is simply not invalidated
        # history; ask for a *lower* view at the committed seqno instead.
        lower_view = TxID(view=0, seqno=seqno)
        response = user.call(primary.node_id, "/node/tx", {"txid": str(lower_view)})
        assert response.body["status"] == "Invalid"
        del wrong_view


def test_single_node_service_full_cycle(single_node_service):
    """Section 6.4: CCF can run on a single node if HA is not needed."""
    service = single_node_service
    user = service.any_user_client()
    node = service.primary_node()
    write = user.call(node.node_id, "/app/write_message", {"id": 1, "msg": "solo"})
    assert write.ok
    service.run(0.3)
    status = user.call(node.node_id, "/node/tx", {"txid": write.txid})
    assert status.body["status"] == "Committed"
