"""Disaster recovery integration tests (section 5.2)."""

import pytest

from repro.errors import RecoveryError
from repro.node import maps
from repro.recovery.recovery import replay_public_ledger, start_recovered_service

from tests.node.conftest import make_service


def build_failed_service(n_nodes=3, writes=8, recovery_threshold=2):
    """A service with data that then suffers total failure; returns the
    (dead) service and the salvaged storage of one node."""
    service = make_service(
        n_nodes=n_nodes, signature_interval=5, recovery_threshold=recovery_threshold
    )
    user = service.any_user_client()
    primary = service.primary_node()
    for i in range(writes):
        user.call(primary.node_id, "/app/write_message", {"id": i, "msg": f"secret-{i}"})
    service.run(0.5)
    salvaged = primary.storage.clone()
    for node_id in list(service.nodes):
        service.kill_node(node_id)
    return service, salvaged


def recover(service, salvaged, submitting_members=None):
    """Run the full recovery protocol; returns (node, summary)."""
    node = service.new_node()
    summary = start_recovered_service(node, salvaged, "ccf-service-recovered")
    service.run(0.2)
    members = submitting_members if submitting_members is not None else service.members[:2]
    service.submit_recovery_shares(members)
    return node, summary


def open_recovered(service, summary):
    service.open_service(summary)
    service.run(0.3)


class TestRecoveryProtocol:
    def test_full_recovery_restores_private_data(self):
        service, salvaged = build_failed_service()
        node, summary = recover(service, salvaged)
        open_recovered(service, summary)
        user = service.any_user_client()
        for i in range(8):
            response = user.call(node.node_id, "/app/read_message", {"id": i})
            assert response.ok
            assert response.body["msg"] == f"secret-{i}"

    def test_recovered_service_has_new_identity(self):
        service, salvaged = build_failed_service()
        node, summary = recover(service, salvaged)
        assert (
            summary["previous_service_identity"]["public_key"]
            != summary["new_service_identity"]["public_key"]
        )

    def test_below_threshold_does_not_recover(self):
        service, salvaged = build_failed_service(recovery_threshold=2)
        node, _summary = recover(service, salvaged, submitting_members=service.members[:1])
        info = node.store.get(maps.SERVICE_INFO, "service")
        assert info["status"] == maps.SERVICE_WAITING_FOR_SHARES

    def test_wrong_share_detected_without_poisoning(self):
        """A wrong share is rejected against the member's provisioned share
        commitment — typed, and *before* it enters the Shamir
        reconstruction, so the same member's later correct share still
        recovers the service."""
        service, salvaged = build_failed_service(recovery_threshold=2)
        node = service.new_node()
        start_recovered_service(node, salvaged, "recovered")
        service.run(0.2)
        # First member submits a correct share.
        member = service.members[0]
        member.submit_share(node.node_id, member.fetch_share(node.node_id))
        # Second member submits a corrupted share: typed rejection.
        from repro.crypto import shamir

        bogus = shamir.Share(index=2, value=123456789).encode()
        result = service.members[1].submit_share(node.node_id, bogus)
        assert result.status == 400
        assert "share commitment" in result.error
        # The bogus share did not poison anything: the second member's real
        # share still completes the reconstruction.
        member2 = service.members[1]
        result = member2.submit_share(node.node_id, member2.fetch_share(node.node_id))
        assert result.ok, result.error
        assert result.body["recovered"] is True

    def test_duplicate_share_submission_is_noop(self):
        """Resubmitting the same share (a client retry over a flaky
        network) is a no-op, not an error and not a double count."""
        service, salvaged = build_failed_service(recovery_threshold=2)
        node = service.new_node()
        start_recovered_service(node, salvaged, "recovered")
        service.run(0.2)
        member = service.members[0]
        share = member.fetch_share(node.node_id)
        first = member.submit_share(node.node_id, share)
        assert first.ok and first.body["submitted"] == 1
        again = member.submit_share(node.node_id, share)
        assert again.ok
        assert again.body["duplicate"] is True
        assert again.body["submitted"] == 1
        assert again.body["recovered"] is False

    def test_malformed_share_rejected_typed(self):
        service, salvaged = build_failed_service(recovery_threshold=2)
        node = service.new_node()
        start_recovered_service(node, salvaged, "recovered")
        service.run(0.2)
        result = service.members[0].client.call(
            node.node_id, "/gov/submit_recovery_share", {"share": "abcd"}, signed=True
        )
        assert result.status == 400
        assert "malformed recovery share" in result.error

    def test_recovered_service_accepts_new_writes(self):
        service, salvaged = build_failed_service()
        node, summary = recover(service, salvaged)
        open_recovered(service, summary)
        user = service.any_user_client()
        response = user.call(node.node_id, "/app/write_message", {"id": 100, "msg": "post"})
        assert response.ok
        service.run(0.3)
        status = user.call(node.node_id, "/node/tx", {"txid": response.txid})
        assert status.body["status"] == "Committed"

    def test_new_writes_use_new_ledger_secret_generation(self):
        service, salvaged = build_failed_service()
        node, summary = recover(service, salvaged)
        open_recovered(service, summary)
        user = service.any_user_client()
        response = user.call(node.node_id, "/app/write_message", {"id": 100, "msg": "post"})
        from repro.ledger.entry import TxID

        entry = node.ledger.entry_at(TxID.parse(response.txid).seqno)
        assert entry.secret_generation >= 1

    def test_open_proposal_must_bind_identities(self):
        """Section 5.2: the opening proposal names the old and new service
        identities; a mismatched binding is refused."""
        service, salvaged = build_failed_service()
        node, summary = recover(service, salvaged)
        response = service.members[0].client.call(
            node.node_id, "/gov/propose",
            {"actions": [{"name": "transition_service_to_open", "args": {
                "previous_service_identity": "beef",
                "next_service_identity": "dead"}}]},
            signed=True,
        )
        proposal_id = response.body["proposal_id"]
        state = response.body["state"]
        outcomes = [state]
        for member in service.members:
            if "Accepted" in outcomes:
                break
            vote = member.client.call(
                node.node_id, "/gov/vote",
                {"proposal_id": proposal_id, "ballot": {"approve": True}}, signed=True,
            )
            outcomes.append(vote.body["state"] if vote.ok else vote.error)
        # The accepting vote must fail at apply time (binding check).
        assert "Accepted" not in outcomes


class TestReplayIntegrity:
    def test_replay_detects_tampered_chunk(self):
        """The malicious host modifies a ledger byte: replay must not trust
        anything at or beyond the tampered point."""
        service, salvaged = build_failed_service(writes=10)
        clean = replay_public_ledger(salvaged.clone())
        # Flip a byte in the middle chunk.
        names = salvaged.list_files("ledger_")
        salvaged.tamper_flip_byte(names[len(names) // 2], offset=60)
        try:
            tampered = replay_public_ledger(salvaged)
            assert tampered.verified_seqno < clean.verified_seqno
        except RecoveryError:
            pass  # structurally unreadable is equally acceptable

    def test_replay_survives_rollback_attack_with_detection(self):
        """Truncating the ledger (rollback) yields an older — but valid —
        prefix: the recovery is best-effort and the identity change makes
        the rollback visible to users (section 5.2)."""
        service, salvaged = build_failed_service(writes=10)
        full = replay_public_ledger(salvaged.clone())
        salvaged.tamper_truncate_ledger(keep_chunks=2)
        rolled_back = replay_public_ledger(salvaged)
        assert rolled_back.verified_seqno < full.verified_seqno
        assert rolled_back.verified_seqno > 0

    def test_replay_rejects_empty_storage(self):
        from repro.storage.host_storage import HostStorage

        with pytest.raises(RecoveryError):
            replay_public_ledger(HostStorage())


class TestTornChunkSalvage:
    def test_truncation_at_every_byte_boundary_of_final_chunk(self):
        """A trailing chunk torn at *any* byte boundary is dropped with a
        typed warning; replay still recovers the intact prefix (or fails
        typed when nothing is salvageable) — never an untyped abort."""
        service, salvaged = build_failed_service(writes=6)
        clean = replay_public_ledger(salvaged.clone())
        names = sorted(
            salvaged.list_files("ledger_"), key=lambda n: int(n.split("_")[1])
        )
        final = names[-1]
        size = len(salvaged.read(final))
        for keep in range(size):
            torn = salvaged.clone()
            torn.tamper_truncate_file(final, keep)
            try:
                result = replay_public_ledger(torn)
            except RecoveryError:
                continue  # typed total failure is acceptable
            assert 0 < result.verified_seqno <= clean.verified_seqno
            # Every truncation is reported typed: usually "torn-chunk",
            # or "empty-chunk" when the cut lands right after the header.
            assert any(
                w.filename == final for w in result.warnings
            ), f"truncation at byte {keep} was not reported"

    def test_torn_final_chunk_keeps_prefix_and_warns(self):
        service, salvaged = build_failed_service(writes=8)
        clean = replay_public_ledger(salvaged.clone())
        names = sorted(
            salvaged.list_files("ledger_"), key=lambda n: int(n.split("_")[1])
        )
        final = names[-1]
        salvaged.tamper_truncate_file(final, len(salvaged.read(final)) // 2)
        result = replay_public_ledger(salvaged)
        assert 0 < result.verified_seqno <= clean.verified_seqno
        assert [w.kind for w in result.warnings] == ["torn-chunk"]

    def test_stale_open_chunk_next_to_complete_chunk_is_tolerated(self):
        """A crash can leave both ledger_a_b.open.chunk and the complete
        chunk covering the same range; salvage prefers the complete one."""
        service, salvaged = build_failed_service(writes=8)
        clean = replay_public_ledger(salvaged.clone())
        complete = [
            n for n in salvaged.list_files("ledger_")
            if not n.endswith(".open.chunk")
        ]
        first = sorted(complete, key=lambda n: int(n.split("_")[1]))[0]
        stale_name = first.replace(".chunk", ".open.chunk")
        salvaged.write(stale_name, salvaged.read(first))
        result = replay_public_ledger(salvaged)
        assert result.verified_seqno == clean.verified_seqno
        assert any(w.kind == "overlapping-chunk" for w in result.warnings)

    def test_gap_in_chunks_drops_unreachable_suffix(self):
        service, salvaged = build_failed_service(writes=10)
        clean = replay_public_ledger(salvaged.clone())
        names = sorted(
            salvaged.list_files("ledger_"), key=lambda n: int(n.split("_")[1])
        )
        assert len(names) >= 3
        middle = names[len(names) // 2]
        salvaged.delete(middle)
        result = replay_public_ledger(salvaged)
        assert 0 < result.verified_seqno < clean.verified_seqno
        assert any(w.kind == "gap" for w in result.warnings)
