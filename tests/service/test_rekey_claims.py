"""Tests for ledger rekeying and claims-bearing receipts."""

import pytest

from repro.ledger.entry import TxID
from repro.ledger.receipts import Receipt
from repro.node import maps
from repro.recovery.recovery import start_recovered_service

from tests.node.conftest import make_service


class TestLedgerRekey:
    @pytest.fixture
    def service(self):
        return make_service(n_nodes=3)

    def _rekey(self, service):
        service.run_governance([{"name": "trigger_ledger_rekey", "args": {}}])
        service.run(0.5)

    def test_rekey_advances_generation_on_all_nodes(self, service):
        self._rekey(service)
        for node in service.nodes.values():
            secrets = node.enclave.memory.get("ledger_secrets")
            assert secrets.current().generation == 1
            assert secrets.generations() == [0, 1]

    def test_all_nodes_derive_identical_secret(self, service):
        self._rekey(service)
        keys = {
            node.enclave.memory.get("ledger_secrets").current().key_bytes
            for node in service.nodes.values()
        }
        assert len(keys) == 1
        old_keys = {
            node.enclave.memory.get("ledger_secrets").for_generation(0).key_bytes
            for node in service.nodes.values()
        }
        assert keys != old_keys

    def test_new_writes_use_new_generation_old_still_readable(self, service):
        user = service.any_user_client()
        primary = service.primary_node()
        old_write = user.call(primary.node_id, "/app/write_message",
                              {"id": 1, "msg": "pre-rekey"})
        self._rekey(service)
        new_write = user.call(service.primary_node().node_id, "/app/write_message",
                              {"id": 2, "msg": "post-rekey"})
        primary = service.primary_node()
        old_entry = primary.ledger.entry_at(TxID.parse(old_write.txid).seqno)
        new_entry = primary.ledger.entry_at(TxID.parse(new_write.txid).seqno)
        assert old_entry.secret_generation == 0
        assert new_entry.secret_generation == 1
        # Both decrypt with the store's generations.
        assert primary.ledger.decrypt_private(old_entry).updates["records"][1] == "pre-rekey"
        assert primary.ledger.decrypt_private(new_entry).updates["records"][2] == "post-rekey"

    def test_recovery_shares_reprovisioned(self, service):
        before = service.primary_node().store.get(maps.LEDGER_SECRET, "current")
        self._rekey(service)
        after = service.primary_node().store.get(maps.LEDGER_SECRET, "current")
        assert after["generation"] == 1
        assert after["wrapped"] != before["wrapped"]

    def test_disaster_recovery_after_rekey(self, service):
        """Recovery with the *new* shares restores both generations' data."""
        user = service.any_user_client()
        primary = service.primary_node()
        user.call(primary.node_id, "/app/write_message", {"id": 1, "msg": "old-gen"})
        self._rekey(service)
        primary = service.primary_node()
        user.call(primary.node_id, "/app/write_message", {"id": 2, "msg": "new-gen"})
        service.run(0.5)
        salvaged = primary.storage.clone()
        for node_id in list(service.nodes):
            service.kill_node(node_id)
        node = service.new_node()
        start_recovered_service(node, salvaged, "recovered")
        service.run(0.2)
        assert service.submit_recovery_shares(service.members[:2])
        # Both generations are recovered: the rekey re-wrapped generation 0
        # under the new wrapping key, so the whole history decrypts.
        assert node.store.get("records", 2) == "new-gen"
        assert node.store.get("records", 1) == "old-gen"
        secrets = node.enclave.memory.get("ledger_secrets")
        assert 0 in secrets.generations()
        assert 1 in secrets.generations()

    def test_joiner_receives_all_generations(self, service):
        self._rekey(service)
        node = service.add_node()
        secrets = node.enclave.memory.get("ledger_secrets")
        assert secrets.generations() == [0, 1]


class TestClaimsReceipts:
    def test_receipt_endpoint_exposes_claims(self):
        from repro.app.banking_app import build_banking_app

        service = make_service(n_nodes=1, app_factory=build_banking_app)
        user = service.any_user_client()
        primary = service.primary_node()
        for account_id in ("a", "b"):
            user.call(primary.node_id, "/app/open_account", {
                "account_id": account_id, "owner": account_id,
                "bank": "bank-x", "balance_usd": 1000})
        transfer = user.call(primary.node_id, "/app/transfer",
                             {"from": "a", "to": "b", "amount_usd": 250})
        service.run(0.3)
        response = user.call(primary.node_id, "/node/receipt",
                             {"txid": transfer.txid, "with_claims": True})
        assert response.ok, response.error
        receipt = Receipt.from_dict(response.body["receipt"])
        assert receipt.claims == {
            "transfer": {"from": "a", "to": "b", "amount_usd": 250}}
        receipt.verify(primary.service_certificate)

    def test_receipt_without_claims_flag_omits_them(self):
        from repro.app.banking_app import build_banking_app

        service = make_service(n_nodes=1, app_factory=build_banking_app)
        user = service.any_user_client()
        primary = service.primary_node()
        for account_id in ("a", "b"):
            user.call(primary.node_id, "/app/open_account", {
                "account_id": account_id, "owner": account_id,
                "bank": "bank-x", "balance_usd": 1000})
        transfer = user.call(primary.node_id, "/app/transfer",
                             {"from": "a", "to": "b", "amount_usd": 1})
        service.run(0.3)
        response = user.call(primary.node_id, "/node/receipt", {"txid": transfer.txid})
        receipt = Receipt.from_dict(response.body["receipt"])
        assert receipt.claims is None
        receipt.verify(primary.service_certificate)
