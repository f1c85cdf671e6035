"""The banking application from section 2 running on a full service."""

import pytest

from repro.app.banking_app import build_banking_app
from repro.node import maps

from tests.node.conftest import make_service


@pytest.fixture(scope="module")
def bank():
    """A consortium-of-banks service with seeded accounts."""
    service = make_service(n_nodes=3, app_factory=build_banking_app, n_users=2)
    user = service.any_user_client()
    primary = service.primary_node()
    accounts = [
        ("acc-alice-1", "alice", "bank-a", 1000),
        ("acc-alice-2", "alice", "bank-b", 9500),
        ("acc-bob-1", "bob", "bank-a", 500),
    ]
    for account_id, owner, bank_name, balance in accounts:
        response = user.call(primary.node_id, "/app/open_account", {
            "account_id": account_id, "owner": owner,
            "bank": bank_name, "balance_usd": balance,
        })
        assert response.ok, response.error
    service.run(0.3)
    return service


def call(service, path, body, client=None):
    client = client or service.any_user_client()
    return client.call(service.primary_node().node_id, path, body)


class TestBankingEndpoints:
    def test_balance(self, bank):
        response = call(bank, "/app/balance", {"account_id": "acc-bob-1"})
        assert response.body["balance_usd"] == 500

    def test_credit_and_debit(self, bank):
        call(bank, "/app/credit", {"account_id": "acc-bob-1", "amount_usd": 250})
        response = call(bank, "/app/debit", {"account_id": "acc-bob-1", "amount_usd": 100})
        assert response.body["balance_usd"] == 650
        # Restore for other tests.
        call(bank, "/app/debit", {"account_id": "acc-bob-1", "amount_usd": 150})

    def test_insufficient_funds(self, bank):
        response = call(bank, "/app/debit", {"account_id": "acc-bob-1", "amount_usd": 10**9})
        assert response.status == 403
        assert "insufficient funds" in response.error

    def test_failed_debit_leaves_balance_untouched(self, bank):
        before = call(bank, "/app/balance", {"account_id": "acc-bob-1"}).body["balance_usd"]
        call(bank, "/app/debit", {"account_id": "acc-bob-1", "amount_usd": 10**9})
        after = call(bank, "/app/balance", {"account_id": "acc-bob-1"}).body["balance_usd"]
        assert before == after

    def test_transfer_is_atomic(self, bank):
        a_before = call(bank, "/app/balance", {"account_id": "acc-alice-1"}).body["balance_usd"]
        b_before = call(bank, "/app/balance", {"account_id": "acc-bob-1"}).body["balance_usd"]
        response = call(bank, "/app/transfer", {
            "from": "acc-alice-1", "to": "acc-bob-1", "amount_usd": 123})
        assert response.ok
        a_after = call(bank, "/app/balance", {"account_id": "acc-alice-1"}).body["balance_usd"]
        b_after = call(bank, "/app/balance", {"account_id": "acc-bob-1"}).body["balance_usd"]
        assert a_after == a_before - 123
        assert b_after == b_before + 123

    def test_transfer_receipt_carries_claims(self, bank):
        """Section 3.5: the transfer's claims are provable to a third party."""
        from repro.ledger.receipts import Receipt

        response = call(bank, "/app/transfer", {
            "from": "acc-alice-2", "to": "acc-bob-1", "amount_usd": 77})
        bank.run(0.3)
        primary = bank.primary_node()
        from repro.ledger.entry import TxID
        from repro.ledger.receipts import issue_receipt

        seqno = TxID.parse(response.txid).seqno
        claims = {"transfer": {"from": "acc-alice-2", "to": "acc-bob-1", "amount_usd": 77}}
        receipt = issue_receipt(
            primary.ledger, seqno, primary.node_certificate, claims=claims
        )
        receipt.verify(primary.service_certificate)
        forged = Receipt(
            txid=receipt.txid, leaf_data=receipt.leaf_data, proof=receipt.proof,
            signature=receipt.signature, node_certificate=receipt.node_certificate,
            claims={"transfer": {"from": "acc-alice-2", "to": "acc-bob-1",
                                 "amount_usd": 77_000_000}},
        )
        from repro.errors import IntegrityError

        with pytest.raises(IntegrityError):
            forged.verify(primary.service_certificate)

    def test_apply_interest_updates_one_bank(self, bank):
        before_a = call(bank, "/app/balance", {"account_id": "acc-alice-1"}).body["balance_usd"]
        before_b = call(bank, "/app/balance", {"account_id": "acc-alice-2"}).body["balance_usd"]
        response = call(bank, "/app/apply_interest", {
            "bank": "bank-a", "rate_basis_points": 100})  # +1%
        assert response.ok
        after_a = call(bank, "/app/balance", {"account_id": "acc-alice-1"}).body["balance_usd"]
        after_b = call(bank, "/app/balance", {"account_id": "acc-alice-2"}).body["balance_usd"]
        assert after_a == before_a + before_a // 100
        assert after_b == before_b  # bank-b untouched

    def test_audit_restricted_to_regulators(self, bank):
        response = call(bank, "/app/audit", {"threshold_usd": 1000})
        assert response.status == 403

    def test_audit_flags_rich_owners(self, bank):
        """The anti-money-laundering query of section 1: a regulator learns
        which owners exceed a threshold — and nothing else."""
        primary = bank.primary_node()
        # Register u1 as a regulator (public map, via a direct write for the
        # test — in production this is an app/governance decision).
        user_client = bank.user_clients[1]
        tx = primary.store.begin()
        tx.put("public:regulators", bank.users[1].subject, {"role": "regulator"})
        primary.append_local_entry(tx.write_set)
        bank.run(0.2)
        response = user_client.call(
            primary.node_id, "/app/audit", {"threshold_usd": 5000},
        )
        assert response.ok, response.error
        assert response.body["owners"] == ["alice"]

    def test_get_statement_uses_index_and_history(self, bank):
        call(bank, "/app/credit", {"account_id": "acc-bob-1", "amount_usd": 11})
        call(bank, "/app/credit", {"account_id": "acc-bob-1", "amount_usd": 22})
        bank.run(0.3)
        response = call(bank, "/app/get_statement", {"account_id": "acc-bob-1"})
        assert response.ok
        statement = response.body["statement"]
        assert len(statement) >= 3  # open + credits/debits above
        balances = [row["balance_usd"] for row in statement]
        assert balances[-1] - balances[-2] == 22
