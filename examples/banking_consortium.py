#!/usr/bin/env python3
"""The banking consortium from the paper's overview (section 2).

A service managed by a consortium of financial institutions: credit, debit,
and transfer endpoints over confidential account state; an audit endpoint
restricted to a financial regulator (the anti-money-laundering scenario of
section 1); and a statement endpoint built on an application-defined index
over the ledger (section 3.4).

Run:  python examples/banking_consortium.py
"""

from repro.app.banking_app import build_banking_app
from repro.node.config import NodeConfig
from repro.service.service import CCFService, ServiceSetup


def main() -> None:
    setup = ServiceSetup(
        n_nodes=3,
        n_members=3,  # three banks form the consortium
        n_users=2,  # u0: bank clerk, u1: the financial regulator
        node_config=NodeConfig(signature_interval=10),
        app_factory=build_banking_app,
    )
    service = CCFService(setup)
    service.bootstrap()
    primary = service.primary_node()
    clerk = service.user_clients[0]
    regulator_client = service.user_clients[1]

    # Register u1 as a regulator in the app's public policy map.
    tx = primary.store.begin()
    tx.put("public:regulators", service.users[1].subject, {"role": "regulator"})
    primary.append_local_entry(tx.write_set)
    service.run(0.2)

    # Open accounts across two banks.
    for account_id, owner, bank, balance in [
        ("alice-checking", "alice", "bank-a", 12_000),
        ("alice-savings", "alice", "bank-b", 40_000),
        ("bob-checking", "bob", "bank-a", 3_000),
    ]:
        clerk.call(primary.node_id, "/app/open_account", {
            "account_id": account_id, "owner": owner,
            "bank": bank, "balance_usd": balance})
    print("accounts opened")

    # A cross-bank transfer — one atomic transaction over two accounts,
    # with verifiable claims attached for third-party proof (section 3.5).
    transfer = clerk.call(primary.node_id, "/app/transfer", {
        "from": "alice-savings", "to": "bob-checking", "amount_usd": 2_500})
    print(f"transfer executed: txid={transfer.txid}")

    # Interest applied to every bank-a account atomically.
    interest = clerk.call(primary.node_id, "/app/apply_interest", {
        "bank": "bank-a", "rate_basis_points": 150})
    print(f"interest applied to {interest.body['accounts_updated']} bank-a accounts")

    # Balances after the updates.
    for account_id in ("alice-checking", "alice-savings", "bob-checking"):
        response = clerk.call(primary.node_id, "/app/balance", {"account_id": account_id})
        print(f"  {account_id}: ${response.body['balance_usd']:,}")

    # The regulator's audit: owners whose total funds exceed $30k. The
    # regulator never sees balances — only the flagged names.
    audit = regulator_client.call(primary.node_id, "/app/audit", {"threshold_usd": 30_000})
    print(f"audit (>$30k total): {audit.body['owners']}")

    # The clerk cannot audit.
    denied = clerk.call(primary.node_id, "/app/audit", {"threshold_usd": 0})
    print(f"clerk audit attempt: HTTP {denied.status} ({denied.error})")

    # Account statement via the key-write index + historical queries.
    service.run(0.3)
    statement = clerk.call(primary.node_id, "/app/get_statement",
                           {"account_id": "bob-checking"})
    print("bob-checking statement:")
    for row in statement.body["statement"]:
        print(f"  {row['txid']}: balance ${row['balance_usd']:,}")


if __name__ == "__main__":
    main()
