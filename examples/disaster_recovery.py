#!/usr/bin/env python3
"""Disaster recovery walkthrough (section 5.2).

Every node of a service fails simultaneously. An operator salvages the
ledger files from one host's disk and starts a recovery node:

1. public state is replayed and verified against signature transactions;
2. the recovered service presents a **new identity** (detectable by users);
3. consortium members decrypt their recovery shares and submit them;
4. the ledger-secret wrapping key is reconstructed in the TEE (k-of-n
   Shamir) and the private state decrypted;
5. members vote to open the service, binding old and new identities.

The member moves are :class:`CCFService` methods — the same ones the seeded
disaster schedules (:mod:`repro.sim.disaster`) and
``tests/service/test_disaster_recovery`` drive, so this walkthrough
exercises exactly the code those runs do.

Run:  python examples/disaster_recovery.py
"""

from repro.node.config import NodeConfig
from repro.recovery.recovery import start_recovered_service
from repro.service.client import ContinuityTracker
from repro.service.service import CCFService, ServiceSetup


def main() -> None:
    setup = ServiceSetup(
        n_nodes=3,
        n_members=3,
        recovery_threshold=2,  # any 2 of the 3 members can recover
        node_config=NodeConfig(signature_interval=5),
    )
    service = CCFService(setup)
    service.bootstrap()
    user = service.any_user_client()
    primary = service.primary_node()
    tracker = ContinuityTracker(user)
    tracker.pin_identity(primary.node_id)

    for i in range(10):
        response = user.call(primary.node_id, "/app/write_message",
                             {"id": i, "msg": f"confidential record {i}"})
        if response.ok and response.txid:
            tracker.record_ack(response.txid)
    service.run(0.5)
    old_identity = primary.service_certificate
    print(f"service running; {primary.ledger.last_seqno} transactions on the ledger")

    # --- catastrophe: every node dies at once -------------------------
    salvaged_disk = primary.storage.clone()  # the operator saves one disk
    for node_id in list(service.nodes):
        service.kill_node(node_id)
    print("all nodes failed; one host's ledger files salvaged")

    # --- recovery node -------------------------------------------------
    recovery_node = service.new_node()
    summary = start_recovered_service(recovery_node, salvaged_disk, "ledger-svc-recovered")
    service.run(0.2)
    print(f"public state replayed and verified through seqno "
          f"{summary['verified_seqno']}")
    new_identity = recovery_node.service_certificate
    print(f"new service identity: {new_identity.subject} "
          f"(differs from old: {old_identity.public_key.encode() != new_identity.public_key.encode()})")

    # --- members submit recovery shares -------------------------------
    recovered = service.submit_recovery_shares()
    print(f"recovery shares submitted (private state recovered: {recovered})")

    # --- members vote to open the recovered service --------------------
    service.open_service(summary)
    print("opening proposal accepted; the recovered service is open")
    service.run(0.3)

    # --- the recovery is *detectable*: the client's audit reports the
    # --- identity change as a typed finding ----------------------------
    for finding in tracker.audit(recovery_node.node_id):
        print(f"  client finding: {type(finding).__name__}: {finding}")
    tracker.accept_identity(recovery_node.node_id)

    # --- the private data is back --------------------------------------
    for i in (0, 5, 9):
        response = user.call(recovery_node.node_id, "/app/read_message", {"id": i})
        print(f"  recovered record {i}: {response.body['msg']!r}")


if __name__ == "__main__":
    main()
