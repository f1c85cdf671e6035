"""Built-in endpoints common to every CCF service (sections 3.2, 3.5, 6.4).

- ``tx`` — transaction status (Figure 4) for a transaction ID.
- ``commit`` — the current commit point.
- ``receipt`` — an offline-verifiable receipt for a committed transaction.
- ``network`` — node membership and statuses.
- ``service_info`` — service identity and lifecycle status.
- ``quote`` — this node's attestation quote.

All built-ins are read-only and unauthenticated (they expose only public,
integrity-protected facts), and can be served by any node (section 4.3).
"""

from __future__ import annotations

from repro.app.application import Endpoint
from repro.app.context import RequestContext
from repro.crypto.certs import Certificate, issue
from repro.crypto.ecdsa import VerifyingKey
from repro.errors import AuthorizationError, IntegrityError, KVError
from repro.ledger.entry import TxID
from repro.ledger.receipts import issue_receipt
from repro.node import maps


def _tx_status(ctx: RequestContext):
    txid = TxID.parse(ctx.request.body["txid"])
    return {"txid": str(txid), "status": ctx.node.tx_status(txid)}


def _commit(ctx: RequestContext):
    node = ctx.node
    commit_seqno = node.consensus.commit_seqno
    txid = node.ledger.txid_at(commit_seqno) if commit_seqno else TxID(0, 0)
    return {"txid": str(txid), "seqno": commit_seqno, "view": txid.view}


def _certificate_for(node, node_id: str) -> Certificate:
    """The service-endorsed identity certificate for ``node_id``.

    Trusted nodes share the service key (Table 1), so any of them can
    produce the endorsement for a peer's recorded public key.
    """
    if node_id == node.node_id:
        return node.node_certificate
    row = node.store.get(maps.NODES_INFO, node_id)
    if not isinstance(row, dict) or "public_key" not in row:
        raise KVError(f"no recorded identity for node {node_id}")
    return issue(
        node_id,
        VerifyingKey.decode(bytes.fromhex(row["public_key"])),
        node.service_certificate.subject,
        node.enclave.memory.get("service_key"),
    )


def _receipt(ctx: RequestContext):
    node = ctx.node
    txid = TxID.parse(ctx.request.body["txid"])
    if not node.ledger.has_txid(txid):
        raise AuthorizationError(f"transaction {txid} is not in this node's ledger")
    if txid.seqno > node.consensus.commit_seqno:
        raise IntegrityError(f"transaction {txid} is not yet committed")
    # The receipt embeds the certificate of the node whose signature
    # transaction anchors it — not necessarily the serving node.
    signature_seqno = node.ledger.next_signature_seqno(txid.seqno)
    if signature_seqno is None:
        raise IntegrityError(f"no signature transaction after {txid} yet")
    signer = node.ledger.signature_record(signature_seqno).node_id
    # If this node executed the transaction it retains the claims; expose
    # them when the caller asks (they verify against the leaf's digest).
    claims = None
    if ctx.request.body.get("with_claims"):
        claims = node.claims_at(txid.seqno)
    receipt = issue_receipt(
        node.ledger, txid.seqno, _certificate_for(node, signer), claims=claims
    )
    return {"receipt": receipt.to_dict()}


def _network(ctx: RequestContext):
    nodes = {
        node_id: {"status": info.get("status"), "platform": info.get("platform")}
        for node_id, info in ctx.items(maps.NODES_INFO)
        if isinstance(info, dict)
    }
    primary = ctx.node.consensus.leader_id if ctx.node.consensus else None
    return {"nodes": nodes, "primary": primary, "view": ctx.node.consensus.view}


def _service_info(ctx: RequestContext):
    info = ctx.get(maps.SERVICE_INFO, "service") or {}
    return dict(info)


def _quote(ctx: RequestContext):
    node = ctx.node
    quote = node.enclave.attest(node.node_key.public_key.encode())
    return {"quote": quote.to_dict()}


def _consensus(ctx: RequestContext):
    """Consensus-layer introspection: view, role, commit, configurations."""
    consensus = ctx.node.consensus
    return {
        "node_id": ctx.node.node_id,
        "view": consensus.view,
        "role": consensus.role.value,
        "leader": consensus.leader_id,
        "commit_seqno": consensus.commit_seqno,
        "last_seqno": ctx.node.ledger.last_seqno,
        "configurations": [
            {"seqno": config.seqno, "nodes": sorted(config.nodes)}
            for config in consensus.configurations.active
        ],
        "view_history": [
            {"view": start.view, "first_seqno": start.first_seqno}
            for start in consensus.view_history.starts()
        ],
    }


BUILTIN_ENDPOINTS: dict[str, Endpoint] = {
    "tx": Endpoint(name="tx", handler=_tx_status, auth_policy="no_auth", read_only=True),
    "commit": Endpoint(name="commit", handler=_commit, auth_policy="no_auth", read_only=True),
    "receipt": Endpoint(name="receipt", handler=_receipt, auth_policy="no_auth", read_only=True),
    "network": Endpoint(name="network", handler=_network, auth_policy="no_auth", read_only=True),
    "service_info": Endpoint(
        name="service_info", handler=_service_info, auth_policy="no_auth", read_only=True
    ),
    "quote": Endpoint(name="quote", handler=_quote, auth_policy="no_auth", read_only=True),
    "consensus": Endpoint(
        name="consensus", handler=_consensus, auth_policy="no_auth", read_only=True
    ),
}
