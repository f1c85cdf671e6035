"""Nodes entering and leaving the service (sections 4.4, 4.5, 6.1): the
primary admits an attested joiner as a PENDING learner (the joiner's half is
:mod:`repro.node.join`) and records RETIRED once a retirement commits.
"""

from __future__ import annotations

import dataclasses

from repro.consensus import raft
from repro.consensus.state import NodeStatus
from repro.crypto.certs import issue
from repro.crypto.ecdsa import VerifyingKey
from repro.errors import AttestationError
from repro.kv.serialization import encode_value
from repro.kv.tx import WriteSet
from repro.ledger.secrets import LedgerSecretStore
from repro.node import maps
from repro.node.wire import JoinRequest, JoinResponse
from repro.perf.costmodel import state_transfer_cost
from repro.tee.attestation import verify_quote


class Membership:
    """Admits joiners and completes retirements; tracks each node's last
    committed status for the latter."""

    def __init__(self, node) -> None:
        self.node = node  # the hosting CCFNode
        self._committed_statuses: dict[str, str] = {}

    def on_join_request(self, _src: str, message: JoinRequest) -> None:
        node = self.node
        consensus = node.consensus
        if consensus is None or not consensus.is_primary:
            # Only the primary admits nodes, but the joiner may be pointed
            # at a backup (the primary can change while it retries). Relay
            # toward our current leader — one hop only, so two nodes with
            # stale leader hints cannot bounce a request forever.
            if (
                not message.forwarded
                and consensus is not None
                and consensus.leader_id
                and consensus.leader_id != node.node_id
            ):
                node.network.send(
                    node.node_id,
                    consensus.leader_id,
                    dataclasses.replace(message, forwarded=True),
                )
            return
        allowed = {code_id for code_id, _v in node.store.items(maps.NODES_CODE_IDS)}
        try:
            verify_quote(
                message.quote,
                node.hardware.public_key,
                allowed,
                expected_report_data=message.node_public_key,
                # Only a virtual-mode service (section 6.4) admits an
                # unattested virtual joiner.
                accept_virtual=node.config.platform == "virtual",
            )
        except AttestationError as exc:
            node.network.send(
                node.node_id, message.node_id,
                JoinResponse(accepted=False, error=str(exc)),
            )
            return
        # Attestation verified: the secrets may now be shared (section 6.1).
        node.channels.establish(message.node_id, message.dh_public)
        service_key = node.enclave.memory.get("service_key")
        node_certificate = issue(
            message.node_id,
            # The joining node's identity key, straight from the quote.
            VerifyingKey.decode(message.node_public_key),
            node.service_certificate.subject,
            service_key,
        )
        secrets: LedgerSecretStore = node.enclave.memory.get("ledger_secrets")
        secret_rows = [
            [g, secrets.for_generation(g).key_bytes, secrets.for_generation(g).suite]
            for g in secrets.generations()
        ]
        # The service key and ledger secrets travel sealed: only the attested
        # enclave that presented this DH key can open them (section 6.1).
        secrets_payload = encode_value(
            {
                "ledger_secrets": secret_rows,
                "service_key_scalar": service_key.scalar.to_bytes(32, "big"),
            }
        )
        sealed = node.channels.seal(message.node_id, secrets_payload)
        peer_dh = {
            node_id: info["dh_public"]
            for node_id, info in node.store.items(maps.NODES_INFO)
            if info.get("dh_public")
        }
        # A snapshot ships its manifest here and the chunks the joiner
        # lacks right behind it. Without one the joiner starts empty and
        # replays the whole ledger.
        snapshot = node.snapshots.latest
        manifest = snapshot.metadata if snapshot is not None else None
        response = JoinResponse(
            accepted=True,
            service_certificate=node.service_certificate.to_dict(),
            node_certificate=node_certificate.to_dict(),
            sealed_secrets=(sealed.sender, sealed.counter, sealed.box),
            snapshot_receipt=snapshot.receipt if snapshot is not None else None,
            snapshot_manifest=manifest,
            current_nodes=tuple(sorted(consensus.configurations.current.nodes)),
            config_base_seqno=consensus.configurations.current.seqno,
            peer_dh_publics=peer_dh,
        )
        # Record the node as PENDING (Listing 2's first transaction) with
        # its join metadata, then start replicating to it as a learner.
        # Joiners re-send until admitted, so this must be idempotent: an
        # already-recorded node keeps its row (a re-write would demote a
        # TRUSTED node back to PENDING), and a configuration member is not
        # re-added as a learner.
        if node.store.get(maps.NODES_INFO, message.node_id) is None:
            write_set = WriteSet()
            row = {
                "status": NodeStatus.PENDING.value,
                "public_key": message.node_public_key.hex(),
                "dh_public": message.dh_public.hex(),
                "platform": message.quote.platform,
                "code_id": message.quote.code_id,
            }
            write_set.put(maps.NODES_INFO, message.node_id, row)
            node.append_local_entry(write_set)
        next_seqno = (manifest or {}).get("base_seqno", 0) + 1
        if message.node_id not in consensus.configurations.current.nodes:
            consensus.add_learner(message.node_id, next_seqno)
        # Reply to the joiner itself — with forwarding, the sender may be
        # the relaying backup rather than the joining node. Shipping the
        # manifest costs wire time proportional to its size. With a
        # snapshot, the chunks the joiner lacks and then its ledger suffix
        # follow on the same ordered stream, so the joiner installs and is
        # level with this node one round trip after asking; it holds
        # suffix frames that overtake a chunk until it installs
        # (:class:`repro.node.join.Join`). The suffix is not sent when the
        # joiner will abandon the transfer for ``missing`` chunks.
        state_bytes = len(snapshot.manifest) if snapshot is not None else 0
        node.network.send(
            node.node_id,
            message.node_id,
            response,
            extra_delay=state_transfer_cost(state_bytes),
            ordered=True,
        )
        if (
            snapshot is not None
            and node.snapshots.push(message.node_id, message.held_chunks)
            and message.node_id in consensus.learners
        ):
            consensus.replicate_to(message.node_id)

    # -- Retirement -----------------------------------------------------

    def on_committed_status(self, node_id: str, status: str | None) -> None:
        """A ``nodes.info`` row for ``node_id`` committed with ``status``."""
        if status is None:
            return
        node = self.node
        self._committed_statuses[node_id] = status
        if node_id == node.node_id and status in (
            NodeStatus.RETIRING.value,
            NodeStatus.RETIRED.value,
        ):
            # Our own retirement is committed: stop writing, stay online
            # to replicate and vote until shut down (section 4.5).
            node.consensus.freeze_writes()
        if status == NodeStatus.RETIRED.value and node_id != node.node_id:
            # Keep replicating briefly so the retired node itself learns
            # its retirement committed (it stays online until the operator
            # shuts it down, section 4.5), then stop.
            grace = 2 * raft.ELECTION_TIMEOUT_MAX

            def drop() -> None:
                if not node.stopped and node.consensus is not None:
                    node.consensus.remove_learner(node_id)

            node.scheduler.after(grace, drop)

    def complete_retirements(self) -> None:
        """Second retirement step (section 4.5), on the primary: once a
        RETIRING reconfiguration is committed, record RETIRED. A row the
        store already shows past RETIRING is this primary's own RETIRED
        append waiting to commit; an election rolls both back together."""
        node = self.node
        for node_id, status in list(self._committed_statuses.items()):
            if status != NodeStatus.RETIRING.value:
                continue
            row = node.store.get(maps.NODES_INFO, node_id)
            if isinstance(row, dict) and row.get("status") == NodeStatus.RETIRING.value:
                write_set = WriteSet()
                write_set.put(
                    maps.NODES_INFO, node_id, dict(row, status=NodeStatus.RETIRED.value)
                )
                node.append_local_entry(write_set)
                node.request_signature(immediate=True)
