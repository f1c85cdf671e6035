"""Attested join, the joining side (sections 4.4, 6.2): request admission,
verify the answer, open the sealed key material, take the snapshot's chunks
the primary pushes behind it if one is offered, start consensus. The
admitting half is :mod:`repro.node.membership`.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.consensus.messages import decode_message
from repro.consensus.state import NodeStatus
from repro.crypto.certs import Certificate
from repro.crypto.ct import ct_eq
from repro.crypto.ecdsa import SigningKey
from repro.errors import AttestationError, IntegrityError, KVError, VerificationError
from repro.kv.serialization import decode_value, encode_value
from repro.kv.store import KVStore
from repro.ledger import statetransfer
from repro.ledger.audit import StorageValidation, validate_storage
from repro.ledger.entry import TxID
from repro.ledger.ledger import Ledger
from repro.ledger.receipts import Receipt
from repro.ledger.secrets import LedgerSecret, LedgerSecretStore
from repro.net.channels import SealedMessage
from repro.node import maps
from repro.node.wire import JoinRequest, JoinResponse, StateChunkResponse
from repro.storage.host_storage import HostStorage

# The joiner re-sends its request this often (simulated seconds) until it
# is admitted and its record is committed.
JOIN_RETRY_INTERVAL = 1.0
# Chunks per StateChunkResponse. The admitting primary pushes every chunk a
# joiner lacks as back-to-back responses of this many chunks each.
JOIN_CHUNK_BATCH = 16


@dataclass
class ChunkTransfer:
    """A chunked state transfer between manifest and install."""

    digest: bytes  # of the manifest, as the receipt claims it
    metadata: dict
    ledger: Ledger  # the ledger prefix the manifest describes
    message: JoinResponse
    source: str  # the node serving the chunks
    have: dict[str, bytes]
    missing: list[str]
    cached: int  # chunks found in the local content-addressed cache
    # Consensus payloads that arrived before install, in arrival order;
    # they live and die with the transfer.
    held: list[bytes] = field(default_factory=list)
    fetched: int = 0
    last_progress: int = -1  # ``fetched`` as of the retry timer's last tick


class Join:
    """The joiner's side of the join protocol and its chunk transfer.

    The admitting primary sends the JoinResponse, the chunks the joiner
    lacks and then the ledger suffix on one ordered stream, so the suffix
    normally arrives after install. A suffix frame that overtakes a chunk
    (a delay spike on the chunk) reaches a joiner with no consensus engine
    yet: it holds those payloads, authenticated and replay-checked, on the
    transfer (:meth:`hold`) and dispatches them right after install, so
    the joiner is level with the primary when it starts. An abandoned
    transfer takes its held payloads with it; the retried join
    re-registers the learner at its base, so the suffix is sent again.
    """

    def __init__(self, node) -> None:
        self.node = node  # the hosting CCFNode
        # The operator-provided service identity to join.
        self._expected_service: Certificate | None = None
        self._targets: list[str] = []
        self._transfer: ChunkTransfer | None = None

    def request(self, via_node: str, expected_service: Certificate) -> None:
        """Begin joining an existing service through ``via_node``.

        ``expected_service`` is the operator-provided service identity the
        join response must match (trust anchor for the new node). The
        request is re-sent on a timer until this node is both admitted and
        durably recorded: the request or response can be lost, and the
        admitting primary's PENDING transaction can be rolled back by an
        election before it commits, either of which would otherwise leave
        the joiner stranded forever.
        """
        self._expected_service = expected_service
        self._targets = [via_node]
        self._send_request(via_node)
        self._arm_retry()

    def restart_from_disk(
        self,
        salvaged_storage: HostStorage,
        via_node: str,
        expected_service: Certificate,
        expected_seqno: int | None = None,
    ) -> StorageValidation:
        """Crash-with-disk-intact restart (section 6.2): the machine came
        back but its enclave memory — node identity, ledger secrets — is
        gone, so this is a *new* node that salvages the old disk.

        The salvaged ledger is replayed and its signature transactions
        verified before anything else: corruption or truncation (checked
        against ``expected_seqno`` when the operator knows how far the node
        had persisted) raises :class:`IntegrityError` instead of quietly
        rejoining over bad files. On success the disk is kept — committed
        chunks are content-identical across nodes, so the post-join persist
        path overwrites them in place — and the node rejoins through the
        real attested join path.
        """
        validation = validate_storage(salvaged_storage, expected_seqno=expected_seqno)
        if not validation.intact:
            raise IntegrityError(
                f"salvaged ledger failed validation: {validation.describe()}"
            )
        # ``install`` starts persisting from zero, over the identical prefix.
        self.node.storage = salvaged_storage
        self.request(via_node, expected_service)
        return validation

    def _send_request(self, via_node: str) -> None:
        node = self.node
        public_key = node.node_key.public_key.encode()
        storage = node.storage
        node.network.send(
            node.node_id,
            via_node,
            JoinRequest(
                node_id=node.node_id,
                quote=node.enclave.attest(public_key),
                node_public_key=public_key,
                dh_public=node.dh_key.public,
                # So the primary pushes only what this cache lacks.
                held_chunks=tuple(
                    cid
                    for cid in storage.state_chunk_ids()
                    if statetransfer.cached_chunk(storage, cid) is not None
                ),
            ),
        )

    def _arm_retry(self) -> None:
        # The timer holds this component (and through it the node) weakly:
        # it fires a full retry interval after a crash, and must not keep
        # the crashed node's ledger and store alive until then. The event
        # itself still fires either way.
        ref = weakref.ref(self)

        def tick() -> None:
            self = ref()
            if self is None or self.node.stopped:
                return
            node = self.node
            consensus = node.consensus
            row = (
                node.store.get(maps.NODES_INFO, node.node_id)
                if consensus is not None
                else None
            )
            if row is not None and row.get("status") != NodeStatus.PENDING.value:
                return  # trusted (or retired): joining is over
            orphaned = (
                consensus is not None
                and not consensus.is_primary
                and node.scheduler.now - consensus.last_leader_contact > JOIN_RETRY_INTERVAL
            )
            # ``orphaned`` covers a subtle failure: the admitting primary
            # registered us as a learner, then lost an election; the new
            # primary knows nothing of us (the PENDING transaction rolled
            # back), nobody replicates to us, and our own stale store still
            # shows the rolled-back row — only the leader silence gives the
            # orphaning away.
            transfer = self._transfer
            if transfer is not None:
                # A chunked transfer is in flight. Re-sending the join
                # request now would have the primary push again every
                # chunk not yet cached, duplicating the burst still on its
                # way — so only interfere if the transfer has made no
                # progress since the last tick (a response was lost, or
                # its serving node died mid-stream). The retried request
                # lists what is cached by then, so only the rest is
                # pushed again.
                if transfer.fetched > transfer.last_progress:
                    transfer.last_progress = transfer.fetched
                    node.scheduler.after(JOIN_RETRY_INTERVAL, tick)
                    return
                self._transfer = None
            if consensus is None or row is None or orphaned:
                # Not admitted yet, or our PENDING record was rolled back by
                # an election. Rotate through every node we know about —
                # only the current primary answers, and it may have moved.
                if consensus is not None:
                    for node_id in sorted(consensus.configurations.current.nodes):
                        if node_id not in self._targets and node_id != node.node_id:
                            self._targets.append(node_id)
                target = self._targets.pop(0)
                self._targets.append(target)
                self._send_request(target)
            node.scheduler.after(JOIN_RETRY_INTERVAL, tick)

        self.node.scheduler.after(JOIN_RETRY_INTERVAL, tick)

    # -- The admitting node's answer ------------------------------------

    def on_join_response(self, src: str, message: JoinResponse) -> None:
        node = self.node
        if node.consensus is not None:
            # Already joined: this is a reply to a retried (or duplicated)
            # join request. Re-initializing from it would throw away state.
            return
        if not message.accepted:
            raise AttestationError(f"join rejected: {message.error}")
        service_certificate = Certificate.from_dict(message.service_certificate)
        expected = self._expected_service
        if expected is not None and service_certificate != expected:
            raise VerificationError("join response from an unexpected service")
        service_certificate.verify_self_signed()
        node_certificate = Certificate.from_dict(message.node_certificate)
        node_certificate.verify(service_certificate.public_key)

        for peer, dh_hex in message.peer_dh_publics.items():
            if peer != node.node_id:
                node.channels.establish(peer, bytes.fromhex(dh_hex))

        # Open the sealed key material (channel with the admitting primary
        # was established just above from its published DH key).
        sender, counter, box = message.sealed_secrets
        try:
            payload = node.channels.open(
                SealedMessage(sender=sender, counter=counter, box=box)
            )
        except VerificationError:
            # A duplicated response, or an older one that a newer
            # response overtook (a delay spike), fails the replay counter.
            # Drop it like any replayed sealed message — the in-flight join
            # continues (and the retry timer covers the nothing-in-flight
            # case).
            return
        secret_material = decode_value(payload)
        secrets = LedgerSecretStore()
        for generation, key_bytes, suite in secret_material["ledger_secrets"]:
            secrets.add(LedgerSecret(generation=generation, key_bytes=key_bytes, suite=suite))
        service_key = SigningKey(int.from_bytes(secret_material["service_key_scalar"], "big"))
        if service_key.public_key.encode() != service_certificate.public_key.encode():
            raise VerificationError("received service key does not match the certificate")
        node.adopt_identity(service_certificate, node_certificate, service_key, secrets)

        if message.snapshot_manifest is not None:
            # Verify the manifest against its receipt; the chunks we lack
            # follow on the stream. Joining completes asynchronously in
            # _complete_install.
            self._begin_transfer(src, message)
            return
        self._start_consensus(message, KVStore(), Ledger(secrets), 0)

    def hold(self, payloads: list[bytes]) -> None:
        """Keep consensus payloads that reached this node before install,
        for dispatch right after it. Only a chunk transfer in flight holds
        them; with none they are dropped."""
        if self._transfer is not None:
            self._transfer.held.extend(payloads)

    def _start_consensus(
        self,
        message: JoinResponse,
        store: KVStore,
        ledger: Ledger,
        base_seqno: int,
        held: Sequence[bytes] = (),
    ) -> None:
        consensus = self.node.install(
            store,
            ledger,
            set(message.current_nodes),
            base_seqno=base_seqno,
            # A join without a snapshot has base_seqno 0 and replays the
            # configuration history itself.
            config_base_seqno=min(message.config_base_seqno, base_seqno),
        )
        consensus.start()
        for raw in held:
            consensus.dispatch(decode_message(raw))

    # -- Chunked state transfer -----------------------------------------

    def _begin_transfer(self, src: str, message: JoinResponse) -> None:
        node = self.node
        metadata = message.snapshot_manifest
        receipt = Receipt.from_dict(message.snapshot_receipt)
        receipt.verify(node.service_certificate)
        digest = bytes(statetransfer.manifest_digest(encode_value(metadata)))
        claimed = (receipt.claims or {}).get("snapshot_digest")
        if not ct_eq(claimed, digest.hex()):
            raise VerificationError(
                "snapshot manifest does not match its receipt claims"
            )
        transfer = self._transfer
        if transfer is not None and ct_eq(transfer.digest, digest):
            # Response to a re-sent request for the same snapshot
            # mid-transfer: what is still missing follows it. Don't restart.
            return
        # A manifest of another format, or with a malformed ledger prefix,
        # is rejected here, before any chunk is stored or installed.
        needed = statetransfer.manifest_chunk_ids(metadata)
        ledger = Ledger.from_snapshot_metadata(
            node.enclave.memory.get("ledger_secrets"),
            base_seqno=metadata["base_seqno"],
            view_starts=metadata["view_starts"],
            merkle_frontier=metadata["merkle_frontier"],
            last_signature_txid=TxID(*metadata["last_signature_txid"]),
        )
        # (Re)plan the transfer. Seed from the local content-addressed
        # cache: chunks from a prior partial join or an older snapshot are
        # skipped if their bytes still match their address.
        have: dict[str, bytes] = {}
        for chunk_id in needed:
            blob = statetransfer.cached_chunk(node.storage, chunk_id)
            if blob is not None:
                have[chunk_id] = blob
        self._transfer = ChunkTransfer(
            digest=digest,
            metadata=metadata,
            ledger=ledger,
            message=message,
            source=src,
            have=have,
            missing=[cid for cid in needed if cid not in have],
            cached=len(have),
        )
        obs = node.scheduler.obs
        if obs is not None:
            obs.state_transfer_event(
                node.node_id,
                "manifest",
                base_seqno=metadata["base_seqno"],
                chunks=len(needed),
                cached=len(have),
            )
        if not self._transfer.missing:
            self._complete_install()

    def on_state_chunk_response(self, _src: str, message: StateChunkResponse) -> None:
        node = self.node
        transfer = self._transfer
        if transfer is None or node.consensus is not None:
            return
        if message.base_seqno != transfer.metadata["base_seqno"]:
            return  # stale round from a superseded transfer
        if message.missing:
            # The server no longer holds part of this snapshot (it advanced
            # or changed hands). Abandon the transfer; the join retry timer
            # restarts the handshake cleanly — against whatever snapshot the
            # current primary can actually serve — and everything already
            # cached still dedups on the next attempt.
            obs = node.scheduler.obs
            if obs is not None:
                obs.state_transfer_event(
                    node.node_id, "fallback", missing=len(message.missing)
                )
            self._transfer = None
            return
        wanted = 0
        verified = 0
        still_missing = set(transfer.missing)
        for chunk_id, blob in message.chunks:
            if chunk_id not in still_missing:
                continue  # duplicate (re-sent request): already held
            wanted += 1
            try:
                statetransfer.verify_chunk_blob(chunk_id, blob)
            except VerificationError:
                continue  # leave in missing
            verified += 1
            transfer.have[chunk_id] = blob
            transfer.fetched += 1
            # Streaming install: each verified chunk is persisted into the
            # content-addressed cache immediately, so a crash mid-transfer
            # resumes without re-fetching anything already received.
            node.storage.write_state_chunk(chunk_id, blob)
        if wanted and not verified:
            # Every chunk we still needed from this round failed its content
            # address: the serving host is substituting state, not merely
            # re-sending a stale round. Asking again would loop forever.
            self._transfer = None
            raise VerificationError(
                "state chunks do not match their content addresses"
            )
        transfer.missing = [cid for cid in transfer.missing if cid not in transfer.have]
        if not transfer.missing:
            self._complete_install()
        elif verified < wanted:
            # A chunk failed its address: ask again, listing what is cached
            # now, so the primary pushes only what is still missing.
            self._send_request(transfer.source)

    def _complete_install(self) -> None:
        node = self.node
        transfer = self._transfer
        metadata = transfer.metadata
        secrets: LedgerSecretStore = node.enclave.memory.get("ledger_secrets")
        try:
            store = statetransfer.assemble_store(metadata, transfer.have, secrets)
        except (VerificationError, KVError):
            # A chunk passed its content address but failed decryption or
            # decode — only a mis-sealed producer can cause this. Drop the
            # transfer; the retry timer falls back to a fresh join.
            self._transfer = None
            raise
        base_seqno = metadata["base_seqno"]
        obs = node.scheduler.obs
        if obs is not None:
            obs.state_chunks_progress(node.node_id, transfer.fetched, transfer.cached)
            obs.state_transfer_event(
                node.node_id,
                "installed",
                base_seqno=base_seqno,
                fetched=transfer.fetched,
                cached=transfer.cached,
            )
        self._transfer = None
        self._start_consensus(
            transfer.message, store, transfer.ledger, base_seqno, transfer.held
        )
