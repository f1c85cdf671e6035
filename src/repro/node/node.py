"""The CCF node: enclave, KV store, ledger, consensus, and frontend.

This is Figure 2 assembled: application logic and the transaction handler
execute inside the (simulated) TEE against the key-value store; the
consensus layer replicates the resulting ledger; the untrusted host provides
storage and networking. One :class:`CCFNode` is one simulated machine.

Request lifecycle (sections 3.1, 4.3):

1. A user request arrives over the (simulated) TLS session.
2. It occupies a worker thread for its calibrated service time.
3. The endpoint's auth policy runs, then the handler executes in a
   transaction; writes go to the primary (forwarded if needed).
4. The write set becomes a ledger entry; the user gets an immediate reply
   carrying the transaction ID (local execution guarantee); commit can be
   polled via the built-in ``tx`` endpoint (global commit guarantee).
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Callable

from repro.app.application import Application
from repro.app.context import Caller, Request, RequestContext, Response
from repro.consensus.messages import decode_message, encode_message
from repro.consensus.raft import ConsensusNode
from repro.consensus.state import NodeStatus
from repro.crypto.certs import Certificate, issue
from repro.crypto.ct import ct_eq
from repro.crypto.ecdsa import SigningKey, VerifyingKey
from repro.crypto.x25519 import DHPrivateKey
from repro.errors import (
    AttestationError,
    AuthenticationError,
    AuthorizationError,
    CCFError,
    KVError,
    ReadBehindError,
    ReadRolledBackError,
    ServiceUnavailableError,
    VerificationError,
)
from repro.kv.serialization import decode_value, encode_value
from repro.kv.store import KVStore
from repro.kv.tx import Transaction, WriteSet
from repro.ledger.entry import EntryKind, LedgerEntry, TxID
from repro.ledger.ledger import Ledger
from repro.ledger.receipts import Receipt, issue_receipt
from repro.ledger.secrets import LedgerSecret, LedgerSecretStore
from repro.ledger import statetransfer
from repro.ledger.chunking import chunk_entries
from repro.net.channels import FrameAssembler, NodeChannels, SealedMessage
from repro.net.network import Network
from repro.node import auth as auth_module
from repro.node import maps
from repro.node.config import NodeConfig
from repro.node.indexer import Indexer
from repro.node.wire import (
    ChannelHello,
    ClientRequest,
    ClientResponse,
    ForwardedRequest,
    ForwardedResponse,
    FrameSegment,
    PendingFrame,
    JoinRequest,
    JoinResponse,
    StateChunkRequest,
    StateChunkResponse,
)
from repro.sim.scheduler import Scheduler
from repro.storage.host_storage import HostStorage
from repro.tee.attestation import HardwareRoot, verify_quote
from repro.tee.enclave import Enclave


class CCFNode:
    """One CCF node (host + enclave)."""

    def __init__(
        self,
        node_id: str,
        scheduler: Scheduler,
        network: Network,
        hardware: HardwareRoot,
        app: Application,
        config: NodeConfig,
        code_id: str,
        governance_app: Application | None = None,
    ):
        self.node_id = node_id
        self.scheduler = scheduler
        self.network = network
        self.config = config
        self.app = app
        self.governance_app = governance_app
        self.cost = config.resolve_cost_model()

        self.enclave = Enclave(config.platform, code_id, hardware)
        self._hardware = hardware
        # Fresh node identity per instantiation (nodes are ephemeral,
        # section 6.2): derived from node id + a per-run nonce.
        key_seed = node_id.encode() + scheduler.rng.getrandbits(64).to_bytes(8, "big")
        self.node_key = SigningKey.generate(key_seed)
        self.enclave.memory.put("node_key", self.node_key)
        self.dh_key = DHPrivateKey.generate(key_seed + b"|dh")
        self.channels = NodeChannels(node_id, self.dh_key)

        self.store: KVStore | None = None
        self.ledger: Ledger | None = None
        self.consensus: ConsensusNode | None = None
        self.storage = HostStorage()
        self.indexer = Indexer()
        for name, factory in app.indexing_strategies.items():
            del name
            self.indexer.install(factory())

        self.service_certificate: Certificate | None = None
        self.node_certificate: Certificate | None = None

        self._workers = [0.0] * config.worker_threads
        self._txs_since_signature = 0
        self._sig_flush_armed = False
        self._sig_flush_handle = None
        self._replication_armed = False
        self._commit_scan = 0
        self._committed_statuses: dict[str, str] = {}
        self._retired_appended: set[str] = set()
        self._pending_forwards: dict[int, tuple[str, Request]] = {}
        self._claims_by_seqno: dict[int, dict] = {}
        self._sessions_forwarded: set[str] = set()
        # Pipelined execution (primary only): queued writes awaiting a batch
        # drain. Each item is (request, origin_node) — origin_node is None
        # for direct client requests, else the backup that forwarded it.
        self._batch_queue: list[tuple[Request, str | None]] = []
        self._batch_queue_bytes = 0
        self._batch_drain_handle = None
        # In-order apply: batches execute on parallel workers but append in
        # drain order, so the ledger keeps the serial oracle's order.
        self._batch_seq = 0
        self._batch_apply_next = 0
        self._batches_completed: dict[int, tuple[list, int]] = {}
        self._last_snapshot_seqno = 0
        # Built, evidence appended, waiting for the evidence to commit under
        # a signature; then the join-ready package (manifest, receipt, chunks).
        self._pending_snapshot: dict | None = None
        self._latest_snapshot: dict | None = None
        # Snapshot production state (primary): the previous snapshot's map
        # table + sealed chunks, so clean maps reuse their chunks.
        self._snapshot_baseline: statetransfer.SnapshotBaseline | None = None
        # Joiner side: the operator-provided service identity to join.
        self._expected_service: Certificate | None = None
        # Joiner-side chunked-transfer state between manifest and install.
        self._pending_state_transfer: dict | None = None
        self._persisted_seqno = 0
        # Sealed frames (sender side): per-peer pending frame for the
        # current scheduler event, plus the raw payloads awaiting the single
        # end-of-event seal. Receiver side: segment-granular replay state.
        self._pending_frames: dict[str, tuple[PendingFrame, list[bytes]]] = {}
        self._frame_flush_armed = False
        self._frame_assembler = FrameAssembler(self.channels)
        self.stopped = False

        network.register(node_id, self._on_network_message)

        # Observability.
        self.requests_processed = 0
        self.writes_executed = 0
        self.reads_executed = 0
        self.forwards = 0
        self.wire_obs(scheduler.obs)

    def wire_obs(self, obs) -> None:
        """Point this node's scheduler-less components (enclave, ledger,
        store) at ``obs`` (an :class:`repro.obs.ObsCollector`, or None to
        unhook). Called at creation time and whenever a collector attaches
        or detaches mid-run; components created later re-wire themselves
        through the service-bootstrap paths."""
        for component in (self.enclave, self.ledger, self.store):
            if component is not None:
                component.obs = obs
                component.obs_owner = self.node_id if obs is not None else ""

    # ==================================================================
    # Service bootstrap (first node) and join (subsequent nodes)

    def start_new_service(
        self,
        service_subject: str,
        genesis_write_set: Callable[[RequestContext], None] | WriteSet,
        secret_seed: bytes | None = None,
    ) -> None:
        """Create a brand-new service on this node: mint the service
        identity and ledger secret inside the enclave, write the genesis
        transaction (constitution, members, users, code ids, this node),
        and become the initial primary."""
        seed = secret_seed if secret_seed is not None else (
            self.node_id.encode() + self.scheduler.rng.getrandbits(128).to_bytes(16, "big")
        )
        service_key = SigningKey.generate(seed + b"|service-identity")
        from repro.crypto.certs import self_signed

        self.service_certificate = self_signed(service_subject, service_key)
        self.enclave.memory.put("service_key", service_key)
        self.node_certificate = issue(
            self.node_id, self.node_key.public_key, service_subject, service_key
        )
        secrets = LedgerSecretStore(LedgerSecret.generate(seed + b"|ledger-secret"))
        self.enclave.memory.put("ledger_secrets", secrets)
        self.ledger = Ledger(secrets)
        self.store = KVStore()
        self.wire_obs(self.scheduler.obs)
        self.consensus = ConsensusNode(
            node_id=self.node_id,
            ledger=self.ledger,
            scheduler=self.scheduler,
            host=self,
            initial_nodes={self.node_id},
            config=self.config.consensus,
        )
        self.consensus.start_as_initial_primary()
        # Genesis transaction: all the service's initial governance state.
        if isinstance(genesis_write_set, WriteSet):
            write_set = genesis_write_set
        else:
            tx = self.store.begin()
            ctx = RequestContext(
                Request(path="/genesis"), tx, Caller("member", "genesis"), node=self
            )
            genesis_write_set(ctx)
            write_set = tx.write_set
        # The genesis writes this node's own info row.
        write_set.put(
            maps.NODES_INFO,
            self.node_id,
            self._node_info_row(NodeStatus.TRUSTED.value),
        )
        existing_info = write_set.updates.get(maps.SERVICE_INFO, {}).get("service") or {}
        write_set.put(maps.SERVICE_INFO, "service", dict(
            existing_info,
            status=maps.SERVICE_OPENING,
            certificate=self.service_certificate.to_dict(),
        ))
        self._append_local_entry(write_set)
        self._append_signature_now()

    def _node_info_row(self, status: str) -> dict:
        return {
            "status": status,
            "public_key": self.node_key.public_key.encode().hex(),
            "dh_public": self.dh_key.public.hex(),
            "platform": self.config.platform,
            "code_id": self.enclave.code_id,
        }

    def request_join(self, via_node: str, expected_service: Certificate) -> None:
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
        self._join_targets = [via_node]
        self._send_join_request(via_node)
        self._arm_join_retry()

    def _send_join_request(self, via_node: str) -> None:
        quote = self.enclave.attest(self.node_key.public_key.encode())
        self.network.send(
            self.node_id,
            via_node,
            JoinRequest(
                node_id=self.node_id,
                quote=quote,
                node_public_key=self.node_key.public_key.encode(),
                dh_public=self.dh_key.public,
            ),
        )

    def _arm_join_retry(self) -> None:
        # The timer holds the node weakly: it fires a full retry interval
        # after a crash, and must not keep the crashed node's ledger and
        # store alive until then. The event itself still fires either way.
        node = weakref.ref(self)

        def tick() -> None:
            self = node()
            if self is None or self.stopped:
                return
            row = (
                self.store.get(maps.NODES_INFO, self.node_id)
                if self.consensus is not None
                else None
            )
            if row is not None and row.get("status") != NodeStatus.PENDING.value:
                return  # trusted (or retired): joining is over
            orphaned = (
                self.consensus is not None
                and not self.consensus.is_primary
                and self.scheduler.now - self.consensus.last_leader_contact
                > self.config.join_retry_interval
            )
            # ``orphaned`` covers a subtle failure: the admitting primary
            # registered us as a learner, then lost an election; the new
            # primary knows nothing of us (the PENDING transaction rolled
            # back), nobody replicates to us, and our own stale store still
            # shows the rolled-back row — only the leader silence gives the
            # orphaning away.
            transfer = self._pending_state_transfer
            if transfer is not None:
                # A chunked transfer is in flight. Re-sending the join
                # request now would race a duplicate (slow, byte-costed)
                # JoinResponse against the chunk stream and trip the
                # channel replay guard — so only interfere if the transfer
                # has made no progress since the last tick (its serving
                # node died mid-stream).
                if transfer["fetched"] > transfer.get("last_progress", -1):
                    transfer["last_progress"] = transfer["fetched"]
                    self.scheduler.after(self.config.join_retry_interval, tick)
                    return
                self._pending_state_transfer = None
            if self.consensus is None or row is None or orphaned:
                # Not admitted yet, or our PENDING record was rolled back by
                # an election. Rotate through every node we know about —
                # only the current primary answers, and it may have moved.
                if self.consensus is not None:
                    for node_id in sorted(self.consensus.configurations.current.nodes):
                        if node_id not in self._join_targets and node_id != self.node_id:
                            self._join_targets.append(node_id)
                target = self._join_targets.pop(0)
                self._join_targets.append(target)
                self._send_join_request(target)
            self.scheduler.after(self.config.join_retry_interval, tick)

        self.scheduler.after(self.config.join_retry_interval, tick)

    def restart_from_disk(
        self,
        salvaged_storage: HostStorage,
        via_node: str,
        expected_service: Certificate,
        expected_seqno: int | None = None,
    ):
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

        Returns the :class:`repro.ledger.audit.StorageValidation`.
        """
        from repro.errors import IntegrityError as _IntegrityError
        from repro.ledger.audit import validate_storage

        validation = validate_storage(salvaged_storage, expected_seqno=expected_seqno)
        if not validation.intact:
            raise _IntegrityError(
                f"salvaged ledger failed validation: {validation.describe()}"
            )
        self.storage = salvaged_storage
        self._persisted_seqno = 0  # re-persist over the identical prefix
        self.request_join(via_node, expected_service)
        return validation

    # -- Join: primary side -------------------------------------------

    def _on_join_request(self, src: str, message: JoinRequest) -> None:
        if self.consensus is None or not self.consensus.is_primary:
            # Only the primary admits nodes, but the joiner may be pointed
            # at a backup (the primary can change while it retries). Relay
            # toward our current leader — one hop only, so two nodes with
            # stale leader hints cannot bounce a request forever.
            if (
                not message.forwarded
                and self.consensus is not None
                and self.consensus.leader_id
                and self.consensus.leader_id != self.node_id
            ):
                self.network.send(
                    self.node_id,
                    self.consensus.leader_id,
                    dataclasses.replace(message, forwarded=True),
                )
            return
        allowed = {code_id for code_id, _v in self.store.items(maps.NODES_CODE_IDS)}
        try:
            verify_quote(
                message.quote,
                self._hardware.public_key,
                allowed,
                expected_report_data=message.node_public_key,
                accept_virtual=self.config.accept_virtual_attestation,
            )
        except AttestationError as exc:
            self.network.send(
                self.node_id, message.node_id,
                JoinResponse(accepted=False, error=str(exc)),
            )
            return
        # Attestation verified: the secrets may now be shared (section 6.1).
        self.channels.establish(message.node_id, message.dh_public)
        service_key = self.enclave.memory.get("service_key")
        node_certificate = issue(
            message.node_id,
            # The joining node's identity key, straight from the quote.
            VerifyingKey.decode(message.node_public_key),
            self.service_certificate.subject,
            service_key,
        )
        secrets: LedgerSecretStore = self.enclave.memory.get("ledger_secrets")
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
        sealed = self.channels.seal(message.node_id, secrets_payload)
        peer_dh = {
            node_id: info["dh_public"]
            for node_id, info in self.store.items(maps.NODES_INFO)
            if info.get("dh_public")
        }
        # A snapshot ships its manifest only; the joiner pulls the chunks
        # it is missing afterwards. Without one the joiner starts empty and
        # replays the whole ledger.
        snapshot = self._latest_snapshot or {}
        manifest = snapshot.get("metadata")
        response = JoinResponse(
            accepted=True,
            service_certificate=self.service_certificate.to_dict(),
            node_certificate=node_certificate.to_dict(),
            sealed_secrets=(sealed.sender, sealed.counter, sealed.box),
            snapshot_receipt=snapshot.get("receipt"),
            snapshot_manifest=manifest,
            current_nodes=tuple(sorted(self.consensus.configurations.current.nodes)),
            config_base_seqno=self.consensus.configurations.current.seqno,
            peer_dh_publics=peer_dh,
        )
        # Record the node as PENDING (Listing 2's first transaction) with
        # its join metadata, then start replicating to it as a learner.
        # Joiners re-send until admitted, so this must be idempotent: an
        # already-recorded node keeps its row (a re-write would demote a
        # TRUSTED node back to PENDING), and a configuration member is not
        # re-added as a learner.
        if self.store.get(maps.NODES_INFO, message.node_id) is None:
            write_set = WriteSet()
            row = {
                "status": NodeStatus.PENDING.value,
                "public_key": message.node_public_key.hex(),
                "dh_public": message.dh_public.hex(),
                "platform": message.quote.platform,
                "code_id": message.quote.code_id,
            }
            write_set.put(maps.NODES_INFO, message.node_id, row)
            self._append_local_entry(write_set)
        next_seqno = (manifest or {}).get("base_seqno", 0) + 1
        if message.node_id not in self.consensus.configurations.current.nodes:
            self.consensus.add_learner(message.node_id, next_seqno)
        # Reply to the joiner itself — with forwarding, ``src`` may be the
        # relaying backup rather than the joining node. Shipping the
        # manifest costs wire time proportional to its size.
        state_bytes = len(encode_value(manifest)) if manifest is not None else 0
        self.network.send(
            self.node_id,
            message.node_id,
            response,
            extra_delay=self.cost.state_transfer_cost(state_bytes),
        )

    def _on_state_chunk_request(self, src: str, message: StateChunkRequest) -> None:
        """Serve sealed state chunks by content address (primary side).

        Chunks come from the live snapshot package or the on-disk cache
        (older-but-still-referenced chunks a resuming joiner may ask for).
        Ids this node cannot produce are reported back as ``missing`` so the
        joiner can fall back instead of stalling."""
        del src  # replies go to the joining node named in the request
        package = self._latest_snapshot or {}
        available: dict = package.get("chunks") or {}
        found: list[tuple[str, bytes]] = []
        missing: list[str] = []
        for chunk_id in message.chunk_ids:
            blob = available.get(chunk_id)
            if blob is None:
                blob = self.storage.read_state_chunk(chunk_id)
                if blob is not None and not ct_eq(
                    statetransfer.chunk_id(blob), chunk_id
                ):
                    blob = None  # disk-tampered cache entry: treat as absent
            if blob is None:
                missing.append(chunk_id)
            else:
                found.append((chunk_id, blob))
        payload_bytes = sum(len(blob) for _, blob in found)
        obs = self.scheduler.obs
        if obs is not None:
            obs.state_transfer_event(
                self.node_id,
                "chunks_served",
                joiner=message.node_id,
                served=len(found),
                missing=len(missing),
                bytes=payload_bytes,
            )
        self.network.send(
            self.node_id,
            message.node_id,
            StateChunkResponse(
                base_seqno=message.base_seqno,
                chunks=tuple(found),
                missing=tuple(missing),
            ),
            extra_delay=self.cost.state_transfer_cost(payload_bytes),
        )

    # -- Join: new node side --------------------------------------------

    def _on_join_response(self, src: str, message: JoinResponse) -> None:
        if self.consensus is not None:
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
        self.service_certificate = service_certificate
        self.node_certificate = Certificate.from_dict(message.node_certificate)
        self.node_certificate.verify(service_certificate.public_key)

        for peer, dh_hex in message.peer_dh_publics.items():
            if peer != self.node_id:
                self.channels.establish(peer, bytes.fromhex(dh_hex))

        # Open the sealed key material (channel with the admitting primary
        # was established just above from its published DH key).
        sender, counter, box = message.sealed_secrets
        try:
            payload = self.channels.open(
                SealedMessage(sender=sender, counter=counter, box=box)
            )
        except VerificationError:
            # A retried join request can draw a second response; the
            # duplicate is byte-costed (slow) and may arrive after newer
            # channel traffic, failing the replay counter. Drop it like
            # any replayed sealed message — the in-flight join continues
            # (and the retry timer covers the nothing-in-flight case).
            return
        secret_material = decode_value(payload)
        secrets = LedgerSecretStore()
        for generation, key_bytes, suite in secret_material["ledger_secrets"]:
            secrets.add(LedgerSecret(generation=generation, key_bytes=key_bytes, suite=suite))
        self.enclave.memory.put("ledger_secrets", secrets)
        service_key = SigningKey(int.from_bytes(secret_material["service_key_scalar"], "big"))
        if service_key.public_key.encode() != service_certificate.public_key.encode():
            raise VerificationError("received service key does not match the certificate")
        self.enclave.memory.put("service_key", service_key)

        if message.snapshot_manifest is not None:
            # Verify the manifest against its receipt, then pull only the
            # chunks we don't already hold. Joining completes
            # asynchronously in _complete_chunked_install.
            self._begin_chunked_transfer(src, message)
            return
        self.store = KVStore()
        self.ledger = Ledger(secrets)
        self._finish_join(message, 0)

    def _finish_join(self, message: JoinResponse, base_seqno: int) -> None:
        """Shared join tail: store/ledger are installed; start consensus."""
        self.wire_obs(self.scheduler.obs)
        self.consensus = ConsensusNode(
            node_id=self.node_id,
            ledger=self.ledger,
            scheduler=self.scheduler,
            host=self,
            initial_nodes=set(message.current_nodes),
            config=self.config.consensus,
            # A join without a snapshot has base_seqno 0 and replays the
            # configuration history itself.
            config_base_seqno=min(message.config_base_seqno, base_seqno),
        )
        self.consensus.start()

    # -- Join: chunked state transfer (joiner side) ---------------------

    def _begin_chunked_transfer(self, src: str, message: JoinResponse) -> None:
        metadata = message.snapshot_manifest
        receipt = Receipt.from_dict(message.snapshot_receipt)
        receipt.verify(self.service_certificate)
        digest = bytes(statetransfer.manifest_digest(metadata))
        claimed = (receipt.claims or {}).get("snapshot_digest")
        if not ct_eq(claimed, digest.hex()):
            raise VerificationError(
                "snapshot manifest does not match its receipt claims"
            )
        transfer = self._pending_state_transfer
        if transfer is not None and ct_eq(transfer["digest"], digest):
            # Retried join response for the same snapshot mid-transfer: a
            # chunk round may have been lost — re-kick, don't restart.
            self._request_missing_chunks()
            return
        # (Re)plan the transfer. Seed from the local content-addressed
        # cache: chunks from a prior partial join or an older snapshot are
        # skipped if their bytes still match their address.
        needed = statetransfer.manifest_chunk_ids(metadata)
        have: dict[str, bytes] = {}
        for chunk_id in needed:
            blob = self.storage.read_state_chunk(chunk_id)
            if blob is not None and ct_eq(statetransfer.chunk_id(blob), chunk_id):
                have[chunk_id] = blob
        self._pending_state_transfer = {
            "digest": digest,
            "metadata": metadata,
            "message": message,
            "source": src,
            "have": have,
            "missing": [cid for cid in needed if cid not in have],
            "cached": len(have),
            "fetched": 0,
        }
        obs = self.scheduler.obs
        if obs is not None:
            obs.state_transfer_event(
                self.node_id,
                "manifest",
                base_seqno=metadata["base_seqno"],
                chunks=len(needed),
                cached=len(have),
            )
        self._request_missing_chunks()

    def _request_missing_chunks(self) -> None:
        transfer = self._pending_state_transfer
        if transfer is None:
            return
        if not transfer["missing"]:
            self._complete_chunked_install()
            return
        batch = tuple(transfer["missing"][: self.config.join_chunk_batch])
        self.network.send(
            self.node_id,
            transfer["source"],
            StateChunkRequest(
                node_id=self.node_id,
                base_seqno=transfer["metadata"]["base_seqno"],
                chunk_ids=batch,
            ),
        )

    def _on_state_chunk_response(self, src: str, message: StateChunkResponse) -> None:
        del src
        transfer = self._pending_state_transfer
        if transfer is None or self.consensus is not None:
            return
        if message.base_seqno != transfer["metadata"]["base_seqno"]:
            return  # stale round from a superseded transfer
        if message.missing:
            # The server no longer holds part of this snapshot (it advanced
            # or changed hands). Abandon the transfer; the join retry timer
            # restarts the handshake cleanly — against whatever snapshot the
            # current primary can actually serve — and everything already
            # cached still dedups on the next attempt.
            obs = self.scheduler.obs
            if obs is not None:
                obs.state_transfer_event(
                    self.node_id, "fallback", missing=len(message.missing)
                )
            self._pending_state_transfer = None
            return
        wanted = 0
        verified = 0
        still_missing = set(transfer["missing"])
        for chunk_id, blob in message.chunks:
            if chunk_id not in still_missing:
                continue  # duplicate round (retried request): already held
            wanted += 1
            try:
                statetransfer.verify_chunk_blob(chunk_id, blob)
            except VerificationError:
                continue  # leave in missing
            verified += 1
            transfer["have"][chunk_id] = blob
            transfer["fetched"] += 1
            # Streaming install: each verified chunk is persisted into the
            # content-addressed cache immediately, so a crash mid-transfer
            # resumes without re-fetching anything already received.
            self.storage.write_state_chunk(chunk_id, blob)
        if wanted and not verified:
            # Every chunk we still needed from this round failed its content
            # address: the serving host is substituting state, not merely
            # re-sending a stale round. Re-requesting would loop forever.
            self._pending_state_transfer = None
            raise VerificationError(
                "state chunks do not match their content addresses"
            )
        transfer["missing"] = [
            cid for cid in transfer["missing"] if cid not in transfer["have"]
        ]
        self._request_missing_chunks()

    def _complete_chunked_install(self) -> None:
        transfer = self._pending_state_transfer
        metadata = transfer["metadata"]
        message: JoinResponse = transfer["message"]
        secrets: LedgerSecretStore = self.enclave.memory.get("ledger_secrets")
        try:
            self.store = statetransfer.assemble_store(
                metadata, transfer["have"], secrets
            )
        except (VerificationError, KVError):
            # A chunk passed its content address but failed decryption or
            # decode — only a mis-sealed producer can cause this. Drop the
            # transfer; the retry timer falls back to a fresh join.
            self._pending_state_transfer = None
            raise
        self.ledger = Ledger.from_snapshot_metadata(
            secrets,
            base_seqno=metadata["base_seqno"],
            txids=[TxID(v, s) for v, s in metadata["txids"]],
            leaf_hashes=list(metadata["leaf_hashes"]),
            last_signature_txid=TxID(*metadata["last_signature_txid"]),
        )
        base_seqno = metadata["base_seqno"]
        self._commit_scan = base_seqno
        self.indexer.last_indexed = base_seqno
        obs = self.scheduler.obs
        if obs is not None:
            obs.state_chunks_progress(
                self.node_id, transfer["fetched"], transfer["cached"]
            )
            obs.state_transfer_event(
                self.node_id,
                "installed",
                base_seqno=base_seqno,
                fetched=transfer["fetched"],
                cached=transfer["cached"],
            )
        self._pending_state_transfer = None
        self._finish_join(message, base_seqno)

    # ==================================================================
    # Disaster recovery (section 5.2)

    def start_recovered_service(
        self, salvaged_storage: HostStorage, service_subject: str,
        secret_seed: bytes | None = None,
    ) -> dict:
        """Start this node in recovery mode from salvaged ledger files.

        Restores the public state, mints a **new** service identity (the
        recovery is detectable by users), and waits for member recovery
        shares before private state can be decrypted. Returns a summary
        with the previous service identity for the opening proposal.
        """
        from repro.recovery.recovery import replay_public_ledger

        replay = replay_public_ledger(salvaged_storage)
        obs = self.scheduler.obs
        if obs is not None:
            obs.recovery_event(
                self.node_id, "replay",
                verified_seqno=replay.verified_seqno,
                salvage_warnings=len(replay.warnings),
            )
        seed = secret_seed if secret_seed is not None else (
            self.node_id.encode() + self.scheduler.rng.getrandbits(128).to_bytes(16, "big")
        )
        from repro.crypto.certs import self_signed

        service_key = SigningKey.generate(seed + b"|recovered-service-identity")
        self.service_certificate = self_signed(service_subject, service_key)
        self.enclave.memory.put("service_key", service_key)
        self.node_certificate = issue(
            self.node_id, self.node_key.public_key, service_subject, service_key
        )
        # A fresh ledger secret generation for all new transactions; the
        # previous generation arrives later via recovery shares.
        previous_generation = 0
        row = replay.store.get(maps.LEDGER_SECRET, "current")
        if isinstance(row, dict):
            previous_generation = row.get("generation", 0)
        secrets = LedgerSecretStore(
            LedgerSecret.generate(seed + b"|ledger-secret", generation=previous_generation + 1)
        )
        self.enclave.memory.put("ledger_secrets", secrets)
        replay.ledger.secrets = secrets
        self.ledger = replay.ledger
        self.store = replay.store
        self.wire_obs(self.scheduler.obs)
        self._commit_scan = replay.verified_seqno
        self.indexer.last_indexed = replay.verified_seqno
        self._persisted_seqno = replay.verified_seqno

        self.consensus = ConsensusNode(
            node_id=self.node_id,
            ledger=self.ledger,
            scheduler=self.scheduler,
            host=self,
            initial_nodes={self.node_id},
            config=self.config.consensus,
            config_base_seqno=replay.verified_seqno,
        )
        # Seed consensus bookkeeping with the replayed history.
        for seqno in range(1, replay.verified_seqno + 1):
            self.consensus.view_history.note_append(self.ledger.txid_at(seqno))
        self.consensus.commit_seqno = replay.verified_seqno
        self.consensus.view = replay.last_view  # will be bumped below
        self.consensus.start_as_recovery_primary(replay.last_view + 1)

        # The recovered service runs on this node alone until others join:
        # record the new topology and status, replacing stale node rows.
        write_set = WriteSet()
        for node_id, _info in list(self.store.items(maps.NODES_INFO)):
            if node_id != self.node_id:
                write_set.remove(maps.NODES_INFO, node_id)
        write_set.put(maps.NODES_INFO, self.node_id, self._node_info_row(NodeStatus.TRUSTED.value))
        service_row = self.store.get(maps.SERVICE_INFO, "service") or {}
        write_set.put(maps.SERVICE_INFO, "service", dict(
            service_row,
            status=maps.SERVICE_WAITING_FOR_SHARES,
            certificate=self.service_certificate.to_dict(),
            previous_identity=replay.previous_service_identity,
        ))
        self._append_local_entry(write_set)
        self._append_signature_now()
        if obs is not None:
            obs.recovery_event(self.node_id, "awaiting_shares")
        return {
            "verified_seqno": replay.verified_seqno,
            "previous_service_identity": replay.previous_service_identity,
            "new_service_identity": self.service_certificate.to_dict(),
            "salvage_warnings": [w.describe() for w in replay.warnings],
        }

    def complete_private_recovery(
        self, previous_secrets: "LedgerSecret | list[LedgerSecret]"
    ) -> None:
        """The wrapping key was reconstructed from member shares: install
        the previous ledger secret generation(s) and decrypt the restored
        private state.

        Private write sets are replayed oldest-first over the restored
        public state, validating every AEAD tag as we go. The folding is a
        local reconstruction, not new ledger transactions — recovery
        happens before users reconnect, so merging at the current version
        is safe. Entries sealed under a generation that was never
        re-wrapped (and is therefore unrecoverable) are skipped: recovery
        is best-effort (section 5.2).
        """
        from repro.errors import LedgerError as _LedgerError
        from repro.kv.champ import ChampMap
        from repro.kv.tx import REMOVED

        if isinstance(previous_secrets, LedgerSecret):
            previous_secrets = [previous_secrets]
        secrets: LedgerSecretStore = self.enclave.memory.get("ledger_secrets")
        for secret in previous_secrets:
            secrets.add(secret)
        recovered = 0
        for entry in self.ledger.entries(1, self._commit_scan):
            if not entry.private_blob:
                continue
            try:
                write_set = self.ledger.decrypt_private(entry)
            except _LedgerError:
                continue  # generation not recoverable: best effort
            for map_name, updates in write_set.updates.items():
                if map_name.startswith("public:"):
                    continue  # already restored during public replay
                current = self.store._maps.get(map_name, ChampMap.empty())
                builder = current.transient()
                for key, value in updates.items():
                    if value is REMOVED:
                        builder.remove(key)
                    else:
                        builder.set(key, value)
                self.store._maps[map_name] = builder.freeze()
            recovered += 1
        self.store._history[self.store.version] = dict(self.store._maps)
        self.enclave.memory.put("recovered_private_entries", recovered)
        obs = self.scheduler.obs
        if obs is not None:
            obs.recovery_event(
                self.node_id, "private_recovery", recovered_entries=recovered
            )

    # ==================================================================
    # ConsensusHost interface

    def send_consensus_message(self, to: str, message: object) -> None:
        if not self.config.secure_channels:
            self.network.send(self.node_id, to, message)
            return
        if not self.channels.has_channel(to):
            return  # channel not yet established; retried by protocol
        self._send_framed(to, message)

    def _send_framed(self, to: str, message: object) -> None:
        """Queue ``message`` into this event's frame for ``to`` and put its
        segment on the wire immediately.

        The segment takes the exact network path (event, sequence number,
        latency draw) a per-message seal would take — only the AEAD work
        moves, into one end-of-event seal per peer. The seal microtask
        draws no randomness and schedules nothing, so a traced run is
        bit-identical to one that seals every message on its own
        (``tests/oracles/per_message_seal.py``).
        """
        pending = self._pending_frames.get(to)
        if pending is None:
            pending = (PendingFrame(), [])
            self._pending_frames[to] = pending
        frame, payloads = pending
        raw = encode_message(message)
        index = len(payloads)
        payloads.append(raw)
        frame.payload_sizes.append(len(raw))
        if not self._frame_flush_armed:
            # Arm before the send: for out-of-event sends (bootstrap) the
            # hook runs synchronously, and it must run after the payload is
            # queued but sealing-before-delivery still holds (latency > 0).
            self._frame_flush_armed = True
            self.scheduler.at_event_end(self._seal_pending_frames)
        self.network.send(self.node_id, to, FrameSegment(frame=frame, index=index))

    def _seal_pending_frames(self) -> None:
        """End-of-event microtask: one AEAD seal per (this node, peer)."""
        pending = self._pending_frames
        self._pending_frames = {}
        self._frame_flush_armed = False
        for peer, (frame, payloads) in pending.items():
            sealed = self.channels.seal_frame(peer, payloads)
            frame.sender = sealed.sender
            frame.counter = sealed.counter
            frame.box = sealed.box
            frame.count = len(payloads)
            obs = self.scheduler.obs
            if obs is not None:
                obs.frame_sealed(
                    self.node_id,
                    len(payloads),
                    self.cost.sealing_cost(len(payloads), 1),
                )

    def apply_replicated_entry(self, entry: LedgerEntry) -> frozenset[str] | None:
        self.ledger.append(entry)
        write_set = self.ledger.open_appended(entry)
        self.store.apply_write_set(write_set, entry.txid.seqno)
        self._handle_node_info_updates(write_set)
        if entry.is_reconfiguration:
            return self._trusted_set()
        return None

    def truncate_to(self, seqno: int) -> None:
        self.ledger.truncate(seqno)
        self.store.rollback_to(seqno)
        pending = self._pending_snapshot
        if pending is not None and pending["evidence_seqno"] > seqno:
            # Its evidence entry rolled back with the suffix; whatever
            # commits at that seqno now is another primary's entry and
            # must not be receipted with this snapshot's claims.
            self._pending_snapshot = None

    def append_signature_entry(self, view: int) -> LedgerEntry:
        entry = self.ledger.build_signature_entry(view, self.node_id, self.node_key)
        self.ledger.append(entry)
        self.store.apply_write_set(entry.public_writes, entry.txid.seqno)
        self._txs_since_signature = 0
        obs = self.scheduler.obs
        if obs is not None:
            obs.signature_tx(
                self.node_id, view, entry.txid.seqno, self.cost.signature_cost
            )
        return entry

    def on_commit(self, seqno: int) -> None:
        self.store.compact(seqno)
        self._scan_committed(seqno)
        self._persist_ledger(seqno)
        self._maybe_snapshot(seqno)
        self._finalize_snapshot_if_ready()
        if self.consensus.is_primary:
            self._complete_retirements()

    def on_become_primary(self) -> None:
        self._retired_appended = set()

    def on_lose_primacy(self) -> None:
        """Fail pending forwarded requests: per section 4.3 the session is
        terminated when forwarding is no longer possible due to a primary
        change — the client retries (and re-discovers the primary)."""
        if self._batch_queue:
            # Queued-but-unexecuted batch writes redirect to the new primary
            # (or fail retryably); nothing was appended, so this is safe.
            pending_batch = self._batch_queue
            self._batch_queue = []
            self._batch_queue_bytes = 0
            if self._batch_drain_handle is not None:
                self._batch_drain_handle.cancel()
                self._batch_drain_handle = None
            self._redirect_batch(pending_batch)
        for request_id, (client_id, request) in list(self._pending_forwards.items()):
            del self._pending_forwards[request_id]
            self.network.send(
                self.node_id,
                client_id,
                ClientResponse(Response(
                    request.request_id,
                    status=503,
                    error="session terminated: primary changed during forwarding",
                )),
            )

    # ------------------------------------------------------------------
    # Committed-prefix processing

    def _scan_committed(self, commit_seqno: int) -> None:
        """Feed the indexer and track committed node statuses over the newly
        committed range (exactly once, in order)."""
        start = max(self._commit_scan, self.ledger.base_seqno)
        reload_app = False
        indexable: list[tuple[TxID, WriteSet]] = []
        for seqno in range(start + 1, commit_seqno + 1):
            entry = self.ledger.entry_at(seqno)
            write_set = self.ledger.take_opened(entry)
            indexable.append((entry.txid, write_set))
            for node_id, info in write_set.updates.get(maps.NODES_INFO, {}).items():
                if isinstance(info, dict):
                    self._on_committed_status(node_id, info.get("status"))
            if maps.MODULES in write_set.updates:
                reload_app = True
            rekey = write_set.updates.get(maps.LEDGER_SECRET, {}).get("rekey_request")
            if isinstance(rekey, dict):
                self._perform_rekey(rekey["new_generation"])
            if (
                maps.MEMBERS_KEYS in write_set.updates
                and maps.LEDGER_SECRET not in write_set.updates  # not genesis/rekey
                and self.consensus.is_primary
            ):
                # Membership changed: re-split the wrapping key so the new
                # consortium can (and only it can) recover (section 5.2).
                secrets = self.enclave.memory.get("ledger_secrets")
                if secrets is not None and len(secrets):
                    self._reprovision_recovery_shares(secrets.current())
        # One batched notification per commit advance: pipelined commits can
        # cover a whole execution batch at once, and the indexer guarantees
        # exactly-once, in-order processing regardless of batch shape.
        self.indexer.feed_batch(indexable)
        self._commit_scan = max(self._commit_scan, commit_seqno)
        if reload_app:
            self.reload_js_app()

    def _perform_rekey(self, generation: int) -> None:
        """A committed rekey request: derive the next ledger-secret
        generation in-enclave from the shared service key. Every trusted
        node derives the same secret without it touching the network; new
        writes seal under it, old generations stay readable (Table 1)."""
        secrets: LedgerSecretStore = self.enclave.memory.get("ledger_secrets")
        if secrets is None or generation in secrets.generations():
            return
        service_key = self.enclave.memory.get("service_key")
        if service_key is None:
            return  # not yet trusted with the service key
        seed = service_key.scalar.to_bytes(32, "big") + b"|rekey"
        secrets.add(LedgerSecret.generate(seed, generation=generation))
        if self.consensus.is_primary:
            # Re-provision the wrapped secret + recovery shares for the new
            # generation so disaster recovery keeps working (section 5.2).
            self._reprovision_recovery_shares(secrets.current())

    def _reprovision_recovery_shares(self, secret: LedgerSecret) -> None:
        from repro.recovery.shares import provision_recovery_shares

        members = {
            subject: bytes.fromhex(row["public_key"])
            for subject, row in self.store.items(maps.MEMBERS_KEYS)
            if isinstance(row, dict)
        }
        if not members:
            return
        info = self.store.get(maps.SERVICE_INFO, "service") or {}
        threshold = min(info.get("recovery_threshold", 1), len(members))
        secrets: LedgerSecretStore = self.enclave.memory.get("ledger_secrets")
        previous = tuple(
            secrets.for_generation(g)
            for g in secrets.generations()
            if g != secret.generation
        )
        tx = self.store.begin()
        ctx = RequestContext(
            Request(path="/internal/rekey"), tx, Caller("node", self.node_id), node=self
        )
        provision_recovery_shares(
            ctx, secret, members, threshold, self.scheduler.rng,
            previous_secrets=previous,
        )
        self._append_local_entry(tx.write_set)
        self._request_signature_soon()

    def reload_js_app(self) -> None:
        """Live code update (section 5): rebuild the application from the
        JS module and endpoint metadata committed in the governance maps."""
        module = self.store.get(maps.MODULES, "app")
        if not isinstance(module, dict) or "source" not in module:
            return
        endpoints = {
            name: metadata
            for name, metadata in self.store.items(maps.ENDPOINTS)
            if isinstance(metadata, dict)
        }
        from repro.app.jsapp.jsapp import build_js_app

        self.app = build_js_app(module["source"], endpoints or None)

    def _on_committed_status(self, node_id: str, status: str | None) -> None:
        if status is None:
            return
        self._committed_statuses[node_id] = status
        if node_id == self.node_id and status in (
            NodeStatus.RETIRING.value,
            NodeStatus.RETIRED.value,
        ):
            # Our own retirement is committed: stop writing, stay online
            # to replicate and vote until shut down (section 4.5).
            self.consensus.freeze_writes()
        if status == NodeStatus.RETIRED.value and node_id != self.node_id:
            # Keep replicating briefly so the retired node itself learns
            # its retirement committed (it stays online until the operator
            # shuts it down, section 4.5), then stop.
            grace = 2 * self.config.consensus.election_timeout_max

            def drop() -> None:
                if not self.stopped and self.consensus is not None:
                    self.consensus.remove_learner(node_id)

            self.scheduler.after(grace, drop)

    def _complete_retirements(self) -> None:
        """Second retirement step (section 4.5): once a RETIRING
        reconfiguration is committed, the primary records RETIRED."""
        for node_id, status in list(self._committed_statuses.items()):
            if status == NodeStatus.RETIRING.value and node_id not in self._retired_appended:
                self._retired_appended.add(node_id)
                row = self.store.get(maps.NODES_INFO, node_id)
                if not isinstance(row, dict):
                    continue
                write_set = WriteSet()
                write_set.put(
                    maps.NODES_INFO, node_id, dict(row, status=NodeStatus.RETIRED.value)
                )
                self._append_local_entry(write_set)
                self._request_signature_soon()

    def _persist_ledger(self, commit_seqno: int) -> None:
        """Write committed, signature-terminated chunks to host storage."""
        if commit_seqno <= self._persisted_seqno:
            return
        start = max(self._persisted_seqno, self.ledger.base_seqno)
        new_entries = list(self.ledger.entries(start + 1, commit_seqno))
        if not new_entries:
            return
        for chunk in chunk_entries(new_entries):
            # chunk_entries numbers chunks relative to the slice; rebuild
            # with absolute seqnos (they already carry their own txids).
            self.storage.write_chunk(chunk)
        self._persisted_seqno = commit_seqno

    def _maybe_snapshot(self, commit_seqno: int) -> None:
        interval = self.config.snapshot_interval
        if not interval or not self.consensus.is_primary:
            return
        if commit_seqno - self._last_snapshot_seqno < interval:
            return
        self._last_snapshot_seqno = commit_seqno
        metadata = self.ledger.snapshot_metadata(commit_seqno)
        # Store state includes private-map plaintext, so every chunk is
        # sealed under the current ledger secret before it can touch host
        # storage or the join path. Only maps that changed since the
        # previous snapshot are serialized and sealed; clean maps reuse
        # their previous sealed chunks (same content ⇒ same chunk id). The
        # receipt claim digests the manifest, which lists every chunk id,
        # so all chunks are transitively receipt-covered and integrity is
        # verifiable without decrypting.
        secret = self.ledger.secrets.current()
        built = statetransfer.build_chunked_snapshot(
            self.store,
            commit_seqno,
            secret,
            metadata,
            chunk_bytes=self.config.snapshot_chunk_bytes,
            baseline=self._snapshot_baseline,
        )
        digest = bytes(statetransfer.manifest_digest(built.metadata))
        obs = self.scheduler.obs
        if obs is not None:
            obs.snapshot_produced(self.node_id, commit_seqno, built.stats)
        # Snapshot evidence transaction (validated by receipt, section 4.4).
        write_set = WriteSet()
        write_set.put(
            maps.SNAPSHOT_EVIDENCE,
            commit_seqno,
            {"digest": digest.hex(), "seqno": commit_seqno},
        )
        claims = {"snapshot_digest": digest.hex()}
        entry = self._append_local_entry(write_set, claims=claims)
        self._pending_snapshot = {
            "metadata": built.metadata,
            "chunks": built.chunks,
            # Next delta builds against this snapshot's table + chunks.
            "baseline": built.baseline(self.store.map_table_at(commit_seqno)),
            "evidence_seqno": entry.txid.seqno,
            "claims": claims,
        }
        self._request_signature_soon()

    def _finalize_snapshot_if_ready(self) -> None:
        pending = self._pending_snapshot
        if pending is None:
            return
        evidence_seqno = pending["evidence_seqno"]
        if self.consensus.commit_seqno < evidence_seqno:
            return
        if self.ledger.next_signature_seqno(evidence_seqno) is None:
            return
        receipt = issue_receipt(
            self.ledger, evidence_seqno, self.node_certificate, claims=pending["claims"]
        )
        self._latest_snapshot = {
            "metadata": pending["metadata"],
            "receipt": receipt.to_dict(),
            "chunks": pending["chunks"],
        }
        # Persist the chunk set (content-addressed, so re-writing a reused
        # chunk is skipped) and prune chunks no manifest we still serve
        # references; the manifest file makes the snapshot reconstructable
        # from disk alone.
        for chunk_id, blob in pending["chunks"].items():
            if self.storage.read_state_chunk(chunk_id) is None:
                self.storage.write_state_chunk(chunk_id, blob)
        self.storage.prune_state_chunks(set(pending["chunks"]))
        for name in self.storage.list_files("manifest_"):
            self.storage.delete(name, sync=False)
        self.storage.write(
            f"manifest_{pending['metadata']['base_seqno']}.bin",
            encode_value(pending["metadata"]),
            sync=True,
        )
        self._snapshot_baseline = pending["baseline"]
        self._pending_snapshot = None

    # ==================================================================
    # Local append path (primary)

    def _trusted_set(self) -> frozenset[str]:
        return frozenset(
            node_id
            for node_id, info in self.store.items(maps.NODES_INFO)
            if isinstance(info, dict) and info.get("status") == NodeStatus.TRUSTED.value
        )

    def _handle_node_info_updates(self, write_set: WriteSet) -> None:
        """Side effects of nodes.info changes: channel establishment for new
        peers and learner bookkeeping for retiring nodes."""
        for node_id, info in write_set.updates.get(maps.NODES_INFO, {}).items():
            if not isinstance(info, dict):
                continue
            dh_hex = info.get("dh_public")
            if node_id != self.node_id and dh_hex and not self.channels.has_channel(node_id):
                self.channels.establish(node_id, bytes.fromhex(dh_hex))
            if info.get("status") == NodeStatus.RETIRING.value:
                self.consensus.note_retiring(node_id)

    def _append_local_entry(
        self, write_set: WriteSet, claims: dict | None = None
    ) -> LedgerEntry:
        """Append a locally produced transaction (primary only): apply to
        the store, frame as a ledger entry, and hand to consensus."""
        trusted_before = self._trusted_set()
        seqno = self.ledger.last_seqno + 1
        self.store.apply_write_set(write_set, seqno)
        trusted_after = self._trusted_set()
        is_reconfig = trusted_after != trusted_before
        entry = self.ledger.build_entry(
            self.consensus.view,
            write_set,
            kind=EntryKind.RECONFIGURATION if is_reconfig else EntryKind.USER,
            claims=claims,
        )
        if claims:
            # Only the digest lands in the Merkle leaf; the executing node
            # retains the claims so receipts can expose them (section 3.5).
            self._claims_by_seqno[seqno] = claims
        self.ledger.append(entry)
        self.ledger.carry_built(entry, write_set)
        self._handle_node_info_updates(write_set)
        self.consensus.note_local_append(
            entry, trusted_after if is_reconfig else None
        )
        self._txs_since_signature += 1
        self._arm_replication()
        self._arm_signature_flush()
        return entry

    def _append_signature_now(self) -> None:
        entry = self.append_signature_entry(self.consensus.view)
        self.consensus.note_local_append(entry, None)
        self._arm_replication()

    def _request_signature_soon(self) -> None:
        self._arm_signature_flush(immediate=True)

    def _arm_signature_flush(self, immediate: bool = False) -> None:
        if self._sig_flush_armed:
            if not immediate:
                return
            # An immediate request overrides a pending (possibly long) flush.
            if self._sig_flush_handle is not None:
                self._sig_flush_handle.cancel()
        self._sig_flush_armed = True
        delay = 0.0 if immediate else self.config.signature_flush_time

        def flush() -> None:
            self._sig_flush_armed = False
            self._sig_flush_handle = None
            if self.stopped or not self.consensus or not self.consensus.is_primary:
                return
            if self._txs_since_signature > 0:
                self._append_signature_now()

        self._sig_flush_handle = self.scheduler.after(delay, flush)

    def _arm_replication(self) -> None:
        if self._replication_armed:
            return
        self._replication_armed = True

        def push() -> None:
            self._replication_armed = False
            if self.stopped or not self.consensus:
                return
            self.consensus.replicate_now()

        self.scheduler.after(self.config.replication_interval, push)

    # ==================================================================
    # Network dispatch

    def _on_network_message(self, src: str, payload: object) -> None:
        if self.stopped:
            return
        if isinstance(payload, FrameSegment):
            frame = payload.frame
            if frame.box is None:
                return  # sender crashed before its end-of-event seal ran
            try:
                raw = self._frame_assembler.accept(
                    frame.sender, frame.counter, frame.box, frame.count, payload.index
                )
            except VerificationError:
                return  # unknown peer or tampered frame: drop
            if raw is not None and self.consensus is not None:
                self.consensus.dispatch(decode_message(raw))
            return
        if isinstance(payload, ClientRequest):
            self._enqueue_request(src, payload.request)
            return
        if isinstance(payload, ForwardedRequest):
            self._on_forwarded_request(src, payload)
            return
        if isinstance(payload, ForwardedResponse):
            self._on_forwarded_response(payload)
            return
        if isinstance(payload, JoinRequest):
            self._on_join_request(src, payload)
            return
        if isinstance(payload, JoinResponse):
            self._on_join_response(src, payload)
            return
        if isinstance(payload, StateChunkRequest):
            self._on_state_chunk_request(src, payload)
            return
        if isinstance(payload, StateChunkResponse):
            self._on_state_chunk_response(src, payload)
            return
        if isinstance(payload, ChannelHello):
            self.channels.establish(payload.sender, payload.dh_public)
            return
        # Plain consensus message (secure_channels disabled).
        if self.consensus is not None:
            self.consensus.dispatch(payload)

    # ==================================================================
    # Frontend: request scheduling and execution

    def _enqueue_request(self, client_id: str, request: Request) -> None:
        """Admit a request into the worker pool; processing happens after
        the calibrated service time (the simulated compute cost)."""
        request = Request(
            path=request.path,
            body=request.body,
            credentials=request.credentials,
            request_id=request.request_id,
            client_id=client_id,
            session_id=request.session_id,
            after_txid=request.after_txid,
        )
        read_only = self._is_read_only(request)
        if (
            not read_only
            and self.config.batch_execution
            and self.consensus is not None
            and self.consensus.can_accept_writes
        ):
            self._enqueue_batch(request, origin_node=None)
            return
        service_time = self.cost.read_cost() if read_only else self.cost.write_cost(
            self._backup_count()
        )
        worker = min(range(len(self._workers)), key=lambda i: self._workers[i])
        start = max(self.scheduler.now, self._workers[worker])
        completion = start + service_time
        self._workers[worker] = completion
        obs = self.scheduler.obs
        if obs is not None:
            busy = sum(1 for free_at in self._workers if free_at > self.scheduler.now)
            obs.begin_execute(
                self.node_id,
                request,
                read_only,
                start - self.scheduler.now,
                service_time,
                busy,
            )
        self.scheduler.at(
            completion, lambda: self._process_request(request, worker)
        )

    def _backup_count(self) -> int:
        if self.consensus is None:
            return 0
        return max(0, len(self.consensus.configurations.current.nodes) - 1)

    def _is_read_only(self, request: Request) -> bool:
        endpoint = self._lookup_endpoint(request.path)
        return endpoint is not None and endpoint.read_only

    def _lookup_endpoint(self, path: str):
        if path.startswith("/app/"):
            return self.app.lookup(path[len("/app/"):])
        if path.startswith("/gov/") and self.governance_app is not None:
            return self.governance_app.lookup(path[len("/gov/"):])
        if path.startswith("/node/"):
            from repro.node.endpoints import BUILTIN_ENDPOINTS

            return BUILTIN_ENDPOINTS.get(path[len("/node/"):])
        return None

    def _respond(self, request: Request, response: Response) -> None:
        self.network.send(self.node_id, request.client_id, ClientResponse(response))

    def _process_request(self, request: Request, worker: int) -> None:
        if self.stopped:
            return
        obs = self.scheduler.obs
        if obs is None:
            self._process_request_inner(request, worker)
            return
        obs.enter_execute(self.node_id, request.request_id)
        try:
            self._process_request_inner(request, worker)
        finally:
            obs.finish_execute(self.node_id, request.request_id)

    def _process_request_inner(self, request: Request, worker: int) -> None:
        self.requests_processed += 1
        endpoint = self._lookup_endpoint(request.path)
        if endpoint is None:
            self._respond(
                request,
                Response(request.request_id, status=404, error=f"no endpoint {request.path}"),
            )
            return
        if self.store is None or self.consensus is None:
            self._respond(
                request,
                Response(request.request_id, status=503, error="node not yet part of a service"),
            )
            return

        if endpoint.read_only:
            if self.config.read_offload:
                # Read offload (paper's read-scaling design): serve locally
                # from the last-committed snapshot with freshness metadata;
                # session consistency comes from the after_txid floor, not
                # from following the forwarded session to the primary.
                self._execute_read(request, endpoint, offload=True)
                return
            # Session consistency: once a session was forwarded to the
            # primary, subsequent reads follow it too (section 4.3).
            if request.session_id and request.session_id in self._sessions_forwarded:
                self._forward_or_fail(request)
                return
            self._execute_read(request, endpoint)
            return

        if not self.consensus.can_accept_writes:
            self._forward_or_fail(request)
            return
        response = self._execute_write(request, endpoint, worker)
        if response is not None:
            self._respond(request, response)

    def _forward_or_fail(self, request: Request) -> None:
        leader = self.consensus.leader_id
        if leader is None or leader == self.node_id or self.network.is_down(leader):
            self._respond(
                request,
                Response(
                    request.request_id,
                    status=503,
                    error="no known primary; retry another node",
                ),
            )
            return
        self.forwards += 1
        obs = self.scheduler.obs
        if obs is not None:
            obs.request_forwarded(
                self.node_id, request.request_id, self.cost.forwarding_cost
            )
        if request.session_id:
            self._sessions_forwarded.add(request.session_id)
        self._pending_forwards[request.request_id] = (request.client_id, request)
        self.network.send(
            self.node_id,
            leader,
            ForwardedRequest(request=request, origin_node=self.node_id),
            extra_delay=self.cost.forwarding_cost,
        )

    def _on_forwarded_request(self, src: str, payload: ForwardedRequest) -> None:
        request = payload.request
        endpoint = self._lookup_endpoint(request.path)
        if endpoint is None or self.consensus is None or not self.consensus.can_accept_writes:
            response = Response(request.request_id, status=503, error="not primary")
        elif self.config.batch_execution and not endpoint.read_only:
            # Forwarded writes join the primary's execution batch like any
            # other write; the reply returns through the forwarding origin.
            self._enqueue_batch(request, origin_node=payload.origin_node)
            return
        else:
            worker = min(range(len(self._workers)), key=lambda i: self._workers[i])
            obs = self.scheduler.obs
            if obs is None:
                response = self._execute_write(request, endpoint, worker, defer_ok=False)
            else:
                # Forwarded execution runs immediately on arrival (the
                # origin node already charged the service time).
                obs.begin_execute(
                    self.node_id, request, False, 0.0, 0.0, 0, forwarded=True
                )
                obs.enter_execute(self.node_id, request.request_id)
                try:
                    response = self._execute_write(
                        request, endpoint, worker, defer_ok=False
                    )
                finally:
                    obs.finish_execute(self.node_id, request.request_id)
        self.network.send(
            self.node_id,
            payload.origin_node,
            ForwardedResponse(response=response, origin_request_id=request.request_id),
        )

    def _on_forwarded_response(self, payload: ForwardedResponse) -> None:
        pending = self._pending_forwards.pop(payload.origin_request_id, None)
        if pending is None:
            return
        client_id, request = pending
        self.network.send(self.node_id, client_id, ClientResponse(payload.response))
        del request

    # ------------------------------------------------------------------
    # Pipelined batch execution (the primary's hot path)

    def _enqueue_batch(self, request: Request, origin_node: str | None) -> None:
        """Queue a write for the next execution batch.

        Adaptive sizing: the batch closes immediately at
        ``batch_max_requests`` requests or ``batch_max_bytes`` of request
        payload, and otherwise drains ``batch_latency_budget`` after the
        first write was queued — under load batches fill, when idle a lone
        write only waits out the (sub-millisecond) latency budget.
        """
        self._batch_queue.append((request, origin_node))
        self._batch_queue_bytes += len(encode_value(request.body))
        if (
            len(self._batch_queue) >= self.config.batch_max_requests
            or self._batch_queue_bytes >= self.config.batch_max_bytes
        ):
            if self._batch_drain_handle is not None:
                self._batch_drain_handle.cancel()
                self._batch_drain_handle = None
            self._drain_batch()
            return
        if self._batch_drain_handle is None:
            self._batch_drain_handle = self.scheduler.after(
                self.config.batch_latency_budget, self._drain_batch
            )

    def _drain_batch(self) -> None:
        """Close the current batch and schedule its execution on the
        least-loaded worker after the amortized batched service time."""
        self._batch_drain_handle = None
        if self.stopped or not self._batch_queue:
            return
        batch = self._batch_queue
        batch_bytes = self._batch_queue_bytes
        self._batch_queue = []
        self._batch_queue_bytes = 0
        if self.consensus is None or not self.consensus.can_accept_writes:
            self._redirect_batch(batch)
            return
        n = len(batch)
        service_time = self.cost.batched_write_cost(n, self._backup_count())
        worker = min(range(len(self._workers)), key=lambda i: self._workers[i])
        start = max(self.scheduler.now, self._workers[worker])
        completion = start + service_time
        self._workers[worker] = completion
        obs = self.scheduler.obs
        if obs is not None:
            queue_wait = start - self.scheduler.now
            busy = sum(1 for free_at in self._workers if free_at > self.scheduler.now)
            obs.pipeline_batch(self.node_id, n, batch_bytes, queue_wait, service_time)
            per_request = service_time / n
            for request, origin_node in batch:
                obs.begin_execute(
                    self.node_id,
                    request,
                    False,
                    queue_wait,
                    per_request,
                    busy,
                    forwarded=origin_node is not None,
                    batched=True,
                )
        batch_seq = self._batch_seq
        self._batch_seq += 1
        self.scheduler.at(
            completion, lambda: self._on_batch_complete(batch_seq, batch, worker)
        )

    def _on_batch_complete(self, batch_seq: int, batch: list, worker: int) -> None:
        """A batch finished executing on its worker. Batches run on parallel
        workers but *apply* (append + respond) strictly in drain order, so
        the ledger keeps the serial oracle's arrival order even when a
        small batch overtakes a larger earlier one."""
        if self.stopped:
            return
        self._batches_completed[batch_seq] = (batch, worker)
        while self._batch_apply_next in self._batches_completed:
            ready, ready_worker = self._batches_completed.pop(self._batch_apply_next)
            self._batch_apply_next += 1
            self._execute_batch(ready, ready_worker)

    def _execute_batch(
        self, batch: list[tuple[Request, str | None]], worker: int
    ) -> None:
        """Apply one drained batch: every request executes speculatively
        against the batch-start snapshot, conflicting requests re-execute
        against the live store, and each surviving write set is appended in
        arrival order — byte-identical ledger entries, seqnos, and signature
        positions to serial execution."""
        if self.stopped:
            return
        obs = self.scheduler.obs
        if self.consensus is None or not self.consensus.can_accept_writes:
            # Primacy was lost while the batch sat in the pipe; nothing was
            # executed or appended, so redirecting is safe.
            if obs is not None:
                for request, _origin in batch:
                    obs.finish_execute(self.node_id, request.request_id, status=503)
            self._redirect_batch(batch)
            return
        tracer = self.scheduler.tracer
        if tracer is not None:
            # Fold the batch boundary into the trace digest: replay equality
            # then also proves batch composition is deterministic.
            tracer.record_mark(
                f"pipeline.batch|{self.node_id}|{self.ledger.last_seqno + 1}"
                f"|{len(batch)}"
            )
        base_maps, base_version = self.store.snapshot_view()
        written_keys: set[tuple[str, object]] = set()
        written_maps: set[str] = set()
        outgoing: list[tuple[Request, str | None, Response, float]] = []
        sig_delay = 0.0
        for request, origin_node in batch:
            self.requests_processed += 1
            if obs is not None:
                obs.enter_execute(self.node_id, request.request_id)
            try:
                response, signed = self._execute_batched_request(
                    request, base_maps, base_version, written_keys, written_maps
                )
            finally:
                if obs is not None:
                    obs.finish_execute(self.node_id, request.request_id)
            if signed:
                # The triggering request pays for the signature, exactly as
                # in serial execution (Figure 8's latency spike); later
                # responses in the batch queue behind it.
                self._workers[worker] += self.cost.signature_cost
                sig_delay += self.cost.signature_cost
            outgoing.append((request, origin_node, response, sig_delay))
        for request, origin_node, response, delay in outgoing:
            self._send_batched_response(request, origin_node, response, delay)

    def _execute_batched_request(
        self,
        request: Request,
        base_maps: dict,
        base_version: int,
        written_keys: set[tuple[str, object]],
        written_maps: set[str],
    ) -> tuple[Response, bool]:
        """Execute one request of a batch. Returns (response, signed)."""
        endpoint = self._lookup_endpoint(request.path)
        if endpoint is None:
            return (
                Response(
                    request.request_id,
                    status=404,
                    error=f"no endpoint {request.path}",
                ),
                False,
            )
        try:
            self._require_service_open(request)
            caller = self._authenticate(request, endpoint)
            # Speculative execution against the shared batch-start snapshot.
            tx = Transaction(base_maps, base_version)
            ctx = RequestContext(request, tx, caller, node=self)
            body = endpoint.handler(ctx)
            conflict = any(
                (map_name, key) in written_keys
                for map_name, key, _seen in tx.reads()
            ) or bool(tx.scanned_maps() & written_maps)
            if conflict:
                # An earlier request in this batch wrote something this one
                # read (or scanned a map it wrote): roll the speculative tx
                # back and re-execute against the live store, which already
                # holds every earlier write — exact serial semantics.
                if self.scheduler.obs is not None:
                    self.scheduler.obs.pipeline_conflict(self.node_id, request.path)
                tx = self.store.begin()
                ctx = RequestContext(request, tx, caller, node=self)
                body = endpoint.handler(ctx)
            self._check_app_write_set(request, tx.write_set)
            if tx.is_read_only:
                txid = self.ledger.txid_at(
                    min(self.store.version, self.ledger.last_seqno)
                )
                return Response(request.request_id, body=body, txid=str(txid)), False
            for map_name, entries in tx.write_set.updates.items():
                written_maps.add(map_name)
                for key in entries:
                    written_keys.add((map_name, key))
            entry = self._append_local_entry(tx.write_set, claims=ctx.claims)
            self.writes_executed += 1
            response = Response(request.request_id, body=body, txid=str(entry.txid))
            if self._txs_since_signature >= self.config.signature_interval:
                self._append_signature_now()
                return response, True
            return response, False
        except CCFError as exc:
            return self._error_response(request, exc), False

    def _send_batched_response(
        self,
        request: Request,
        origin_node: str | None,
        response: Response,
        delay: float,
    ) -> None:
        def deliver() -> None:
            if self.stopped:
                return
            if origin_node is None:
                self._respond(request, response)
            else:
                self.network.send(
                    self.node_id,
                    origin_node,
                    ForwardedResponse(
                        response=response, origin_request_id=request.request_id
                    ),
                )

        if delay > 0:
            self.scheduler.after(delay, deliver)
        else:
            deliver()

    def _redirect_batch(self, batch: list[tuple[Request, str | None]]) -> None:
        """The queued batch can no longer execute here (primacy lost):
        direct requests re-enter the forwarding path, forwarded ones bounce
        back to their origin as a retryable 503."""
        for request, origin_node in batch:
            if origin_node is None:
                self._forward_or_fail(request)
            else:
                self.network.send(
                    self.node_id,
                    origin_node,
                    ForwardedResponse(
                        response=Response(
                            request.request_id, status=503, error="not primary"
                        ),
                        origin_request_id=request.request_id,
                    ),
                )

    # ------------------------------------------------------------------
    # Execution

    def _authenticate(self, request: Request, endpoint) -> Caller:
        reader = auth_module.StoreReader(self.store.get)
        return auth_module.authenticate(request, endpoint.auth_policy, reader)

    def _require_service_open(self, request: Request) -> None:
        if request.path.startswith("/app/"):
            info = self.store.get(maps.SERVICE_INFO, "service") or {}
            if info.get("status") != maps.SERVICE_OPEN:
                raise ServiceUnavailableError(
                    "service is not open to users (status: "
                    f"{info.get('status', 'unknown')})"
                )

    def _execute_read(self, request: Request, endpoint, offload: bool = False) -> None:
        try:
            self._require_service_open(request)
            caller = self._authenticate(request, endpoint)
            if offload and not self.is_primary:
                # Backups serve from the last-committed snapshot: nothing
                # speculative can leak into (or be silently missing from)
                # an offloaded read.
                served_version = min(self.consensus.commit_seqno, self.store.version)
                served_version = max(
                    served_version, self.store.earliest_retained_version()
                )
                tx = self.store.begin_at(served_version)
            else:
                # The primary serves current state: read-your-writes for
                # sessions that stayed on the primary.
                served_version = self.store.version
                tx = self.store.begin()
            if request.after_txid:
                self._check_read_freshness(request.after_txid, served_version)
            ctx = RequestContext(request, tx, caller, node=self)
            body = endpoint.handler(ctx)
            # Read-only: reply with the ID of the last applied transaction
            # (section 3.4).
            txid = self.ledger.txid_at(min(served_version, self.ledger.last_seqno))
            self.reads_executed += 1
            response = Response(request.request_id, body=body, txid=str(txid))
            if offload:
                response.freshness = self._freshness_metadata(served_version)
                if self.scheduler.obs is not None:
                    self.scheduler.obs.offloaded_read(self.node_id, behind=False)
            self._respond(request, response)
        except CCFError as exc:
            if offload and isinstance(exc, (ReadBehindError, ReadRolledBackError)):
                if self.scheduler.obs is not None:
                    self.scheduler.obs.offloaded_read(self.node_id, behind=True)
            self._respond(request, self._error_response(request, exc))

    def _check_read_freshness(self, after_text: str, served_version: int) -> None:
        """Enforce a read's ``after_txid`` freshness floor: serve only when
        the served snapshot provably includes that exact transaction, else
        raise a *typed* error — behind (retryable) or rolled back (the
        floor can never commit). Never a silent stale answer."""
        try:
            after = TxID.parse(after_text)
        except CCFError:
            raise KVError(f"malformed after_txid {after_text!r}") from None
        status = self.consensus.status_of(after)
        if status.value == "Invalid":
            raise ReadRolledBackError(
                f"freshness floor {after_text} was rolled back and can "
                "never commit; reconcile state derived from it",
                after_txid=after_text,
            )
        if after.seqno <= served_version and self.ledger.has_txid(after):
            return
        raise ReadBehindError(
            f"snapshot at seqno {served_version} does not yet include "
            f"{after_text}; retry here later or read elsewhere",
            after_txid=after_text,
        )

    def _freshness_metadata(self, served_version: int) -> dict:
        """Metadata letting a client audit an offloaded read's freshness:
        the served snapshot seqno, this node's commit seqno, and the latest
        signature-anchored TxID at or below the served snapshot — the
        client can fetch that anchor's receipt (/node/receipt) to bind the
        snapshot to the signed Merkle root."""
        anchor_seqno = self.ledger.prev_signature_seqno(served_version)
        freshness = {
            "served_seqno": served_version,
            "commit_seqno": self.consensus.commit_seqno,
        }
        if anchor_seqno is not None:
            freshness["signature_txid"] = str(self.ledger.txid_at(anchor_seqno))
        return freshness

    @staticmethod
    def _check_app_write_set(request: Request, write_set: WriteSet) -> None:
        """Section 6.1: application logic may read but never write CCF's
        internal and governance maps — those change only through governance
        proposals and the framework itself."""
        if not request.path.startswith("/app/"):
            return
        for map_name in write_set.maps():
            if map_name.startswith(maps.GOV_PREFIX) or map_name.startswith(
                maps.INTERNAL_PREFIX
            ):
                raise AuthorizationError(
                    f"application logic may not write to {map_name}"
                )

    def _execute_write(
        self, request: Request, endpoint, worker: int, defer_ok: bool = True
    ) -> Response | None:
        try:
            self._require_service_open(request)
            caller = self._authenticate(request, endpoint)
            tx = self.store.begin()
            ctx = RequestContext(request, tx, caller, node=self)
            body = endpoint.handler(ctx)
            self._check_app_write_set(request, tx.write_set)
            if tx.is_read_only:
                txid = self.ledger.txid_at(min(self.store.version, self.ledger.last_seqno))
                return Response(request.request_id, body=body, txid=str(txid))
            entry = self._append_local_entry(tx.write_set, claims=ctx.claims)
            self.writes_executed += 1
            response = Response(request.request_id, body=body, txid=str(entry.txid))
            if self._txs_since_signature >= self.config.signature_interval:
                # The triggering request pays for the signature: its
                # response (and this worker) are delayed by the signing
                # cost — Figure 8's periodic latency spike.
                self._append_signature_now()
                self._workers[worker] += self.cost.signature_cost
                if defer_ok:
                    self.scheduler.after(
                        self.cost.signature_cost,
                        lambda: self._respond(request, response),
                    )
                    return None
            return response
        except CCFError as exc:
            return self._error_response(request, exc)

    def _error_response(self, request: Request, exc: CCFError) -> Response:
        from repro.errors import GovernanceError

        status_by_type = {
            AuthenticationError: 401,
            AuthorizationError: 403,
            ServiceUnavailableError: 503,
            # 425 Too Early: the offloaded snapshot is behind the requested
            # freshness floor — retryable here or on another node.
            ReadBehindError: 425,
            # 410 Gone: the freshness floor was rolled back and can never
            # commit — not retryable as-is.
            ReadRolledBackError: 410,
            GovernanceError: 400,
            KVError: 400,
        }
        status = 500
        for exc_type, code in status_by_type.items():
            if isinstance(exc, exc_type):
                status = code
                break
        return Response(request.request_id, status=status, error=str(exc))

    def certificate_for_node(self, node_id: str) -> Certificate:
        """The service-endorsed identity certificate for ``node_id``.

        Trusted nodes share the service key (Table 1), so any of them can
        produce the endorsement for a peer's recorded public key.
        """
        if node_id == self.node_id:
            return self.node_certificate
        row = self.store.get(maps.NODES_INFO, node_id)
        if not isinstance(row, dict) or "public_key" not in row:
            raise KVError(f"no recorded identity for node {node_id}")
        service_key = self.enclave.memory.get("service_key")
        return issue(
            node_id,
            VerifyingKey.decode(bytes.fromhex(row["public_key"])),
            self.service_certificate.subject,
            service_key,
        )

    # ==================================================================
    # Historical queries (section 3.4)

    def historical_range(self, start_seqno: int, end_seqno: int):
        """Decrypted write sets of committed entries in [start, end]."""
        end = min(end_seqno, self.consensus.commit_seqno if self.consensus else 0)
        result = []
        for entry in self.ledger.entries(max(1, start_seqno), end):
            result.append(self.ledger.decrypt_private(entry))
        return result

    # ==================================================================
    # Lifecycle

    def crash(self) -> None:
        """Simulate a machine failure: enclave memory is lost, timers die,
        the network endpoint goes dark. Host storage survives."""
        self.stopped = True
        if self.consensus is not None:
            self.consensus.stop()
        self.enclave.destroy()
        self.network.crash(self.node_id)
        self.network.unregister(self.node_id)

    @property
    def is_primary(self) -> bool:
        return self.consensus is not None and self.consensus.is_primary

    def tx_status(self, txid: TxID) -> str:
        return self.consensus.status_of(txid).value
