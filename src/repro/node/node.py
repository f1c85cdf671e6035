"""The CCF node: enclave, KV store, ledger, consensus, and frontend.

This is Figure 2 assembled: application logic and the transaction handler
execute inside the (simulated) TEE against the key-value store; the
consensus layer replicates the resulting ledger; the untrusted host provides
storage and networking. One :class:`CCFNode` is one simulated machine.

The class is the wiring and the :class:`~repro.consensus.raft.ConsensusHost`:
it owns the store, ledger and consensus engine, the local-append path with
its timers, and the committed-prefix scan. Everything else lives in the
component that owns the state for it and reaches the node through public
names only (DESIGN.md, "Node components").
"""

from __future__ import annotations

from typing import Callable

from repro.app.application import Application
from repro.app.jsapp.jsapp import build_js_app
from repro.consensus.messages import decode_message, encode_message
from repro.consensus.raft import ConsensusNode
from repro.consensus.state import NodeStatus
from repro.crypto.certs import Certificate
from repro.crypto.ecdsa import SigningKey
from repro.crypto.x25519 import DHPrivateKey
from repro.errors import VerificationError
from repro.kv.store import KVStore
from repro.kv.tx import WriteSet
from repro.ledger.chunking import chunk_entries
from repro.ledger.entry import EntryKind, LedgerEntry, TxID
from repro.ledger.ledger import Ledger
from repro.ledger.secrets import LedgerSecretStore
from repro.net.channels import NodeChannels, SealedMessage
from repro.net.network import Network
from repro.node import maps, wire
from repro.node.config import NodeConfig
from repro.node.frontend import Frontend
from repro.node.indexer import Indexer
from repro.node.join import Join
from repro.node.membership import Membership
from repro.node.snapshots import Snapshots
from repro.obs.metrics import RUNTIME_STATS
from repro.perf import costmodel
from repro.recovery.shares import perform_rekey, reprovision_recovery_shares
from repro.sim.scheduler import Scheduler
from repro.storage.host_storage import HostStorage
from repro.tee.attestation import HardwareRoot
from repro.tee.enclave import Enclave

# The primary's push cadence for newly appended entries (simulated seconds).
REPLICATION_INTERVAL = 0.002


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
        self.cost = costmodel.CostModel(config.runtime, config.platform)

        self.enclave = Enclave(config.platform, code_id, hardware)
        self.hardware = hardware
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
        for factory in app.indexing_strategies.values():
            self.indexer.install(factory())

        self.service_certificate: Certificate | None = None
        self.node_certificate: Certificate | None = None

        self.unsigned_entries = 0  # local appends since the last signature
        self._sig_flush_handle = None  # the armed signature flush, if any
        self._replication_armed = False
        self._commit_scan = 0
        self.persisted_seqno = 0  # committed prefix written to ``storage``
        self._claims_by_seqno: dict[int, dict] = {}
        self.stopped = False

        self.frontend = Frontend(self)
        self.join = Join(self)
        self.membership = Membership(self)
        self.snapshots = Snapshots(self)
        self._handlers: dict[type, Callable[[str, object], None]] = {
            SealedMessage: self._on_sealed_message,
            wire.ClientRequest: self.frontend.admit,
            wire.ForwardedRequest: self.frontend.on_forwarded_request,
            wire.ForwardedResponse: self.frontend.on_forwarded_response,
            wire.JoinRequest: self.membership.on_join_request,
            wire.JoinResponse: self.join.on_join_response,
            wire.StateChunkResponse: self.join.on_state_chunk_response,
        }
        network.register(node_id, self._on_network_message)
        self.wire_obs(scheduler.obs)

    def wire_obs(self, obs) -> None:
        """Point this node's scheduler-less components (enclave, ledger,
        store) at ``obs`` (an :class:`repro.obs.ObsCollector`, or None to
        unhook). Called at creation time and whenever a collector attaches
        or detaches mid-run; components created later re-wire themselves
        through :meth:`install`."""
        for component in (self.enclave, self.ledger, self.store):
            if component is not None:
                component.obs = obs
                component.obs_owner = self.node_id if obs is not None else ""

    # ==================================================================
    # Becoming part of a service. The three ways in — start (``start.py``),
    # join (``join.py``), recover (``repro.recovery.recovery``) — end here.

    def adopt_identity(
        self,
        service_certificate: Certificate,
        node_certificate: Certificate,
        service_key: SigningKey,
        secrets: LedgerSecretStore,
    ) -> None:
        """Take on a service's identity: its certificate, this node's
        endorsement by it, and — in enclave memory only — the service key
        and the ledger secrets."""
        self.service_certificate = service_certificate
        self.node_certificate = node_certificate
        self.enclave.memory.put("ledger_secrets", secrets)
        self.enclave.memory.put("service_key", service_key)

    def install(
        self,
        store: KVStore,
        ledger: Ledger,
        initial_nodes: set[str],
        base_seqno: int = 0,
        config_base_seqno: int = 0,
        persisted_seqno: int = 0,
    ) -> ConsensusNode:
        """Adopt ``store`` and ``ledger``, whose committed prefix ends at
        ``base_seqno`` and is on disk through ``persisted_seqno``, and
        create the consensus engine over them. The caller starts it."""
        self.store = store
        self.ledger = ledger
        self.wire_obs(self.scheduler.obs)
        self._commit_scan = base_seqno
        self.indexer.last_indexed = base_seqno
        self.persisted_seqno = persisted_seqno
        self.consensus = ConsensusNode(
            node_id=self.node_id,
            ledger=ledger,
            scheduler=self.scheduler,
            host=self,
            initial_nodes=initial_nodes,
            config_base_seqno=config_base_seqno,
        )
        return self.consensus

    def node_info_row(self, status: str) -> dict:
        return {
            "status": status,
            "public_key": self.node_key.public_key.encode().hex(),
            "dh_public": self.dh_key.public.hex(),
            "platform": self.config.platform,
            "code_id": self.enclave.code_id,
        }

    def request_join(self, via_node: str, expected_service: Certificate) -> None:
        """Begin joining an existing service through ``via_node``; see
        :meth:`repro.node.join.Join.request`."""
        self.join.request(via_node, expected_service)

    # ==================================================================
    # ConsensusHost interface

    def send_consensus_message(self, to: str, message: object) -> None:
        if self.channels.has_channel(to):
            sealed = self.channels.seal_frame(to, [encode_message(message)])
            # Frames to one peer travel on one ordered stream, as over
            # the TCP connection a CCF host keeps open between two nodes.
            self.network.send(self.node_id, to, sealed, ordered=True)
        # else: channel not yet established; retried by protocol

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
        self.snapshots.on_truncate(seqno)
        # Claims die with their entry: whatever commits at one of these
        # seqnos now is another primary's transaction.
        for stale in [s for s in self._claims_by_seqno if s > seqno]:
            del self._claims_by_seqno[stale]

    def append_signature_entry(self, view: int) -> LedgerEntry:
        entry = self.ledger.build_signature_entry(view, self.node_id, self.node_key)
        self.ledger.append(entry)
        self.store.apply_write_set(entry.public_writes, entry.txid.seqno)
        self.unsigned_entries = 0
        obs = self.scheduler.obs
        if obs is not None:
            obs.signature_tx(self.node_id, view, entry.txid.seqno, costmodel.SIGNATURE_COST)
        return entry

    def on_commit(self, seqno: int) -> None:
        self.store.compact(seqno)
        self._scan_committed(seqno)
        self._persist_ledger(seqno)
        self.snapshots.on_commit(seqno)
        if self.consensus.is_primary:
            self.membership.complete_retirements()

    def on_lose_primacy(self) -> None:
        self.frontend.on_lose_primacy()

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
                    self.membership.on_committed_status(node_id, info.get("status"))
            if maps.MODULES in write_set.updates:
                reload_app = True
            rekey = write_set.updates.get(maps.LEDGER_SECRET, {}).get("rekey_request")
            if isinstance(rekey, dict):
                perform_rekey(self, rekey["new_generation"])
            if (
                maps.MEMBERS_KEYS in write_set.updates
                and maps.LEDGER_SECRET not in write_set.updates  # not genesis/rekey
                and self.consensus.is_primary
            ):
                # Membership changed: re-split the wrapping key so the new
                # consortium can (and only it can) recover (section 5.2).
                secrets = self.enclave.memory.get("ledger_secrets")
                if secrets is not None and len(secrets):
                    reprovision_recovery_shares(self, secrets.current())
        # One batched notification per commit advance: a commit can cover
        # many entries at once, and the indexer guarantees exactly-once,
        # in-order processing regardless of batch shape.
        self.indexer.feed_batch(indexable)
        self._commit_scan = max(self._commit_scan, commit_seqno)
        if reload_app:
            self.reload_js_app()

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
        self.app = build_js_app(module["source"], endpoints or None)

    def _persist_ledger(self, commit_seqno: int) -> None:
        """Write committed, signature-terminated chunks to host storage."""
        if commit_seqno <= self.persisted_seqno:
            return
        start = max(self.persisted_seqno, self.ledger.base_seqno)
        new_entries = list(self.ledger.entries(start + 1, commit_seqno))
        if not new_entries:
            return
        for chunk in chunk_entries(new_entries):
            # chunk_entries numbers chunks relative to the slice; rebuild
            # with absolute seqnos (they already carry their own txids).
            self.storage.write_chunk(chunk)
        self.persisted_seqno = commit_seqno

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

    def append_local_entry(
        self, write_set: WriteSet, claims: dict | None = None
    ) -> LedgerEntry:
        """Append a locally produced transaction (primary only): apply to
        the store, frame as a ledger entry, and hand to consensus."""
        # Only a write to nodes.info can change the trusted set.
        touches_nodes = maps.NODES_INFO in write_set.updates
        trusted_before = self._trusted_set() if touches_nodes else None
        seqno = self.ledger.last_seqno + 1
        self.store.apply_write_set(write_set, seqno)
        trusted_after = self._trusted_set() if touches_nodes else None
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
        self.unsigned_entries += 1
        self._arm_replication()
        self.request_signature()
        return entry

    def claims_at(self, seqno: int) -> dict | None:
        """The claims this node attached when it executed the entry now at
        ``seqno``, if it did."""
        return self._claims_by_seqno.get(seqno)

    def append_signature_now(self) -> None:
        entry = self.append_signature_entry(self.consensus.view)
        self.consensus.note_local_append(entry, None)
        self._arm_replication()

    def sign_if_due(self) -> bool:
        """Append a signature transaction once ``signature_interval``
        entries are unsigned. Returns whether it did."""
        if self.unsigned_entries < self.config.signature_interval:
            return False
        self.append_signature_now()
        return True

    def request_signature(self, immediate: bool = False) -> None:
        """Sign the unsigned tail within ``signature_flush_time`` — or, for
        an entry whose commit something is waiting on, right away."""
        if self._sig_flush_handle is not None:
            if not immediate:
                return
            # An immediate request overrides a pending (possibly long) flush.
            self._sig_flush_handle.cancel()
        delay = 0.0 if immediate else self.config.signature_flush_time

        def flush() -> None:
            self._sig_flush_handle = None
            if self.stopped or not self.consensus or not self.consensus.is_primary:
                return
            if self.unsigned_entries > 0:
                self.append_signature_now()

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

        self.scheduler.after(REPLICATION_INTERVAL, push)

    # ==================================================================
    # Network dispatch

    def _on_network_message(self, src: str, payload: object) -> None:
        if self.stopped:
            return
        handler = self._handlers.get(type(payload))
        if handler is not None:
            handler(src, payload)

    def _on_sealed_message(self, _src: str, message: SealedMessage) -> None:
        """Open a consensus frame and dispatch what it carries. A replay is
        dropped; a frame from an unknown peer, or one altered, cut or
        reflected in flight, is dropped and counted as
        ``channel.frames.rejected``. A joiner has no consensus to give a
        frame to until it installs its snapshot: while the chunk transfer
        is in flight it holds the frame's payloads, authenticated as any
        frame, for dispatch at install (:meth:`Join.hold`); with no
        transfer in flight it drops them. Either way the frame counts as
        ``consensus.frames_before_install``."""
        try:
            payloads = self.channels.open_frame(
                message.sender, message.counter, message.box
            )
        except VerificationError:
            RUNTIME_STATS.inc("channel.frames.rejected")
            return
        if payloads is None:
            return
        if self.consensus is None:
            RUNTIME_STATS.inc("consensus.frames_before_install")
            self.join.hold(payloads)
            return
        for raw in payloads:
            self.consensus.dispatch(decode_message(raw))

    # ==================================================================
    # Historical queries (section 3.4)

    def historical_range(self, start_seqno: int, end_seqno: int):
        """Decrypted write sets of committed entries in [start, end]."""
        end = min(end_seqno, self.consensus.commit_seqno if self.consensus else 0)
        return [
            self.ledger.decrypt_private(entry)
            for entry in self.ledger.entries(max(1, start_seqno), end)
        ]

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

    def tx_status(self, txid: TxID) -> str:
        return self.consensus.status_of(txid).value
