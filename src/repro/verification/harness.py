"""A minimal consensus-only harness: ConsensusNode + ledger + simulated
network, without the application/governance stack.

Used by the consensus test suite and by the adversarial explorer
(:mod:`repro.verification.explorer`): it runs the *real* consensus engine
and ledger with a thin host, so protocol behaviour is exactly that of the
full node minus the application layer.
"""

from __future__ import annotations

from repro.consensus.raft import ConsensusNode
from repro.crypto.ecdsa import SigningKey
from repro.errors import NotPrimaryError
from repro.kv.store import KVStore
from repro.kv.tx import WriteSet
from repro.ledger.entry import EntryKind, LedgerEntry
from repro.ledger.ledger import Ledger
from repro.ledger.secrets import LedgerSecret, LedgerSecretStore
from repro.net.network import LinkConfig, Network
from repro.sim.scheduler import Scheduler

NODES_INFO_MAP = "public:ccf.gov.nodes.info"


class MiniHost:
    """Implements ConsensusHost over a bare ledger + KV store."""

    def __init__(self, node_id: str, network: Network, secrets_seed: bytes = b"shared"):
        self.node_id = node_id
        self.network = network
        self.ledger = Ledger(LedgerSecretStore(LedgerSecret.generate(secrets_seed)))
        self.store = KVStore()
        self.signing_key = SigningKey.generate(node_id.encode())
        self.committed: list[int] = []
        self.consensus: ConsensusNode | None = None

    # -- ConsensusHost interface ----------------------------------------

    def send_consensus_message(self, to: str, message: object) -> None:
        self.network.send(self.node_id, to, message)

    def apply_replicated_entry(self, entry: LedgerEntry):
        self.ledger.append(entry)
        write_set = self.ledger.decrypt_private(entry)
        self.store.apply_write_set(write_set, entry.txid.seqno)
        if entry.is_reconfiguration:
            self._note_retirements(write_set)
            return self._configuration_from_store()
        return None

    def _note_retirements(self, write_set) -> None:
        for node_id, info in write_set.updates.get(NODES_INFO_MAP, {}).items():
            if isinstance(info, dict) and info.get("status") == "Retiring":
                self.consensus.note_retiring(node_id)

    def truncate_to(self, seqno: int) -> None:
        self.ledger.truncate(seqno)
        self.store.rollback_to(seqno)

    def append_signature_entry(self, view: int) -> LedgerEntry:
        entry = self.ledger.build_signature_entry(view, self.node_id, self.signing_key)
        self.ledger.append(entry)
        self.store.apply_write_set(entry.public_writes, entry.txid.seqno)
        return entry

    def on_commit(self, seqno: int) -> None:
        self.committed.append(seqno)
        self.store.compact(seqno)

    def on_lose_primacy(self) -> None:
        pass

    # -- Driving helpers --------------------------------------------------

    def _configuration_from_store(self) -> frozenset[str]:
        trusted = {
            node_id
            for node_id, info in self.store.items(NODES_INFO_MAP)
            if info.get("status") == "Trusted"
        }
        return frozenset(trusted)

    def _require_primary(self) -> None:
        if self.consensus is None or not self.consensus.is_primary:
            raise NotPrimaryError(
                f"{self.node_id} is not the primary (an election may have "
                "intervened between check and call)"
            )

    def submit_write(self, key, value, map_name: str = "data") -> LedgerEntry:
        """Primary-side user write: execute + append + notify consensus.

        Raises :class:`NotPrimaryError` when this node is not (or is no
        longer) the primary — an environmental race, not a bug.
        """
        self._require_primary()
        write_set = WriteSet()
        write_set.put(map_name, key, value)
        entry = self.ledger.build_entry(self.consensus.view, write_set)
        self.ledger.append(entry)
        self.store.apply_write_set(write_set, entry.txid.seqno)
        self.consensus.note_local_append(entry, None)
        self.consensus.replicate_now()
        return entry

    def submit_reconfiguration(self, statuses: dict[str, str]) -> LedgerEntry:
        """Primary-side reconfiguration: write node statuses to nodes.info."""
        self._require_primary()
        write_set = WriteSet()
        merged = dict(self.store.items(NODES_INFO_MAP))
        for node_id, status in statuses.items():
            merged[node_id] = {"status": status}
            write_set.put(NODES_INFO_MAP, node_id, {"status": status})
        entry = self.ledger.build_entry(
            self.consensus.view, write_set, kind=EntryKind.RECONFIGURATION
        )
        self.ledger.append(entry)
        self.store.apply_write_set(write_set, entry.txid.seqno)
        new_config = frozenset(
            node_id for node_id, info in merged.items() if info["status"] == "Trusted"
        )
        self.consensus.note_local_append(entry, new_config)
        self._note_retirements(write_set)
        self.consensus.replicate_now()
        return entry

    def sign_now(self) -> LedgerEntry:
        """Primary-side signature transaction (commit point)."""
        self._require_primary()
        entry = self.append_signature_entry(self.consensus.view)
        self.consensus.note_local_append(entry, None)
        self.consensus.replicate_now()
        return entry


class Cluster:
    """N MiniHost nodes wired through one simulated network."""

    def __init__(self, n: int, seed: int = 1, tracer=None, obs=None):
        # A TraceRecorder and an ObsCollector observe from the first event.
        self.scheduler = Scheduler(seed=seed)
        if tracer is not None:
            self.scheduler.attach_tracer(tracer)
        if obs is not None:
            obs.attach(self.scheduler)
        self.network = Network(self.scheduler, LinkConfig(base_latency=0.0005, jitter=0.0001))
        self.node_ids = [f"n{i}" for i in range(n)]
        self.hosts: dict[str, MiniHost] = {}
        initial = frozenset(self.node_ids)
        for node_id in self.node_ids:
            host = MiniHost(node_id, self.network)
            consensus = ConsensusNode(
                node_id=node_id,
                ledger=host.ledger,
                scheduler=self.scheduler,
                host=host,
                initial_nodes=initial,
            )
            host.consensus = consensus
            host.ledger.obs, host.ledger.obs_owner = obs, node_id
            self.hosts[node_id] = host
            self.network.register(
                node_id,
                lambda src, msg, c=consensus: c.dispatch(msg),
            )

    def start(self, initial_primary: str = "n0") -> None:
        for node_id, host in self.hosts.items():
            if node_id == initial_primary:
                host.consensus.start_as_initial_primary()
            else:
                host.consensus.start()

    def run(self, seconds: float) -> None:
        self.scheduler.run_until(self.scheduler.now + seconds)

    def primary(self) -> MiniHost | None:
        primaries = [
            host
            for host in self.hosts.values()
            if host.consensus.is_primary and not self.network.is_down(host.node_id)
        ]
        # At most one live primary per view; return the highest-view one.
        if not primaries:
            return None
        return max(primaries, key=lambda host: host.consensus.view)

    def crash(self, node_id: str) -> None:
        self.network.crash(node_id)
        self.hosts[node_id].consensus.stop()

    def alive_hosts(self) -> list[MiniHost]:
        return [
            host for host in self.hosts.values() if not self.network.is_down(host.node_id)
        ]
