"""The disaster recovery protocol (section 5.2).

If more than a majority of nodes fail, the service restarts — best effort —
from the persistent ledger files of as little as one host:

1. A node starts in recovery mode with the salvaged ledger files.
2. The *public* parts of transactions are restored by replay; signature
   transactions are verified against the node identities recorded in the
   (public) governance maps, and any unverifiable suffix is dropped.
3. The recovered service presents a **new service identity**, making the
   recovery (and any rollback it implies) detectable by users.
4. Members submit recovery shares; the previous ledger secret is
   reconstructed in the TEE and the private state decrypted.
5. Members vote to open the recovered service, naming the old and new
   service identities to bind the proposal to this exact recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.ecdsa import VerifyingKey
from repro.errors import IntegrityError, LedgerError, RecoveryError, VerificationError
from repro.kv.store import KVStore
from repro.kv.tx import WriteSet
from repro.ledger.chunking import LedgerChunk
from repro.ledger.entry import LedgerEntry
from repro.ledger.ledger import SIGNATURES_MAP, Ledger, SignatureRecord
from repro.ledger.secrets import LedgerSecret, LedgerSecretStore
from repro.node import maps
from repro.node.start import append_first_entry, mint_service_identity
from repro.storage.host_storage import HostStorage


@dataclass(frozen=True)
class SalvageWarning:
    """One chunk file the salvage had to drop, and why — typed so callers
    (and the recovery summary users vote on) can tell a torn tail from a
    structural gap without parsing strings."""

    kind: str  # "torn-chunk" | "empty-chunk" | "overlapping-chunk" | "gap"
    filename: str
    detail: str

    def describe(self) -> str:
        return f"{self.kind} {self.filename}: {self.detail}"


def salvage_ledger_entries(
    storage: HostStorage,
) -> tuple[list[LedgerEntry], list[SalvageWarning]]:
    """Best-effort reassembly of a crashed disk's chunk files.

    Unlike :func:`repro.ledger.chunking.reassemble_chunks` (which is strict
    — the auditor *wants* a torn file to be a finding), salvage keeps going:
    a chunk that fails to decode (torn mid-blob by a power loss, corrupted
    by the host) is dropped with a typed warning, stale open chunks that
    overlap a complete successor are dropped, and anything beyond the first
    gap is dropped — the result is the longest decodable prefix from seqno
    1. Verification (signature transactions) still happens in the caller;
    this function only rescues structure."""
    warnings: list[SalvageWarning] = []
    decoded: list[tuple[str, LedgerChunk]] = []
    for name in storage.list_files("ledger_"):
        try:
            chunk = LedgerChunk.decode(storage.read(name))
        # A torn or corrupted file can fail decoding in arbitrary ways;
        # every failure becomes a typed warning, never an abort.
        # repro-lint: disable=PROTO002
        except Exception as exc:
            warnings.append(SalvageWarning("torn-chunk", name, str(exc)))
            continue
        if not chunk.entries:
            warnings.append(SalvageWarning("empty-chunk", name, "no entries"))
            continue
        decoded.append((name, chunk))
    # Complete chunks win over open chunks covering the same range (a crash
    # between writing the complete chunk and deleting its open predecessor
    # legitimately leaves both on disk).
    decoded.sort(key=lambda pair: (pair[1].first_seqno, not pair[1].is_complete))
    entries: list[LedgerEntry] = []
    expected = 1
    gap_at: int | None = None
    for name, chunk in decoded:
        if gap_at is not None:
            warnings.append(SalvageWarning(
                "gap", name,
                f"unreachable past the gap at seqno {gap_at}",
            ))
            continue
        if chunk.last_seqno < expected:
            warnings.append(SalvageWarning(
                "overlapping-chunk", name,
                f"covered by a complete chunk through seqno {expected - 1}",
            ))
            continue
        if chunk.first_seqno > expected:
            gap_at = expected
            warnings.append(SalvageWarning(
                "gap", name,
                f"expected seqno {expected}, chunk starts at {chunk.first_seqno}",
            ))
            continue
        fresh = [e for e in chunk.entries if e.txid.seqno >= expected]
        if any(e.txid.seqno != s for e, s in zip(fresh, range(expected, expected + len(fresh)))):
            warnings.append(SalvageWarning(
                "torn-chunk", name, "entries are not densely numbered"
            ))
            gap_at = expected
            continue
        entries.extend(fresh)
        expected += len(fresh)
    return entries, warnings


@dataclass
class PublicReplayResult:
    """What a recovery replay yields before shares arrive."""

    ledger: Ledger
    store: KVStore  # public state only
    verified_seqno: int  # last seqno covered by a verified signature
    last_view: int
    previous_service_identity: dict | None
    warnings: list[SalvageWarning] = field(default_factory=list)


def replay_public_ledger(storage: HostStorage) -> PublicReplayResult:
    """Rebuild ledger + public store from untrusted chunk files, verifying
    every signature transaction against node identities found in the public
    state itself. Entries after the last verifiable signature are dropped,
    and so are chunk files a crash tore or a host corrupted — each with a
    typed :class:`SalvageWarning` (best effort, as the paper specifies)."""
    try:
        entries, salvage_warnings = salvage_ledger_entries(storage)
    # Salvaged disks hold arbitrary bytes; any failure to even enumerate
    # them means "not recoverable from this disk", typed for the caller.
    # repro-lint: disable=PROTO002
    except Exception as exc:
        raise RecoveryError(f"ledger files unreadable: {exc}") from exc
    if not entries:
        raise RecoveryError(
            "no ledger entries salvageable from this disk"
            + (f" ({salvage_warnings[0].describe()})" if salvage_warnings else "")
        )
    return replay_entries(entries, salvage_warnings)


def replay_entries(
    entries: list[LedgerEntry], salvage_warnings: list[SalvageWarning]
) -> PublicReplayResult:
    """Replay salvaged entries, batched below the verified signature anchor.

    Two phases instead of one interleaved loop:

    1. **Structural**: validate ordering and apply each entry's public
       write set (the KV store needs per-entry versions for rollback), but
       defer the ledger work. Signature entries are *collected* — the
       signer's key is resolved here, against the store exactly as a
       serial replay would see it at that seqno.
    2. **Batched verify**: append every structurally sound entry in one
       ``append_batch`` (the Merkle extension folds into a single tight
       loop), then verify the collected signatures in order — each one a
       historical-root lookup (O(log n) via the subtree/spine caches) plus
       one ECDSA check on the fastec double-scalar path. The first failure
       is the anchor cut-off, exactly as in a serial replay.

    The result is byte-identical to the strictly serial replay in
    ``tests/oracles/replay.py`` (``tests/service/test_replay_fastpath.py``
    holds it to that on clean, tampered and broken ledgers): entries past a
    failing signature were applied here but are discarded by the
    truncate/rollback tail, and ``last_view`` is taken from the failing
    signature when there is one, matching where a serial loop stops."""
    ledger = Ledger(LedgerSecretStore())
    store = KVStore()
    accepted: list[LedgerEntry] = []
    # (seqno, signer key) for every signature entry whose signer identity
    # was recorded at collection time.
    collected: list[tuple[int, VerifyingKey]] = []
    expected_seqno = 1
    highest_view = 0
    for entry in entries:
        try:
            if entry.txid.seqno != expected_seqno:
                raise RecoveryError(
                    f"entry seqno {entry.txid.seqno} != expected {expected_seqno}"
                )
            if entry.txid.view < highest_view:
                raise RecoveryError("entry view regresses")
            store.apply_write_set(entry.public_writes, entry.txid.seqno)
        # A tampered suffix can break replay in arbitrary ways; per the
        # paper we keep the sound prefix. repro-lint: disable=PROTO002
        except Exception:
            break
        accepted.append(entry)
        expected_seqno += 1
        highest_view = entry.txid.view
        if entry.is_signature:
            try:
                record = SignatureRecord.from_value(
                    entry.public_writes.updates[SIGNATURES_MAP]["latest"]
                )
                key = _node_public_key(store, record.node_id)
            except RecoveryError:
                continue  # pre-genesis service-opening signature: skip
            collected.append((entry.txid.seqno, key))
    ledger.append_batch(accepted)
    verified_seqno = 0
    failed_seqno: int | None = None
    for seqno, key in collected:
        try:
            ledger.verify_signature_entry(seqno, key)
        except (IntegrityError, VerificationError):
            failed_seqno = seqno
            break
        verified_seqno = seqno
    if failed_seqno is not None:
        # A serial replay stops *at* the failing signature, so last_view
        # is that entry's view, not the newest appended one.
        last_view = ledger.txid_at(failed_seqno).view
    else:
        last_view = accepted[-1].txid.view if accepted else 0
    if verified_seqno == 0:
        raise RecoveryError("no verifiable signature transaction in the ledger files")
    # Drop everything after the verified prefix.
    ledger.truncate(verified_seqno)
    store.rollback_to(verified_seqno)
    store.compact(verified_seqno)
    service_row = store.get(maps.SERVICE_INFO, "service")
    previous_identity = service_row.get("certificate") if service_row else None
    return PublicReplayResult(
        ledger=ledger,
        store=store,
        verified_seqno=verified_seqno,
        last_view=last_view,
        previous_service_identity=previous_identity,
        warnings=salvage_warnings,
    )


def _node_public_key(store: KVStore, node_id: str) -> VerifyingKey:
    row = store.get(maps.NODES_INFO, node_id)
    if not isinstance(row, dict) or "public_key" not in row:
        raise RecoveryError(f"no recorded identity for signing node {node_id}")
    return VerifyingKey.decode(bytes.fromhex(row["public_key"]))


def start_recovered_service(
    node,
    salvaged_storage: HostStorage,
    service_subject: str,
) -> dict:
    """Start ``node`` (a fresh :class:`repro.node.node.CCFNode`) in
    recovery mode from salvaged ledger files.

    Restores the public state, mints a **new** service identity (the
    recovery is detectable by users), and waits for member recovery
    shares before private state can be decrypted. Returns a summary
    with the previous service identity for the opening proposal.
    """
    replay = replay_public_ledger(salvaged_storage)
    obs = node.scheduler.obs
    if obs is not None:
        obs.recovery_event(
            node.node_id, "replay",
            verified_seqno=replay.verified_seqno,
            salvage_warnings=len(replay.warnings),
        )
    # A fresh ledger secret generation for all new transactions; the
    # previous generation arrives later via recovery shares.
    previous_generation = 0
    row = replay.store.get(maps.LEDGER_SECRET, "current")
    if isinstance(row, dict):
        previous_generation = row.get("generation", 0)
    replay.ledger.secrets = mint_service_identity(
        node, service_subject, b"|recovered-service-identity",
        generation=previous_generation + 1,
    )
    consensus = node.install(
        replay.store,
        replay.ledger,
        {node.node_id},
        base_seqno=replay.verified_seqno,
        config_base_seqno=replay.verified_seqno,
        persisted_seqno=replay.verified_seqno,
    )
    consensus.commit_seqno = replay.verified_seqno
    consensus.view = replay.last_view  # bumped just below
    consensus.start_as_recovery_primary(replay.last_view + 1)

    # The recovered service runs on this node alone until others join:
    # record the new topology and status, replacing stale node rows.
    write_set = WriteSet()
    for node_id, _info in list(node.store.items(maps.NODES_INFO)):
        if node_id != node.node_id:
            write_set.remove(maps.NODES_INFO, node_id)
    append_first_entry(node, write_set, dict(
        node.store.get(maps.SERVICE_INFO, "service") or {},
        status=maps.SERVICE_WAITING_FOR_SHARES,
        previous_identity=replay.previous_service_identity,
    ))
    if obs is not None:
        obs.recovery_event(node.node_id, "awaiting_shares")
    return {
        "verified_seqno": replay.verified_seqno,
        "previous_service_identity": replay.previous_service_identity,
        "new_service_identity": node.service_certificate.to_dict(),
        "salvage_warnings": [w.describe() for w in replay.warnings],
    }


def complete_private_recovery(
    node, previous_secrets: LedgerSecret | list[LedgerSecret]
) -> None:
    """The wrapping key was reconstructed from member shares: install
    the previous ledger secret generation(s) on the recovering ``node``
    and decrypt the restored private state.

    Private write sets are replayed oldest-first over the restored
    public state, validating every AEAD tag as we go. The folding is a
    local reconstruction, not new ledger transactions — recovery
    happens before users reconnect, so merging at the current version
    is safe. Entries sealed under a generation that was never
    re-wrapped (and is therefore unrecoverable) are skipped: recovery
    is best-effort (section 5.2).
    """
    if isinstance(previous_secrets, LedgerSecret):
        previous_secrets = [previous_secrets]
    secrets: LedgerSecretStore = node.enclave.memory.get("ledger_secrets")
    for secret in previous_secrets:
        secrets.add(secret)
    recovered = 0
    for entry in node.ledger.entries(1, node.consensus.commit_seqno):
        if not entry.private_blob:
            continue
        try:
            write_set = node.ledger.decrypt_private(entry)
        except LedgerError:
            continue  # generation not recoverable: best effort
        # Public maps were already restored during the public replay.
        node.store.merge_at_current_version({
            map_name: updates
            for map_name, updates in write_set.updates.items()
            if not map_name.startswith("public:")
        })
        recovered += 1
    node.enclave.memory.put("recovered_private_entries", recovered)
    obs = node.scheduler.obs
    if obs is not None:
        obs.recovery_event(
            node.node_id, "private_recovery", recovered_entries=recovered
        )
