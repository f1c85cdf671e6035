"""The strictly serial recovery replay, kept as the differential oracle.

One entry at a time, every signature verified the moment it is appended.
``repro.recovery.recovery.replay_entries`` (two-phase, batched) is the one
production replay; ``tests/service/test_replay_fastpath.py`` holds it to
this loop byte for byte on clean, tampered and broken ledgers. Keep it
boring.
"""

from repro.crypto.ecdsa import VerifyingKey
from repro.errors import IntegrityError, RecoveryError, VerificationError
from repro.kv.store import KVStore
from repro.ledger.ledger import Ledger
from repro.ledger.secrets import LedgerSecretStore
from repro.node import maps
from repro.recovery.recovery import PublicReplayResult


def _signer_key(store: KVStore, node_id: str) -> VerifyingKey:
    row = store.get(maps.NODES_INFO, node_id)
    if not isinstance(row, dict) or "public_key" not in row:
        raise RecoveryError(f"no recorded identity for signing node {node_id}")
    return VerifyingKey.decode(bytes.fromhex(row["public_key"]))


def replay_entries_serial(entries, salvage_warnings) -> PublicReplayResult:
    ledger = Ledger(LedgerSecretStore())
    store = KVStore()
    verified_seqno = 0
    last_view = 0
    for entry in entries:
        try:
            ledger.append(entry)
            store.apply_write_set(entry.public_writes, entry.txid.seqno)
        except Exception:
            break  # structurally broken suffix: stop here
        last_view = entry.txid.view
        if entry.is_signature:
            try:
                record = ledger.signature_record(entry.txid.seqno)
                key = _signer_key(store, record.node_id)
            except RecoveryError:
                # The signer's identity is not recorded yet — true only for
                # the service-opening signature that precedes the genesis
                # transaction. Skip it without advancing the verified point.
                continue
            try:
                ledger.verify_signature_entry(entry.txid.seqno, key)
            except (IntegrityError, VerificationError):
                break  # tampered: nothing at or past this point is trusted
            verified_seqno = entry.txid.seqno
    if verified_seqno == 0:
        raise RecoveryError("no verifiable signature transaction in the ledger files")
    ledger.truncate(verified_seqno)
    store.rollback_to(verified_seqno)
    store.compact(verified_seqno)
    service_row = store.get(maps.SERVICE_INFO, "service")
    return PublicReplayResult(
        ledger=ledger,
        store=store,
        verified_seqno=verified_seqno,
        last_view=last_view,
        previous_service_identity=service_row.get("certificate") if service_row else None,
        warnings=salvage_warnings,
    )
