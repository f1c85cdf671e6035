"""Recovery replay: the batched production replay vs the serial oracle.

:func:`repro.recovery.recovery.replay_entries` defers ledger appends and
signature checks into batches; these tests prove it is *byte-identical* to
the serial replay (``tests/oracles/replay.py``) on clean ledgers, tampered
ledgers (bad signature, bad content), and structurally broken suffixes.
"""

import dataclasses

import pytest

from repro.errors import RecoveryError
from repro.kv.tx import WriteSet
from repro.ledger.ledger import SIGNATURES_MAP
from repro.node.config import NodeConfig
from repro.recovery.recovery import (
    replay_entries,
    replay_public_ledger,
    salvage_ledger_entries,
)

from tests.node.conftest import make_service
from tests.oracles.replay import replay_entries_serial


def replay_serial(storage):
    """The oracle over a whole disk, salvaged the way production does."""
    return replay_entries_serial(*salvage_ledger_entries(storage))


def traffic_service(seed=42, writes=60):
    service = make_service(
        n_nodes=3,
        node_config=NodeConfig(signature_interval=10),
        seed=seed,
    )
    user = service.any_user_client()
    primary = service.primary_node()
    for i in range(writes):
        user.call(primary.node_id, "/app/write_message", {"id": i, "msg": f"m{i}"})
    service.run(0.5)
    return service


def assert_identical(fast, slow):
    assert fast.verified_seqno == slow.verified_seqno
    assert fast.last_view == slow.last_view
    assert fast.previous_service_identity == slow.previous_service_identity
    assert fast.warnings == slow.warnings
    assert fast.ledger.last_seqno == slow.ledger.last_seqno
    assert bytes(fast.ledger.root()) == bytes(slow.ledger.root())
    assert b"".join(e.encode() for e in fast.ledger.entries()) == b"".join(
        e.encode() for e in slow.ledger.entries()
    )
    assert fast.ledger.last_signature_txid() == slow.ledger.last_signature_txid()
    v = fast.verified_seqno
    assert fast.store.serialize_at(v) == slow.store.serialize_at(v)


class TestCleanLedgers:
    def test_fast_matches_slow_on_real_disk(self):
        service = traffic_service()
        storage = service.primary_node().storage
        fast = replay_public_ledger(storage.clone())
        slow = replay_serial(storage.clone())
        assert_identical(fast, slow)
        assert fast.verified_seqno > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_fast_matches_slow_across_seeds(self, seed):
        service = traffic_service(seed=1000 + seed, writes=30)
        storage = service.primary_node().storage
        fast = replay_public_ledger(storage.clone())
        slow = replay_serial(storage.clone())
        assert_identical(fast, slow)

    def test_fast_matches_slow_after_failover(self):
        """View changes in the entry stream: the replay must track views
        identically in both paths."""
        service = traffic_service(writes=25)
        primary = service.primary_node()
        service.kill_node(primary.node_id)
        service.run_until(lambda: service.primary_node() is not None, timeout=10.0)
        user = service.any_user_client()
        new_primary = service.primary_node()
        for i in range(15):
            user.call(new_primary.node_id, "/app/write_message", {"id": 100 + i, "msg": "x"})
        service.run(0.5)
        storage = new_primary.storage
        fast = replay_public_ledger(storage.clone())
        slow = replay_serial(storage.clone())
        assert_identical(fast, slow)
        assert fast.last_view > 1


def _salvage(service):
    entries, warnings = salvage_ledger_entries(service.primary_node().storage.clone())
    assert entries
    return entries, warnings


def _signature_seqnos(entries):
    return [e.txid.seqno for e in entries if e.is_signature]


def _tamper_signature(entry):
    """A copy of a signature entry with its ECDSA signature corrupted (the
    root it claims stays valid, so the failure is the signature check)."""
    writes = WriteSet.decode(entry.public_writes.encode())
    record = dict(writes.updates[SIGNATURES_MAP]["latest"])
    sig = bytes.fromhex(record["signature"])
    record["signature"] = (bytes([sig[0] ^ 0xFF]) + sig[1:]).hex()
    writes.updates[SIGNATURES_MAP]["latest"] = record
    return dataclasses.replace(entry, public_writes=writes)


def _tamper_content(entry):
    """A copy of a user entry with its public writes altered — the next
    signature's Merkle root check must catch it."""
    writes = WriteSet.decode(entry.public_writes.encode())
    writes.put("public:tampered", "by", "the host")
    return dataclasses.replace(entry, public_writes=writes)


class TestTamperedLedgers:
    def test_bad_signature_mid_ledger(self):
        service = traffic_service()
        entries, warnings = _salvage(service)
        sig_seqnos = _signature_seqnos(entries)
        assert len(sig_seqnos) >= 3
        victim = sig_seqnos[len(sig_seqnos) // 2]
        tampered = [
            _tamper_signature(e) if e.txid.seqno == victim else e for e in entries
        ]
        fast = replay_entries(tampered, list(warnings))
        slow = replay_entries_serial(tampered, list(warnings))
        assert_identical(fast, slow)
        assert fast.verified_seqno < victim

    def test_tampered_content_breaks_next_signature(self):
        service = traffic_service()
        entries, warnings = _salvage(service)
        sig_seqnos = _signature_seqnos(entries)
        assert len(sig_seqnos) >= 3
        # Corrupt a non-signature entry after at least one signature has
        # verifiably anchored a prefix (the very first signature precedes
        # genesis and is skipped), so both paths keep a non-empty prefix.
        target = next(
            e.txid.seqno
            for e in entries
            if not e.is_signature and sig_seqnos[1] < e.txid.seqno < sig_seqnos[2]
        )
        tampered = [
            _tamper_content(e) if e.txid.seqno == target else e for e in entries
        ]
        fast = replay_entries(tampered, list(warnings))
        slow = replay_entries_serial(tampered, list(warnings))
        assert_identical(fast, slow)
        assert fast.verified_seqno < target

    def test_structurally_broken_suffix(self):
        service = traffic_service()
        entries, warnings = _salvage(service)
        sig_seqnos = _signature_seqnos(entries)
        cut = sig_seqnos[len(sig_seqnos) // 2] + 1
        # Renumber an entry so the dense-seqno check fails there.
        broken = [
            dataclasses.replace(e, txid=dataclasses.replace(e.txid, seqno=99999))
            if e.txid.seqno == cut
            else e
            for e in entries
        ]
        fast = replay_entries(broken, list(warnings))
        slow = replay_entries_serial(broken, list(warnings))
        assert_identical(fast, slow)

    def test_no_verifiable_signature_raises_in_both(self):
        service = traffic_service(writes=20)
        entries, warnings = _salvage(service)
        tampered = [
            _tamper_signature(e) if e.is_signature else e for e in entries
        ]
        with pytest.raises(RecoveryError):
            replay_entries(tampered, list(warnings))
        with pytest.raises(RecoveryError):
            replay_entries_serial(tampered, list(warnings))


class TestRecoveryEndToEnd:
    def test_recovered_service_identical_under_both_paths(self):
        """Two identically seeded services, one disk replayed by each
        implementation: same verified prefix, same recovered state."""
        results = []
        for replay in (replay_public_ledger, replay_serial):
            service = traffic_service(seed=7, writes=40)
            results.append(replay(service.primary_node().storage.clone()))
        assert_identical(*results)
