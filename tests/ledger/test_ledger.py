"""Tests for ledger entries, the ledger, secrets, and signature transactions."""

import dataclasses

import pytest

from repro.crypto.ecdsa import SigningKey
from repro.crypto.hashing import sha256
from repro.errors import IntegrityError, LedgerError, VerificationError
from repro.kv.serialization import encode_value
from repro.kv.tx import WriteSet
from repro.ledger.entry import EntryKind, LedgerEntry, TxID, entry_aad
from repro.ledger.ledger import SIGNATURES_MAP, Ledger
from repro.ledger.secrets import LedgerSecret, LedgerSecretStore
from tests.oracles.structure import exact


def make_ledger():
    secrets = LedgerSecretStore(LedgerSecret.generate(b"test-seed"))
    return Ledger(secrets)


def user_write_set(i, private=True):
    ws = WriteSet()
    if private:
        ws.put("messages", i, f"message body {i}")
    else:
        ws.put("public:messages", i, f"message body {i}")
    return ws


class TestTxID:
    def test_ordering(self):
        assert TxID(1, 5) < TxID(2, 1)
        assert TxID(2, 1) < TxID(2, 2)
        assert TxID(2, 2) == TxID(2, 2)

    def test_str_and_parse_roundtrip(self):
        txid = TxID(view=3, seqno=198408)
        assert str(txid) == "3.198408"
        assert TxID.parse("3.198408") == txid

    def test_parse_rejects_garbage(self):
        with pytest.raises(LedgerError):
            TxID.parse("not-a-txid")


def _leaf_golden_entries():
    signature = WriteSet()
    signature.put(
        SIGNATURES_MAP,
        "latest",
        {"node_id": "n0", "view": 2, "seqno": 21, "root": "ab" * 32, "signature": "cd" * 64},
    )
    governance = WriteSet()
    governance.put("public:ccf.gov.nodes.info", "n5", {"status": "Trusted"})
    governance.remove("public:ccf.gov.nodes.info", "n1")
    return [
        pytest.param(
            LedgerEntry(TxID(2, 20), EntryKind.USER, WriteSet(), b"sealed-private-blob"),
            "deb1761e2a51da6235fcd955d8c1a1aaf06300737351355d17fb5cab1af633d8",
            id="user",
        ),
        pytest.param(
            LedgerEntry(
                TxID(3, 70000), EntryKind.USER, WriteSet(), bytes(100), 1,
                bytes(sha256(b"claims")),
            ),
            "28999f7afb1a93fde9ad4fb0c1436c985ae88e0c465c2d1ddb75196b4525a346",
            id="user+claims",
        ),
        pytest.param(
            LedgerEntry(TxID(2, 21), EntryKind.SIGNATURE, signature),
            "be24a7d3109033521ad9d447825f81fe97419774a476c884dd34b88452a9aa9c",
            id="signature",
        ),
        pytest.param(
            # An odd-length claims digest can only come off the wire; it
            # must still go through the generic encoder, not a fixed header.
            LedgerEntry(
                TxID(2**40, 2**33), EntryKind.RECONFIGURATION, governance,
                b"x" * 1000, 2, b"\x01" * 7,
            ),
            "9357de7f2fff4b78fba852e1a8d4a4bfde98db82209f6ac950be1059388d2ee0",
            id="reconfiguration",
        ),
    ]


class TestLeafData:
    """``leaf_data`` is spliced from constant stretches; its bytes are what
    every signed Merkle root covers, so they are pinned twice over."""

    @pytest.mark.parametrize("entry, leaf_sha256", _leaf_golden_entries())
    def test_bytes_are_the_canonical_six_key_dict(self, entry, leaf_sha256):
        generic = encode_value(
            {
                "view": entry.txid.view,
                "seqno": entry.txid.seqno,
                "kind": entry.kind.value,
                "public_digest": bytes(sha256(entry.public_writes.encode())),
                "private_digest": bytes(sha256(entry.private_blob)),
                "claims_digest": entry.claims_digest,
            }
        )
        assert entry.leaf_data() == generic
        # Recorded from the commit before the splice.
        assert sha256(entry.leaf_data()).hex() == leaf_sha256

    def test_maps_without_rows_count_as_an_empty_public_set(self):
        hollow = WriteSet()
        hollow.updates["public:empty"] = {}
        plain = LedgerEntry(TxID(1, 1), EntryKind.USER, WriteSet(), b"blob")
        assert LedgerEntry(TxID(1, 1), EntryKind.USER, hollow, b"blob").leaf_data() == (
            plain.leaf_data()
        )

    @pytest.mark.parametrize("entry, leaf_sha256", _leaf_golden_entries())
    def test_memoised_leaf_is_the_uncached_one_and_not_inherited(
        self, entry, leaf_sha256
    ):
        assert entry.leaf_data() == entry._leaf_data_uncached()
        assert entry.leaf_data() is entry.leaf_data()  # spliced once
        # A derived entry is a new object: it computes its own leaf rather
        # than reusing the memo of the entry it was derived from.
        derived = dataclasses.replace(entry, private_blob=entry.private_blob + b"x")
        assert derived.leaf_data() != entry.leaf_data()
        assert derived.leaf_data() == derived._leaf_data_uncached()
        assert sha256(entry.leaf_data()).hex() == leaf_sha256


class TestEntryAad:
    """Every private write set is sealed under ``entry_aad``'s bytes, and a
    recovering node rebuilds them: they must stay the canonical dict."""

    @pytest.mark.parametrize("kind", list(EntryKind))
    @pytest.mark.parametrize("number", [0, 255, 256, 2**32, 2**64 - 1])
    def test_bytes_are_the_canonical_three_key_dict(self, kind, number):
        for view, seqno in ((number, 1), (1, number), (number, number)):
            assert entry_aad(view, seqno, kind) == encode_value(
                {"view": view, "seqno": seqno, "kind": kind.value}
            )


class TestAppend:
    def test_append_and_query(self):
        ledger = make_ledger()
        entry = ledger.build_entry(1, user_write_set(0))
        ledger.append(entry)
        assert ledger.last_seqno == 1
        assert ledger.last_txid() == TxID(1, 1)
        assert ledger.entry_at(1) == entry

    def test_seqnos_are_dense(self):
        ledger = make_ledger()
        for i in range(5):
            ledger.append(ledger.build_entry(1, user_write_set(i)))
        assert [e.txid.seqno for e in ledger.entries()] == [1, 2, 3, 4, 5]

    def test_append_rejects_wrong_seqno(self):
        ledger = make_ledger()
        entry = ledger.build_entry(1, user_write_set(0))
        ledger.append(entry)
        with pytest.raises(LedgerError):
            ledger.append(entry)  # same seqno again

    def test_append_rejects_view_regression(self):
        ledger = make_ledger()
        ledger.append(ledger.build_entry(3, user_write_set(0)))
        bad = ledger.build_entry(2, user_write_set(1))
        with pytest.raises(LedgerError):
            ledger.append(bad)

    def test_has_txid(self):
        ledger = make_ledger()
        ledger.append(ledger.build_entry(2, user_write_set(0)))
        assert ledger.has_txid(TxID(2, 1))
        assert not ledger.has_txid(TxID(1, 1))  # different view, same seqno
        assert not ledger.has_txid(TxID(2, 2))
        assert ledger.has_txid(TxID(0, 0))  # genesis

    def test_entries_range(self):
        ledger = make_ledger()
        for i in range(10):
            ledger.append(ledger.build_entry(1, user_write_set(i)))
        subset = list(ledger.entries(3, 5))
        assert [e.txid.seqno for e in subset] == [3, 4, 5]


class TestEncryption:
    def test_private_writes_are_encrypted_on_ledger(self):
        ledger = make_ledger()
        entry = ledger.build_entry(1, user_write_set(0, private=True))
        assert entry.private_blob != b""
        assert b"message body" not in entry.private_blob
        assert b"message body" not in entry.encode()
        assert "messages" not in entry.public_writes.updates

    def test_public_writes_are_plaintext(self):
        ledger = make_ledger()
        entry = ledger.build_entry(1, user_write_set(0, private=False))
        assert entry.private_blob == b""
        assert b"message body" in entry.encode()

    def test_decrypt_private_roundtrip(self):
        ledger = make_ledger()
        ws = user_write_set(7, private=True)
        ws.put("public:meta", "k", "v")
        entry = ledger.build_entry(1, ws)
        ledger.append(entry)
        recovered = ledger.decrypt_private(entry)
        assert recovered.updates == ws.updates

    def test_decrypt_fails_with_wrong_secret(self):
        ledger = make_ledger()
        entry = ledger.build_entry(1, user_write_set(0))
        other = Ledger(LedgerSecretStore(LedgerSecret.generate(b"other-seed")))
        with pytest.raises(VerificationError):
            other.decrypt_private(entry)

    def test_decrypt_uses_recorded_generation(self):
        secrets = LedgerSecretStore(LedgerSecret.generate(b"seed", generation=0))
        ledger = Ledger(secrets)
        old_entry = ledger.build_entry(1, user_write_set(0))
        ledger.append(old_entry)
        secrets.add(LedgerSecret.generate(b"seed2", generation=1))
        new_entry = ledger.build_entry(1, user_write_set(1))
        ledger.append(new_entry)
        assert old_entry.secret_generation == 0
        assert new_entry.secret_generation == 1
        assert ledger.decrypt_private(old_entry).updates
        assert ledger.decrypt_private(new_entry).updates

    def test_entry_encode_decode_roundtrip(self):
        ledger = make_ledger()
        ws = user_write_set(3)
        ws.put("public:x", "y", [1, 2])
        entry = ledger.build_entry(2, ws, claims={"who": "alice"})
        decoded = LedgerEntry.decode(entry.encode())
        assert decoded == entry
        assert decoded.leaf_data() == entry.leaf_data()


class TestSecretsStore:
    def test_current_is_latest_generation(self):
        store = LedgerSecretStore(LedgerSecret.generate(b"a", 0))
        store.add(LedgerSecret.generate(b"b", 3))
        assert store.current().generation == 3
        assert store.for_generation(0).generation == 0
        assert store.generations() == [0, 3]

    def test_missing_generation_rejected(self):
        store = LedgerSecretStore(LedgerSecret.generate(b"a", 0))
        with pytest.raises(LedgerError):
            store.for_generation(9)

    def test_empty_store_has_no_current(self):
        with pytest.raises(LedgerError):
            LedgerSecretStore().current()


class TestSignatureTransactions:
    def _ledger_with_signature(self, n_user=5):
        ledger = make_ledger()
        key = SigningKey.generate(b"node0")
        for i in range(n_user):
            ledger.append(ledger.build_entry(1, user_write_set(i)))
        ledger.append(ledger.build_signature_entry(1, "node0", key))
        return ledger, key

    def test_signature_entry_is_signature_kind(self):
        ledger, _key = self._ledger_with_signature()
        assert ledger.entry_at(6).is_signature
        assert ledger.last_signature_txid() == TxID(1, 6)

    def test_signature_verifies(self):
        ledger, key = self._ledger_with_signature()
        record = ledger.verify_signature_entry(6, key.public_key)
        assert record.node_id == "node0"
        assert record.seqno == 6

    def test_signature_rejects_wrong_key(self):
        ledger, _key = self._ledger_with_signature()
        with pytest.raises(VerificationError):
            ledger.verify_signature_entry(6, SigningKey.generate(b"evil").public_key)

    def test_signature_detects_tampered_prefix(self):
        """Replace a pre-signature entry: the signed root no longer matches."""
        ledger, key = self._ledger_with_signature()
        entries = list(ledger.entries())
        tampered = Ledger(ledger.secrets)
        for entry in entries:
            if entry.txid.seqno == 2:
                forged_ws = WriteSet()
                forged_ws.put("public:messages", 1, "FORGED")
                entry = LedgerEntry(
                    txid=entry.txid,
                    kind=entry.kind,
                    public_writes=forged_ws,
                )
            tampered.append(entry)
        with pytest.raises(IntegrityError):
            tampered.verify_signature_entry(6, key.public_key)

    def test_signature_record_in_signatures_map(self):
        ledger, _key = self._ledger_with_signature()
        entry = ledger.entry_at(6)
        assert SIGNATURES_MAP in entry.public_writes.updates

    def test_next_signature_seqno(self):
        ledger, key = self._ledger_with_signature(3)
        for i in range(2):
            ledger.append(ledger.build_entry(1, user_write_set(10 + i)))
        ledger.append(ledger.build_signature_entry(1, "node0", key))
        assert ledger.next_signature_seqno(0) == 4
        assert ledger.next_signature_seqno(4) == 7
        assert ledger.next_signature_seqno(7) is None

    def test_non_signature_entry_has_no_record(self):
        ledger, _key = self._ledger_with_signature()
        with pytest.raises(LedgerError):
            ledger.signature_record(1)


class TestTruncate:
    def test_truncate_discards_suffix(self):
        ledger = make_ledger()
        for i in range(8):
            ledger.append(ledger.build_entry(1, user_write_set(i)))
        root_at_5 = None
        # Build a reference ledger stopped at 5 to compare roots.
        reference = make_ledger()
        for i in range(5):
            reference.append(reference.build_entry(1, user_write_set(i)))
        root_at_5 = reference.root()
        ledger.truncate(5)
        assert ledger.last_seqno == 5
        assert ledger.root() == root_at_5

    def test_truncate_then_append_new_view(self):
        ledger = make_ledger()
        for i in range(4):
            ledger.append(ledger.build_entry(1, user_write_set(i)))
        ledger.truncate(2)
        ledger.append(ledger.build_entry(2, user_write_set(99)))
        assert ledger.last_txid() == TxID(2, 3)

    def test_truncate_out_of_range(self):
        ledger = make_ledger()
        with pytest.raises(LedgerError):
            ledger.truncate(5)

    def test_truncate_cuts_the_signature_index(self):
        ledger = make_ledger()
        key = SigningKey.generate(b"node")
        for i in range(9):
            if i % 3 == 2:
                ledger.append(ledger.build_signature_entry(1, "n0", key))
            else:
                ledger.append(ledger.build_entry(1, user_write_set(i)))
        assert [ledger.next_signature_seqno(s) for s in (0, 3, 8, 9)] == [3, 6, 9, None]
        assert [ledger.prev_signature_seqno(s) for s in (2, 3, 8)] == [None, 3, 6]
        ledger.truncate(6)  # exactly on a signature: it stays
        assert ledger.next_signature_seqno(3) == 6
        assert ledger.next_signature_seqno(6) is None
        ledger.truncate(5)
        assert ledger.prev_signature_seqno(5) == 3
        assert ledger.last_signature_txid() == TxID(1, 3)
        ledger.truncate(0)
        assert ledger.prev_signature_seqno(10) is None


class TestOpenedWindow:
    """The ledger carries each opened or built entry's write set from append
    until ``take_opened`` releases it (the commit scan)."""

    def _replicated(self, count):
        """(primary ledger, backup ledger, entries) sharing one secret."""
        primary, backup = make_ledger(), make_ledger()
        entries = []
        for i in range(count):
            ws = user_write_set(i)
            ws.put("public:audit", i, ("mixed", i))
            entries.append(primary.build_entry(1, ws))
            primary.append(entries[-1])
        return primary, backup, entries

    def test_backup_opens_once_and_takes_the_same_object(self):
        _primary, backup, entries = self._replicated(3)
        opened = []
        for entry in entries:
            backup.append(entry)
            opened.append(backup.open_appended(entry))
        assert len(backup._opened) == 3
        for entry, write_set in zip(entries, opened):
            assert backup.take_opened(entry) is write_set
            assert exact(write_set.updates) == exact(backup.decrypt_private(entry).updates)
        assert not backup._opened

    def test_primary_carries_what_decrypt_private_returns(self):
        ledger = make_ledger()
        ws = WriteSet()
        ws.put("records", (2, ("k", 1)), {"t": (1, 2), "b": bytearray(b"x"), "a": None})
        ws.put("records", "plain", "value")
        ws.remove("records", 7)
        ws.put("public:audit", "row", ("kept", "as", "written"))
        ws.updates["hollow"] = {}
        entry = ledger.build_entry(1, ws)
        ledger.append(entry)
        ledger.carry_built(entry, ws)
        oracle = ledger.decrypt_private(entry)
        carried = ledger.take_opened(entry)
        assert exact(carried.updates) == exact(oracle.updates)
        # The public half is the entry's own (never round-tripped on the
        # node that built it); the private half is in decoded shape.
        assert carried.updates["public:audit"]["row"] == ("kept", "as", "written")
        assert carried.updates["records"][(2, ("k", 1))] == {"a": None, "b": b"x", "t": [1, 2]}

    def test_take_without_a_carried_set_opens_the_entry(self):
        _primary, backup, entries = self._replicated(1)
        backup.append(entries[0])
        assert not backup._opened
        write_set = backup.take_opened(entries[0])
        assert write_set.updates["messages"][0] == "message body 0"

    def test_truncate_drops_carried_sets_above_the_cut(self):
        _primary, backup, entries = self._replicated(5)
        for entry in entries:
            backup.append(entry)
            backup.open_appended(entry)
        backup.truncate(2)
        assert sorted(backup._opened) == [1, 2]
        # A different entry at a truncated seqno never sees the old set.
        replacement = backup.build_entry(2, user_write_set(99))
        backup.append(replacement)
        assert backup.take_opened(replacement).updates["messages"] == {99: "message body 99"}

    def test_a_carried_set_is_only_released_for_its_own_entry(self):
        _primary, backup, entries = self._replicated(1)
        backup.append(entries[0])
        backup.open_appended(entries[0])
        impostor = LedgerEntry.decode(entries[0].encode())
        impostor = LedgerEntry(
            impostor.txid, impostor.kind, WriteSet(), impostor.private_blob,
            impostor.secret_generation, impostor.claims_digest,
        )
        assert "public:audit" not in backup.take_opened(impostor).updates
