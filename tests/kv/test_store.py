"""Tests for the versioned KV store and transactions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KVError, TransactionConflictError
from repro.kv.serialization import decode_value
from repro.kv.store import KVStore
from repro.kv.tx import REMOVED, WriteSet, is_public_map


class TestWriteSet:
    def test_empty(self):
        assert WriteSet().is_empty()

    def test_put_and_remove(self):
        ws = WriteSet()
        ws.put("m", "k", 1)
        ws.remove("m", "gone")
        assert ws.updates == {"m": {"k": 1, "gone": REMOVED}}
        assert not ws.is_empty()

    def test_split_public_private(self):
        ws = WriteSet()
        ws.put("public:ccf.gov.users.certs", "u0", "cert")
        ws.put("accounts", "alice", 100)
        public, private = ws.split()
        assert list(public.maps()) == ["public:ccf.gov.users.certs"]
        assert list(private.maps()) == ["accounts"]

    def test_merge(self):
        a = WriteSet()
        a.put("m", "k1", 1)
        b = WriteSet()
        b.put("m", "k2", 2)
        b.put("n", "k3", 3)
        a.merge(b)
        assert a.updates == {"m": {"k1": 1, "k2": 2}, "n": {"k3": 3}}

    def test_encode_decode_roundtrip(self):
        ws = WriteSet()
        ws.put("accounts", "alice", {"balance": 100})
        ws.put("public:meta", 7, [1, 2, 3])
        ws.remove("accounts", "bob")
        decoded = WriteSet.decode(ws.encode())
        assert decoded.updates == ws.updates

    def test_encoding_is_canonical(self):
        a = WriteSet()
        a.put("m", "x", 1)
        a.put("m", "y", 2)
        b = WriteSet()
        b.put("m", "y", 2)
        b.put("m", "x", 1)
        assert a.encode() == b.encode()

    def test_is_public_map(self):
        assert is_public_map("public:ccf.internal.signatures")
        assert not is_public_map("messages")


class TestTransactions:
    def test_commit_applies_writes(self):
        store = KVStore()
        tx = store.begin()
        tx.put("m", "k", "v")
        store.commit(tx)
        assert store.get("m", "k") == "v"
        assert store.version == 1

    def test_read_your_writes(self):
        store = KVStore()
        tx = store.begin()
        tx.put("m", "k", 1)
        assert tx.get("m", "k") == 1
        tx.remove("m", "k")
        assert tx.get("m", "k") is None
        assert not tx.has("m", "k")

    def test_snapshot_isolation(self):
        store = KVStore()
        tx0 = store.begin()
        tx0.put("m", "k", "old")
        store.commit(tx0)
        reader = store.begin()
        writer = store.begin()
        writer.put("m", "other", 1)
        store.commit(writer)
        # The reader still sees the snapshot from when it began.
        assert reader.get("m", "other") is None

    def test_conflict_detected(self):
        store = KVStore()
        setup = store.begin()
        setup.put("m", "k", 1)
        store.commit(setup)
        tx_a = store.begin()
        assert tx_a.get("m", "k") == 1
        tx_b = store.begin()
        tx_b.put("m", "k", 2)
        store.commit(tx_b)
        tx_a.put("m", "k", 99)
        with pytest.raises(TransactionConflictError):
            store.commit(tx_a)

    def test_no_conflict_on_disjoint_keys(self):
        store = KVStore()
        tx_a = store.begin()
        assert tx_a.get("m", "a") is None
        tx_b = store.begin()
        tx_b.put("m", "b", 2)
        store.commit(tx_b)
        tx_a.put("m", "a", 1)
        store.commit(tx_a)
        assert store.get("m", "a") == 1
        assert store.get("m", "b") == 2

    def test_read_only_transaction(self):
        store = KVStore()
        tx = store.begin()
        tx.get("m", "k")
        assert tx.is_read_only

    def test_items_merges_snapshot_and_writes(self):
        store = KVStore()
        setup = store.begin()
        setup.put("m", "a", 1)
        setup.put("m", "b", 2)
        store.commit(setup)
        tx = store.begin()
        tx.put("m", "c", 3)
        tx.put("m", "a", 10)
        tx.remove("m", "b")
        assert dict(tx.items("m")) == {"a": 10, "c": 3}

    def test_put_rejects_unserializable_value(self):
        store = KVStore()
        tx = store.begin()
        with pytest.raises(KVError):
            tx.put("m", "k", 3.14)

    def test_removal_applies(self):
        store = KVStore()
        setup = store.begin()
        setup.put("m", "k", 1)
        store.commit(setup)
        tx = store.begin()
        tx.remove("m", "k")
        store.commit(tx)
        assert store.get("m", "k") is None


class TestVersioningAndRollback:
    def _store_with_versions(self, n):
        store = KVStore()
        for i in range(1, n + 1):
            ws = WriteSet()
            ws.put("m", f"k{i}", i)
            store.apply_write_set(ws, i)
        return store

    def test_apply_write_set_advances_version(self):
        store = self._store_with_versions(3)
        assert store.version == 3
        assert store.get("m", "k2") == 2

    def test_apply_rejects_non_monotonic_seqno(self):
        store = self._store_with_versions(3)
        with pytest.raises(KVError):
            store.apply_write_set(WriteSet(), 2)

    def test_rollback_restores_state(self):
        store = self._store_with_versions(5)
        store.rollback_to(2)
        assert store.version == 2
        assert store.get("m", "k2") == 2
        assert store.get("m", "k3") is None

    def test_rollback_then_reapply(self):
        store = self._store_with_versions(5)
        store.rollback_to(3)
        ws = WriteSet()
        ws.put("m", "new", "value")
        store.apply_write_set(ws, 4)
        assert store.version == 4
        assert store.get("m", "new") == "value"
        assert store.get("m", "k4") is None

    def test_rollback_to_unknown_version_rejected(self):
        store = self._store_with_versions(3)
        store.compact(3)
        with pytest.raises(KVError):
            store.rollback_to(1)

    def test_compact_retains_commit_point(self):
        store = self._store_with_versions(5)
        store.compact(3)
        store.rollback_to(3)  # commit point must stay reachable
        assert store.version == 3
        with pytest.raises(KVError):
            store.rollback_to(2)

    def test_rollback_to_current_is_noop(self):
        store = self._store_with_versions(3)
        store.rollback_to(3)
        assert store.version == 3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=15), st.data())
    def test_property_rollback_equals_replay(self, n, data):
        """Rolling back to version k yields exactly the state of replaying
        the first k write sets into a fresh store."""
        k = data.draw(st.integers(min_value=0, max_value=n))
        store = self._store_with_versions(n)
        store.rollback_to(k)
        replayed = self._store_with_versions(k)
        assert store.version == replayed.version
        for name in set(store.map_names()) | set(replayed.map_names()):
            assert dict(store.items(name)) == dict(replayed.items(name))


def _restore(data: bytes) -> KVStore:
    """Rebuild a store from its canonical bytes the way a joiner installs
    one: decoded per-map rows through ``from_map_rows``."""
    state = decode_value(data)
    return KVStore.from_map_rows(state["maps"], state["version"])


class TestSnapshots:
    def test_serialize_deserialize_roundtrip(self):
        store = KVStore()
        ws = WriteSet()
        ws.put("public:ccf.gov.users", "u0", {"cert": "abc"})
        ws.put("messages", 42, "hello")
        ws.put("messages", 43, b"binary")
        store.apply_write_set(ws, 10)
        restored = _restore(store.serialize())
        assert restored.version == 10
        assert restored.get("messages", 42) == "hello"
        assert restored.get("messages", 43) == b"binary"
        assert restored.get("public:ccf.gov.users", "u0") == {"cert": "abc"}

    def test_snapshot_encoding_is_deterministic(self):
        def build():
            store = KVStore()
            ws = WriteSet()
            for i in range(50):
                ws.put("m", f"key-{i}", i)
            store.apply_write_set(ws, 1)
            return store.serialize()

        assert build() == build()

    def test_deserialize_rejects_garbage(self):
        with pytest.raises(KVError):
            _restore(b"\xff\x00garbage")
        for rows in ([["lonely-key"]], [["k", "v", "extra"]], [7], 7):
            with pytest.raises(KVError):
                KVStore.from_map_rows({"m": rows}, 1)

    def test_restored_store_supports_further_writes(self):
        store = KVStore()
        ws = WriteSet()
        ws.put("m", "a", 1)
        store.apply_write_set(ws, 5)
        restored = _restore(store.serialize())
        ws2 = WriteSet()
        ws2.put("m", "b", 2)
        restored.apply_write_set(ws2, 6)
        assert restored.get("m", "a") == 1
        assert restored.get("m", "b") == 2
        restored.rollback_to(5)
        assert restored.get("m", "b") is None
