"""Content-addressed chunked snapshots: build, dedup, verify, assemble."""

import pytest

from repro.crypto.merkle import MerkleTree
from repro.errors import KVError, VerificationError
from repro.kv.serialization import encode_value
from repro.kv.store import KVStore
from repro.kv.tx import WriteSet
from repro.ledger import statetransfer
from repro.ledger.ledger import Ledger
from repro.ledger.secrets import LedgerSecret, LedgerSecretStore


def make_store(n_maps=4, rows_per_map=20):
    store = KVStore()
    version = 0
    for m in range(n_maps):
        ws = WriteSet()
        for r in range(rows_per_map):
            ws.put(f"map{m}", f"key{r}", {"value": r, "map": m})
        version += 1
        store.apply_write_set(ws, version)
    return store, version


def build(store, version, secret, baseline=None, chunk_bytes=512):
    return statetransfer.build_chunked_snapshot(
        store,
        version,
        secret,
        {"base_seqno": version},
        chunk_bytes=chunk_bytes,
        baseline=baseline,
    )


@pytest.fixture
def secret():
    return LedgerSecret.generate(b"statetransfer-test")


@pytest.fixture
def secrets(secret):
    return LedgerSecretStore(secret)


class TestBuildAssemble:
    def test_roundtrip_is_byte_identical(self, secret, secrets):
        store, version = make_store()
        built = build(store, version, secret)
        rebuilt = statetransfer.assemble_store(built.metadata, built.chunks, secrets)
        assert rebuilt.serialize_at(version) == store.serialize_at(version)

    def test_chunk_ids_are_content_addresses(self, secret):
        store, version = make_store()
        built = build(store, version, secret)
        for cid, blob in built.chunks.items():
            statetransfer.verify_chunk_blob(cid, blob)  # does not raise

    def test_build_is_deterministic_without_baseline(self, secret):
        store, version = make_store()
        first = build(store, version, secret)
        second = build(store, version, secret)
        assert first.chunks == second.chunks
        assert first.metadata == second.metadata

    def test_chunking_respects_size_budget(self, secret):
        store, version = make_store(n_maps=1, rows_per_map=200)
        built = build(store, version, secret, chunk_bytes=512)
        assert built.stats["chunks_built"] > 1

    def test_missing_chunk_rejected_at_install(self, secret, secrets):
        store, version = make_store()
        built = build(store, version, secret)
        short = dict(built.chunks)
        short.pop(next(iter(short)))
        with pytest.raises(VerificationError, match="missing"):
            statetransfer.assemble_store(built.metadata, short, secrets)

    def test_tampered_chunk_rejected_at_install(self, secret, secrets):
        store, version = make_store()
        built = build(store, version, secret)
        chunks = dict(built.chunks)
        victim = next(iter(chunks))
        chunks[victim] = b"\x00" + chunks[victim][1:]
        with pytest.raises(VerificationError):
            statetransfer.assemble_store(built.metadata, chunks, secrets)

    def test_swapped_chunks_rejected_by_map_binding(self, secret, secrets):
        """Two validly sealed chunks swapped between maps fail the
        manifest's position binding even though each seal verifies."""
        store, version = make_store(n_maps=2, rows_per_map=5)
        built = build(store, version, secret)
        metadata = dict(built.metadata)
        (name_a, ids_a), (name_b, ids_b) = metadata["chunk_maps"]
        metadata["chunk_maps"] = [[name_a, ids_b], [name_b, ids_a]]
        with pytest.raises(VerificationError, match="not bound to map"):
            statetransfer.assemble_store(metadata, built.chunks, secrets)

    def test_non_manifest_metadata_rejected(self, secrets):
        with pytest.raises(KVError):
            statetransfer.assemble_store({"base_seqno": 1}, {}, secrets)


class TestDelta:
    def test_clean_maps_reuse_chunks(self, secret):
        store, version = make_store(n_maps=4, rows_per_map=20)
        first = build(store, version, secret)
        baseline = first.baseline(store.map_table_at(version))
        # Touch exactly one map.
        ws = WriteSet()
        ws.put("map2", "key0", {"value": "changed"})
        version += 1
        store.apply_write_set(ws, version)
        second = build(store, version, secret, baseline=baseline)
        assert second.stats["maps_dirty"] == 1
        assert second.stats["chunks_reused"] > 0
        # Clean maps keep their exact chunk ids (dedup works end to end).
        first_ids = dict((name, ids) for name, ids in first.metadata["chunk_maps"])
        second_ids = dict((name, ids) for name, ids in second.metadata["chunk_maps"])
        for name in ("map0", "map1", "map3"):
            assert first_ids[name] == second_ids[name]
        assert first_ids["map2"] != second_ids["map2"]

    def test_delta_serializes_only_dirty_entries(self, secret):
        store, version = make_store(n_maps=4, rows_per_map=20)
        first = build(store, version, secret)
        assert first.stats["entries_serialized"] == first.stats["entries_total"]
        baseline = first.baseline(store.map_table_at(version))
        ws = WriteSet()
        ws.put("map0", "key1", {"value": "changed"})
        version += 1
        store.apply_write_set(ws, version)
        second = build(store, version, secret, baseline=baseline)
        assert second.stats["entries_serialized"] <= 20
        assert second.stats["entries_total"] == 80

    def test_delta_result_matches_full_build(self, secret, secrets):
        store, version = make_store()
        baseline = build(store, version, secret).baseline(store.map_table_at(version))
        ws = WriteSet()
        ws.put("map1", "extra", [1, 2, 3])
        version += 1
        store.apply_write_set(ws, version)
        delta = build(store, version, secret, baseline=baseline)
        full = build(store, version, secret)
        assert delta.metadata == full.metadata
        assert delta.chunks == full.chunks
        rebuilt = statetransfer.assemble_store(delta.metadata, delta.chunks, secrets)
        assert rebuilt.serialize_at(version) == store.serialize_at(version)

    def test_generation_change_disables_reuse(self, secret):
        store, version = make_store()
        baseline = build(store, version, secret).baseline(store.map_table_at(version))
        rekeyed = LedgerSecret.generate(b"statetransfer-test", generation=1)
        built = build(store, version, rekeyed, baseline=baseline)
        assert built.stats["chunks_reused"] == 0
        assert built.stats["entries_serialized"] == built.stats["entries_total"]


class TestManifest:
    def test_manifest_digest_covers_chunk_listing(self, secret):
        store, version = make_store()
        built = build(store, version, secret)
        original = statetransfer.manifest_digest(encode_value(built.metadata))
        mutated = dict(built.metadata)
        name, ids = mutated["chunk_maps"][0]
        mutated["chunk_maps"] = [[name, ["00" * 32] + list(ids)[1:]]] + [
            list(row) for row in mutated["chunk_maps"][1:]
        ]
        assert bytes(statetransfer.manifest_digest(encode_value(mutated))) != bytes(original)

    def test_manifest_chunk_ids_ordered_and_deduped(self, secret):
        store, version = make_store()
        built = build(store, version, secret)
        ids = statetransfer.manifest_chunk_ids(built.metadata)
        assert len(ids) == len(set(ids))
        assert set(ids) == set(built.chunks)


class TestBatchedAppend:
    """Ledger.append_batch and MerkleTree.extend are the replay fast path's
    building blocks; each must be indistinguishable from the serial form."""

    def _entries(self, n=30):
        secrets = LedgerSecretStore(LedgerSecret.generate(b"batch"))
        ledger = Ledger(secrets)
        entries = []
        for i in range(n):
            ws = WriteSet()
            ws.put("public:m", f"k{i}", i)
            entry = ledger.build_entry(1, ws)
            ledger.append(entry)
            entries.append(entry)
        return entries

    def test_append_batch_matches_serial(self):
        entries = self._entries()
        serial = Ledger(LedgerSecretStore())
        for entry in entries:
            serial.append(entry)
        batched = Ledger(LedgerSecretStore())
        batched.append_batch(entries)
        assert bytes(batched.root()) == bytes(serial.root())
        assert batched.last_seqno == serial.last_seqno
        assert [batched.txid_at(s) for s in range(1, 31)] == [
            serial.txid_at(s) for s in range(1, 31)
        ]

    def test_append_batch_rejects_gaps(self):
        entries = self._entries()
        ledger = Ledger(LedgerSecretStore())
        from repro.errors import LedgerError

        with pytest.raises(LedgerError):
            ledger.append_batch(entries[1:])

    def test_merkle_extend_matches_append(self):
        data = [b"leaf-%d" % i for i in range(25)]
        serial = MerkleTree()
        for item in data:
            serial.append(item)
        batched = MerkleTree()
        batched.extend(data)
        assert bytes(batched.root()) == bytes(serial.root())
        for size in (1, 2, 7, 16, 25):
            assert bytes(batched.root_at(size)) == bytes(serial.root_at(size))
        proof = batched.proof(5, 20)
        proof.verify(data[5], serial.root_at(20))
