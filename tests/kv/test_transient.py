"""Transient CHAMP builders and memoized map serialization (PR 10).

The transient builder is a *performance* rewrite of the persistent write
path, so the bar is exact equivalence: a randomized differential oracle
drives interleaved set/remove streams (including fully colliding keys)
through both paths and demands identical content, identical no-op identity
semantics, and — via the canonical encoding — identical bytes. The memoized
serialization path is held to the same standard against a reference
implementation that re-encodes everything from scratch.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import KVError
from repro.kv.champ import ChampMap
from repro.kv.serialization import decode_value, encode_value
from repro.kv.store import KVStore
from repro.kv.tx import REMOVED, WriteSet
from repro.obs.metrics import RUNTIME_STATS


def _collision_partner(key: int) -> int:
    # _hash truncates ints to 32 bits, so k and k + 2**32 collide fully and
    # land in a _Collision bucket.
    return key + 2**32


def _structure(node) -> object:
    """A structural fingerprint of a CHAMP trie (shape + entries)."""
    name = type(node).__name__
    if name == "_Collision":
        return ("collision", tuple(node.entries))
    return (
        "node",
        node.data_map,
        node.node_map,
        tuple(
            _structure(child) if type(child).__name__ in ("_Node", "_Collision")
            else child
            for child in node.content
        ),
    )


@pytest.mark.parametrize("seed", [2, 13, 977])
def test_transient_matches_persistent_differential(seed: int):
    rng = random.Random(f"transient-diff|{seed}")
    persistent = ChampMap.empty()
    builder = ChampMap.empty().transient()
    reference: dict = {}

    def pick_key():
        roll = rng.random()
        base = rng.randrange(120)
        if roll < 0.25:
            return _collision_partner(base)  # force _Collision buckets
        if roll < 0.5:
            return f"k{base}"
        return base

    for _ in range(3000):
        key = pick_key()
        if rng.random() < 0.65:
            value = rng.randrange(10**6)
            persistent = persistent.set(key, value)
            builder.set(key, value)
            reference[key] = value
        else:
            persistent = persistent.remove(key)
            builder.remove(key)
            reference.pop(key, None)
        assert len(builder) == len(reference)
        assert builder.get(key, None) == reference.get(key, None)

    frozen = builder.freeze()
    assert frozen.to_dict() == reference == persistent.to_dict()
    assert len(frozen) == len(persistent)
    # Equivalence is structural, not just content-level: both paths must
    # build the *same trie* (same bitmaps, same collision buckets, same
    # canonical collapses), which is what makes encodings byte-identical.
    assert _structure(frozen._root) == _structure(persistent._root)


def test_transient_freeze_then_mutate_raises():
    builder = ChampMap.empty().transient()
    builder.set("a", 1)
    frozen = builder.freeze()
    assert frozen.to_dict() == {"a": 1}
    with pytest.raises(KVError):
        builder.set("b", 2)
    with pytest.raises(KVError):
        builder.remove("a")
    with pytest.raises(KVError):
        builder.freeze()


def test_transient_noop_batch_preserves_identity():
    # A batch that changes nothing must freeze back to the *same object* —
    # the delta-snapshot dirtiness check is an identity comparison.
    source = ChampMap.from_dict({"a": 1, "b": 2})
    builder = source.transient()
    builder.set("a", 1)  # same value: no-op
    builder.remove("zzz")  # missing key: no-op
    assert builder.freeze() is source


def test_transient_does_not_perturb_source():
    source = ChampMap.from_dict({f"key-{i}": i for i in range(300)})
    before = dict(source.items())
    builder = source.transient()
    for i in range(300):
        builder.set(f"key-{i}", -i)
    for i in range(0, 300, 3):
        builder.remove(f"key-{i}")
    frozen = builder.freeze()
    assert dict(source.items()) == before  # persistence held
    assert frozen.get("key-1") == -1
    assert frozen.get("key-3", "gone") == "gone"


def test_from_items_equals_from_dict():
    pairs = [(f"k{i}", i) for i in range(257)] + [(5, "int"), ((1, 2), "tup")]
    via_items = ChampMap.from_items(pairs)
    via_dict = ChampMap.from_dict(dict(pairs))
    assert via_items.to_dict() == via_dict.to_dict()
    assert _structure(via_items._root) == _structure(via_dict._root)


def _persistent_oracle(batches: list[dict]) -> ChampMap:
    """The reference apply: persistent set/remove, one write at a time."""
    champ = ChampMap.empty()
    for updates in batches:
        for key, value in updates.items():
            champ = champ.remove(key) if value is REMOVED else champ.set(key, value)
    return champ


def test_apply_write_set_differential_and_bytes():
    rng = random.Random("apply-diff")
    batches = []
    for _ in range(40):
        updates = {}
        for _ in range(rng.randrange(1, 12)):
            key = rng.randrange(60)
            if rng.random() < 0.3:
                updates[key] = REMOVED
            else:
                updates[key] = rng.randrange(10**6)
        batches.append(updates)
    assert {len(updates) > 1 for updates in batches} == {True, False}  # both routes
    store = KVStore()
    for seqno, updates in enumerate(batches, start=1):
        store.apply_write_set(WriteSet(updates={"private:t": updates}), seqno)
    applied = store._maps["private:t"]
    oracle = _persistent_oracle(batches)
    assert dict(applied.items()) == dict(oracle.items())
    assert _structure(applied._root) == _structure(oracle._root)
    assert KVStore.encoded_map_rows(applied) == KVStore.encoded_map_rows(oracle)


# ----------------------------------------------------------------------
# Memoized per-map serialization


def _reference_serialize(store: KVStore) -> bytes:
    """From-scratch snapshot encoding — the pre-memo implementation."""
    return encode_value(
        {
            "version": store.version,
            "maps": {
                name: [
                    [k, v]
                    for k, v in sorted(
                        champ.items(), key=lambda item: encode_value(item[0])
                    )
                ]
                for name, champ in store._maps.items()
            },
        }
    )


def test_memoized_serialize_is_byte_identical():
    store = KVStore()
    store.apply_write_set(
        WriteSet(
            updates={
                "public:a": {1: "one", "1": "string-one", (2, 3): b"tup"},
                "private:b": {f"k{i}": i for i in range(64)},
            }
        ),
        1,
    )
    assert store.serialize() == _reference_serialize(store)
    # Roundtrip through the transient-built install path.
    state = decode_value(store.serialize())
    restored = KVStore.from_map_rows(state["maps"], state["version"])
    assert restored.serialize() == store.serialize()


def test_clean_maps_hit_the_encode_memo():
    store = KVStore()
    store.apply_write_set(
        WriteSet(updates={"public:a": {"x": 1}, "private:b": {"y": 2}}), 1
    )
    RUNTIME_STATS.reset()
    first = store.serialize()
    assert RUNTIME_STATS.get("kv.map_encode.misses") == 2
    assert RUNTIME_STATS.get("kv.map_encode.hits") == 0
    # Touch one map only: the clean one must be spliced from cache.
    store.apply_write_set(WriteSet(updates={"public:a": {"x": 2}}), 2)
    second = store.serialize()
    assert RUNTIME_STATS.get("kv.map_encode.misses") == 3  # only public:a
    assert RUNTIME_STATS.get("kv.map_encode.hits") == 1  # private:b cached
    assert second != first
    # Re-serializing an unchanged store re-encodes nothing at all.
    RUNTIME_STATS.reset()
    assert store.serialize() == second
    assert RUNTIME_STATS.get("kv.map_encode.misses") == 0
    assert RUNTIME_STATS.get("kv.map_encode.hits") == 2
