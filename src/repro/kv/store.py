"""The versioned key-value store (section 3.3).

A :class:`KVStore` is the in-enclave state of one CCF node: a collection of
named CHAMP maps plus a version counter equal to the sequence number of the
last applied transaction. Because CHAMP maps are persistent, the store keeps
a *version history* — a snapshot of the map table at every applied version —
at negligible cost, which is what lets consensus roll uncommitted suffixes
back after an election (section 4.2). History below the commit point is
pruned via :meth:`compact`.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import KVError, TransactionConflictError
from repro.kv.champ import ChampMap
from repro.kv.serialization import (
    encode_dict_from_encoded,
    encode_value,
    freeze_key,
)
from repro.kv.tx import REMOVED, Transaction, WriteSet
from repro.obs.metrics import RUNTIME_STATS


class KVStore:
    """Named maps + version counter + rollback history."""

    def __init__(self) -> None:
        self._maps: dict[str, ChampMap] = {}
        self.version = 0
        # version -> map-table snapshot (shallow dict of persistent maps).
        self._history: dict[int, dict[str, ChampMap]] = {0: {}}
        self._history_order: list[int] = [0]
        # Optional observability wiring (set by the owning node).
        self.obs = None
        self.obs_owner = ""

    # ------------------------------------------------------------------
    # Transactions

    def begin(self) -> Transaction:
        """Start a transaction against the current state."""
        return Transaction(dict(self._maps), self.version)

    def _table_at(self, version: int) -> dict[str, ChampMap]:
        snapshot = self._history.get(version)
        if snapshot is None:
            raise KVError(f"no retained state at version {version}")
        return snapshot

    def commit(self, tx: Transaction, seqno: int | None = None) -> WriteSet:
        """Validate ``tx``'s reads and apply its write set at ``seqno``.

        ``seqno`` defaults to ``version + 1``. Raises
        :class:`TransactionConflictError` if any value the transaction read
        has changed since it began (optimistic concurrency control).
        """
        if tx.read_version != self.version:
            for map_name, key, value_seen in tx.reads():
                current_map = self._maps.get(map_name)
                current = current_map.get(key) if current_map is not None else None
                if current != value_seen:
                    raise TransactionConflictError(
                        f"read of {map_name}[{key!r}] invalidated by concurrent write"
                    )
        if seqno is None:
            seqno = self.version + 1
        self.apply_write_set(tx.write_set, seqno)
        return tx.write_set

    def apply_write_set(self, write_set: WriteSet, seqno: int) -> None:
        """Apply a write set atomically, advancing the version to ``seqno``.

        Used both for locally executed transactions and for replaying
        ledger entries received from the primary or read from disk.
        """
        if seqno <= self.version:
            raise KVError(
                f"write set seqno {seqno} is not ahead of version {self.version}"
            )
        self._update_maps(write_set.updates)
        self.version = seqno
        self._history[seqno] = dict(self._maps)
        self._history_order.append(seqno)
        if self.obs is not None:
            self.obs.store_applied(self.obs_owner, seqno, len(self._maps))

    def _update_maps(self, updates: dict[str, dict]) -> None:
        for map_name, entries in updates.items():
            current = self._maps.get(map_name, ChampMap.empty())
            if len(entries) > 1:
                # A batch goes through a transient builder: one ownership
                # token for the whole per-map batch, so shared trie paths
                # are copied once and then mutated in place. freeze()
                # returns the identical map object for all-no-op batches,
                # matching persistent set/remove's identity semantics
                # (snapshot dirtiness is an object-identity check).
                builder = current.transient()
                for key, value in entries.items():
                    if value is REMOVED:
                        builder.remove(key)
                    else:
                        builder.set(key, value)
                current = builder.freeze()
            else:
                for key, value in entries.items():
                    if value is REMOVED:
                        current = current.remove(key)
                    else:
                        current = current.set(key, value)
            self._maps[map_name] = current

    def merge_at_current_version(self, updates: dict[str, dict]) -> None:
        """Fold ``updates`` (map name -> key -> value or ``REMOVED``) into
        the current state without advancing the version.

        Disaster recovery restores private state this way (section 5.2):
        the public replay already fixed the version each entry applied at,
        and the decrypted private halves are merged underneath it."""
        self._update_maps(updates)
        self._history[self.version] = dict(self._maps)

    # ------------------------------------------------------------------
    # Direct reads (used by read-only endpoints and internal lookups)

    def get(self, map_name: str, key: Any, default: Any = None) -> Any:
        current = self._maps.get(map_name)
        return current.get(key, default) if current is not None else default

    def items(self, map_name: str) -> Iterator[tuple[Any, Any]]:
        current = self._maps.get(map_name)
        if current is not None:
            yield from current.items()

    def map_names(self) -> list[str]:
        return sorted(self._maps)

    def map_size(self, map_name: str) -> int:
        current = self._maps.get(map_name)
        return len(current) if current is not None else 0

    # ------------------------------------------------------------------
    # Rollback & compaction (driven by consensus)

    def rollback_to(self, version: int) -> None:
        """Discard all state after ``version`` (post-election rollback)."""
        if version == self.version:
            return
        self._maps = dict(self._table_at(version))
        self.version = version
        for stale in [v for v in self._history_order if v > version]:
            del self._history[stale]
        self._history_order = [v for v in self._history_order if v <= version]
        if self.obs is not None:
            self.obs.store_rollback(self.obs_owner, version)

    def compact(self, version: int) -> None:
        """Drop rollback history strictly below ``version`` (commit point);
        committed state can never be rolled back (section 4.4)."""
        keep_from = 0
        for i, v in enumerate(self._history_order):
            if v >= version:
                keep_from = i
                break
        else:
            keep_from = len(self._history_order) - 1
        for stale in self._history_order[:keep_from]:
            if stale != self._history_order[keep_from]:
                del self._history[stale]
        self._history_order = self._history_order[keep_from:]
        if self.obs is not None:
            self.obs.store_compact(self.obs_owner, version)

    # ------------------------------------------------------------------
    # Snapshot serialization (section 4.4: nodes may join from a snapshot)

    def serialize(self) -> bytes:
        """Canonical encoding of the full store state at this version."""
        return self._serialize_maps(self._maps, self.version)

    def serialize_at(self, version: int) -> bytes:
        """Canonical encoding of the store as of retained ``version`` —
        used to snapshot at the commit point while later (uncommitted)
        transactions are already applied."""
        return self._serialize_maps(self._table_at(version), version)

    @staticmethod
    def _serialize_maps(maps: dict[str, ChampMap], version: int) -> bytes:
        # Assemble the snapshot from memoized per-map encodings: a map that
        # did not change since its last serialization (same ChampMap object,
        # same cached bytes) is spliced in without re-walking a single
        # entry. Byte-identical to encoding the equivalent plain dict —
        # tests/kv/test_transient.py checks this against a reference
        # implementation.
        maps_encoding = encode_dict_from_encoded(
            [
                (encode_value(name), KVStore.encoded_map_rows(champ))
                for name, champ in maps.items()
            ]
        )
        return encode_dict_from_encoded(
            [
                (encode_value("version"), encode_value(version)),
                (encode_value("maps"), maps_encoding),
            ]
        )

    def map_table_at(self, version: int) -> dict[str, ChampMap]:
        """The (shared) map table as of retained ``version``.

        Delta snapshots hold on to this table as the dirty-detection
        baseline: persistent maps mean an untouched map is literally the
        *same object* across versions, so "changed since the last snapshot"
        is an O(#maps) identity comparison, exact for untouched maps and
        conservative (a fresh equal object) for touched-and-reverted ones.
        """
        if version == self.version:
            return dict(self._maps)
        return dict(self._table_at(version))

    def changed_map_names(
        self, version: int, baseline: dict[str, ChampMap]
    ) -> set[str]:
        """Names of maps whose state at ``version`` is not (identically) the
        map recorded in ``baseline`` — the dirty set for a delta snapshot.
        Maps present only in ``baseline`` (since emptied away) also count."""
        table = self.map_table_at(version)
        changed = {
            name for name, champ in table.items() if baseline.get(name) is not champ
        }
        changed.update(name for name in baseline if name not in table)
        return changed

    @staticmethod
    def canonical_map_rows(champ: ChampMap) -> list[list[Any]]:
        """One map's entries in canonical (encoded-key) order — the unit of
        per-map chunk serialization. Matches ``_serialize_maps`` row order
        so full and chunked snapshots agree byte-for-byte per map.

        Memoized on the map instance (``ChampMap._canon``), keyed by nothing
        but identity: a ChampMap's contents are fixed at construction, so
        the cache can never go stale, and the delta-snapshot dirtiness unit
        (same object = clean) is exactly the memo's validity unit. Callers
        must treat the returned rows as read-only.
        """
        rows, _encoded = KVStore._canonical(champ)
        return rows

    @staticmethod
    def encoded_map_rows(champ: ChampMap) -> bytes:
        """``encode_value`` of :meth:`canonical_map_rows`, memoized alongside
        it — the per-map splice unit for ``_serialize_maps``."""
        _rows, encoded = KVStore._canonical(champ)
        return encoded

    @staticmethod
    def _canonical(champ: ChampMap) -> tuple[list[list[Any]], bytes]:
        cached = champ._canon
        if cached is not None:
            RUNTIME_STATS.inc("kv.map_encode.hits")
            return cached
        RUNTIME_STATS.inc("kv.map_encode.misses")
        rows = [
            [key, value]
            for key, value in sorted(
                champ.items(), key=lambda item: encode_value(item[0])
            )
        ]
        cached = (rows, encode_value(rows))
        champ._canon = cached
        return cached

    @classmethod
    def from_map_rows(
        cls, maps: dict[str, list[list[Any]]], version: int
    ) -> "KVStore":
        """Rebuild a store from per-map canonical rows (chunked install).
        Maps are bulk-built through a transient builder — install cost is
        one in-place trie build per map, not a path copy per row. Row keys
        pass through ``freeze_key``: tuple keys decode from the wire as
        lists (rows are list-encoded, so the decoder's own key freezing
        never sees them). Rows that are not ``[key, value]`` pairs raise
        :class:`KVError`, the failure a chunked install cleans up after."""
        store = cls()
        for name, rows in maps.items():
            try:
                store._maps[name] = ChampMap.from_items(
                    (freeze_key(key), value) for key, value in rows
                )
            except (TypeError, ValueError) as exc:
                raise KVError(f"malformed rows for map {name!r}") from exc
        store.version = version
        store._history = {version: dict(store._maps)}
        store._history_order = [version]
        return store
