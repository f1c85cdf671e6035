"""Transactions and write sets (section 3.3).

Each endpoint invocation executes in a :class:`Transaction` over a snapshot
of the store. Reads are tracked for optimistic validation; writes accumulate
in a :class:`WriteSet` — the unit that is applied atomically to the maps and
appended to the ledger. Updates are subdivided into public-map updates
(written in plain text) and private-map updates (encrypted with the ledger
secret) by the map-name convention: names starting ``public:`` are public.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import KVError
from repro.kv.serialization import (
    canonical_items,
    canonical_value,
    decode_value,
    encode_value,
    freeze_key,
)

PUBLIC_PREFIX = "public:"


class _Removed:
    """Sentinel marking a key removal inside a write set."""

    _instance: "_Removed | None" = None

    def __new__(cls) -> "_Removed":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<removed>"


REMOVED = _Removed()


def is_public_map(name: str) -> bool:
    """Public maps go to the ledger unencrypted (auditability); everything
    else is encrypted under the ledger secret (confidentiality)."""
    return name.startswith(PUBLIC_PREFIX)


@dataclass
class WriteSet:
    """The atomic effect of one transaction: per-map key updates/removals."""

    updates: dict[str, dict[Any, Any]] = field(default_factory=dict)

    def is_empty(self) -> bool:
        return not any(self.updates.values())

    def put(self, map_name: str, key: Any, value: Any) -> None:
        self.updates.setdefault(map_name, {})[key] = value

    def remove(self, map_name: str, key: Any) -> None:
        self.updates.setdefault(map_name, {})[key] = REMOVED

    def maps(self) -> Iterator[str]:
        return iter(self.updates)

    def split(self) -> tuple["WriteSet", "WriteSet"]:
        """Partition into (public, private) write sets for ledger framing."""
        public = WriteSet()
        private = WriteSet()
        for map_name, entries in self.updates.items():
            target = public if is_public_map(map_name) else private
            target.updates[map_name] = dict(entries)
        return public, private

    def merge(self, other: "WriteSet") -> None:
        """Fold ``other`` into this write set (used when reassembling the
        public and private halves of a decoded ledger entry)."""
        for map_name, entries in other.updates.items():
            self.updates.setdefault(map_name, {}).update(entries)

    def encode(self) -> bytes:
        """Canonical encoding; identical write sets encode identically."""
        shaped = {
            map_name: [
                [key, value is not REMOVED, None if value is REMOVED else value]
                for key, value in canonical_items(entries)
            ]
            for map_name, entries in self.updates.items()
            if entries
        }
        return encode_value(shaped)

    def canonical(self) -> "WriteSet":
        """What ``WriteSet.decode(self.encode())`` returns, computed without
        the bytes (see :func:`repro.kv.serialization.canonical_value`)."""
        write_set = WriteSet()
        occupied = {name: entries for name, entries in self.updates.items() if entries}
        for map_name, entries in canonical_items(occupied):
            write_set.updates[canonical_value(map_name)] = {
                freeze_key(canonical_value(key)): (
                    REMOVED if value is REMOVED else canonical_value(value)
                )
                for key, value in canonical_items(entries)
            }
        return write_set

    @classmethod
    def decode(cls, data: bytes) -> "WriteSet":
        shaped = decode_value(data)
        if not isinstance(shaped, dict):
            raise KVError("malformed write set encoding")
        write_set = cls()
        for map_name, rows in shaped.items():
            entries: dict[Any, Any] = {}
            for key, has_value, value in rows:
                entries[freeze_key(key)] = value if has_value else REMOVED
            write_set.updates[map_name] = entries
        return write_set


class Transaction:
    """A read-write transaction over a consistent snapshot of the store.

    The transaction sees its own writes (read-your-writes within the tx) and
    records every read for optimistic validation at commit time. CCF nodes
    execute requests serially so conflicts do not arise in normal operation,
    but the validation keeps the store safe under any embedding.
    """

    def __init__(self, snapshot: dict, version: int):
        self._snapshot = snapshot  # map name -> ChampMap, frozen at begin
        self.read_version = version
        self.write_set = WriteSet()
        self._reads: list[tuple[str, Any, Any]] = []  # (map, key, value seen)

    def get(self, map_name: str, key: Any, default: Any = None) -> Any:
        local = self.write_set.updates.get(map_name)
        if local is not None and key in local:
            value = local[key]
            return default if value is REMOVED else value
        underlying = self._snapshot.get(map_name)
        value = underlying.get(key, default) if underlying is not None else default
        self._reads.append((map_name, key, value))
        return value

    def has(self, map_name: str, key: Any) -> bool:
        sentinel = object()
        return self.get(map_name, key, sentinel) is not sentinel

    def put(self, map_name: str, key: Any, value: Any) -> None:
        # Round-trip through the canonical codec up front, so type errors
        # surface at the call site instead of at ledger-append time.
        encode_value(key)
        encode_value(value)
        self.write_set.put(map_name, key, value)

    def remove(self, map_name: str, key: Any) -> None:
        self.write_set.remove(map_name, key)

    def items(self, map_name: str) -> Iterator[tuple[Any, Any]]:
        """Iterate the map as this transaction sees it (snapshot + local
        writes)."""
        local = self.write_set.updates.get(map_name, {})
        underlying = self._snapshot.get(map_name)
        seen = set()
        if underlying is not None:
            for key, value in underlying.items():
                seen.add(key)
                if key in local:
                    if local[key] is not REMOVED:
                        yield key, local[key]
                else:
                    yield key, value
        for key, value in local.items():
            if key not in seen and value is not REMOVED:
                yield key, value

    def reads(self) -> list[tuple[str, Any, Any]]:
        return list(self._reads)

    @property
    def is_read_only(self) -> bool:
        return self.write_set.is_empty()
