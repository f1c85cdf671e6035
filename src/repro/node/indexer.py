"""Application-defined indexing over committed transactions (section 3.4).

"The indexer on the CCF node pre-processes in-order each transaction in the
ledger as it is committed and stores the results for future use.
Alternatively, this can also be done lazily when a historical query is
received." Applications register *strategies*; the node feeds them each
committed transaction's write set exactly once, in commit order.
"""

from __future__ import annotations

from typing import Protocol

from repro.crypto.aead import nonce_from_counter
from repro.kv.serialization import decode_value, encode_value, freeze_key, json_safe_key
from repro.kv.tx import REMOVED, WriteSet
from repro.ledger.entry import TxID


class IndexingStrategy(Protocol):
    """What an application-defined index must implement (section 3.4)."""

    name: str

    def handle_committed(self, txid: TxID, write_set: WriteSet) -> None:
        """Process one committed transaction (called in seqno order)."""


class KeyWriteIndex:
    """The paper's example strategy: for each key of one map, every
    transaction ID that wrote to it. Powers ``get_statement``-style
    endpoints (range queries over an account's history)."""

    def __init__(self, name: str, map_name: str):
        self.name = name
        self.map_name = map_name
        self._writes: dict[object, list[TxID]] = {}

    def handle_committed(self, txid: TxID, write_set: WriteSet) -> None:
        for key, value in write_set.updates.get(self.map_name, {}).items():
            if value is not REMOVED:
                self._writes.setdefault(key, []).append(txid)

    def txids_for_key(self, key: object) -> list[TxID]:
        return list(self._writes.get(key, []))

    # -- offload support (section 3.4: "offloaded to persistent storage
    # if needed"; section 7: that storage is AEAD-encrypted) -----------

    def serialize(self) -> bytes:
        # Sort by the tagged reversible key form, not str(key): str()
        # conflates 1 and "1" into the same sort key, making the offload
        # byte order depend on dict insertion order for such pairs.
        # json_safe_key is injective, so the ordering (and the offloaded
        # bytes) is a pure function of the index contents.
        return encode_value(
            {
                "map_name": self.map_name,
                "writes": [
                    [key, [[t.view, t.seqno] for t in txids]]
                    for key, txids in sorted(
                        self._writes.items(), key=lambda item: json_safe_key(item[0])
                    )
                ],
            }
        )

    def restore(self, data: bytes) -> None:
        state = decode_value(data)
        self.map_name = state["map_name"]
        self._writes = {
            freeze_key(key): [TxID(view, seqno) for view, seqno in txids]
            for key, txids in state["writes"]
        }


class MapCountIndex:
    """A simple aggregate strategy: committed write counts per map."""

    def __init__(self, name: str = "map_counts"):
        self.name = name
        self.counts: dict[str, int] = {}

    def handle_committed(self, txid: TxID, write_set: WriteSet) -> None:
        for map_name, entries in write_set.updates.items():
            self.counts[map_name] = self.counts.get(map_name, 0) + len(entries)


class Indexer:
    """Per-node registry of strategies, fed in commit order.

    ``last_indexed`` tracks progress so the node can feed exactly the range
    (last_indexed, commit_seqno] as commit advances, surviving rollbacks of
    *uncommitted* entries for free (only committed entries are indexed).
    """

    def __init__(self) -> None:
        self._strategies: dict[str, IndexingStrategy] = {}
        self.last_indexed = 0

    def install(self, strategy: IndexingStrategy) -> None:
        self._strategies[strategy.name] = strategy

    def strategy(self, name: str) -> IndexingStrategy:
        try:
            return self._strategies[name]
        except KeyError:
            raise KeyError(f"no indexing strategy named {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._strategies)

    def feed(self, txid: TxID, write_set: WriteSet) -> None:
        """Feed one committed transaction to every strategy."""
        if txid.seqno <= self.last_indexed:
            return  # already processed (e.g. replayed during catch-up)
        for strategy in self._strategies.values():
            strategy.handle_committed(txid, write_set)
        self.last_indexed = txid.seqno

    def feed_batch(self, items: list[tuple[TxID, WriteSet]]) -> int:
        """Consume one *batched* commit notification.

        One commit advance can cover many entries at once, and catch-up
        replay can overlap a range an eager feed already covered — so the
        input may arrive unordered and may overlap ``last_indexed``.
        Entries are applied in seqno order, each exactly once (the
        double-indexing guard is positional, not per-call). Returns how
        many entries were newly indexed."""
        fed = 0
        for txid, write_set in sorted(items, key=lambda item: item[0].seqno):
            if txid.seqno > self.last_indexed:
                self.feed(txid, write_set)
                fed += 1
        return fed

    def rebuild_lazily(self, ledger, through_seqno: int) -> int:
        """Section 3.4's lazy alternative: instead of indexing eagerly at
        commit time, (re)build the index from the ledger when a historical
        query arrives. Feeds every committed entry in ``(last_indexed,
        through_seqno]`` in order; returns how many were processed."""
        processed = 0
        start = max(self.last_indexed, ledger.base_seqno)
        for entry in ledger.entries(start + 1, through_seqno):
            self.feed(entry.txid, ledger.decrypt_private(entry))
            processed += 1
        return processed

    # ------------------------------------------------------------------
    # Offload to untrusted persistent storage (sections 3.4 & 7): index
    # state leaves the enclave only AEAD-sealed under an enclave key.

    def offload(self, storage, key) -> int:
        """Seal every offloadable strategy's state onto host ``storage``.
        Returns the number of strategies offloaded."""
        count = 0
        for name in self.names():
            strategy = self._strategies[name]
            serialize = getattr(strategy, "serialize", None)
            if serialize is None:
                continue
            payload = encode_value(
                {"name": name, "last_indexed": self.last_indexed, "state": serialize()}
            )
            sealed = key.seal(
                nonce_from_counter(self.last_indexed, domain=0x49),  # 'I'
                payload,
                aad=name.encode(),
            )
            storage.write(f"index_{name}_{self.last_indexed}.sealed", sealed)
            count += 1
        return count

    def load_offloaded(self, storage, key, name: str, seqno: int) -> None:
        """Restore one strategy's sealed state from host storage; tampering
        by the host fails the AEAD check."""
        sealed = storage.read(f"index_{name}_{seqno}.sealed")
        payload = decode_value(
            key.open(nonce_from_counter(seqno, domain=0x49), sealed, aad=name.encode())
        )
        strategy = self._strategies[name]
        strategy.restore(payload["state"])
        self.last_indexed = max(self.last_indexed, payload["last_indexed"])
