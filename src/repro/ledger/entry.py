"""Ledger entries and transaction IDs (section 3.1–3.3).

A transaction ID is the ordered pair (view, sequence number); sequence
numbers are 1-based indices into the logical ledger. Every entry carries its
public write set in plain text, its private write set encrypted under the
ledger secret, and an optional *claims digest* the application can attach to
make arbitrary claims verifiable through receipts (section 3.5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import total_ordering

from repro.crypto.hashing import Digest, sha256
from repro.errors import LedgerError
from repro.kv.serialization import decode_value, encode_value
from repro.kv.tx import WriteSet


@total_ordering
@dataclass(frozen=True)
class TxID:
    """(view, seqno): unique, totally ordered transaction identifier."""

    view: int
    seqno: int

    def __str__(self) -> str:
        return f"{self.view}.{self.seqno}"

    @classmethod
    def parse(cls, text: str) -> "TxID":
        try:
            view_text, seqno_text = text.split(".")
            return cls(view=int(view_text), seqno=int(seqno_text))
        except ValueError:
            raise LedgerError(f"malformed transaction ID {text!r}") from None

    def __lt__(self, other: "TxID") -> bool:
        return (self.view, self.seqno) < (other.view, other.seqno)


_DECODE_CACHE: dict[bytes, "LedgerEntry"] = {}
_DECODE_CACHE_MAX = 50_000
# Recently spliced leaves, by entry encoding. Every node appends an entry
# within a few events of the others, so a short window catches each reuse;
# a memo on the entry object would keep one leaf per entry alive for the
# life of the ledger.
_LEAF_CACHE: dict[bytes, bytes] = {}
_LEAF_CACHE_MAX = 256


class EntryKind(enum.Enum):
    """What an entry is for. Signature entries drive commit; reconfiguration
    entries change the consensus membership (they are also ordinary writes to
    the governance maps, section 4.4)."""

    USER = "user"
    SIGNATURE = "signature"
    RECONFIGURATION = "reconfiguration"


# The constant stretches of ``LedgerEntry.leaf_data`` and ``entry_aad``,
# each built by the canonical encoder. Canonical order sorts a dict's keys
# by their encoded bytes (length first): kind, view, seqno, claims_digest,
# public_digest, private_digest — so both dicts open with kind, view, seqno.
_DICT_OF_SIX = encode_value(dict.fromkeys(range(6)))[:5]  # dict tag + entry count
_DICT_OF_THREE = encode_value(dict.fromkeys(range(3)))[:5]
_DIGEST_HEAD = encode_value(bytes(32))[:5]  # bytes tag + length 32
_KIND_VIEW = {  # the "kind" entry, then the "view" key
    kind: encode_value("kind") + encode_value(kind.value) + encode_value("view")
    for kind in EntryKind
}
_LEAF_HEAD = {kind: _DICT_OF_SIX + stretch for kind, stretch in _KIND_VIEW.items()}
_AAD_HEAD = {kind: _DICT_OF_THREE + stretch for kind, stretch in _KIND_VIEW.items()}
_LEAF_SEQNO = encode_value("seqno")
_LEAF_CLAIMS = encode_value("claims_digest")
_NO_CLAIMS = encode_value(b"")
_LEAF_PUBLIC = encode_value("public_digest") + _DIGEST_HEAD
_LEAF_PRIVATE = encode_value("private_digest") + _DIGEST_HEAD
_EMPTY_PUBLIC_DIGEST = sha256(WriteSet().encode())


def entry_aad(view: int, seqno: int, kind: EntryKind) -> bytes:
    """The associated data an entry's private write set is sealed under.

    Byte-identical to ``encode_value({"view": view, "seqno": seqno, "kind":
    kind.value})``, spliced like :meth:`LedgerEntry.leaf_data`: every
    private seal and every open builds it.
    """
    return b"".join(
        (_AAD_HEAD[kind], encode_value(view), _LEAF_SEQNO, encode_value(seqno))
    )


@dataclass(frozen=True)
class LedgerEntry:
    """One transaction as it appears in the ledger.

    ``public_writes`` is the plain-text public write set; ``private_blob`` is
    the AEAD-sealed encoding of the private write set (empty if none), sealed
    under ``secret_generation`` of the ledger secret.

    Entries are *write-once records*: instances are shared freely (the
    decoder caches them, replication passes them between ledgers) and must
    never be mutated — including the dicts inside ``public_writes``. To
    derive a modified entry (e.g. in adversarial tests), rebuild the write
    set from bytes: ``WriteSet.decode(entry.public_writes.encode())``.
    """

    txid: TxID
    kind: EntryKind
    public_writes: WriteSet
    private_blob: bytes = b""
    secret_generation: int = 0
    claims_digest: bytes = b""

    def leaf_data(self) -> bytes:
        """The canonical bytes hashed into the Merkle tree for this entry.

        Covers the transaction ID, kind, a digest of the public write set,
        a digest of the encrypted private payload, and the claims digest —
        so a receipt commits to all of them.

        Byte-identical to ``encode_value`` of the six-key dict
        ``{view, seqno, kind, public_digest, private_digest, claims_digest}``,
        spliced from its constant parts: every node computes this for every
        entry it appends, the keys (and so their canonical order) never
        change, and the public write set is almost always empty.

        Memoized by the entry's (memoized) encoding while the entry is
        fresh: the leaf is a function of those bytes, and every node
        appends the same bytes within a few events, so each entry is
        spliced once, not once per node.
        """
        encoded = self.encode()
        leaf = _LEAF_CACHE.get(encoded)
        if leaf is None:
            leaf = self._leaf_data_uncached()
            if len(_LEAF_CACHE) >= _LEAF_CACHE_MAX:
                _LEAF_CACHE.clear()
            _LEAF_CACHE[encoded] = leaf
        return leaf

    def _leaf_data_uncached(self) -> bytes:
        if self.public_writes.is_empty():
            public_digest = _EMPTY_PUBLIC_DIGEST
        else:
            public_digest = sha256(self.public_writes.encode())
        return b"".join(
            (
                _LEAF_HEAD[self.kind],
                encode_value(self.txid.view),
                _LEAF_SEQNO,
                encode_value(self.txid.seqno),
                _LEAF_CLAIMS,
                encode_value(self.claims_digest) if self.claims_digest else _NO_CLAIMS,
                _LEAF_PUBLIC,
                public_digest,
                _LEAF_PRIVATE,
                sha256(self.private_blob),
            )
        )

    def digest(self) -> Digest:
        return sha256(self.leaf_data())

    def encode(self) -> bytes:
        """Full framing for replication and persistent storage.

        Memoized: entries are immutable and re-encoded on every
        append_entries batch they appear in.
        """
        cached = self.__dict__.get("_encoded")
        if cached is not None:
            return cached
        encoded = self._encode_uncached()
        object.__setattr__(self, "_encoded", encoded)
        return encoded

    def _encode_uncached(self) -> bytes:
        return encode_value(
            {
                "view": self.txid.view,
                "seqno": self.txid.seqno,
                "kind": self.kind.value,
                "public": self.public_writes.encode(),
                "private": self.private_blob,
                "generation": self.secret_generation,
                "claims_digest": self.claims_digest,
            }
        )

    @classmethod
    def decode(cls, data: bytes) -> "LedgerEntry":
        """Decode an entry from its framing. Memoized: every backup decodes
        each entry, and the simulated enclaves share one process, so all but
        the first find the same bytes in the cache."""
        cached = _DECODE_CACHE.get(data)
        if cached is not None:
            return cached
        entry = cls._decode_uncached(data)
        if len(_DECODE_CACHE) >= _DECODE_CACHE_MAX:
            _DECODE_CACHE.clear()
        _DECODE_CACHE[data] = entry
        object.__setattr__(entry, "_encoded", data)
        return entry

    @classmethod
    def _decode_uncached(cls, data: bytes) -> "LedgerEntry":
        try:
            raw = decode_value(data)
            return cls(
                txid=TxID(view=raw["view"], seqno=raw["seqno"]),
                kind=EntryKind(raw["kind"]),
                public_writes=WriteSet.decode(raw["public"]),
                private_blob=raw["private"],
                secret_generation=raw["generation"],
                claims_digest=raw["claims_digest"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise LedgerError(f"malformed ledger entry: {exc}") from exc

    @property
    def is_signature(self) -> bool:
        return self.kind is EntryKind.SIGNATURE

    @property
    def is_reconfiguration(self) -> bool:
        return self.kind is EntryKind.RECONFIGURATION


@dataclass(frozen=True)
class TxStatus:
    """Transaction status values of Figure 4."""

    UNKNOWN = "Unknown"
    PENDING = "Pending"
    COMMITTED = "Committed"
    INVALID = "Invalid"
