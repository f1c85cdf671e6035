"""The in-enclave ledger: entries + Merkle tree + signature transactions.

This is the single-node view of section 3.2: an append-only sequence of
transactions with a Merkle tree over it, periodically punctuated by
*signature transactions* in which the primary signs the current Merkle root.
The consensus layer (section 4) replicates these entries and defines commit
as "signature transaction replicated to a majority".
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.crypto.ct import ct_eq
from repro.crypto.ecdsa import SigningKey, VerifyingKey
from repro.crypto.hashing import Digest, sha256
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.errors import IntegrityError, LedgerError
from repro.kv.serialization import encode_value
from repro.kv.tx import WriteSet
from repro.ledger.entry import EntryKind, LedgerEntry, TxID, entry_aad
from repro.ledger.secrets import LedgerSecretStore

SIGNATURES_MAP = "public:ccf.internal.signatures"


@dataclass(frozen=True)
class SignatureRecord:
    """The content of a signature transaction, stored in the signatures map."""

    node_id: str
    view: int
    seqno: int  # the seqno of the signature transaction itself
    root: bytes  # Merkle root over entries [1, seqno - 1]
    signature: bytes

    def to_value(self) -> dict:
        return {
            "node_id": self.node_id,
            "view": self.view,
            "seqno": self.seqno,
            "root": self.root.hex(),
            "signature": self.signature.hex(),
        }

    @classmethod
    def from_value(cls, value: dict) -> "SignatureRecord":
        return cls(
            node_id=value["node_id"],
            view=value["view"],
            seqno=value["seqno"],
            root=bytes.fromhex(value["root"]),
            signature=bytes.fromhex(value["signature"]),
        )

    def signed_payload(self) -> bytes:
        return encode_value(
            {"view": self.view, "seqno": self.seqno, "root": self.root}
        )


def make_signature_write_set(record: SignatureRecord) -> WriteSet:
    write_set = WriteSet()
    write_set.put(SIGNATURES_MAP, "latest", record.to_value())
    return write_set


class Ledger:
    """Append-only entries with an incremental Merkle tree.

    Seqnos are 1-based: ``entry_at(1)`` is the first entry, and the Merkle
    leaf for seqno ``s`` is at tree index ``s - 1``.

    A ledger may be *based* at a snapshot (section 4.4): entries at or below
    ``base_seqno`` are unavailable (the node joined from a snapshot). The
    Merkle tree keeps only its frontier at the base, and the prefix's
    transaction IDs follow from the first seqno of each view, so roots,
    prefix checks, and receipts for later entries all still work while
    the snapshot's manifest stays O(log n + views).
    """

    def __init__(self, secrets: LedgerSecretStore | None = None):
        self._entries: list[LedgerEntry] = []  # entries after base_seqno
        self.base_seqno = 0
        # The txid of the first entry of each view, for ALL seqnos from 1:
        # below the base it is the only record of the prefix's txids.
        self._view_starts: list[TxID] = []
        self._sig_seqnos: list[int] = []  # signature seqnos after base
        self._base_last_sig = TxID(0, 0)
        self._tree = MerkleTree()
        self.secrets = secrets if secrets is not None else LedgerSecretStore()
        # The opened-entry window (DESIGN.md, "Fast-path discipline"):
        # seqno -> (entry, its full write set) for entries this ledger
        # opened or built and whose commit scan has not consumed them yet.
        # It holds private plaintext, so it belongs to this enclave's ledger
        # and never to the LedgerEntry, which every simulated enclave shares
        # through the decode cache.
        self._opened: dict[int, tuple[LedgerEntry, WriteSet]] = {}
        # Optional observability wiring (set by the owning node).
        self.obs = None
        self.obs_owner = ""

    @classmethod
    def from_snapshot_metadata(
        cls,
        secrets: LedgerSecretStore,
        base_seqno: int,
        view_starts: list[list[int]],
        merkle_frontier: list[bytes],
        last_signature_txid: TxID,
    ) -> "Ledger":
        """Bootstrap a ledger from snapshot metadata: the node has the KV
        state at ``base_seqno`` but not the entries themselves.

        ``view_starts`` is ``[view, first_seqno]`` for every view with an
        entry at or below the base, and ``merkle_frontier`` the tree's
        peaks at the base. Metadata that cannot describe a ledger — a
        frontier of the wrong length, view starts that do not strictly
        increase from seqno 1 or pass the base, a last signature whose view
        they contradict — raises :class:`LedgerError`."""
        starts = [TxID(view, seqno) for view, seqno in view_starts]
        if base_seqno and (not starts or starts[0].seqno != 1):
            raise LedgerError("snapshot view starts do not begin at seqno 1")
        for earlier, later in zip(starts, starts[1:]):
            if not (earlier.view < later.view and earlier.seqno < later.seqno):
                raise LedgerError("snapshot view starts do not strictly increase")
        if starts and starts[-1].seqno > base_seqno:
            raise LedgerError("snapshot view starts run past the base")
        peaks = bin(base_seqno).count("1")
        if len(merkle_frontier) != peaks:
            raise LedgerError(
                f"a frontier at base {base_seqno} has {peaks} peaks, "
                f"not {len(merkle_frontier)}"
            )
        ledger = cls(secrets)
        ledger.base_seqno = base_seqno
        ledger._view_starts = starts
        ledger._tree = MerkleTree.from_frontier(base_seqno, merkle_frontier)
        if ledger.txid_at(last_signature_txid.seqno) != last_signature_txid:
            raise LedgerError(
                f"last signature {last_signature_txid} contradicts the view starts"
            )
        ledger._base_last_sig = last_signature_txid
        return ledger

    def snapshot_metadata(self, seqno: int) -> dict:
        """The Merkle/txid metadata a snapshot at ``seqno`` must carry:
        O(log seqno + views), whatever the ledger's length."""
        if seqno > self.last_seqno or seqno < self.base_seqno:
            raise LedgerError(f"no metadata for seqno {seqno}")
        sig_seqno = self.prev_signature_seqno(seqno)
        last_sig = self._base_last_sig if sig_seqno is None else self.txid_at(sig_seqno)
        return {
            "base_seqno": seqno,
            "view_starts": [[t.view, t.seqno] for t in self._view_starts if t.seqno <= seqno],
            "merkle_frontier": [bytes(peak) for peak in self._tree.frontier(seqno)],
            "last_signature_txid": [last_sig.view, last_sig.seqno],
        }

    def view_starts(self) -> list[TxID]:
        """The txid of the first entry of each view in this ledger."""
        return list(self._view_starts)

    # ------------------------------------------------------------------
    # Shape queries

    @property
    def last_seqno(self) -> int:
        return self.base_seqno + len(self._entries)

    def last_txid(self) -> TxID:
        return self.txid_at(self.last_seqno)

    def entry_at(self, seqno: int) -> LedgerEntry:
        if not self.base_seqno < seqno <= self.last_seqno:
            raise LedgerError(f"no entry at seqno {seqno} (base {self.base_seqno})")
        return self._entries[seqno - self.base_seqno - 1]

    def txid_at(self, seqno: int) -> TxID:
        if seqno == 0:
            return TxID(view=0, seqno=0)
        if not 1 <= seqno <= self.last_seqno:
            raise LedgerError(f"no txid at seqno {seqno}")
        if seqno > self.base_seqno:
            return self._entries[seqno - self.base_seqno - 1].txid
        index = bisect.bisect_right(self._view_starts, seqno, key=lambda t: t.seqno)
        return TxID(view=self._view_starts[index - 1].view, seqno=seqno)

    def has_txid(self, txid: TxID) -> bool:
        """True if this exact (view, seqno) is present in the ledger."""
        if txid.seqno == 0:
            return True  # genesis
        if txid.seqno > self.last_seqno:
            return False
        return self.txid_at(txid.seqno) == txid

    def entries(self, start: int = 1, end: int | None = None) -> Iterator[LedgerEntry]:
        """Iterate entries with seqno in [start, end] inclusive."""
        last = self.last_seqno if end is None else min(end, self.last_seqno)
        for seqno in range(max(start, self.base_seqno + 1), last + 1):
            yield self._entries[seqno - self.base_seqno - 1]

    def last_signature_txid(self) -> TxID:
        """The transaction ID of the most recent signature entry — this is
        what election up-to-dateness compares (section 4.2)."""
        if self._sig_seqnos:
            return self.txid_at(self._sig_seqnos[-1])
        return self._base_last_sig

    def root(self) -> Digest:
        return self._tree.root()

    # ------------------------------------------------------------------
    # Appending

    def append(self, entry: LedgerEntry) -> None:
        """Append a fully formed entry (primary-built or replicated)."""
        expected_seqno = self.last_seqno + 1
        if entry.txid.seqno != expected_seqno:
            raise LedgerError(
                f"entry seqno {entry.txid.seqno} != expected {expected_seqno}"
            )
        last_view = self._view_starts[-1].view if self._view_starts else -1
        if entry.txid.view < last_view:
            raise LedgerError("entry view regresses")
        if entry.txid.view > last_view:
            self._view_starts.append(entry.txid)
        self._entries.append(entry)
        if entry.is_signature:
            self._sig_seqnos.append(entry.txid.seqno)
        self._tree.append(entry.leaf_data())
        if self.obs is not None:
            self.obs.ledger_append(self.obs_owner, entry, len(entry.private_blob))

    def append_batch(self, entries: list[LedgerEntry]) -> None:
        """Append many fully formed entries in one call.

        Exactly equivalent to ``append`` per entry — same validation, same
        final tree — but the Merkle extension is folded per batch and the
        per-entry bookkeeping runs as tight loops. Used by the replay fast
        path, where the ledger is rebuilt from thousands of salvaged
        entries below a verified signature anchor."""
        if self.obs is not None:
            # Observability wants a per-entry event stream; fall back.
            for entry in entries:
                self.append(entry)
            return
        expected = self.last_seqno + 1
        last_view = self._view_starts[-1].view if self._view_starts else -1
        view_starts: list[TxID] = []
        for entry in entries:
            if entry.txid.seqno != expected:
                raise LedgerError(
                    f"entry seqno {entry.txid.seqno} != expected {expected}"
                )
            if entry.txid.view < last_view:
                raise LedgerError("entry view regresses")
            if entry.txid.view > last_view:
                view_starts.append(entry.txid)
            last_view = entry.txid.view
            expected += 1
        self._entries.extend(entries)
        self._view_starts.extend(view_starts)
        self._sig_seqnos.extend(
            entry.txid.seqno for entry in entries if entry.is_signature
        )
        self._tree.extend([entry.leaf_data() for entry in entries])

    def build_entry(
        self,
        view: int,
        write_set: WriteSet,
        kind: EntryKind = EntryKind.USER,
        claims: dict | None = None,
    ) -> LedgerEntry:
        """Construct the next entry from a transaction's write set,
        encrypting the private half under the current ledger secret."""
        seqno = self.last_seqno + 1
        public, private = write_set.split()
        claims_digest = bytes(sha256(encode_value(claims))) if claims else b""
        private_blob = b""
        generation = 0
        if not private.is_empty():
            secret = self.secrets.current()
            generation = secret.generation
            aad = entry_aad(view, seqno, kind)
            private_blob = secret.seal(seqno, private.encode(), aad)
        return LedgerEntry(
            txid=TxID(view=view, seqno=seqno),
            kind=kind,
            public_writes=public,
            private_blob=private_blob,
            secret_generation=generation,
            claims_digest=claims_digest,
        )

    def decrypt_private(self, entry: LedgerEntry) -> WriteSet:
        """Recover an entry's full write set (public merged with decrypted
        private). Requires the ledger secret for the entry's generation."""
        combined = WriteSet()
        combined.merge(entry.public_writes)
        if entry.private_blob:
            secret = self.secrets.for_generation(entry.secret_generation)
            aad = entry_aad(entry.txid.view, entry.txid.seqno, entry.kind)
            plaintext = secret.open(entry.txid.seqno, entry.private_blob, aad)
            combined.merge(WriteSet.decode(plaintext))
        return combined

    # ------------------------------------------------------------------
    # The opened-entry window: open each uncommitted entry once per node

    def open_appended(self, entry: LedgerEntry) -> WriteSet:
        """Open the entry this ledger just appended (a backup applying a
        replicated entry) and carry the result until its commit scan."""
        write_set = self.decrypt_private(entry)
        self._opened[entry.txid.seqno] = (entry, write_set)
        return write_set

    def carry_built(self, entry: LedgerEntry, write_set: WriteSet) -> None:
        """Carry the write set the just-appended ``entry`` was built from
        (the primary), in the shape ``decrypt_private(entry)`` would return:
        the entry's own public half, and the private half as it comes back
        from the canonical codec."""
        _, private = write_set.split()
        opened = WriteSet()
        opened.merge(entry.public_writes)
        opened.merge(private.canonical())
        self._opened[entry.txid.seqno] = (entry, opened)

    def take_opened(self, entry: LedgerEntry) -> WriteSet:
        """The full write set of ``entry``, releasing the carried one if
        this ledger holds it and opening the entry otherwise."""
        carried = self._opened.pop(entry.txid.seqno, None)
        if carried is not None and carried[0] is entry:
            return carried[1]
        return self.decrypt_private(entry)

    # ------------------------------------------------------------------
    # Signature transactions (section 3.2)

    def build_signature_entry(
        self, view: int, node_id: str, signing_key: SigningKey
    ) -> LedgerEntry:
        """Sign the Merkle root over all current entries and frame it as the
        next ledger entry. The signed root covers seqnos [1, last_seqno];
        the signature entry itself lands at last_seqno + 1."""
        seqno = self.last_seqno + 1
        root = self._tree.root()
        record = SignatureRecord(
            node_id=node_id, view=view, seqno=seqno, root=bytes(root), signature=b""
        )
        signature = signing_key.sign(record.signed_payload())
        signed = SignatureRecord(
            node_id=node_id, view=view, seqno=seqno, root=bytes(root), signature=signature
        )
        return self.build_entry(
            view, make_signature_write_set(signed), kind=EntryKind.SIGNATURE
        )

    def signature_record(self, seqno: int) -> SignatureRecord:
        """Extract the signature record from the signature entry at ``seqno``."""
        entry = self.entry_at(seqno)
        if not entry.is_signature:
            raise LedgerError(f"entry {entry.txid} is not a signature transaction")
        value = entry.public_writes.updates[SIGNATURES_MAP]["latest"]
        return SignatureRecord.from_value(value)

    def next_signature_seqno(self, after: int) -> int | None:
        """The seqno of the first signature entry strictly after ``after``
        (among the entries this node retains)."""
        index = bisect.bisect_right(self._sig_seqnos, after)
        if index < len(self._sig_seqnos):
            return self._sig_seqnos[index]
        return None

    def prev_signature_seqno(self, at_or_before: int) -> int | None:
        """The seqno of the last signature entry at or before
        ``at_or_before`` (among the entries this node retains)."""
        index = bisect.bisect_right(self._sig_seqnos, at_or_before)
        if index:
            return self._sig_seqnos[index - 1]
        return None

    def verify_signature_entry(self, seqno: int, key: VerifyingKey) -> SignatureRecord:
        """Check that the signature entry at ``seqno`` correctly signs the
        Merkle root over the preceding entries. Raises on mismatch."""
        record = self.signature_record(seqno)
        expected_root = self._tree.root_at(seqno - 1)
        if not ct_eq(record.root, bytes(expected_root)):
            raise IntegrityError(
                f"signature at {seqno} commits to a different ledger prefix"
            )
        key.verify(record.signature, record.signed_payload())
        return record

    # ------------------------------------------------------------------
    # Rollback (section 4.2)

    def truncate(self, seqno: int) -> None:
        """Discard all entries after ``seqno``."""
        if seqno < self.base_seqno or seqno > self.last_seqno:
            raise LedgerError(f"cannot truncate to {seqno} (base {self.base_seqno})")
        del self._entries[seqno - self.base_seqno:]
        del self._view_starts[
            bisect.bisect_right(self._view_starts, seqno, key=lambda t: t.seqno):
        ]
        del self._sig_seqnos[bisect.bisect_right(self._sig_seqnos, seqno):]
        for stale in [s for s in self._opened if s > seqno]:
            del self._opened[stale]
        self._tree.retract_to(seqno)
        if self.obs is not None:
            self.obs.ledger_truncate(self.obs_owner, seqno)

    # ------------------------------------------------------------------
    # Proofs (consumed by receipts, section 3.5)

    def proof(self, seqno: int, signature_seqno: int) -> MerkleProof:
        """Merkle proof that entry ``seqno`` is covered by the root signed at
        ``signature_seqno``. Only for seqnos above the snapshot base: below
        it the tree holds just its frontier, not the leaves."""
        if not self.base_seqno < seqno < signature_seqno <= self.last_seqno:
            raise LedgerError(
                f"cannot prove seqno {seqno} under signature at {signature_seqno}"
            )
        return self._tree.proof(seqno - 1, signature_seqno - 1)
