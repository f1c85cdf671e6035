"""Untrusted host storage: ledger chunk files and snapshot chunks.

"The persistent storage is outside the trust boundary and thus could be
modified or rolled back by a malicious host" (section 2). This module is
deliberately *dumb and adversary-friendly*: it stores named blobs and also
exposes tampering operations (truncate, corrupt, roll back) that integrity
tests use to prove that the enclave-side verification catches a malicious
host. Nothing read from here is trusted until signatures verify.

Crash-consistency model
-----------------------

Real disks do not make writes durable when ``write(2)`` returns: data sits
in volatile caches until an ``fsync`` barrier, and a power loss leaves
behind whatever subset of the un-synced writes happened to reach the
platter — possibly reordered across files, possibly torn mid-blob. This
module models exactly that:

- :meth:`write` with ``sync=False`` (and :meth:`write_buffered`) lands in a
  volatile buffer; only :meth:`fsync`/:meth:`fsync_all` moves it to the
  durable image. ``sync=True`` (the default, preserving the historical
  atomic behaviour) is a write immediately followed by its barrier.
- Readers always see the buffered view — the OS page cache makes un-synced
  writes visible to the process that made them.
- :meth:`power_loss` resolves every pending write with a seeded outcome:
  dropped entirely, applied fully, or **torn** (a prefix lands). Outcomes
  are drawn per file, so a later write can survive while an earlier write
  to a different file is lost — write reordering across files.
- :meth:`arm_crash_point` makes the disk controller die after a seeded
  number of further mutations: the in-flight operation is the last one
  with any effect, every later write or barrier is silently ignored. This
  is how a node gets killed *mid-chunk-write* — between a chunk's buffered
  write and its declared fsync barrier.

Sync points are declared by the writers: :meth:`write_chunk` fsyncs
complete (signature-terminated) chunks but leaves the open tail buffered,
and state chunks and manifests fsync. :attr:`synced_ledger_seqno` records the
highest seqno covered by a durable complete chunk — the disk's own account
of what must survive any crash.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import LedgerError
from repro.ledger.chunking import LedgerChunk, reassemble_chunks
from repro.ledger.entry import LedgerEntry

# Power-loss fate of one un-synced write (cumulative probabilities).
_P_DROP = 0.35
_P_TEAR = 0.30  # on top of _P_DROP; remainder lands fully


@dataclass
class HostStorage:
    """One host's disk: a flat namespace of blobs, plus typed helpers.

    ``files`` is the *durable* image (what survives a power loss);
    ``_buffer`` holds un-synced writes (``None`` marks a pending delete).
    """

    files: dict[str, bytes] = field(default_factory=dict)
    bytes_written: int = 0
    _buffer: dict[str, bytes | None] = field(default_factory=dict)
    synced_ledger_seqno: int = 0
    crashed: bool = False
    _crash_countdown: int | None = None
    crash_log: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Crash-point plumbing

    def arm_crash_point(self, countdown: int) -> None:
        """Die after ``countdown`` further mutating operations (buffered
        writes, deletes, fsyncs): that many more succeed, everything after
        is silently ignored — like a disk controller losing power before
        the host does. A chunk write that got through with its fsync
        barrier dropped is exactly the mid-chunk-write crash: the bytes sit
        in the volatile buffer and may tear at :meth:`power_loss`."""
        self._crash_countdown = max(0, countdown)

    def _mutation_gate(self, description: str) -> bool:
        """Returns True when the mutation may proceed."""
        if self.crashed:
            return False
        if self._crash_countdown is not None:
            if self._crash_countdown == 0:
                self.crashed = True
                self.crash_log.append(f"disk died before: {description}")
                return False
            self._crash_countdown -= 1
        return True

    # ------------------------------------------------------------------
    # Raw blob interface

    def write(self, name: str, data: bytes, sync: bool = True) -> None:
        """Write a blob. ``sync=True`` (default) is write + fsync barrier
        in one call — the historical atomic-durable behaviour. ``sync=False``
        buffers: the data is visible to readers but not yet durable."""
        if not self._mutation_gate(f"write {name!r} ({len(data)} bytes)"):
            return
        self._buffer[name] = bytes(data)
        self.bytes_written += len(data)
        if sync:
            self.fsync(name)

    def write_buffered(self, name: str, data: bytes) -> None:
        """A write with no durability barrier (un-synced until fsync)."""
        self.write(name, data, sync=False)

    def fsync(self, name: str) -> None:
        """Durability barrier for one file: its buffered state (write or
        delete) becomes part of the durable image."""
        if not self._mutation_gate(f"fsync {name!r}"):
            return
        if name not in self._buffer:
            return  # nothing pending: barrier is a no-op
        pending = self._buffer.pop(name)
        if pending is None:
            self.files.pop(name, None)
        else:
            self.files[name] = pending
            self._note_synced_chunk(name)

    def fsync_all(self) -> None:
        """Durability barrier for every pending write and delete."""
        for name in sorted(self._buffer):
            self.fsync(name)

    def _note_synced_chunk(self, name: str) -> None:
        """Track the durable-ledger high-water mark from chunk filenames."""
        if name.startswith("ledger_") and name.endswith(".chunk") and not name.endswith(
            ".open.chunk"
        ):
            try:
                last_seqno = int(name.split("_")[2].split(".")[0])
            except (IndexError, ValueError):
                return
            self.synced_ledger_seqno = max(self.synced_ledger_seqno, last_seqno)

    def read(self, name: str) -> bytes:
        """Read the buffered view (page cache over durable image)."""
        if name in self._buffer:
            pending = self._buffer[name]
            if pending is None:
                raise LedgerError(f"no such file {name!r}")
            return pending
        try:
            return self.files[name]
        except KeyError:
            raise LedgerError(f"no such file {name!r}") from None

    def delete(self, name: str, sync: bool = True) -> None:
        if not self._mutation_gate(f"delete {name!r}"):
            return
        self._buffer[name] = None
        if sync:
            self.fsync(name)

    def list_files(self, prefix: str = "") -> list[str]:
        visible = set(self.files)
        for name, pending in self._buffer.items():
            if pending is None:
                visible.discard(name)
            else:
                visible.add(name)
        return sorted(name for name in visible if name.startswith(prefix))

    def dirty_files(self) -> list[str]:
        """Names with un-synced state (writes or deletes), sorted."""
        return sorted(self._buffer)

    # ------------------------------------------------------------------
    # Power loss

    def power_loss(self, rng: random.Random) -> list[str]:
        """Resolve every pending (un-synced) write with a seeded outcome —
        dropped, torn mid-blob, or fully applied — and clear the buffer.
        Durable (fsynced) content always survives. Returns a description of
        each un-synced file's fate, for fault logs."""
        events: list[str] = []
        for name in sorted(self._buffer):
            pending = self._buffer[name]
            if pending is None:
                # An un-synced delete: seeded coin — did the metadata update
                # reach the disk?
                if rng.random() < 0.5:
                    self.files.pop(name, None)
                    events.append(f"unsynced delete of {name} applied")
                else:
                    events.append(f"unsynced delete of {name} lost")
                continue
            fate = rng.random()
            if fate < _P_DROP or len(pending) == 0:
                events.append(f"unsynced write of {name} lost")
            elif fate < _P_DROP + _P_TEAR:
                cut = rng.randrange(1, len(pending)) if len(pending) > 1 else 1
                self.files[name] = pending[:cut]
                events.append(f"unsynced write of {name} torn at byte {cut}/{len(pending)}")
            else:
                self.files[name] = pending
                events.append(f"unsynced write of {name} survived")
        self._buffer.clear()
        self.crashed = True
        self.crash_log.extend(events)
        return events

    def durable_image(self) -> "HostStorage":
        """The disk as a power loss with *no* surviving un-synced writes
        would leave it: only fsynced content. (The pessimistic salvage.)"""
        return HostStorage(
            files=dict(self.files), synced_ledger_seqno=self.synced_ledger_seqno
        )

    # ------------------------------------------------------------------
    # Ledger chunk helpers

    def write_chunk(self, chunk: LedgerChunk) -> None:
        """Persist a chunk, declaring its sync points: a complete
        (signature-terminated) chunk is followed by an fsync barrier; the
        still-open tail chunk stays buffered (it is rewritten on every
        persist and its loss is recoverable by design)."""
        open_name = f"ledger_{chunk.first_seqno}_{chunk.last_seqno}.open.chunk"
        if chunk.is_complete and open_name in self.list_files():
            self.delete(open_name, sync=False)
        # Drop any stale open chunk overlapping this range.
        for name in self.list_files(f"ledger_{chunk.first_seqno}_"):
            if name.endswith(".open.chunk"):
                self.delete(name, sync=False)
        self.write(chunk.filename(), chunk.encode(), sync=chunk.is_complete)

    def read_chunks(self) -> list[LedgerChunk]:
        chunks = []
        for name in self.list_files("ledger_"):
            chunks.append(LedgerChunk.decode(self.read(name)))
        return chunks

    def read_ledger_entries(self) -> list[LedgerEntry]:
        """Reassemble the persisted ledger. Structure-checked only — callers
        must still verify signature transactions before trusting it."""
        return reassemble_chunks(self.read_chunks())

    # ------------------------------------------------------------------
    # State-chunk cache (incremental state transfer)
    #
    # Sealed, content-addressed snapshot chunks. The file name *is* the
    # content address (sha256 of the sealed bytes), so a cache hit is only
    # trusted after the reader re-derives the digest — a tampered or torn
    # cached chunk simply reads as a miss and is re-fetched.

    def write_state_chunk(self, chunk_id: str, data: bytes) -> None:
        # Each chunk syncs on write: the cache's whole point is surviving a
        # crash mid-transfer, so a buffered chunk would be worthless.
        self.write(f"state_{chunk_id}.chunk", data, sync=True)

    def read_state_chunk(self, chunk_id: str) -> bytes | None:
        try:
            return self.read(f"state_{chunk_id}.chunk")
        except LedgerError:
            return None

    def state_chunk_ids(self) -> list[str]:
        """Content addresses of every cached chunk (unverified — callers
        digest-check the bytes before use)."""
        return [
            name[len("state_") : -len(".chunk")]
            for name in self.list_files("state_")
            if name.endswith(".chunk")
        ]

    def prune_state_chunks(self, keep_ids: set[str]) -> int:
        """Drop cached chunks outside ``keep_ids``; returns how many."""
        dropped = 0
        for chunk_id in self.state_chunk_ids():
            if chunk_id not in keep_ids:
                self.delete(f"state_{chunk_id}.chunk", sync=False)
                dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # Adversarial operations (the malicious host of the threat model)

    def tamper_flip_byte(self, name: str, offset: int) -> None:
        data = bytearray(self.read(name))
        data[offset % len(data)] ^= 0xFF
        if name in self._buffer and self._buffer[name] is not None:
            self._buffer[name] = bytes(data)
        else:
            self.files[name] = bytes(data)

    def tamper_truncate_file(self, name: str, keep_bytes: int) -> None:
        """Tear a file mid-blob: keep only its first ``keep_bytes`` bytes."""
        data = self.read(name)
        torn = data[: max(0, keep_bytes)]
        if name in self._buffer and self._buffer[name] is not None:
            self._buffer[name] = torn
        else:
            self.files[name] = torn

    def tamper_truncate_ledger(self, keep_chunks: int) -> None:
        """Roll the ledger back by deleting the newest chunk files."""
        names = sorted(
            self.list_files("ledger_"),
            key=lambda name: int(name.split("_")[1]),
        )
        for name in names[keep_chunks:]:
            self._buffer.pop(name, None)
            self.files.pop(name, None)

    def clone(self) -> "HostStorage":
        """Copy the disk *with full fidelity* — durable image and un-synced
        buffer alike (e.g. an operator imaging a still-powered host). For
        the disk a crash leaves behind, see :meth:`power_loss` /
        :meth:`durable_image`."""
        return HostStorage(
            files=dict(self.files),
            _buffer=dict(self._buffer),
            synced_ledger_seqno=self.synced_ledger_seqno,
        )
