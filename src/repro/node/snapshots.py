"""Snapshots on the primary (section 4.4): produce one every
``snapshot_interval`` commits, wait for its evidence transaction to commit
under a signature, then serve it — manifest and receipt in the join
response, the sealed chunks the joiner lacks pushed right behind it.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Collection
from dataclasses import dataclass

from repro.kv.serialization import encode_value
from repro.kv.tx import WriteSet
from repro.ledger import statetransfer
from repro.ledger.receipts import issue_receipt
from repro.node import join, maps
from repro.node.wire import StateChunkResponse
from repro.perf.costmodel import state_transfer_cost

# A snapshot chunk holds about this many bytes of canonical rows.
SNAPSHOT_CHUNK_BYTES = 16384


@dataclass(frozen=True)
class Snapshot:
    """A produced snapshot. It is pending (``receipt`` None) until its
    evidence entry commits under a signature; with the receipt it is what
    a joiner is served."""

    metadata: dict  # the manifest
    manifest: bytes  # its canonical encoding: digested, stored, and sized for a join
    chunks: dict[str, bytes]  # sealed, by content address
    # Next delta builds against this snapshot's table + chunks.
    baseline: statetransfer.SnapshotBaseline
    evidence_seqno: int
    claims: dict
    receipt: dict | None = None


class Snapshots:
    """``latest`` is the package joiners are served (None until the first
    snapshot finalizes)."""

    def __init__(self, node) -> None:
        self.node = node  # the hosting CCFNode
        self.latest: Snapshot | None = None
        self._last_seqno = 0
        self._pending: Snapshot | None = None

    def on_commit(self, commit_seqno: int) -> None:
        self._produce_if_due(commit_seqno)
        self._finalize_if_ready()

    def on_truncate(self, seqno: int) -> None:
        pending = self._pending
        if pending is not None and pending.evidence_seqno > seqno:
            # Its evidence entry rolled back with the suffix; whatever
            # commits at that seqno now is another primary's entry and
            # must not be receipted with this snapshot's claims.
            self._pending = None

    def _produce_if_due(self, commit_seqno: int) -> None:
        node = self.node
        interval = node.config.snapshot_interval
        if not interval or not node.consensus.is_primary:
            return
        if commit_seqno - self._last_seqno < interval:
            return
        self._last_seqno = commit_seqno
        metadata = node.ledger.snapshot_metadata(commit_seqno)
        # Store state includes private-map plaintext, so every chunk is
        # sealed under the current ledger secret before it can touch host
        # storage or the join path. Only maps that changed since the
        # previous snapshot are serialized and sealed; clean maps reuse
        # their previous sealed chunks (same content ⇒ same chunk id). The
        # receipt claim digests the manifest, which lists every chunk id,
        # so all chunks are transitively receipt-covered and integrity is
        # verifiable without decrypting.
        secret = node.ledger.secrets.current()
        built = statetransfer.build_chunked_snapshot(
            node.store,
            commit_seqno,
            secret,
            metadata,
            chunk_bytes=SNAPSHOT_CHUNK_BYTES,
            # The previous snapshot's map table + sealed chunks, so clean
            # maps reuse their chunks.
            baseline=self.latest.baseline if self.latest is not None else None,
        )
        manifest = encode_value(built.metadata)
        digest = bytes(statetransfer.manifest_digest(manifest))
        obs = node.scheduler.obs
        if obs is not None:
            obs.snapshot_produced(node.node_id, commit_seqno, built.stats)
        # Snapshot evidence transaction (validated by receipt, section 4.4).
        write_set = WriteSet()
        write_set.put(
            maps.SNAPSHOT_EVIDENCE,
            commit_seqno,
            {"digest": digest.hex(), "seqno": commit_seqno},
        )
        claims = {"snapshot_digest": digest.hex()}
        entry = node.append_local_entry(write_set, claims=claims)
        self._pending = Snapshot(
            metadata=built.metadata,
            manifest=manifest,
            chunks=built.chunks,
            baseline=built.baseline(node.store.map_table_at(commit_seqno)),
            evidence_seqno=entry.txid.seqno,
            claims=claims,
        )
        node.request_signature(immediate=True)

    def _finalize_if_ready(self) -> None:
        pending = self._pending
        if pending is None:
            return
        node = self.node
        if node.consensus.commit_seqno < pending.evidence_seqno:
            return
        if node.ledger.next_signature_seqno(pending.evidence_seqno) is None:
            return
        receipt = issue_receipt(
            node.ledger,
            pending.evidence_seqno,
            node.node_certificate,
            claims=pending.claims,
        )
        self.latest = dataclasses.replace(pending, receipt=receipt.to_dict())
        # Persist the chunk set (content-addressed, so re-writing a reused
        # chunk is skipped) and prune chunks no manifest we still serve
        # references; the manifest file makes the snapshot reconstructable
        # from disk alone.
        storage = node.storage
        for chunk_id, blob in pending.chunks.items():
            if storage.read_state_chunk(chunk_id) is None:
                storage.write_state_chunk(chunk_id, blob)
        storage.prune_state_chunks(set(pending.chunks))
        for name in storage.list_files("manifest_"):
            storage.delete(name, sync=False)
        storage.write(
            f"manifest_{pending.metadata['base_seqno']}.bin",
            pending.manifest,
            sync=True,
        )
        self._pending = None

    def push(self, joiner: str, held_chunks: Collection[str]) -> bool:
        """Push an admitted ``joiner`` every chunk of the latest snapshot
        that ``held_chunks`` does not list, as back-to-back responses of
        ``JOIN_CHUNK_BATCH`` chunks on the ordered stream right behind its
        JoinResponse. The response and the chunks share that link: the
        k-th chunk response is charged the manifest's bytes plus those of
        responses 1..k, so the last arrives when one message carrying
        everything would. ``held_chunks`` is the joiner's untrusted claim:
        it decides what is sent, never what is accepted, since the joiner
        checks every chunk against its content address and the manifest.

        Manifest ids this node cannot produce are reported as ``missing``
        in the first response, so the joiner falls back instead of
        stalling. Returns whether every chunk was available."""
        node = self.node
        snapshot = self.latest
        held = set(held_chunks)
        found: list[tuple[str, bytes]] = []
        missing: list[str] = []
        # This node's own manifest, in manifest order; its format is the
        # joiner's to check, before it stores any chunk.
        listed = (cid for _, ids in snapshot.metadata["chunk_maps"] for cid in ids)
        for chunk_id in dict.fromkeys(listed):
            if chunk_id in held:
                continue
            blob = snapshot.chunks.get(chunk_id)
            if blob is None:
                missing.append(chunk_id)
            else:
                found.append((chunk_id, blob))
        obs = node.scheduler.obs
        if obs is not None:
            obs.state_transfer_event(
                node.node_id,
                "chunks_served",
                joiner=joiner,
                served=len(found),
                missing=len(missing),
                bytes=sum(len(blob) for _, blob in found),
            )
        batch = join.JOIN_CHUNK_BATCH
        responses = [tuple(found[i:i + batch]) for i in range(0, len(found), batch)]
        if missing and not responses:
            responses.append(())
        sent_bytes = len(snapshot.manifest)
        for k, chunks in enumerate(responses):
            sent_bytes += sum(len(blob) for _, blob in chunks)
            node.network.send(
                node.node_id,
                joiner,
                StateChunkResponse(
                    base_seqno=snapshot.metadata["base_seqno"],
                    chunks=chunks,
                    missing=tuple(missing) if k == 0 else (),
                ),
                extra_delay=state_transfer_cost(sent_bytes),
                ordered=True,
            )
        return not missing
