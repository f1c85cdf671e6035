"""Incremental state transfer: content-addressed chunked snapshots.

Serializing and sealing the *entire* KV store every ``snapshot_interval``
commits and shipping it to joiners as one blob would be O(full state) on
the primary's critical path. This module makes both sides O(change), in
the spirit of CCF's chunked snapshots and LSM-style content-addressed
state shipping:

- **Delta production**: each map serializes independently into chunks of
  ``~chunk_bytes`` of canonical rows. Persistent (CHAMP) maps make dirty
  detection an O(#maps) object-identity comparison against the previous
  snapshot's map table; clean maps reuse their previous *sealed* chunks
  verbatim, so only dirty state is re-serialized and re-sealed.
- **Content addressing**: a chunk travels as ``content_digest || AEAD(...)``
  and is named by ``chunk_id = sha256(those bytes)``. Sealing is a pure
  function of (plaintext, secret generation) — the nonce derives from the
  plaintext digest (SIV-style, domain 0x43) and the AAD binds generation +
  content digest — so identical map content always yields an identical
  chunk id, which is what lets a joiner skip chunks it already holds.
- **Manifest binding**: which chunk belongs to which map, in which order,
  is recorded in the snapshot metadata ("the manifest"); its digest is the
  receipt claim. Beside the chunk listing the manifest carries the ledger
  prefix in O(log n + views): the Merkle frontier at the base and the
  first seqno of each view (``Ledger.snapshot_metadata``). The chunk's
  position is deliberately *not* in the AAD — binding an index would
  destroy dedup (and risk nonce reuse across differing plaintexts); the
  signed manifest provides the position binding instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.crypto.ct import ct_eq
from repro.crypto.hashing import Digest, sha256
from repro.errors import KVError, VerificationError
from repro.kv.serialization import decode_value, encode_value
from repro.kv.store import KVStore
from repro.ledger.secrets import LedgerSecret, LedgerSecretStore

# v2: the ledger prefix travels as a Merkle frontier plus view starts,
# not as every leaf hash and txid (v1).
CHUNK_FORMAT = "chunked-v2"
_CONTENT_DIGEST_SIZE = 32


def chunk_aad(generation: int, content_digest: bytes) -> bytes:
    """AEAD associated data for one state chunk: domain + generation +
    plaintext digest. Everything here is a pure function of (plaintext,
    generation), keeping sealed bytes — and therefore chunk ids — stable
    across snapshots for unchanged content."""
    return encode_value(
        {
            "domain": "statetransfer.chunk",
            "generation": generation,
            "content": content_digest.hex(),
        }
    )


def seal_state_chunk(secret: LedgerSecret, plaintext: bytes) -> bytes:
    """Seal one chunk; returns ``content_digest || ciphertext || tag``.

    The plaintext digest rides in front so the receiver can derive the
    SIV nonce before decrypting; the AAD re-binds it, so a tampered prefix
    fails authentication.
    """
    content = bytes(sha256(plaintext))
    sealed = secret.seal_chunk(content, plaintext, chunk_aad(secret.generation, content))
    return content + sealed


def open_state_chunk(secret: LedgerSecret, blob: bytes) -> bytes:
    """Verify and decrypt one sealed chunk blob."""
    if len(blob) < _CONTENT_DIGEST_SIZE:
        raise VerificationError("state chunk too short for a content digest")
    content = blob[:_CONTENT_DIGEST_SIZE]
    sealed = blob[_CONTENT_DIGEST_SIZE:]
    plaintext = secret.open_chunk(content, sealed, chunk_aad(secret.generation, content))
    # The AEAD tag already covers the digest via nonce + AAD; re-deriving it
    # from the plaintext is defense in depth against a mis-sealed producer.
    if not ct_eq(bytes(sha256(plaintext)), content):
        raise VerificationError("state chunk content digest mismatch")
    return plaintext


def chunk_id(blob: bytes) -> str:
    """Content address of a sealed chunk: sha256 over the sealed bytes."""
    return bytes(sha256(blob)).hex()


def cached_chunk(storage, cid: str) -> bytes | None:
    """The sealed chunk ``cid`` from the host's content-addressed cache, or
    None when the host holds none — or holds bytes that no longer hash to
    their address (tampered on disk: treated as absent)."""
    blob = storage.read_state_chunk(cid)
    if blob is not None and ct_eq(chunk_id(blob), cid):
        return blob
    return None


def manifest_digest(manifest: bytes) -> Digest:
    """The digest the snapshot receipt claims, over the manifest's
    canonical encoding (``encode_value`` of the metadata, which includes
    the per-map chunk-id listing, so every chunk is transitively covered
    by the receipt)."""
    return sha256(manifest)


@dataclass
class SnapshotBaseline:
    """What delta production remembers about the previous snapshot."""

    table: dict[str, Any]  # map name -> ChampMap at the previous base seqno
    map_chunks: dict[str, list[tuple[str, bytes]]]  # name -> [(id, sealed)]
    generation: int


@dataclass
class BuiltSnapshot:
    """One produced snapshot: manifest metadata + its sealed chunks."""

    metadata: dict
    chunks: dict[str, bytes]  # chunk_id -> sealed bytes, all maps
    map_chunks: dict[str, list[tuple[str, bytes]]]
    stats: dict = field(default_factory=dict)

    def baseline(self, table: dict[str, Any]) -> SnapshotBaseline:
        return SnapshotBaseline(
            table=table,
            map_chunks=self.map_chunks,
            generation=self.metadata["secret_generation"],
        )


def _split_rows(rows: list[list[Any]], chunk_bytes: int) -> list[list[list[Any]]]:
    """Greedy split of canonical rows into groups of ~``chunk_bytes``."""
    groups: list[list[list[Any]]] = []
    current: list[list[Any]] = []
    current_bytes = 0
    for row in rows:
        row_bytes = len(encode_value(row))
        if current and current_bytes + row_bytes > chunk_bytes:
            groups.append(current)
            current = []
            current_bytes = 0
        current.append(row)
        current_bytes += row_bytes
    if current:
        groups.append(current)
    return groups


def build_chunked_snapshot(
    store: KVStore,
    version: int,
    secret: LedgerSecret,
    ledger_metadata: dict,
    *,
    chunk_bytes: int,
    baseline: SnapshotBaseline | None = None,
) -> BuiltSnapshot:
    """Produce a chunked snapshot of ``store`` as of retained ``version``.

    With a ``baseline`` from the previous snapshot, maps whose CHAMP object
    is unchanged reuse their previous sealed chunks outright — no
    serialization, no sealing — so production cost is O(dirty state). A
    generation change (post-recovery rekey) disables reuse: old chunks are
    sealed under a key a future joiner may not be given first.
    """
    table = store.map_table_at(version)
    reusable = (
        baseline is not None and baseline.generation == secret.generation
    )
    changed = (
        store.changed_map_names(version, baseline.table)
        if reusable
        else set(table)
    )
    chunk_listing: list[list[Any]] = []
    chunks: dict[str, bytes] = {}
    map_chunks: dict[str, list[tuple[str, bytes]]] = {}
    chunks_built = 0
    chunks_reused = 0
    entries_serialized = 0
    entries_total = 0
    sealed_bytes = 0
    for name in sorted(table):
        entries_total += len(table[name])
        if reusable and name not in changed and name in baseline.map_chunks:
            sealed_chunks = baseline.map_chunks[name]
            chunks_reused += len(sealed_chunks)
        else:
            rows = KVStore.canonical_map_rows(table[name])
            sealed_chunks = []
            for group in _split_rows(rows, chunk_bytes):
                plaintext = encode_value({"map": name, "rows": group})
                blob = seal_state_chunk(secret, plaintext)
                sealed_chunks.append((chunk_id(blob), blob))
                entries_serialized += len(group)
                chunks_built += 1
        map_chunks[name] = sealed_chunks
        for cid, blob in sealed_chunks:
            chunks[cid] = blob
            sealed_bytes += len(blob)
        chunk_listing.append([name, [cid for cid, _ in sealed_chunks]])
    metadata = dict(ledger_metadata)
    metadata["format"] = CHUNK_FORMAT
    metadata["secret_generation"] = secret.generation
    metadata["chunk_maps"] = chunk_listing
    return BuiltSnapshot(
        metadata=metadata,
        chunks=chunks,
        map_chunks=map_chunks,
        stats={
            "maps_total": len(table),
            "maps_dirty": len([n for n in table if n in changed]),
            "chunks_built": chunks_built,
            "chunks_reused": chunks_reused,
            "entries_serialized": entries_serialized,
            "entries_total": entries_total,
            "sealed_bytes": sealed_bytes,
        },
    )


def _check_format(metadata: dict) -> None:
    """Reject metadata that is not a manifest of this format, an older
    one included, with :class:`KVError`."""
    if metadata.get("format") != CHUNK_FORMAT:
        raise KVError(
            f"not a {CHUNK_FORMAT} snapshot manifest (format {metadata.get('format')!r})"
        )


def manifest_chunk_ids(metadata: dict) -> list[str]:
    """All chunk ids a manifest references, in manifest order, deduplicated."""
    _check_format(metadata)
    seen: list[str] = []
    have = set()
    for _, ids in metadata["chunk_maps"]:
        for cid in ids:
            if cid not in have:
                have.add(cid)
                seen.append(cid)
    return seen


def verify_chunk_blob(cid: str, blob: bytes) -> None:
    """Check a sealed blob against its content address (streaming install
    verifies each chunk as it arrives, before it touches the cache)."""
    if not ct_eq(chunk_id(blob), cid):
        raise VerificationError(f"state chunk {cid[:16]}… fails its content address")


def assemble_store(
    metadata: dict, chunks: dict[str, bytes], secrets: LedgerSecretStore
) -> KVStore:
    """Rebuild the KV store a chunked manifest describes.

    Every chunk is digest-checked against its manifest-listed id, decrypted
    under the generation the manifest names, and bound to the map the
    manifest places it in (the plaintext self-describes its map; a swapped
    chunk fails here even though its seal is valid).
    """
    _check_format(metadata)
    secret = secrets.for_generation(metadata.get("secret_generation", 0))
    maps: dict[str, list[list[Any]]] = {}
    for name, ids in metadata["chunk_maps"]:
        rows: list[list[Any]] = []
        for cid in ids:
            blob = chunks.get(cid)
            if blob is None:
                raise VerificationError(f"state chunk {cid[:16]}… missing at install")
            verify_chunk_blob(cid, blob)
            payload = decode_value(open_state_chunk(secret, blob))
            if not isinstance(payload, dict) or payload.get("map") != name:
                raise VerificationError(
                    f"state chunk {cid[:16]}… is not bound to map {name!r}"
                )
            rows.extend(payload["rows"])
        maps[name] = rows
    return KVStore.from_map_rows(maps, metadata["base_seqno"])
