"""Ledger secrets: the symmetric keys that encrypt private map updates.

Per Table 1, the ledger secret is shared between all trusted nodes, kept
only in enclave memory, and its *encrypted* form (wrapped by the ledger
secret wrapping key) is recorded in the key-value store so that disaster
recovery can restore it from shares (section 5.2). Secrets are versioned by
*generation* so the service can rekey — every recovery mints a new
generation, and historical entries are opened with the generation recorded
in their framing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.aead import nonce_from_counter
from repro.crypto.fastaead import DEFAULT_SUITE, make_key
from repro.crypto.hashing import sha256
from repro.errors import LedgerError

_LEDGER_DOMAIN = 0x4C  # 'L': nonce domain for ledger entries
_CHUNK_DOMAIN = 0x43  # 'C': nonce domain for content-addressed state chunks


@dataclass(frozen=True)
class LedgerSecret:
    """One generation of the ledger secret."""

    generation: int
    key_bytes: bytes
    suite: str = DEFAULT_SUITE

    @classmethod
    def generate(cls, seed: bytes, generation: int = 0, suite: str = DEFAULT_SUITE) -> "LedgerSecret":
        key_bytes = bytes(sha256(b"ledger-secret", generation.to_bytes(4, "big"), seed))
        return cls(generation=generation, key_bytes=key_bytes, suite=suite)

    def _key(self):
        """The suite's key object for this secret, built once: the key
        object caches its own derived MAC state, which a fresh object per
        operation would throw away."""
        key = self.__dict__.get("_key_cache")
        if key is None:
            key = make_key(self.suite, self.key_bytes)
            object.__setattr__(self, "_key_cache", key)
        return key

    def seal(self, seqno: int, plaintext: bytes, aad: bytes) -> bytes:
        """Encrypt a private write set for the entry at ``seqno``."""
        return self._key().seal(nonce_from_counter(seqno, _LEDGER_DOMAIN), plaintext, aad)

    def open(self, seqno: int, sealed: bytes, aad: bytes) -> bytes:
        return self._key().open(nonce_from_counter(seqno, _LEDGER_DOMAIN), sealed, aad)

    def chunk_nonce(self, content_digest: bytes) -> bytes:
        """SIV-style nonce for a state chunk: domain byte + plaintext digest.

        Content-addressed dedup needs sealing to be a *pure function* of
        (plaintext, generation): a clean map must seal to the same bytes in
        every snapshot so its chunk id is stable and joiners can skip it. A
        counter nonce would break that, and a per-snapshot index would risk
        reusing one nonce for *different* plaintexts across snapshots. Tying
        the nonce to the sha256 of the plaintext makes nonce reuse imply
        identical plaintext (collision resistance), which is safe.
        """
        if len(content_digest) < 11:
            raise LedgerError("chunk nonce needs a full content digest")
        return bytes([_CHUNK_DOMAIN]) + content_digest[:11]

    def seal_chunk(self, content_digest: bytes, plaintext: bytes, aad: bytes) -> bytes:
        """Encrypt one state chunk; deterministic in (plaintext, generation).

        ``content_digest`` must be sha256 of ``plaintext``. The chunk's
        position in a snapshot is deliberately *not* in the AAD — binding an
        index would give the same plaintext different sealed bytes per
        snapshot, destroying dedup. Position binding instead lives in the
        signed manifest, whose digest the snapshot receipt covers.
        """
        return self._key().seal(self.chunk_nonce(content_digest), plaintext, aad)

    def open_chunk(self, content_digest: bytes, sealed: bytes, aad: bytes) -> bytes:
        return self._key().open(self.chunk_nonce(content_digest), sealed, aad)

    def __repr__(self) -> str:  # pragma: no cover - never leak key bytes
        return f"LedgerSecret(generation={self.generation}, <secret>)"


class LedgerSecretStore:
    """All generations of the ledger secret known to this enclave."""

    def __init__(self, initial: LedgerSecret | None = None):
        self._by_generation: dict[int, LedgerSecret] = {}
        if initial is not None:
            self.add(initial)

    def add(self, secret: LedgerSecret) -> None:
        self._by_generation[secret.generation] = secret

    def current(self) -> LedgerSecret:
        if not self._by_generation:
            raise LedgerError("no ledger secret available")
        return self._by_generation[max(self._by_generation)]

    def for_generation(self, generation: int) -> LedgerSecret:
        try:
            return self._by_generation[generation]
        except KeyError:
            raise LedgerError(
                f"no ledger secret for generation {generation}"
            ) from None

    def generations(self) -> list[int]:
        return sorted(self._by_generation)

    def __len__(self) -> int:
        return len(self._by_generation)
