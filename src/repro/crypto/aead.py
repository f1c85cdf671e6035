"""ChaCha20-Poly1305 AEAD (RFC 8439).

This is the reproduction's stand-in for AES256-GCM: the symmetric
authenticated encryption used by the ledger secret to encrypt updates to
private maps (Table 1, section 3.3) and by the indexer's offloaded storage.
The interface — key, nonce, associated data, ciphertext || tag — is the same
as GCM's, so nothing above this layer knows the difference.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.crypto.chacha20 import KEY_SIZE, NONCE_SIZE, chacha20_block, chacha20_xor
from repro.crypto.ct import ct_eq
from repro.crypto.hashing import sha256
from repro.crypto.poly1305 import TAG_SIZE, poly1305_mac
from repro.errors import CryptoError, VerificationError


def _pad16(data: bytes) -> bytes:
    remainder = len(data) % 16
    return b"\x00" * (16 - remainder) if remainder else b""


def _mac_data(aad: bytes, ciphertext: bytes) -> bytes:
    return (
        aad
        + _pad16(aad)
        + ciphertext
        + _pad16(ciphertext)
        + struct.pack("<QQ", len(aad), len(ciphertext))
    )


@dataclass(frozen=True)
class AEADKey:
    """A 256-bit AEAD key with seal/open operations.

    ``seal`` returns ``ciphertext || tag``; ``open`` verifies the tag before
    returning the plaintext and raises :class:`VerificationError` otherwise.
    """

    key: bytes

    def __post_init__(self) -> None:
        if len(self.key) != KEY_SIZE:
            raise CryptoError("AEAD key must be 32 bytes")

    @classmethod
    def generate(cls, seed: bytes) -> "AEADKey":
        """Derive a key deterministically from ``seed``."""
        return cls(bytes(sha256(b"aead-keygen", seed)))

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        if len(nonce) != NONCE_SIZE:
            raise CryptoError("AEAD nonce must be 12 bytes")
        otk = chacha20_block(self.key, 0, nonce)[:32]
        ciphertext = chacha20_xor(self.key, nonce, plaintext)
        tag = poly1305_mac(otk, _mac_data(aad, ciphertext))
        return ciphertext + tag

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        if len(nonce) != NONCE_SIZE:
            raise CryptoError("AEAD nonce must be 12 bytes")
        if len(sealed) < TAG_SIZE:
            raise VerificationError("sealed box shorter than the tag")
        ciphertext, tag = sealed[:-TAG_SIZE], sealed[-TAG_SIZE:]
        otk = chacha20_block(self.key, 0, nonce)[:32]
        expected = poly1305_mac(otk, _mac_data(aad, ciphertext))
        if not ct_eq(tag, expected):
            raise VerificationError("AEAD tag mismatch")
        return chacha20_xor(self.key, nonce, ciphertext)

    def __repr__(self) -> str:  # pragma: no cover - never leak key bytes
        return "AEADKey(<secret>)"


def nonce_from_counter(counter: int, domain: int = 0) -> bytes:
    """Build a 12-byte nonce from a monotonically increasing counter.

    The ledger uses the transaction sequence number as the counter; the
    ``domain`` byte separates nonce spaces (ledger vs indexer vs channels)
    under keys that might otherwise collide.
    """
    if counter < 0 or counter >= 1 << 88:
        raise CryptoError("nonce counter out of range")
    return bytes([domain & 0xFF]) + counter.to_bytes(11, "big")
