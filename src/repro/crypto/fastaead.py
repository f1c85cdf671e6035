"""A fast AEAD built from SHA-256 (encrypt-then-MAC).

ChaCha20-Poly1305 (:mod:`repro.crypto.aead`) is the reference suite, but a
pure-Python ChaCha20 costs ~250 µs per small message, which dominates the
simulator's wall-clock time when every write transaction is encrypted. This
module provides an AEAD with the exact same interface whose primitives are
the C-accelerated ``hashlib``/``hmac``:

- keystream: ``SHA256(key || nonce || counter)`` blocks (CTR mode over a PRF);
- tag: ``HMAC-SHA256(mac_key, aad_len || aad || ciphertext)`` truncated to 16 B.

This is a standard encrypt-then-MAC composition over a PRF-based stream
cipher — real cryptography, not a mock — chosen purely for simulator
wall-clock speed. The ledger format records which suite sealed each entry,
and both suites are interchangeable via the :class:`AEADCipher` protocol.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from repro.crypto.aead import AEADKey
from repro.crypto.chacha20 import KEY_SIZE, NONCE_SIZE
from repro.crypto.ct import ct_eq
from repro.crypto.hashing import sha256
from repro.errors import CryptoError, VerificationError

TAG_SIZE = 16
_BLOCK = 32  # one SHA-256 output per keystream block

# Big-endian block counters for the first 8 KiB of keystream, which covers
# nearly every message; longer ones encode their counters on the fly.
_COUNTERS = tuple(n.to_bytes(8, "big") for n in range(256))


def _counters(blocks: int):
    if blocks <= len(_COUNTERS):
        return _COUNTERS[:blocks]
    return [n.to_bytes(8, "big") for n in range(blocks)]


@dataclass(frozen=True)
class FastAEADKey:
    """SHA256-CTR + HMAC-SHA256 AEAD; drop-in for :class:`AEADKey`."""

    key: bytes

    def __post_init__(self) -> None:
        if len(self.key) != KEY_SIZE:
            raise CryptoError("AEAD key must be 32 bytes")

    @classmethod
    def generate(cls, seed: bytes) -> "FastAEADKey":
        return cls(bytes(sha256(b"fast-aead-keygen", seed)))

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        # Block i is SHA256(key || nonce || i): the hashed key is built once
        # per key object, forked per nonce, and forked again per counter.
        keyed = self.__dict__.get("_stream_cache")
        if keyed is None:
            keyed = hashlib.sha256(self.key)
            object.__setattr__(self, "_stream_cache", keyed)
        prefix = keyed.copy()
        prefix.update(nonce)
        blocks = []
        for counter in _counters((length + _BLOCK - 1) // _BLOCK):
            h = prefix.copy()
            h.update(counter)
            blocks.append(h.digest())
        return b"".join(blocks)[:length]

    def _mac(self) -> "hmac.HMAC":
        """A fresh HMAC keyed with the MAC key: the keyed state is built
        once per key object and forked per tag."""
        keyed = self.__dict__.get("_mac_cache")
        if keyed is None:
            keyed = hmac.new(
                bytes(sha256(b"fast-aead-mac", self.key)), digestmod=hashlib.sha256
            )
            object.__setattr__(self, "_mac_cache", keyed)
        return keyed.copy()

    def _tag(self, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        mac = self._mac()
        mac.update(nonce)
        mac.update(len(aad).to_bytes(8, "big"))
        mac.update(aad)
        mac.update(ciphertext)
        return mac.digest()[:TAG_SIZE]

    @staticmethod
    def _xor(data: bytes, keystream: bytes) -> bytes:
        # Single big-integer XOR: far faster than per-byte loops in Python.
        return (
            int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")
        ).to_bytes(len(data), "big")

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        if len(nonce) != NONCE_SIZE:
            raise CryptoError("AEAD nonce must be 12 bytes")
        ciphertext = self._xor(plaintext, self._keystream(nonce, len(plaintext)))
        return ciphertext + self._tag(nonce, ciphertext, aad)

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        if len(nonce) != NONCE_SIZE:
            raise CryptoError("AEAD nonce must be 12 bytes")
        if len(sealed) < TAG_SIZE:
            raise VerificationError("sealed box shorter than the tag")
        ciphertext, tag = sealed[:-TAG_SIZE], sealed[-TAG_SIZE:]
        if not ct_eq(tag, self._tag(nonce, ciphertext, aad)):
            raise VerificationError("AEAD tag mismatch")
        return self._xor(ciphertext, self._keystream(nonce, len(ciphertext)))

    def __repr__(self) -> str:  # pragma: no cover - never leak key bytes
        return "FastAEADKey(<secret>)"


# The cipher-suite registry used by the ledger format. Suite ids are recorded
# alongside sealed entries so a recovering node knows how to open them.
SUITES = {
    "chacha20poly1305": AEADKey,
    "sha256ctr-hmac": FastAEADKey,
}
DEFAULT_SUITE = "sha256ctr-hmac"


def make_key(suite: str, key_bytes: bytes):
    """Instantiate the AEAD key class registered for ``suite``."""
    try:
        return SUITES[suite](key_bytes)
    except KeyError:
        raise CryptoError(f"unknown AEAD suite {suite!r}") from None
