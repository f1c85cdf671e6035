"""Poly1305 one-time authenticator (RFC 8439), from scratch."""

from __future__ import annotations

from repro.errors import CryptoError

TAG_SIZE = 16
KEY_SIZE = 32

_P = (1 << 130) - 5
_R_CLAMP = 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF


def poly1305_mac(key: bytes, message: bytes) -> bytes:
    """Compute the 16-byte Poly1305 tag of ``message`` under ``key``.

    ``key`` is the 32-byte one-time key (r || s); reuse across messages
    breaks the MAC, so callers derive it per-nonce (see :mod:`aead`).
    """
    if len(key) != KEY_SIZE:
        raise CryptoError("Poly1305 key must be 32 bytes")
    r = int.from_bytes(key[:16], "little") & _R_CLAMP
    s = int.from_bytes(key[16:], "little")
    accumulator = 0
    for offset in range(0, len(message), 16):
        block = message[offset : offset + 16]
        n = int.from_bytes(block + b"\x01", "little")
        accumulator = ((accumulator + n) * r) % _P
    accumulator = (accumulator + s) & ((1 << 128) - 1)
    return accumulator.to_bytes(TAG_SIZE, "little")
