"""Straight-line reference for the ``sha256ctr-hmac`` AEAD suite.

Written from the construction in ``repro.crypto.fastaead``'s docstring with
no caching, forking or tables: every keystream block hashes
``key || nonce || counter`` from scratch and every tag keys a new HMAC. The
production ``FastAEADKey`` must agree with it byte for byte.
"""

import hashlib
import hmac

TAG_SIZE = 16


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    stream = b""
    counter = 0
    while len(stream) < length:
        stream += hashlib.sha256(key + nonce + counter.to_bytes(8, "big")).digest()
        counter += 1
    return stream[:length]


def _tag(key: bytes, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
    mac_key = hashlib.sha256(b"fast-aead-mac" + key).digest()
    message = nonce + len(aad).to_bytes(8, "big") + aad + ciphertext
    return hmac.new(mac_key, message, hashlib.sha256).digest()[:TAG_SIZE]


def seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    stream = _keystream(key, nonce, len(plaintext))
    ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
    return ciphertext + _tag(key, nonce, ciphertext, aad)
