"""ECDSA over P-256 with deterministic nonces (RFC 6979).

Used for every signature in the system: signature transactions over Merkle
roots (section 3.2), receipts (section 3.5), attestation quotes, certificates
(Table 1), and member-signed governance requests (section 5.1).

Deterministic nonces matter twice over here: they remove the classic
nonce-reuse footgun, and they keep the whole simulation reproducible from a
seed (signing never consumes external randomness).
"""

from __future__ import annotations

import hmac
import hashlib
from collections import OrderedDict
from dataclasses import dataclass

from repro.crypto import ec, fastec
from repro.crypto.hashing import sha256
from repro.errors import CryptoError, VerificationError

SIGNATURE_SIZE = 64  # r || s, 32 bytes each

_DECODE_CACHE: dict[bytes, "VerifyingKey"] = {}

# ----------------------------------------------------------------------
# Verification memo: an LRU over successful verifications, keyed by the
# full (public key, message digest, signature) triple. The common protocol
# shape is N followers and auditors re-verifying the *same* signature
# transaction or receipt; verification is a pure function of the triple, so
# collapsing repeats cannot change any outcome. Only successes are stored —
# a forged signature re-runs the full check every time and can never be
# laundered through the cache. (tests/crypto/test_verify_memo.py runs a
# chaos schedule with and without the store and requires identical traces.)
_VERIFY_MEMO: OrderedDict[tuple[bytes, bytes, bytes], None] = OrderedDict()
_VERIFY_MEMO_MAX = 8192

MEMO_STATS = {
    "verify_memo.hits": 0,
    "verify_memo.misses": 0,
    "verify_memo.evictions": 0,
    "pubkey_decode.hits": 0,
    "pubkey_decode.misses": 0,
}


def clear_verify_memo() -> None:
    """Drop all memoized verifications (test and benchmark isolation)."""
    _VERIFY_MEMO.clear()


def _verify_memo_store(key: tuple[bytes, bytes, bytes]) -> None:
    while len(_VERIFY_MEMO) >= _VERIFY_MEMO_MAX:
        _VERIFY_MEMO.popitem(last=False)
        MEMO_STATS["verify_memo.evictions"] += 1
    _VERIFY_MEMO[key] = None


def _rfc6979_nonce(private_scalar: int, msg_hash: bytes) -> int:
    """Derive the per-signature nonce k per RFC 6979 (HMAC-SHA256 DRBG)."""
    holen = 32
    x = private_scalar.to_bytes(32, "big")
    h1 = msg_hash
    v = b"\x01" * holen
    k = b"\x00" * holen
    k = hmac.new(k, v + b"\x00" + x + h1, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + x + h1, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        candidate = int.from_bytes(v, "big")
        if 1 <= candidate < ec.N:
            return candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


@dataclass(frozen=True)
class VerifyingKey:
    """A P-256 public key used to verify ECDSA signatures."""

    point: ec.Point

    def encode(self) -> bytes:
        """Compressed 33-byte encoding of the public point."""
        return self.point.encode()

    @classmethod
    def decode(cls, data: bytes) -> "VerifyingKey":
        """Decode a compressed public key. Memoized: decompression costs a
        modular square root and the same handful of keys (users, nodes,
        members) is decoded on every request. Returning the *same instance*
        also lets the per-point tables in :mod:`repro.crypto.fastec` reuse
        their precomputation across call sites."""
        cached = _DECODE_CACHE.get(data)
        if cached is None:
            MEMO_STATS["pubkey_decode.misses"] += 1
            cached = cls(ec.decode_point(data))
            if len(_DECODE_CACHE) >= 4096:
                _DECODE_CACHE.clear()
            _DECODE_CACHE[data] = cached
        else:
            MEMO_STATS["pubkey_decode.hits"] += 1
        return cached

    def verify(self, signature: bytes, message: bytes) -> None:
        """Verify ``signature`` over ``message``; raise on failure.

        Raising (rather than returning a bool) forces callers to handle
        failure explicitly — a silent falsy check is how verification
        bypasses happen.
        """
        if len(signature) != SIGNATURE_SIZE:
            raise VerificationError("malformed signature length")
        r = int.from_bytes(signature[:32], "big")
        s = int.from_bytes(signature[32:], "big")
        if not (1 <= r < ec.N and 1 <= s < ec.N):
            raise VerificationError("signature scalar out of range")
        digest = bytes(sha256(message))
        memo_key = (self.encode(), digest, signature)
        if memo_key in _VERIFY_MEMO:
            MEMO_STATS["verify_memo.hits"] += 1
            _VERIFY_MEMO.move_to_end(memo_key)
            return
        MEMO_STATS["verify_memo.misses"] += 1
        e = int.from_bytes(digest, "big") % ec.N
        s_inv = pow(s, -1, ec.N)
        u1 = (e * s_inv) % ec.N
        u2 = (r * s_inv) % ec.N
        point = fastec.double_scalar_mult(u1, u2, self.point)
        if point.is_infinity or (point.x % ec.N) != r:
            raise VerificationError("ECDSA signature verification failed")
        _verify_memo_store(memo_key)

    def is_valid(self, signature: bytes, message: bytes) -> bool:
        """Boolean convenience wrapper around :meth:`verify`."""
        try:
            self.verify(signature, message)
        except VerificationError:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VerifyingKey({self.encode().hex()[:16]}…)"


@dataclass(frozen=True)
class SigningKey:
    """A P-256 private key. Lives only inside (simulated) enclave memory."""

    scalar: int

    @classmethod
    def generate(cls, seed: bytes) -> "SigningKey":
        """Deterministically derive a key from ``seed``.

        The simulator derives all key material from the run's master seed so
        that runs are reproducible; the derivation is a hash, so keys are
        still unlinkable without the seed.
        """
        scalar = int.from_bytes(sha256(b"ecdsa-keygen", seed), "big") % ec.N
        if scalar == 0:
            raise CryptoError("degenerate seed produced zero scalar")
        return cls(scalar)

    @property
    def public_key(self) -> VerifyingKey:
        """The matching verifying key. Cached per instance: the point is a
        pure function of the scalar, and call sites re-derive it freely."""
        cached = self.__dict__.get("_public_key")
        if cached is None:
            cached = VerifyingKey(fastec.generator_mult(self.scalar))
            object.__setattr__(self, "_public_key", cached)
        return cached

    def sign(self, message: bytes) -> bytes:
        """Produce a 64-byte ``r || s`` signature over SHA-256(message)."""
        msg_hash = sha256(message)
        e = int.from_bytes(msg_hash, "big") % ec.N
        while True:
            k = _rfc6979_nonce(self.scalar, bytes(msg_hash))
            point = fastec.generator_mult(k)
            if point.x is None:
                raise CryptoError("signing nonce mapped to the point at infinity")
            r = point.x % ec.N
            if r == 0:
                msg_hash = sha256(bytes(msg_hash))  # pragma: no cover
                continue
            s = (pow(k, -1, ec.N) * (e + r * self.scalar)) % ec.N
            if s == 0:
                msg_hash = sha256(bytes(msg_hash))  # pragma: no cover
                continue
            return r.to_bytes(32, "big") + s.to_bytes(32, "big")

    def __repr__(self) -> str:  # pragma: no cover - never leak the scalar
        return "SigningKey(<secret>)"
