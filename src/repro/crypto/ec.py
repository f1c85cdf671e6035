"""NIST P-256 (secp256r1) elliptic-curve arithmetic, from scratch.

This is the curve behind CCF's node and service identities (X.509 / ECDSA in
the real system). Points are represented in Jacobian coordinates internally
for speed; the public API deals in affine ``(x, y)`` pairs and compressed
33-byte encodings.

Scalar multiplication lives in :mod:`repro.crypto.fastec`, built on the
Jacobian formulas here. Nothing is constant-time: the reproduction's threat
model does not include timing side channels on the simulator host.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CryptoError

# Curve parameters for secp256r1 (FIPS 186-4, D.1.2.3).
P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
A = P - 3
B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5

COORD_SIZE = 32
COMPRESSED_SIZE = 1 + COORD_SIZE


@dataclass(frozen=True)
class Point:
    """An affine point on P-256, or the point at infinity (``x is None``)."""

    x: int | None
    y: int | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def encode(self) -> bytes:
        """Compressed SEC1 encoding: ``02|03 || x``.

        Memoized per instance: points are immutable and the same node/user
        keys are re-encoded on every certificate and envelope they appear
        in."""
        cached = self.__dict__.get("_encoded")
        if cached is not None:
            return cached
        if self.x is None or self.y is None:
            raise CryptoError("cannot encode the point at infinity")
        prefix = b"\x03" if self.y & 1 else b"\x02"
        encoded = prefix + self.x.to_bytes(COORD_SIZE, "big")
        object.__setattr__(self, "_encoded", encoded)
        return encoded


INFINITY = Point(None, None)
GENERATOR = Point(GX, GY)


def _inv_mod(value: int, modulus: int) -> int:
    """Modular inverse via Python's built-in extended-gcd pow."""
    return pow(value, -1, modulus)


# Jacobian coordinates: (X, Y, Z) with x = X/Z^2, y = Y/Z^3.
_JPoint = tuple[int, int, int]
_JINF: _JPoint = (0, 1, 0)


def _to_jacobian(point: Point) -> _JPoint:
    if point.x is None or point.y is None:
        return _JINF
    return (point.x, point.y, 1)


def _from_jacobian(jp: _JPoint) -> Point:
    x, y, z = jp
    if z == 0:
        return INFINITY
    z_inv = _inv_mod(z, P)
    z_inv2 = (z_inv * z_inv) % P
    return Point((x * z_inv2) % P, (y * z_inv2 * z_inv) % P)


def _jdouble(jp: _JPoint) -> _JPoint:
    x, y, z = jp
    if z == 0 or y == 0:
        return _JINF
    ysq = (y * y) % P
    s = (4 * x * ysq) % P
    z2 = (z * z) % P
    # m = 3x^2 + a z^4; with a = -3 this factors nicely.
    m = (3 * (x - z2) * (x + z2)) % P
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ysq * ysq) % P
    nz = (2 * y * z) % P
    return (nx, ny, nz)


def _jadd(jp: _JPoint, jq: _JPoint) -> _JPoint:
    x1, y1, z1 = jp
    x2, y2, z2 = jq
    if z1 == 0:
        return jq
    if z2 == 0:
        return jp
    z1sq = (z1 * z1) % P
    z2sq = (z2 * z2) % P
    u1 = (x1 * z2sq) % P
    u2 = (x2 * z1sq) % P
    s1 = (y1 * z2sq * z2) % P
    s2 = (y2 * z1sq * z1) % P
    if u1 == u2:
        if s1 != s2:
            return _JINF
        return _jdouble(jp)
    h = (u2 - u1) % P
    r = (s2 - s1) % P
    hsq = (h * h) % P
    hcu = (hsq * h) % P
    u1hsq = (u1 * hsq) % P
    nx = (r * r - hcu - 2 * u1hsq) % P
    ny = (r * (u1hsq - nx) - s1 * hcu) % P
    nz = (h * z1 * z2) % P
    return (nx, ny, nz)


def is_on_curve(point: Point) -> bool:
    """Check the affine curve equation ``y^2 = x^3 + ax + b`` (mod p)."""
    if point.x is None or point.y is None:
        return True
    x, y = point.x, point.y
    return (y * y - (x * x * x + A * x + B)) % P == 0


# Bounded decode memo: decompressing a point costs a modular square root,
# and the same handful of peer keys arrives on every channel message and
# certificate. Only successful decodes are cached (malformed input must
# fail identically every time). Counters are exported via repro.obs.metrics
# as ``fastpath.decode_point.*``.
_DECODE_MEMO: dict[bytes, Point] = {}
_DECODE_MEMO_MAX = 4096
DECODE_STATS = {"decode_point.hits": 0, "decode_point.misses": 0}


def decode_point(data: bytes) -> Point:
    """Decode a compressed SEC1 point, validating it is on the curve."""
    cached = _DECODE_MEMO.get(data)
    if cached is not None:
        DECODE_STATS["decode_point.hits"] += 1
        return cached
    point = _decode_point_uncached(data)
    DECODE_STATS["decode_point.misses"] += 1
    if len(_DECODE_MEMO) >= _DECODE_MEMO_MAX:
        _DECODE_MEMO.clear()
    _DECODE_MEMO[bytes(data)] = point
    return point


def _decode_point_uncached(data: bytes) -> Point:
    if len(data) != COMPRESSED_SIZE or data[0] not in (2, 3):
        raise CryptoError("malformed compressed point")
    x = int.from_bytes(data[1:], "big")
    if x >= P:
        raise CryptoError("point coordinate out of range")
    # y^2 = x^3 - 3x + b; sqrt via p ≡ 3 (mod 4).
    alpha = (pow(x, 3, P) + A * x + B) % P
    y = pow(alpha, (P + 1) // 4, P)
    if (y * y) % P != alpha:
        raise CryptoError("x coordinate is not on the curve")
    if (y & 1) != (data[0] & 1):
        y = P - y
    point = Point(x, y)
    if not is_on_curve(point):  # defence in depth
        raise CryptoError("decoded point fails curve equation")
    return point
