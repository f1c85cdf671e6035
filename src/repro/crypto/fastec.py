"""Fast-path P-256 scalar multiplication: comb tables and interleaved wNAF.

Plain double-and-add computes ``k * P`` with ~256 doublings plus ~128
additions per multiplication, and ECDSA verification pays for two of those
ladders. Every protocol-visible artifact in the reproduction (signature
transactions over Merkle roots, receipts, channel establishment, attestation
quotes, member-signed governance) bottoms out in scalar multiplication, so
the ladder's cost would dominate host wall-clock.

This module applies the standard fast-path techniques:

- **Fixed-base comb** (:class:`FixedBaseTable`): the scalar is split into
  4-bit windows and ``sum(d_i * 2^(4i) * P)`` is looked up from a table
  precomputed once per base point — ~64 additions and *zero* doublings per
  multiplication. The generator's table is built at import; verification
  promotes hot public keys to their own tables (see below).
- **Interleaved wNAF double-scalar multiplication**
  (:func:`double_scalar_mult`): ``u1*G + u2*Q`` — the shape of ECDSA
  verification — computes the ``G`` half from the comb and the ``Q`` half
  with a width-5 wNAF ladder over precomputed odd multiples of ``Q``.
- **Per-point promotion**: the odd-multiples table for ``Q`` is cached, and
  after :data:`PROMOTE_AFTER` multiplications against the same point a full
  comb table is built for it, eliminating the ladder's 256 doublings too.
  This is the common case in the protocol: followers re-verify one
  primary's signature transactions, auditors replay one node's receipts.

Fast-path discipline (DESIGN.md): the functions here are **bit-identical**
to the reference double-and-add ladder — same affine points, same
encodings — which lives with its differential tests in ``tests/oracles/ec.py``.
Nothing here touches simulated time (`repro.perf.CostModel` charges are
unchanged) or draws randomness; only host wall-clock improves.
"""

from __future__ import annotations

from repro.crypto.ec import (
    _JINF,
    _JPoint,
    _from_jacobian,
    _jadd,
    _jdouble,
    _to_jacobian,
    GENERATOR,
    N,
    P,
    Point,
    INFINITY,
)

# Comb window width: 4 bits -> 64 windows, 15 table entries per window.
COMB_WINDOW = 4
_COMB_WINDOWS = (256 + COMB_WINDOW - 1) // COMB_WINDOW
_COMB_MASK = (1 << COMB_WINDOW) - 1

# wNAF window width for the non-fixed point in double-scalar multiplication:
# odd multiples P, 3P, ..., 15P (8 entries), ~43 additions per 256-bit scalar.
WNAF_WIDTH = 5

# A point graduates from the wNAF odd-multiples table to a full comb table
# after this many multiplications. Building a comb costs roughly five
# fast-path multiplications, so the break-even against repeated ladders
# arrives quickly for any key verified more than a handful of times.
PROMOTE_AFTER = 3

# How many distinct points may hold cached tables at once. A consortium has
# a handful of node/member/user keys; 128 is generous. The cache clears
# wholesale when full (the repo's standard bounded-memo idiom).
POINT_CACHE_MAX = 128

# Cache-behaviour counters, exported via repro.obs.metrics as
# ``fastpath.fastec.*`` (see ObsCollector.export_fastpath_stats).
STATS = {
    "fastec.generator_mults": 0,
    "fastec.wnaf_mults": 0,
    "fastec.double_mults": 0,
    "fastec.point_cache_hits": 0,
    "fastec.point_cache_misses": 0,
    "fastec.comb_promotions": 0,
}


class FixedBaseTable:
    """Precomputed multiples of one base point for comb multiplication.

    ``table[i][j-1] = j * 2^(COMB_WINDOW * i) * base`` for ``j`` in
    ``1 .. 2^COMB_WINDOW - 1``, built from the reference Jacobian
    primitives so every looked-up point is exactly what the ladder would
    have produced.
    """

    __slots__ = ("base", "_rows")

    def __init__(self, base: Point):
        self.base = base
        rows: list[list[_JPoint]] = []
        running = _to_jacobian(base)
        for _ in range(_COMB_WINDOWS):
            row = [running]
            for _ in range(2, 1 << COMB_WINDOW):
                row.append(_jadd(row[-1], running))
            rows.append(row)
            for _ in range(COMB_WINDOW):
                running = _jdouble(running)
        self._rows = rows

    def mult_jacobian(self, k: int) -> _JPoint:
        """``k * base`` in Jacobian coordinates; ``k`` already reduced."""
        acc = _JINF
        rows = self._rows
        i = 0
        while k:
            digit = k & _COMB_MASK
            if digit:
                acc = _jadd(acc, rows[i][digit - 1])
            k >>= COMB_WINDOW
            i += 1
        return acc

    def mult(self, k: int) -> Point:
        """``(k mod N) * base`` as an affine point."""
        k %= N
        if k == 0 or self.base.is_infinity:
            return INFINITY
        return _from_jacobian(self.mult_jacobian(k))


_GENERATOR_TABLE = FixedBaseTable(GENERATOR)


def generator_mult(k: int) -> Point:
    """``k * G`` via the precomputed generator comb (signing, keygen)."""
    STATS["fastec.generator_mults"] += 1
    return _GENERATOR_TABLE.mult(k)


# ----------------------------------------------------------------------
# wNAF: width-w non-adjacent form with precomputed odd multiples.


def _wnaf_digits(k: int, width: int) -> list[int]:
    """Signed digits of ``k``: each nonzero digit is odd and |d| < 2^(w-1),
    with at least ``width - 1`` zeros between nonzero digits."""
    digits: list[int] = []
    window = 1 << width
    half = window >> 1
    while k:
        if k & 1:
            digit = k & (window - 1)
            if digit >= half:
                digit -= window
            k -= digit
        else:
            digit = 0
        digits.append(digit)
        k >>= 1
    return digits


def _odd_multiples(jp: _JPoint, width: int) -> list[_JPoint]:
    """``[P, 3P, 5P, ..., (2^(w-1) - 1) P]`` in Jacobian coordinates."""
    multiples = [jp]
    double = _jdouble(jp)
    for _ in range((1 << (width - 2)) - 1):
        multiples.append(_jadd(multiples[-1], double))
    return multiples


def _jneg(jp: _JPoint) -> _JPoint:
    x, y, z = jp
    return (x, (P - y) % P, z)


def _wnaf_ladder(k: int, odd: list[_JPoint]) -> _JPoint:
    """``k * P`` where ``odd`` holds the precomputed odd multiples of P."""
    acc = _JINF
    for digit in reversed(_wnaf_digits(k, WNAF_WIDTH)):
        acc = _jdouble(acc)
        if digit > 0:
            acc = _jadd(acc, odd[digit >> 1])
        elif digit < 0:
            acc = _jadd(acc, _jneg(odd[(-digit) >> 1]))
    return acc


# ----------------------------------------------------------------------
# Per-point table cache (verification against a hot public key).


class _PointTables:
    """Cached precomputation for one non-generator point: the cheap wNAF
    odd-multiples table immediately, a full comb once the point proves hot."""

    __slots__ = ("odd", "comb", "uses")

    def __init__(self, point: Point):
        self.odd = _odd_multiples(_to_jacobian(point), WNAF_WIDTH)
        self.comb: FixedBaseTable | None = None
        self.uses = 0

    def mult_jacobian(self, point: Point, k: int) -> _JPoint:
        self.uses += 1
        if self.comb is None and self.uses > PROMOTE_AFTER:
            self.comb = FixedBaseTable(point)
            STATS["fastec.comb_promotions"] += 1
        if self.comb is not None:
            return self.comb.mult_jacobian(k)
        return _wnaf_ladder(k, self.odd)


_POINT_TABLES: dict[tuple[int, int], _PointTables] = {}


def _tables_for(point: Point) -> _PointTables:
    key = (point.x, point.y)
    tables = _POINT_TABLES.get(key)
    if tables is None:
        STATS["fastec.point_cache_misses"] += 1
        if len(_POINT_TABLES) >= POINT_CACHE_MAX:
            _POINT_TABLES.clear()
        tables = _PointTables(point)
        _POINT_TABLES[key] = tables
    else:
        STATS["fastec.point_cache_hits"] += 1
    return tables


def wnaf_mult(k: int, point: Point) -> Point:
    """``k * point`` for an arbitrary point, via the cached wNAF/comb
    tables. Bit-identical to the double-and-add ladder in ``tests/oracles/ec.py``."""
    STATS["fastec.wnaf_mults"] += 1
    k %= N
    if k == 0 or point.is_infinity:
        return INFINITY
    return _from_jacobian(_tables_for(point).mult_jacobian(point, k))


def double_scalar_mult(u1: int, u2: int, point: Point) -> Point:
    """``u1 * G + u2 * point`` — the ECDSA verification shape.

    The generator half comes from the import-time comb (no doublings); the
    ``point`` half uses the per-point cache, so repeated verifications
    against the same key run entirely on table lookups.
    """
    STATS["fastec.double_mults"] += 1
    u1 %= N
    u2 %= N
    acc_g = _GENERATOR_TABLE.mult_jacobian(u1) if u1 else _JINF
    if u2 == 0 or point.is_infinity:
        return _from_jacobian(acc_g)
    acc_q = _tables_for(point).mult_jacobian(point, u2)
    return _from_jacobian(_jadd(acc_g, acc_q))


def reset_stats() -> None:
    """Zero the counters (benchmark and test isolation)."""
    for key in STATS:
        STATS[key] = 0


def clear_point_cache() -> None:
    """Drop all cached per-point tables (test isolation)."""
    _POINT_TABLES.clear()
