"""Reference P-256 scalar multiplication and point addition.

Plain double-and-add over :mod:`repro.crypto.ec`'s Jacobian formulas, with
no tables or windows. The fast paths in :mod:`repro.crypto.fastec` must
agree with it point for point.
"""

from repro.crypto.ec import (
    _JINF,
    INFINITY,
    N,
    Point,
    _from_jacobian,
    _jadd,
    _jdouble,
    _to_jacobian,
)


def scalar_mult(k: int, point: Point) -> Point:
    """``k * point`` by double-and-add on Jacobian coordinates."""
    k %= N
    if k == 0 or point.is_infinity:
        return INFINITY
    result = _JINF
    addend = _to_jacobian(point)
    while k:
        if k & 1:
            result = _jadd(result, addend)
        addend = _jdouble(addend)
        k >>= 1
    return _from_jacobian(result)


def point_add(p: Point, q: Point) -> Point:
    """Affine point addition."""
    return _from_jacobian(_jadd(_to_jacobian(p), _to_jacobian(q)))
