"""The pre-dispatch canonical encoder, kept as the differential oracle.

This is the ``is``/``isinstance`` ladder that ``repro.kv.serialization``
shipped before the type-dispatched encoder replaced it. ``src/`` holds one
production encoder; this copy exists only so tests can hold the production
one to the bytes the ladder produced (``tests/kv/test_serialization.py``).
Do not optimize it.
"""

from typing import Any

from repro.errors import KVError

_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT_POS = 0x03
_TAG_INT_NEG = 0x04
_TAG_STR = 0x05
_TAG_BYTES = 0x06
_TAG_LIST = 0x07
_TAG_DICT = 0x08


def _encode_length(value: int) -> bytes:
    return value.to_bytes(4, "big")


def encode_value(value: Any) -> bytes:
    """Encode ``value`` into canonical bytes. Raises :class:`KVError` for
    unsupported types so nondeterministic objects never reach the ledger."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def _encode_into(out: bytearray, value: Any) -> None:
    """Append the canonical encoding of ``value`` to ``out``.

    Scalars and lists write straight into the shared accumulator; only dict
    entries take a per-item scratch buffer, because canonical form sorts
    entries by their encoded bytes before emission.
    """
    if value is None:
        out.append(_TAG_NONE)
        return
    if value is True:
        out.append(_TAG_TRUE)
        return
    if value is False:
        out.append(_TAG_FALSE)
        return
    if isinstance(value, int):
        magnitude = value if value >= 0 else -value - 1
        body = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
        out.append(_TAG_INT_POS if value >= 0 else _TAG_INT_NEG)
        out += _encode_length(len(body))
        out += body
        return
    if isinstance(value, str):
        body = value.encode()
        out.append(_TAG_STR)
        out += _encode_length(len(body))
        out += body
        return
    if isinstance(value, (bytes, bytearray)):
        out.append(_TAG_BYTES)
        out += _encode_length(len(value))
        out += value
        return
    if isinstance(value, (list, tuple)):
        out.append(_TAG_LIST)
        out += _encode_length(len(value))
        for item in value:
            _encode_into(out, item)
        return
    if isinstance(value, dict):
        pairs = []
        for key, val in value.items():
            key_buf = bytearray()
            _encode_into(key_buf, key)
            val_buf = bytearray()
            _encode_into(val_buf, val)
            pairs.append((bytes(key_buf), bytes(val_buf)))
        pairs.sort()
        out.append(_TAG_DICT)
        out += _encode_length(len(pairs))
        for key_bytes, val_bytes in pairs:
            out += key_bytes
            out += val_bytes
        return
    raise KVError(f"cannot serialize {type(value).__name__} values")
