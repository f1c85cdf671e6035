"""Canonical serialization of keys, values, and write sets.

The ledger must be byte-identical across nodes (its Merkle root is signed),
so everything that reaches it needs a deterministic encoding. We use a small
canonical binary format (a CBOR-lite): type tag + big-endian length + body,
with map keys sorted by their encoded bytes. Supported types are the
JSON-ish set apps need: ``None``, ``bool``, ``int``, ``str``, ``bytes``,
``list``/``tuple``, and ``dict``.
"""

from __future__ import annotations

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

# Nesting bound for the decoder. Encoded input comes off the wire and off
# disk, so an adversarial blob of nested one-element lists must fail with a
# typed error instead of exhausting the interpreter's recursion stack.
MAX_DECODE_DEPTH = 128


# Length prefixes below this are shared objects instead of a fresh
# ``to_bytes`` per value: nearly every length on the write path (key names,
# 20-character messages, digests, row counts) is small.
_SMALL_LENGTHS = tuple(n.to_bytes(4, "big") for n in range(256))


def _encode_length(value: int) -> bytes:
    if value < 256:
        return _SMALL_LENGTHS[value]
    return value.to_bytes(4, "big")


def encode_value(value: Any) -> bytes:
    """Encode ``value`` into canonical bytes. Raises :class:`KVError` for
    unsupported types so nondeterministic objects never reach the ledger."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def _encode_none(out: bytearray, value: None) -> None:
    out.append(_TAG_NONE)


def _encode_bool(out: bytearray, value: bool) -> None:
    out.append(_TAG_TRUE if value else _TAG_FALSE)


def _encode_int(out: bytearray, value: int) -> None:
    if value >= 0:
        magnitude = value
        out.append(_TAG_INT_POS)
    else:
        magnitude = -value - 1
        out.append(_TAG_INT_NEG)
    body = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
    out += _encode_length(len(body))
    out += body


def _encode_str(out: bytearray, value: str) -> None:
    body = value.encode()
    out.append(_TAG_STR)
    out += _encode_length(len(body))
    out += body


def _encode_bytes(out: bytearray, value: bytes | bytearray) -> None:
    out.append(_TAG_BYTES)
    out += _encode_length(len(value))
    out += value


def _encode_list(out: bytearray, value: list | tuple) -> None:
    out.append(_TAG_LIST)
    out += _encode_length(len(value))
    for item in value:
        _encode_into(out, item)


def _encode_dict(out: bytearray, value: dict) -> None:
    # Canonical form sorts entries by their encoded bytes, so each entry
    # takes scratch buffers; everything else writes straight into ``out``.
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


# Exact type -> encoder. Subclasses (IntEnum, namedtuple, OrderedDict, ...)
# miss here and take the ``isinstance`` ladder in ``_encoder_for_subclass``.
_ENCODERS = {
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_int,
    str: _encode_str,
    bytes: _encode_bytes,
    bytearray: _encode_bytes,
    list: _encode_list,
    tuple: _encode_list,
    dict: _encode_dict,
}


def _encoder_for_subclass(value: Any):
    if isinstance(value, int):  # bool cannot be subclassed
        return _encode_int
    if isinstance(value, str):
        return _encode_str
    if isinstance(value, (bytes, bytearray)):
        return _encode_bytes
    if isinstance(value, (list, tuple)):
        return _encode_list
    if isinstance(value, dict):
        return _encode_dict
    raise KVError(f"cannot serialize {type(value).__name__} values")


def _encode_into(out: bytearray, value: Any) -> None:
    """Append the canonical encoding of ``value`` to ``out``."""
    encoder = _ENCODERS.get(type(value))
    if encoder is None:
        encoder = _encoder_for_subclass(value)
    encoder(out, value)


def encode_dict_from_encoded(pairs: list[tuple[bytes, bytes]]) -> bytes:
    """Assemble a canonical dict encoding from already-encoded
    ``(key bytes, value bytes)`` pairs.

    Byte-identical to ``encode_value`` of the equivalent dict: canonical
    form sorts entries by their encoded bytes, which this reproduces on the
    pre-encoded pairs. This is what lets the store splice *memoized* per-map
    encodings into a snapshot without re-encoding clean maps — the whole
    point of the memo is skipping ``encode_value``, so the enclosing dict
    must be assembled from cached bytes rather than re-walked.
    """
    out = bytearray()
    out.append(_TAG_DICT)
    out += _encode_length(len(pairs))
    for key_bytes, val_bytes in sorted(pairs):
        out += key_bytes
        out += val_bytes
    return bytes(out)


def decode_value(data: bytes) -> Any:
    """Decode canonical bytes back into a value."""
    value, offset = _decode(data, 0, 0)
    if offset != len(data):
        raise KVError("trailing bytes after encoded value")
    return value


def _decode(data: bytes, offset: int, depth: int) -> tuple[Any, int]:
    if depth > MAX_DECODE_DEPTH:
        raise KVError(
            f"encoded value nests deeper than {MAX_DECODE_DEPTH} levels"
        )
    if offset >= len(data):
        raise KVError("truncated encoding")
    tag = data[offset]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag in (_TAG_INT_POS, _TAG_INT_NEG, _TAG_STR, _TAG_BYTES, _TAG_LIST, _TAG_DICT):
        if offset + 4 > len(data):
            raise KVError("truncated length field")
        length = int.from_bytes(data[offset : offset + 4], "big")
        offset += 4
        if tag in (_TAG_INT_POS, _TAG_INT_NEG):
            if offset + length > len(data):
                raise KVError("truncated integer body")
            magnitude = int.from_bytes(data[offset : offset + length], "big")
            offset += length
            return (magnitude if tag == _TAG_INT_POS else -magnitude - 1), offset
        if tag == _TAG_STR:
            if offset + length > len(data):
                raise KVError("truncated string body")
            return data[offset : offset + length].decode(), offset + length
        if tag == _TAG_BYTES:
            if offset + length > len(data):
                raise KVError("truncated bytes body")
            return data[offset : offset + length], offset + length
        if tag == _TAG_LIST:
            items = []
            for _ in range(length):
                item, offset = _decode(data, offset, depth + 1)
                items.append(item)
            return items, offset
        result: dict = {}
        for _ in range(length):
            key, offset = _decode(data, offset, depth + 1)
            value, offset = _decode(data, offset, depth + 1)
            result[_freeze_key(key)] = value
        return result, offset
    raise KVError(f"unknown type tag 0x{tag:02x}")


def canonical_items(mapping: dict) -> list[tuple[Any, Any]]:
    """``mapping``'s items in canonical order: sorted by encoded key, the
    order a dict's entries take on the wire and keep when decoded."""
    if len(mapping) < 2:
        return list(mapping.items())
    return sorted(mapping.items(), key=lambda item: encode_value(item[0]))


def canonical_value(value: Any) -> Any:
    """What ``decode_value(encode_value(value))`` returns, computed without
    the bytes: tuples become lists, ``bytearray`` becomes ``bytes``,
    subclass instances their base type, and dicts are rebuilt in canonical
    order under frozen keys. Raises :class:`KVError` where encoding would.

    The primary uses this to keep the write set it just sealed in exactly
    the shape its backups get by opening the entry."""
    kind = type(value)
    if kind is str or kind is int or kind is bytes or kind is bool or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if isinstance(value, dict):
        return {
            freeze_key(canonical_value(key)): canonical_value(val)
            for key, val in canonical_items(value)
        }
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        return value.encode().decode()
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    raise KVError(f"cannot serialize {type(value).__name__} values")


def freeze_key(key: Any) -> Any:
    """Dict keys must be hashable; lists decode to tuples in key position."""
    if isinstance(key, list):
        return tuple(freeze_key(item) for item in key)
    return key


_freeze_key = freeze_key  # internal alias used by the decoder


def json_safe_key(key: Any) -> str:
    """Render a dict key as a collision-free JSON object key.

    ``str(key)`` conflates distinct keys — ``1`` and ``"1"`` both become
    ``"1"`` and one entry silently vanishes from a ledger excerpt. Non-string
    keys get a type tag instead, and the rare string that *looks* tagged is
    escaped, so the mapping is injective and mechanically reversible.
    """
    if isinstance(key, str):
        if key.startswith("__") and "__:" in key:
            return f"__str__:{key}"
        return key
    if key is None:
        return "__none__:"
    if key is True:
        return "__bool__:true"
    if key is False:
        return "__bool__:false"
    if isinstance(key, int):
        return f"__int__:{key}"
    if isinstance(key, (bytes, bytearray)):
        return f"__bytes__:{bytes(key).hex()}"
    if isinstance(key, tuple):
        return f"__tuple__:{encode_value(list(key)).hex()}"
    raise KVError(f"cannot render {type(key).__name__} dict keys")


def json_safe(value: Any) -> Any:
    """Convert a value into a JSON-serializable shape (bytes become hex
    strings tagged for reversibility). Used for ledger excerpt printing."""
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": bytes(value).hex()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    if isinstance(value, dict):
        return {json_safe_key(key): json_safe(val) for key, val in value.items()}
    return value
